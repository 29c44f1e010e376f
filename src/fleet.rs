//! Multi-city fleet: every pilot's calendar mounted in one sharded event
//! space, dispatched slice by slice.
//!
//! A [`Fleet`] takes ownership of a set of [`Pipeline`]s and moves their
//! pending events into a [`ShardedEventQueue`], each city keyed onto a
//! shard by FNV of its slug (the `ShardedTsdb` discipline). The run loop
//! pops *time slices* — all events at the next instant, grouped by shard —
//! and dispatches the groups; because same-slice groups touch disjoint
//! shards (and therefore disjoint cities), they may run on the
//! `OrderedPool` worker pool in parallel, with outcomes merged back in
//! shard-index order. Follow-up events each dispatch files are routed back
//! into the owning shard at the merge stage, and cross-shard events (fleet
//! rollups) run at the slice barrier after every shard-local event.
//!
//! # Why this is byte-identical to sequential dispatch
//!
//! * Within a shard, events dispatch in the shard's `(time, priority,
//!   seq)` order — and a city's events keep their relative order through
//!   mount and follow-up routing, so each city sees exactly the dispatch
//!   sequence its solo `run_until` would produce.
//! * Between shards at one instant, order is fixed by shard index — never
//!   by worker scheduling. Cities on different shards share no state, so
//!   even that order is observable only in fleet-level aggregates.
//! * Follow-ups are filed at the merge stage in (shard, city-index,
//!   drain) order by the caller thread, so the per-shard seq assignment is
//!   a pure function of the schedule history, independent of worker
//!   timing. The `fleet_identity` proptest pins all of this byte-for-byte.
//!
//! The run boundary uses the same rule as [`Pipeline::run_until`] (ticks
//! and radio deadlines landing exactly on `end` belong to this run), so
//! run-splitting is invariant through the sharded path too.

use crate::parallel::{worker_width, OrderedPool};
use crate::pipeline::{Pipeline, SimEvent, PRIO_RADIO, PRIO_TICK};
use ctt_core::time::{Span, Timestamp};
use ctt_dataport::TwinState;
use ctt_obs::{Registry, Snapshot};
use ctt_sim::{EventKey, ShardedEventQueue, SimClock, TimeSlice};

/// Default shard count for the fleet event space — mirrors the TSDB's
/// `DEFAULT_SHARDS`, so a four-city pilot set spreads one city per shard.
pub const DEFAULT_FLEET_SHARDS: usize = 4;

/// How a [`Fleet`] partitions and dispatches its event space.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Shard count (clamped to at least 1). Cities hash onto shards by
    /// FNV-1a of their slug.
    pub shards: usize,
    /// Dispatch same-slice groups on the worker pool. Off means the same
    /// groups run on the caller thread in the same shard-index order —
    /// the byte-identity reference mode.
    pub parallel: bool,
    /// Cadence of the cross-shard fleet rollup event (`None` disables).
    pub rollup_cadence: Option<Span>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: DEFAULT_FLEET_SHARDS,
            parallel: true,
            rollup_cadence: Some(Span::hours(1)),
        }
    }
}

/// One scheduled unit in the fleet's event space.
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    /// A city-local pipeline event, owned by the city's shard.
    City {
        /// Index into the fleet's city vector.
        city: u32,
        /// The pipeline event to dispatch.
        ev: SimEvent,
    },
    /// Cross-shard rollup: aggregates fleet-wide health at the slice
    /// barrier, after every shard-local event of its instant.
    Rollup,
}

/// The unit of parallel work: one shard's event group for one slice, plus
/// the (distinct) cities those events belong to, moved in and out of the
/// fleet around the dispatch.
struct ShardJob {
    shard: usize,
    events: Vec<(EventKey, u32, SimEvent)>,
    /// The involved cities in ascending fleet index, taken from the fleet.
    cities: Vec<(u32, Pipeline)>,
    /// Follow-up events drained after dispatch, in (city, drain) order.
    followups: Vec<(u32, EventKey, SimEvent)>,
}

impl std::fmt::Debug for ShardJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardJob")
            .field("shard", &self.shard)
            .field("events", &self.events.len())
            .field("cities", &self.cities.len())
            .finish()
    }
}

/// Dispatch one shard group: the pure function run on the worker pool (or
/// inline in sequential mode — identical code either way, which is the
/// byte-identity argument made mechanical). Events run in the shard's
/// dispatch order; afterwards each involved city's follow-ups are drained
/// in ascending city order.
fn run_shard_job(mut job: ShardJob) -> ShardJob {
    let events = std::mem::take(&mut job.events);
    for (key, city, ev) in events {
        if let Some((_, p)) = job.cities.iter_mut().find(|(c, _)| *c == city) {
            p.dispatch_sliced(key, ev);
        }
    }
    for (city, p) in &mut job.cities {
        for (key, ev) in p.drain_followups() {
            job.followups.push((*city, key, ev));
        }
    }
    job
}

/// A set of city pipelines driven by one sharded event space. See the
/// module docs for the dispatch protocol and determinism argument.
#[derive(Debug)]
pub struct Fleet {
    /// `Some` except transiently while a city is out on a shard job.
    cities: Vec<Option<Pipeline>>,
    /// Shard owning each city (FNV of the city slug).
    city_shard: Vec<usize>,
    space: ShardedEventQueue<FleetEvent>,
    config: FleetConfig,
    /// Worker pool for parallel slice dispatch, spawned on first use.
    pool: Option<OrderedPool<ShardJob, ShardJob>>,
    /// Fleet time: the frontier of dispatched slices.
    clock: SimClock,
    /// Fleet-level gauges the rollup event maintains.
    registry: Registry,
}

impl Fleet {
    /// A fleet with the default configuration.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        Fleet::with_config(pipelines, FleetConfig::default())
    }

    /// A fleet with an explicit [`FleetConfig`]. Every pipeline's pending
    /// calendar is mounted into the sharded space, preserving per-city
    /// dispatch order.
    pub fn with_config(pipelines: Vec<Pipeline>, config: FleetConfig) -> Self {
        let mut space = ShardedEventQueue::new(config.shards);
        let mut cities: Vec<Option<Pipeline>> = Vec::with_capacity(pipelines.len());
        let mut city_shard = Vec::with_capacity(pipelines.len());
        let mut start: Option<Timestamp> = None;
        for (idx, mut p) in pipelines.into_iter().enumerate() {
            let shard = space.shard_of(p.city_slug());
            for (key, ev) in p.unmount_events() {
                space.schedule(
                    shard,
                    key.time,
                    key.priority,
                    FleetEvent::City {
                        city: idx as u32,
                        ev,
                    },
                );
            }
            start = Some(start.map_or(p.now(), |s: Timestamp| s.min(p.now())));
            city_shard.push(shard);
            cities.push(Some(p));
        }
        let clock = SimClock::new(start.unwrap_or(Timestamp(0)));
        if let Some(cadence) = config.rollup_cadence {
            space.schedule_cross(clock.now() + cadence, PRIO_TICK, FleetEvent::Rollup);
        }
        Fleet {
            cities,
            city_shard,
            space,
            config,
            pool: None,
            clock,
            registry: Registry::new(),
        }
    }

    /// Number of cities in the fleet.
    pub fn len(&self) -> usize {
        self.cities.len()
    }

    /// Whether the fleet has no cities.
    pub fn is_empty(&self) -> bool {
        self.cities.is_empty()
    }

    /// Fleet time (the frontier of dispatched slices).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The city at fleet index `idx`.
    pub fn city(&self, idx: usize) -> Option<&Pipeline> {
        self.cities.get(idx).and_then(Option::as_ref)
    }

    /// The cities in fleet order.
    pub fn cities(&self) -> impl Iterator<Item = &Pipeline> {
        self.cities.iter().filter_map(Option::as_ref)
    }

    /// Advance every city until `end` by dispatching time slices from the
    /// sharded space, then settle each city's open radio windows (the same
    /// end-of-segment pass the solo runner makes, per city in fleet
    /// order). Uses the solo boundary rule, so splitting a run at any
    /// point replays identically.
    pub fn run_until(&mut self, end: Timestamp) {
        while let Some(slice) = self.space.pop_slice_until(end, PRIO_RADIO) {
            self.clock.advance(slice.time);
            self.dispatch_slice(slice);
        }
        for idx in 0..self.cities.len() {
            if let Some(p) = self.cities.get_mut(idx).and_then(Option::as_mut) {
                p.finish_segment(end);
            }
            self.mount_followups(idx);
        }
        self.clock.advance(end);
    }

    /// Dispatch one slice: shard groups first (parallel when configured,
    /// merged in shard-index order), then the cross lane at the barrier.
    fn dispatch_slice(&mut self, slice: TimeSlice<FleetEvent>) {
        let time = slice.time;
        // Partition the shard groups into jobs and move each involved
        // city out of the fleet and into its (single) job.
        let mut jobs: Vec<ShardJob> = Vec::with_capacity(slice.shards.len());
        for (shard, group) in slice.shards {
            let mut events = Vec::with_capacity(group.len());
            for (key, fe) in group {
                if let FleetEvent::City { city, ev } = fe {
                    events.push((key, city, ev));
                }
            }
            if events.is_empty() {
                continue;
            }
            let mut involved: Vec<u32> = events.iter().map(|&(_, c, _)| c).collect();
            involved.sort_unstable();
            involved.dedup();
            let mut cities = Vec::with_capacity(involved.len());
            for c in involved {
                if let Some(p) = self.cities.get_mut(c as usize).and_then(Option::take) {
                    cities.push((c, p));
                }
            }
            jobs.push(ShardJob {
                shard,
                events,
                cities,
                followups: Vec::new(),
            });
        }
        // Disjoint shards → disjoint cities: the groups may race freely.
        // The pool merges results back into submission (= shard) order,
        // and sequential mode runs the identical function in the identical
        // order, so the two modes are byte-equivalent.
        let done: Vec<ShardJob> = if self.config.parallel && jobs.len() > 1 {
            let pool = self
                .pool
                .take()
                .unwrap_or_else(|| OrderedPool::new(worker_width(2, 8), run_shard_job));
            let done = pool.map(jobs);
            self.pool = Some(pool);
            done
        } else {
            jobs.into_iter().map(run_shard_job).collect()
        };
        // Merge stage: restore cities, then file follow-ups back into the
        // owning shard in (shard, city, drain) order — all on this thread,
        // so per-shard seq assignment is schedule-history-pure.
        for job in done {
            for (c, p) in job.cities {
                if let Some(slot) = self.cities.get_mut(c as usize) {
                    *slot = Some(p);
                }
            }
            for (c, key, ev) in job.followups {
                self.space.schedule(
                    job.shard,
                    key.time,
                    key.priority,
                    FleetEvent::City { city: c, ev },
                );
            }
        }
        // Cross lane at the barrier: after every shard-local event of the
        // slice, in the lane's own dispatch order.
        for (_key, fe) in slice.cross {
            if let FleetEvent::Rollup = fe {
                self.rollup(time);
            }
        }
    }

    /// Route a city's pending private-calendar events (filed outside
    /// slice dispatch, e.g. by `finish_segment`) into its shard.
    fn mount_followups(&mut self, idx: usize) {
        let followups = match self.cities.get_mut(idx).and_then(Option::as_mut) {
            Some(p) => p.drain_followups(),
            None => return,
        };
        let shard = self.city_shard.get(idx).copied().unwrap_or(0);
        for (key, ev) in followups {
            self.space.schedule(
                shard,
                key.time,
                key.priority,
                FleetEvent::City {
                    city: idx as u32,
                    ev,
                },
            );
        }
    }

    /// The cross-shard rollup: fold per-city health into fleet gauges and
    /// reschedule at the configured cadence. Reads every city (that is
    /// what makes it cross-shard); runs only at the slice barrier.
    fn rollup(&mut self, now: Timestamp) {
        let mut readings = 0u64;
        let mut stored = 0u64;
        let mut online = 0i64;
        let mut alarms = 0i64;
        for p in self.cities.iter().filter_map(Option::as_ref) {
            let st = p.stats();
            readings += st.readings;
            stored += st.points_stored;
            let snap = p.dataport.snapshot(now);
            online += snap
                .sensors
                .iter()
                .filter(|s| s.state == TwinState::Online)
                .count() as i64;
            alarms += p.dataport.active_alarms().len() as i64;
        }
        self.registry.gauge("fleet.readings").set(readings as i64);
        self.registry
            .gauge("fleet.points_stored")
            .set(stored as i64);
        self.registry.gauge("fleet.sensors_online").set(online);
        self.registry.gauge("fleet.active_alarms").set(alarms);
        if let Some(cadence) = self.config.rollup_cadence {
            self.space
                .schedule_cross(now + cadence, PRIO_TICK, FleetEvent::Rollup);
        }
    }

    /// Fleet-level metrics: the rollup gauges plus the sharded space's
    /// dispatch profile (`sim.shard<i>.dispatched`, `sim.cross_shard_events`,
    /// the slice-width histogram). Byte-identical across replays of the
    /// same fleet configuration.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot(self.clock.now());
        snap.push_gauge("fleet.cities", self.cities.len() as i64);
        self.space.publish(&mut snap);
        snap
    }

    /// Canonical rendering of the space's dispatch profile: per-shard
    /// dispatch counts, cross-lane count, and the slice-width histogram
    /// with percentile estimates. Byte-identical across replays.
    pub fn scheduling_profile(&self) -> String {
        self.space.render_profile()
    }

    /// Dissolve the fleet back into its pipelines (fleet order): every
    /// city's still-pending events are unmounted from the space and filed
    /// back into its private calendar, so a returned pipeline's solo
    /// `run_until` continues exactly where the fleet stopped. Cross-lane
    /// events (fleet rollups) belong to the fleet, not any city, and are
    /// dropped.
    pub fn into_pipelines(mut self) -> Vec<Pipeline> {
        let mut per_city: Vec<Vec<(EventKey, SimEvent)>> =
            (0..self.cities.len()).map(|_| Vec::new()).collect();
        for (_shard, events) in self.space.drain_shards() {
            for (key, fe) in events {
                if let FleetEvent::City { city, ev } = fe {
                    if let Some(bucket) = per_city.get_mut(city as usize) {
                        bucket.push((key, ev));
                    }
                }
            }
        }
        let _ = self.space.drain_cross();
        let mut out = Vec::with_capacity(self.cities.len());
        for (idx, slot) in self.cities.iter_mut().enumerate() {
            let Some(mut p) = slot.take() else { continue };
            if let Some(bucket) = per_city.get_mut(idx) {
                for (key, ev) in bucket.drain(..) {
                    p.remount_event(key.time, key.priority, ev);
                }
            }
            out.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::deployment::Deployment;

    fn observables(p: &Pipeline) -> (String, String, crate::pipeline::PipelineStats, u64) {
        (
            p.ledger().render(),
            p.alarm_trace(),
            p.stats(),
            p.tsdb.stats().points,
        )
    }

    #[test]
    fn fleet_matches_solo_pipelines() {
        let build = || {
            vec![
                Pipeline::new(Deployment::vejle(), 7),
                Pipeline::new(Deployment::trondheim(), 7),
            ]
        };
        let end = Deployment::vejle().started + Span::hours(3);
        let mut solo = build();
        for p in &mut solo {
            p.run_until(end);
        }
        let mut fleet = Fleet::new(build());
        fleet.run_until(end);
        let back = fleet.into_pipelines();
        assert_eq!(back.len(), solo.len());
        for (f, s) in back.iter().zip(solo.iter()) {
            assert_eq!(observables(f), observables(s), "{}", f.deployment.city);
        }
    }

    #[test]
    fn into_pipelines_resumes_solo_exactly() {
        let end_a = Deployment::vejle().started + Span::hours(1);
        let end_b = Deployment::vejle().started + Span::hours(2);
        // Fleet for the first hour, solo for the second...
        let mut fleet = Fleet::new(vec![Pipeline::new(Deployment::vejle(), 42)]);
        fleet.run_until(end_a);
        let mut resumed = fleet.into_pipelines();
        for p in &mut resumed {
            p.run_until(end_b);
        }
        // ...must equal solo all the way.
        let mut solo = Pipeline::new(Deployment::vejle(), 42);
        solo.run_until(end_b);
        let r = resumed.first().expect("one city");
        assert_eq!(observables(r), observables(&solo));
    }

    #[test]
    fn rollup_maintains_fleet_gauges() {
        let mut fleet = Fleet::new(vec![
            Pipeline::new(Deployment::vejle(), 1),
            Pipeline::new(Deployment::trondheim(), 1),
        ]);
        fleet.run_until(Deployment::vejle().started + Span::hours(2));
        let snap = fleet.metrics_snapshot();
        assert_eq!(snap.value("fleet.cities"), Some(2));
        assert_eq!(snap.value("fleet.sensors_online"), Some(14));
        assert!(snap.value("fleet.readings").unwrap_or(0) > 0);
        assert!(snap.value("sim.cross_shard_events").unwrap_or(0) >= 2);
        let profile = fleet.scheduling_profile();
        assert!(profile.contains("slice_width"), "{profile}");
    }
}
