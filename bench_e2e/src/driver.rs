//! The stage driver: `ctt::Pipeline`'s data path re-composed from each
//! crate's public functions, in the order `src/pipeline.rs` calls them,
//! with a wall-clock span around every call into a layer.
//!
//! It covers the healthy path plus the overload mechanisms the
//! `vejle_spike` plan turns on (traffic-spike amplification, bridge
//! admission, the bounded storage subscription and scheduled bounded
//! drains). Plans with other faults are refused. What the driver leaves
//! out — the flight recorder, chaos activation counters — is part of
//! what `pipeline.unattributed_s` measures. The fidelity check compares
//! its counters with `Pipeline::stats()` for the same deployment and seed.

use crate::dashboard::{self, Panel};
use crate::trace::Tracer;
use crate::workload::Digest;
use ctt::broker::{Admission, AdmissionControl, Broker, QoS, RetryPolicy, Subscriber, UplinkEvent};
use ctt::chaos::{CauseCode, ChaosEngine, FaultKind, FaultPlan, LossLedger};
use ctt::core::deployment::Deployment;
use ctt::core::emission::EmissionModel;
use ctt::core::ids::DevEui;
use ctt::core::measurement::SensorReading;
use ctt::core::node::SensorNode;
use ctt::core::payload;
use ctt::core::quantity::Quantity;
use ctt::core::scenario::ScenarioSet;
use ctt::core::time::{Span, Timestamp};
use ctt::core::units::Dbm;
use ctt::dataport::{AlarmKind, Dataport, DataportConfig};
use ctt::lorawan::{
    collision_horizon, DataRate, GatewayConfig, LinkBackoff, NetworkServer, RadioSimulator,
    SimConfig, TxRequest, UplinkFrame, UplinkRecord,
};
use ctt::obs::Registry;
use ctt::sim::{EventQueue, QueueObs, Schedulable, SimClock};
use ctt::tsdb::{DataPoint, ShardedTsdb, DEFAULT_SHARDS};
use ctt::{worker_width, OrderedPool, PipelineStats};
use ctt_ingest::{IngestConfig, IngestRuntime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// Same-instant dispatch order, as in `src/pipeline.rs`.
const PRIO_TICK: u8 = 0;
const PRIO_RADIO: u8 = 1;
const PRIO_NODE: u8 = 3;
const PRIO_DRAIN: u8 = 4;
/// The pipeline's default per-dispatch storage drain batch.
const DEFAULT_DRAIN_BATCH: usize = 64;
/// The pipeline's default storage queue capacity.
const STORAGE_QUEUE: usize = 65_536;
/// EUI base of the pipeline's synthetic traffic-spike devices.
const SPIKE_EUI_BASE: u32 = 0x00FA_0000;

/// Root span of one `run_until` segment.
pub const ADVANCE_ROOT: &str = "pipeline.run_until";
/// Root span of one dashboard request.
const QUERY_ROOT: &str = "dashboard.request";

#[derive(Debug, Clone, Copy)]
struct RadioState {
    data_rate: DataRate,
    tx_power_dbm: f64,
    fcnt: u16,
    backoff: LinkBackoff,
}

impl Default for RadioState {
    fn default() -> Self {
        RadioState {
            data_rate: DataRate(2),
            tx_power_dbm: 14.0,
            fcnt: 0,
            backoff: LinkBackoff::new(4),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Tick,
    Resolve,
    NodeTx(usize),
    Drain,
}

fn label(ev: &Ev) -> &'static str {
    match ev {
        Ev::Tick => "tick",
        Ev::Resolve => "radio",
        Ev::NodeTx(_) => "node-tx",
        Ev::Drain => "drain",
    }
}

#[derive(Debug)]
enum Decoded {
    Ok(Box<(UplinkEvent, SensorReading)>),
    BadPayload { device: DevEui, time: Timestamp },
    BadEvent,
}

fn decode_delivery(bytes: Arc<Vec<u8>>) -> Decoded {
    let Ok(event) = UplinkEvent::decode(&bytes) else {
        return Decoded::BadEvent;
    };
    match payload::decode(&event.payload, event.device, event.time) {
        Ok(reading) => Decoded::Ok(Box::new((event, reading))),
        Err(_) => Decoded::BadPayload {
            device: event.device,
            time: event.time,
        },
    }
}

fn uplink(device: DevEui, t: Timestamp) -> (u64, i64) {
    (device.0, t.as_seconds())
}

/// One city's data path, driven stage by stage.
#[derive(Debug)]
pub struct StageDriver {
    /// The pilot configuration.
    pub deployment: Deployment,
    emission: EmissionModel,
    nodes: Vec<SensorNode>,
    radio: RadioSimulator,
    server: NetworkServer,
    broker: Broker,
    storage_sub: Subscriber,
    tsdb: ShardedTsdb,
    ingest: IngestRuntime,
    decode_pool: OrderedPool<Arc<Vec<u8>>, Decoded>,
    dataport: Dataport,
    radio_state: HashMap<DevEui, RadioState>,
    scenario: ScenarioSet,
    slug: String,
    clock: SimClock,
    events: EventQueue<Ev>,
    stats: PipelineStats,
    ledger: LossLedger,
    chaos: Option<ChaosEngine>,
    drain_batch: usize,
    drain_scheduled: bool,
    admission: Option<AdmissionControl>,
    admission_pending: VecDeque<UplinkRecord>,
    spike_at: Option<Timestamp>,
    spike_seq: u32,
}

impl StageDriver {
    /// Assemble the path as `Pipeline::new` (then `attach_chaos`) does.
    pub fn new(deployment: Deployment, seed: u64, plan: Option<FaultPlan>) -> Result<Self, String> {
        let emission = deployment.emission_model(seed);
        let nodes = deployment.spawn_nodes(seed);
        let gateways = deployment
            .gateways
            .iter()
            .map(|g| GatewayConfig::standard(g.id, g.position, g.antenna_m))
            .collect();
        let mut radio = RadioSimulator::new(SimConfig::urban(seed), gateways);
        let registry = Registry::new();
        let broker = Broker::with_registry(registry.clone());
        let mut storage_sub =
            broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, STORAGE_QUEUE);
        let mut tsdb = ShardedTsdb::new(DEFAULT_SHARDS);
        tsdb.attach_registry(&registry);
        let ingest = IngestRuntime::new(&tsdb, &registry, IngestConfig::default());
        let mut dataport = Dataport::new(DataportConfig::default());
        for n in &deployment.nodes {
            dataport.register_sensor(n.eui);
        }
        for g in &deployment.gateways {
            dataport.register_gateway(g.id);
        }
        let start = deployment.started;
        let mut events = EventQueue::new();
        events.attach_obs(QueueObs::new(label));
        events.schedule(start, PRIO_TICK, Ev::Tick);
        for (i, n) in nodes.iter().enumerate() {
            events.schedule(n.next_due(), PRIO_NODE, Ev::NodeTx(i));
        }
        let mut drain_batch = DEFAULT_DRAIN_BATCH;
        let mut admission = None;
        let mut chaos = None;
        if let Some(plan) = plan {
            if let Some(f) = plan
                .faults
                .iter()
                .find(|f| !matches!(f.kind, FaultKind::TrafficSpike { .. }))
            {
                return Err(format!("stage driver does not re-compose {:?}", f.kind));
            }
            if plan.storage_queue_capacity.is_some() || plan.storage_inflight_cap.is_some() {
                let capacity = plan.storage_queue_capacity.unwrap_or(STORAGE_QUEUE);
                broker.unsubscribe(&storage_sub);
                storage_sub = match plan.storage_inflight_cap {
                    Some(cap) => broker.subscribe_bounded(
                        UplinkEvent::all_filter(),
                        QoS::AtLeastOnce,
                        capacity,
                        cap,
                    ),
                    None => broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, capacity),
                };
            }
            if let Some(batch) = plan.drain_batch {
                drain_batch = batch.max(1);
            }
            if let Some(cfg) = plan.admission {
                admission = Some(AdmissionControl::new(
                    cfg.burst,
                    cfg.refill_per_hour,
                    cfg.defer_cap,
                ));
            }
            let engine = ChaosEngine::new(seed, plan);
            radio.set_outages(engine.outage_windows());
            chaos = Some(engine);
        }
        Ok(StageDriver {
            slug: deployment.city.to_lowercase(),
            clock: SimClock::new(start),
            deployment,
            emission,
            nodes,
            radio,
            server: NetworkServer::new(),
            broker,
            storage_sub,
            tsdb,
            ingest,
            decode_pool: OrderedPool::new(worker_width(2, 8), decode_delivery),
            dataport,
            radio_state: HashMap::new(),
            scenario: ScenarioSet::new(),
            events,
            stats: PipelineStats::default(),
            ledger: LossLedger::new(),
            chaos,
            drain_batch,
            drain_scheduled: false,
            admission,
            admission_pending: VecDeque::new(),
            spike_at: None,
            spike_seq: 0,
        })
    }

    /// Counters comparable with `Pipeline::stats()`.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// `Pipeline::run_until`: dispatch in `(time, priority, seq)` order up
    /// to `end` under the same boundary rule, then settle the segment.
    pub fn run_until(&mut self, end: Timestamp, tr: &mut Tracer) {
        let root = tr.enter(ADVANCE_ROOT, None);
        let mut events = std::mem::take(&mut self.events);
        loop {
            let s = tr.enter("sim.dispatch", None);
            let next = match events.peek_key() {
                Some(k) if k.time < end || (k.time == end && k.priority <= PRIO_RADIO) => {
                    events.pop()
                }
                _ => None,
            };
            tr.exit(s);
            let Some((key, ev)) = next else { break };
            let now = self.clock.advance(key.time);
            self.dispatch(now, ev, &mut events, tr);
        }
        self.events = events;
        if let Some(next_tx) = self.nodes.iter().map(SensorNode::next_due).min() {
            let s = tr.enter("lorawan.resolve", None);
            self.radio.resolve_until(next_tx);
            tr.exit(s);
        }
        let mut events = std::mem::take(&mut self.events);
        self.process_radio_outcomes(&mut events, tr);
        self.events = events;
        let s = tr.enter("ingest.flush", None);
        self.ingest.flush();
        tr.exit(s);
        self.clock.advance(end);
        tr.exit(root);
    }

    fn schedule(events: &mut EventQueue<Ev>, t: Timestamp, prio: u8, ev: Ev, tr: &mut Tracer) {
        let s = tr.enter("sim.dispatch", None);
        events.schedule(t, prio, ev);
        tr.exit(s);
    }

    fn dispatch(&mut self, now: Timestamp, ev: Ev, events: &mut EventQueue<Ev>, tr: &mut Tracer) {
        match ev {
            Ev::Tick => {
                let s = tr.enter("dataport.tick", None);
                self.dataport.tick(now);
                let next = self.dataport.next_event(now);
                tr.exit(s);
                if let Some(next) = next {
                    Self::schedule(events, next, PRIO_TICK, Ev::Tick, tr);
                }
            }
            Ev::Resolve => {
                let s = tr.enter("lorawan.resolve", None);
                self.radio.resolve_until(now);
                tr.exit(s);
                self.process_radio_outcomes(events, tr);
            }
            Ev::NodeTx(idx) => self.node_transmit(idx, now, events, tr),
            Ev::Drain => {
                self.drain_scheduled = false;
                self.pump_admission(now, tr);
                self.consume_storage(events, tr);
            }
        }
    }

    fn node_transmit(
        &mut self,
        idx: usize,
        now: Timestamp,
        events: &mut EventQueue<Ev>,
        tr: &mut Tracer,
    ) {
        let Some(node) = self.nodes.get_mut(idx) else {
            return;
        };
        let node_pos = node.site().position;
        let s = tr.enter("core.node_step", None);
        let mut tx = None;
        if let Some(reading) = node.step(&self.emission, now) {
            let mut reading = self.scenario.apply_reading(&reading, node_pos);
            self.stats.readings += 1;
            let device = reading.device;
            tr.set_uplink(s, uplink(device, now));
            self.ledger.produced(device, now);
            if let Some(level) = self
                .chaos
                .as_ref()
                .and_then(|c| c.battery_override(device, now))
            {
                reading.battery_pct = level;
            }
            let state = self.radio_state.entry(device).or_default();
            let frame = UplinkFrame::new(device, state.fcnt, 2, payload::encode(&reading).to_vec());
            let channel = usize::from(state.fcnt) % 3;
            state.fcnt = state.fcnt.wrapping_add(1);
            tx = Some(TxRequest {
                device,
                position: node_pos,
                frame,
                sf: state.data_rate.spreading_factor(),
                tx_power_dbm: state.tx_power_dbm,
                channel,
            });
        }
        tr.exit(s);
        if let Some(req) = tx {
            // The plan holds no frame faults (checked at construction); the
            // engine is still consulted, as the pipeline does.
            let device = req.device;
            let _ = self.chaos.as_mut().and_then(|c| c.frame_fault(device, now));
            let s = tr.enter("lorawan.submit", Some(uplink(device, now)));
            let airtime = self.radio.submit(now, req);
            tr.exit(s);
            match airtime {
                Some(airtime) => {
                    let delay = (airtime.ceil() as i64).clamp(1, collision_horizon().as_seconds());
                    Self::schedule(
                        events,
                        now + Span::seconds(delay),
                        PRIO_RADIO,
                        Ev::Resolve,
                        tr,
                    );
                }
                None => self.absorb_radio_losses(tr),
            }
        }
        if let Some(node) = self.nodes.get(idx) {
            Self::schedule(events, node.next_due(), PRIO_NODE, Ev::NodeTx(idx), tr);
        }
    }

    fn absorb_radio_losses(&mut self, tr: &mut Tracer) {
        let s = tr.enter("lorawan.resolve", None);
        let lost = self.radio.drain_lost();
        tr.exit(s);
        self.stats.radio_lost += lost.len() as u64;
        for l in &lost {
            self.ledger
                .attribute(l.device, l.time, CauseCode::from_loss(l.reason));
            let st = self.radio_state.entry(l.device).or_default();
            let new_sf = st.backoff.on_uplink(false, st.data_rate.spreading_factor());
            st.data_rate = DataRate::from_sf(new_sf);
        }
    }

    fn process_radio_outcomes(&mut self, events: &mut EventQueue<Ev>, tr: &mut Tracer) {
        self.absorb_radio_losses(tr);
        self.pump_admission(self.clock.now(), tr);
        let s = tr.enter("lorawan.resolve", None);
        let deliveries = self.radio.drain_resolved();
        tr.exit(s);
        for d in deliveries {
            self.stats.delivered += 1;
            let dev = d.frame.dev_eui;
            {
                let st = self.radio_state.entry(dev).or_default();
                let sf = st.data_rate.spreading_factor();
                st.backoff.on_uplink(true, sf);
            }
            let s = tr.enter("lorawan.lns_ingest", Some(uplink(dev, d.time)));
            let accepted = self.server.ingest(&d);
            tr.exit(s);
            let Some((record, adr)) = accepted else {
                self.ledger
                    .attribute(dev, d.time, CauseCode::ServerDuplicate);
                continue;
            };
            self.ledger.accepted(record.device, record.time);
            if let Some(cmd) = adr {
                let st = self.radio_state.entry(record.device).or_default();
                st.data_rate = cmd.data_rate;
                st.tx_power_dbm = cmd.tx_power_dbm;
                self.stats.adr_commands += 1;
            }
            self.publish_uplink(&record, events, tr);
            if let Some(factor) = self
                .chaos
                .as_ref()
                .and_then(|c| c.traffic_spike_factor(record.time))
            {
                for _ in 1..factor {
                    let device = self.spike_device(record.time);
                    let mut synth = record.clone();
                    synth.device = device;
                    self.ledger.produced(device, synth.time);
                    self.ledger.accepted(device, synth.time);
                    self.publish_uplink(&synth, events, tr);
                }
            }
        }
        self.consume_storage(events, tr);
    }

    fn spike_device(&mut self, time: Timestamp) -> DevEui {
        if self.spike_at != Some(time) {
            self.spike_at = Some(time);
            self.spike_seq = 0;
        }
        let device = DevEui::ctt(SPIKE_EUI_BASE + self.spike_seq);
        self.spike_seq = self.spike_seq.wrapping_add(1);
        device
    }

    fn publish_uplink(&mut self, r: &UplinkRecord, events: &mut EventQueue<Ev>, tr: &mut Tracer) {
        let now = self.clock.now();
        if let Some(ctrl) = self.admission.as_mut() {
            match ctrl.admit(r.via_gateway, now) {
                Admission::Granted => {}
                Admission::Deferred => {
                    self.admission_pending.push_back(r.clone());
                    self.ensure_drain_scheduled(now, events, tr);
                    return;
                }
                Admission::Shed => {
                    self.ledger
                        .attribute(r.device, r.time, CauseCode::Backpressure);
                    self.dataport.raise_alarm(
                        AlarmKind::Backpressure,
                        "bridge.admission",
                        now,
                        "uplink shed at bridge admission (token bucket dry)".to_string(),
                    );
                    return;
                }
            }
        }
        self.publish_to_broker(r, tr);
    }

    fn pump_admission(&mut self, now: Timestamp, tr: &mut Tracer) {
        if self.admission.is_none() || self.admission_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.admission_pending);
        for rec in pending {
            let granted = self
                .admission
                .as_mut()
                .map(|a| a.retry(rec.via_gateway, now))
                .unwrap_or(false);
            if granted {
                self.publish_to_broker(&rec, tr);
            } else {
                self.admission_pending.push_back(rec);
            }
        }
    }

    fn publish_to_broker(&mut self, r: &UplinkRecord, tr: &mut Tracer) {
        let s = tr.enter("broker.publish", Some(uplink(r.device, r.time)));
        let event = UplinkEvent {
            city: self.slug.clone(),
            device: r.device,
            fcnt: r.fcnt,
            port: r.port,
            time: r.time,
            gateway: r.via_gateway,
            rssi_dbm: r.rssi_dbm,
            snr_db: r.snr_db,
            gateway_count: r.gateway_count,
            payload: r.payload.clone(),
        };
        let report = event.publish_with_retry(&self.broker, RetryPolicy::default());
        tr.exit(s);
        if report.shed > 0 {
            self.ledger
                .attribute(r.device, r.time, CauseCode::Backpressure);
            self.dataport.raise_alarm(
                AlarmKind::Backpressure,
                "broker.storage",
                self.clock.now(),
                "delivery shed at storage subscriber in-flight cap".to_string(),
            );
        }
    }

    fn consume_storage(&mut self, events: &mut EventQueue<Ev>, tr: &mut Tracer) {
        let now = self.clock.now();
        if self
            .chaos
            .as_ref()
            .map(|c| c.broker_stalled(now))
            .unwrap_or(false)
        {
            self.ensure_drain_scheduled(now, events, tr);
            return;
        }
        if self.drain_scheduled {
            return;
        }
        self.drain_storage(tr);
        self.ensure_drain_scheduled(now, events, tr);
    }

    fn drain_storage(&mut self, tr: &mut Tracer) {
        let s = tr.enter("broker.recv", None);
        let mut batch: Vec<Arc<Vec<u8>>> = Vec::new();
        while batch.len() < self.drain_batch {
            let Some(delivery) = self.storage_sub.try_recv() else {
                break;
            };
            if let Some(pid) = delivery.packet_id {
                if !self.broker.ack(self.storage_sub.id, pid) {
                    continue;
                }
            }
            batch.push(Arc::clone(&delivery.message.payload));
        }
        tr.exit(s);
        let s = tr.enter("broker.decode", None);
        let decoded = self.decode_pool.map(batch);
        tr.exit(s);
        let mut points: Vec<DataPoint> = Vec::with_capacity(decoded.len() * 9);
        for outcome in decoded {
            match outcome {
                Decoded::BadEvent => self.stats.decode_errors += 1,
                Decoded::BadPayload { device, time } => {
                    self.stats.decode_errors += 1;
                    self.ledger.attribute(device, time, CauseCode::DecodeError);
                }
                Decoded::Ok(pair) => {
                    let (event, reading) = *pair;
                    let id = Some(uplink(event.device, event.time));
                    let skew = self
                        .chaos
                        .as_ref()
                        .and_then(|c| c.clock_skew(event.device, event.time))
                        .unwrap_or(Span::seconds(0));
                    let s = tr.enter("tsdb.build_points", id);
                    self.collect_points(&event, &reading, skew, &mut points);
                    tr.exit(s);
                    self.ledger.stored(event.device, event.time);
                    let s = tr.enter("dataport.on_uplink", id);
                    self.dataport.on_uplink(
                        event.device,
                        event.time,
                        reading.battery_pct,
                        event.gateway,
                        Dbm(event.rssi_dbm),
                    );
                    tr.exit(s);
                }
            }
        }
        let s = tr.enter("ingest.submit", None);
        self.stats.points_stored += self.ingest.submit(&points);
        tr.exit(s);
        let s = tr.enter("broker.recv", None);
        self.broker.redeliver_deferred();
        tr.exit(s);
    }

    fn ensure_drain_scheduled(
        &mut self,
        now: Timestamp,
        events: &mut EventQueue<Ev>,
        tr: &mut Tracer,
    ) {
        if self.drain_scheduled {
            return;
        }
        if self.storage_sub.pending() > 0
            || self.broker.deferred_count() > 0
            || !self.admission_pending.is_empty()
        {
            Self::schedule(events, now + Span::seconds(1), PRIO_DRAIN, Ev::Drain, tr);
            self.drain_scheduled = true;
        }
    }

    fn collect_points(
        &self,
        event: &UplinkEvent,
        reading: &SensorReading,
        skew: Span,
        out: &mut Vec<DataPoint>,
    ) {
        let at = event.time + skew;
        let device_tag = dashboard::device_tag(event.device);
        for q in Quantity::ALL {
            let point = DataPoint::new(
                q.metric_name(),
                vec![
                    ("city".to_string(), self.slug.clone()),
                    ("device".to_string(), device_tag.clone()),
                ],
                at,
                reading.value(q),
            );
            if let Ok(p) = point {
                out.push(p);
            }
        }
        let rssi = DataPoint::new(
            "ctt.net.rssi",
            vec![
                ("city".to_string(), self.slug.clone()),
                ("device".to_string(), device_tag),
            ],
            at,
            event.rssi_dbm,
        );
        if let Ok(p) = rssi {
            out.push(p);
        }
    }

    /// Serve one dashboard request with the query the pipeline's panel
    /// issues, behind the same flush barrier, folding the answer into
    /// `digest` as the pipeline-side request does. `Err` is a store error.
    pub fn serve(&self, panel: Panel, digest: &mut Digest, tr: &mut Tracer) -> Result<(), String> {
        let root = tr.enter(QUERY_ROOT, None);
        let query = panel.query(&self.deployment, self.clock.now());
        let s = tr.enter("ingest.flush", None);
        self.ingest.flush();
        tr.exit(s);
        let s = tr.enter("tsdb.execute", None);
        let answer = self.tsdb.execute(&query);
        tr.exit(s);
        tr.exit(root);
        match (panel, answer) {
            // The pipeline's series helpers answer a store error with an
            // empty series.
            (Panel::City24h(_) | Panel::Device(..), answer) => digest.series(
                &answer
                    .unwrap_or_default()
                    .into_iter()
                    .next()
                    .map(|r| r.series)
                    .unwrap_or_default(),
            ),
            (_, Ok(rs)) => digest.results(&rs),
            (_, Err(e)) => Err(format!("store error {e:?}")),
        }
    }
}
