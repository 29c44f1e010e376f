//! The dashboard client: the paper's Fig. 6 panels, drawn by seeded zipf.

use ctt::core::deployment::Deployment;
use ctt::core::ids::DevEui;
use ctt::core::quantity::Quantity;
use ctt::core::time::{Span, Timestamp};
use ctt::tsdb::{Aggregator, Downsample, FillPolicy, Query};

/// One dashboard panel kind, for one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Panel {
    /// City-wide average over the last 24 hours (`Pipeline::city_series`).
    City24h(Quantity),
    /// One device's series over the whole window (`Pipeline::device_series`);
    /// the ordinal is reduced modulo the city's device count.
    Device(usize, Quantity),
    /// Every device, 1-hour averages over the whole window.
    GroupBy1h(Quantity),
    /// The 95th percentile over the whole window.
    P95(Quantity),
}

impl Panel {
    /// Every panel in popularity order: city overviews before drill-downs,
    /// CO2 (the first quantity) hottest.
    pub fn all() -> Vec<Panel> {
        Quantity::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &q)| {
                [
                    Panel::City24h(q),
                    Panel::Device(i, q),
                    Panel::GroupBy1h(q),
                    Panel::P95(q),
                ]
            })
            .collect()
    }

    /// The device a `Device` panel with this ordinal reads in `d`.
    pub fn device(d: &Deployment, ordinal: usize) -> DevEui {
        d.nodes[ordinal % d.nodes.len()].eui
    }

    /// The store query this panel issues for deployment `d`, read at
    /// `now`. `City24h` and `Device` build exactly the query
    /// `Pipeline::city_series` / `device_series` build.
    pub fn query(&self, d: &Deployment, now: Timestamp) -> Query {
        let slug = d.city.to_lowercase();
        let start = d.started;
        match *self {
            Panel::City24h(q) => {
                Query::range(q.metric_name(), (now - Span::hours(24)).max(start), now)
                    .with_tag("city", slug)
                    .aggregate(Aggregator::Avg)
            }
            Panel::Device(i, q) => Query::range(q.metric_name(), start, now)
                .with_tag("device", device_tag(Panel::device(d, i)))
                .aggregate(Aggregator::Avg),
            Panel::GroupBy1h(q) => Query::range(q.metric_name(), start, now)
                .with_tag("city", slug)
                .group_by("device")
                .downsample(Downsample {
                    interval: Span::hours(1),
                    aggregator: Aggregator::Avg,
                    fill: FillPolicy::None,
                }),
            Panel::P95(q) => Query::range(q.metric_name(), start, now)
                .with_tag("city", slug)
                .aggregate(Aggregator::P95),
        }
    }
}

/// The device tag the pipeline stores points under.
pub fn device_tag(eui: DevEui) -> String {
    format!("{:016x}", eui.0)
}

/// A closed-loop client: each call names the next request only after the
/// previous one has been served.
#[derive(Debug, Clone)]
pub struct Client {
    state: u64,
    panels: Vec<Panel>,
    cities: usize,
}

impl Client {
    /// A client over `cities` cities, its draws fixed by `seed`.
    pub fn new(seed: u64, cities: usize) -> Self {
        Client {
            state: seed ^ 0xDA5B_0A2D_0000_0006,
            panels: Panel::all(),
            cities: cities.max(1),
        }
    }

    /// The next request: a city drawn uniformly, a panel by zipf rank.
    pub fn next(&mut self) -> (usize, Panel) {
        let city = (next_u64(&mut self.state) % self.cities as u64) as usize;
        let rank = zipf_pick(&mut self.state, self.panels.len());
        (city, self.panels[rank])
    }
}

/// SplitMix64 step.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A rank in `0..n` with weight `1 / (rank + 1)`.
fn zipf_pick(state: &mut u64, n: usize) -> usize {
    let total: f64 = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).sum();
    let mut r = (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
    for i in 0..n {
        let w = 1.0 / (i as f64 + 1.0);
        if r < w {
            return i;
        }
        r -= w;
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: usize) -> Vec<(usize, Panel)> {
        let mut c = Client::new(seed, 20);
        (0..n).map(|_| c.next()).collect()
    }

    #[test]
    fn same_seed_same_mix() {
        assert_eq!(draws(42, 500), draws(42, 500));
        assert_ne!(draws(42, 500), draws(43, 500));
    }

    #[test]
    fn mix_is_zipfian_over_all_panels() {
        let panels = Panel::all();
        assert_eq!(panels.len(), 4 * Quantity::ALL.len());
        let mut counts = vec![0usize; panels.len()];
        let mut state = 7u64;
        for _ in 0..20_000 {
            counts[zipf_pick(&mut state, panels.len())] += 1;
        }
        // Rank 1 is drawn about twice as often as rank 2, and far more
        // often than the last rank; every rank is reachable.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.7..2.3).contains(&ratio), "{counts:?}");
        assert!(counts[0] > 20 * counts[panels.len() - 1], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn cities_are_all_drawn() {
        let seen: std::collections::BTreeSet<usize> =
            draws(1, 2_000).into_iter().map(|(c, _)| c).collect();
        assert_eq!(seen.len(), 20);
    }
}
