//! Broker benchmarks: publish fan-out throughput, the topic-trie vs
//! linear-scan routing ablation from DESIGN.md, and the `bridge_uplink`
//! group: the TTN hand-off in the pipeline's own shape (Trondheim-shaped
//! uplink events, one QoS1 `all_filter` storage subscription).
//!
//! CI exports the results as `BENCH_broker.json` (via `CRITERION_JSON`),
//! ungated.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctt_broker::{Broker, Message, QoS, RetryPolicy, Topic, TopicFilter, UplinkEvent};
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::measurement::SensorReading;
use ctt_core::payload;
use ctt_core::time::{Span, Timestamp};

fn make_broker(subs: usize) -> (Broker, Vec<ctt_broker::Subscriber>) {
    let broker = Broker::new();
    let handles = (0..subs)
        .map(|i| {
            // A mix of exact, city-wide, and global subscriptions.
            let filter = match i % 3 {
                0 => format!("ctt/trondheim/devices/dev{i}/up"),
                1 => "ctt/trondheim/devices/+/up".to_string(),
                _ => "ctt/#".to_string(),
            };
            broker.subscribe(TopicFilter::new(filter).unwrap(), QoS::AtMostOnce, 1 << 14)
        })
        .collect();
    (broker, handles)
}

fn bench_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker_publish");
    for &subs in &[10usize, 100, 1000] {
        let (broker, handles) = make_broker(subs);
        let topic = Topic::new("ctt/trondheim/devices/dev1/up").unwrap();
        g.bench_with_input(BenchmarkId::new("fanout", subs), &subs, |b, _| {
            b.iter(|| {
                let m = Message::new(topic.clone(), vec![0u8; 64], Timestamp(0));
                black_box(broker.publish(m))
            })
        });
        // Drain so queues don't fill (drops would change the cost profile).
        for h in &handles {
            h.drain();
        }
    }
    g.finish();
}

/// Ablation: trie routing vs scanning every subscription filter.
fn bench_routing_ablation(c: &mut Criterion) {
    let n = 1000usize;
    let filters: Vec<TopicFilter> = (0..n)
        .map(|i| {
            TopicFilter::new(match i % 3 {
                0 => format!("ctt/trondheim/devices/dev{i}/up"),
                1 => "ctt/trondheim/devices/+/up".to_string(),
                _ => "ctt/#".to_string(),
            })
            .unwrap()
        })
        .collect();
    let topic = Topic::new("ctt/trondheim/devices/dev42/up").unwrap();
    let mut g = c.benchmark_group("broker_routing");
    // Linear baseline: match the topic against every filter.
    g.bench_function("linear_scan_1000", |b| {
        b.iter(|| {
            let hits = filters.iter().filter(|f| f.matches(&topic)).count();
            black_box(hits)
        })
    });
    // Trie: the broker's routing path (publish to a broker with these
    // subscriptions but empty queues → routing dominates).
    let broker = Broker::new();
    let _handles: Vec<_> = filters
        .iter()
        .map(|f| broker.subscribe(f.clone(), QoS::AtMostOnce, 1))
        .collect();
    g.bench_function("trie_route_1000", |b| {
        b.iter(|| {
            let m = Message::new(topic.clone(), vec![], Timestamp(0));
            black_box(broker.publish(m))
        })
    });
    g.finish();
}

fn bench_qos1_ack_cycle(c: &mut Criterion) {
    let broker = Broker::new();
    let sub = broker.subscribe(TopicFilter::new("t/#").unwrap(), QoS::AtLeastOnce, 1 << 14);
    let topic = Topic::new("t/x").unwrap();
    c.bench_function("broker_qos1_publish_ack", |b| {
        b.iter(|| {
            broker.publish(
                Message::new(topic.clone(), vec![1, 2, 3], Timestamp(0)).with_qos(QoS::AtLeastOnce),
            );
            let d = sub.try_recv().expect("delivered");
            broker.ack(sub.id, d.packet_id.expect("qos1"));
        })
    });
}

/// Uplinks per `bridge_uplink` iteration.
const BRIDGE_UPLINKS: usize = 1_024;
/// Devices the uplinks rotate through.
const BRIDGE_DEVICES: u32 = 64;

/// Uplink events as the pipeline publishes them: city slug `trondheim`,
/// CTT EUIs, an 18-byte sensor payload, urban RSSI/SNR, one to three
/// gateways, five-minute cadence.
fn trondheim_uplinks() -> Vec<UplinkEvent> {
    let start = Timestamp::from_civil(2017, 4, 3, 0, 0, 0);
    (0..BRIDGE_UPLINKS)
        .map(|i| {
            let n = i as u32;
            let device = DevEui::ctt(1 + n % BRIDGE_DEVICES);
            let time = start + Span::seconds(i64::from(n / BRIDGE_DEVICES) * 300 + i64::from(n));
            let wave = (i as f64 * 0.37).sin();
            let reading = SensorReading {
                device,
                time,
                co2_ppm: 410.0 + 25.0 * wave,
                no2_ppb: 22.0 + 6.0 * wave,
                pm25_ug_m3: 8.0 + 3.0 * wave,
                pm10_ug_m3: 16.0 + 5.0 * wave,
                temperature_c: 4.0 + 3.0 * wave,
                pressure_hpa: 1002.0 + wave,
                humidity_pct: 80.0 + 10.0 * wave,
                battery_pct: 90.0,
            };
            UplinkEvent {
                city: "trondheim".to_string(),
                device,
                fcnt: (n / BRIDGE_DEVICES) as u16,
                port: 2,
                time,
                gateway: GatewayId::ctt(1 + n % 5),
                rssi_dbm: -95.0 - 20.0 * wave.abs(),
                snr_db: 7.5 * wave,
                gateway_count: 1 + i % 3,
                payload: payload::encode(&reading).to_vec(),
            }
        })
        .collect()
}

fn bench_bridge_uplink(c: &mut Criterion) {
    let events = trondheim_uplinks();
    let lines: Vec<Vec<u8>> = events.iter().map(UplinkEvent::encode).collect();
    let mut g = c.benchmark_group("bridge_uplink");
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            for e in &events {
                black_box(e.encode());
            }
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(UplinkEvent::decode(line).expect("valid line"));
            }
        })
    });
    // The storage hand-off per uplink, as the pipeline runs it: topic +
    // encode + QoS1 publish with retry, then recv, ack and decode.
    let broker = Broker::new();
    let sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 65_536);
    g.bench_function("publish_to_decode", |b| {
        b.iter(|| {
            for e in &events {
                e.publish_with_retry(&broker, RetryPolicy::default());
                let d = sub.try_recv().expect("delivered");
                broker.ack(sub.id, d.packet_id.expect("qos1"));
                black_box(UplinkEvent::decode(&d.message.payload).expect("valid line"));
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_publish, bench_routing_ablation, bench_qos1_ack_cycle, bench_bridge_uplink
}
criterion_main!(benches);
