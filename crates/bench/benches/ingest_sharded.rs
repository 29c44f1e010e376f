//! Ingest throughput vs shard count, measured under the paper's actual
//! workload: sensors write continuously while dashboards query (§2.4). A
//! writer thread drives pre-built batches through `put_batch` while reader
//! threads loop group-by range queries over the loaded store.
//!
//! With one shard, every dashboard query holds THE read lock for its whole
//! collection pass and each write must wait it out; with four, a query
//! only blocks the writer while it collects from the one shard the writer
//! is currently targeting. That isolation is what sharding buys, and it
//! shows up even on a single-core host (the CI gate compares the
//! noise-robust `peak_elems_per_sec` minimum statistic).
//!
//! CI exports the results as `BENCH_ingest.json` (via `CRITERION_JSON`)
//! and the `bench_check` validator asserts 4-shard throughput beats
//! 1-shard. The `ingest_pipeline` group feeds the runtime in the
//! pipeline's own shape (nine interleaved series per uplink) and is
//! exported ungated.

use criterion::{
    black_box, criterion_group, criterion_main, report_metric, BenchmarkId, Criterion, Throughput,
};
use ctt_core::quantity::Quantity;
use ctt_core::time::{Span, Timestamp};
use ctt_ingest::{IngestConfig, IngestRuntime, SeriesHandle};
use ctt_obs::Registry;
use ctt_tsdb::{DataPoint, Query, ShardedTsdb, TagSet, DEFAULT_SHARDS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

const DEVICES: u32 = 8;
const POINTS_PER_DEVICE: usize = 1_600;
/// put_batch granularity: small enough that queries can slip between
/// batches, large enough to amortize the per-batch lock acquisition.
const BATCH: usize = 200;
/// Dashboard threads querying while the writer ingests.
const READERS: usize = 2;

fn preloaded(shards: usize, batch: &[DataPoint]) -> ShardedTsdb {
    let db = ShardedTsdb::new(shards);
    db.put_batch(batch);
    db.seal_all();
    db
}

fn ingest_throughput(c: &mut Criterion) {
    let batches = ctt_bench::writer_batches(1, DEVICES, POINTS_PER_DEVICE);
    let batch = &batches[0];
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    let query = Query::range("ctt.air.co2", start, start + Span::days(30)).group_by("device");
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            // Readers live across all samples; only the write loop is
            // timed. Re-writing the same points each sample keeps the
            // store stationary (duplicates collapse last-write-wins on
            // seal), so every sample sees the same query working set.
            let db = preloaded(shards, batch);
            let done = AtomicBool::new(false);
            let (db_ref, done_ref, query_ref) = (&db, &done, &query);
            std::thread::scope(|s| {
                for _ in 0..READERS {
                    s.spawn(move || {
                        while !done_ref.load(Ordering::Relaxed) {
                            black_box(db_ref.execute(query_ref).expect("query ok"));
                        }
                    });
                }
                b.iter(|| {
                    for chunk in batch.chunks(BATCH) {
                        db_ref.put_batch(chunk);
                    }
                    black_box(())
                });
                done.store(true, Ordering::Relaxed);
            });
        });
    }
    g.finish();
}

fn ingest_single_writer(c: &mut Criterion) {
    // Single-threaded batched ingest with no read load: the per-point cost
    // floor (hash + route + intern + append) at 1 vs 4 shards. Store
    // construction is untimed setup (mirroring `ingest_runtime`, which
    // keeps its writer spawn/join untimed): the timed region is ingest
    // work only. This and `ingest_runtime` use a doubled workload so each
    // timed region spans several scheduler timeslices — the two means are
    // gate-compared, and short iterations flap on single-core hosts.
    let batches = ctt_bench::writer_batches(1, DEVICES, 2 * POINTS_PER_DEVICE);
    let batch = &batches[0];
    let mut g = c.benchmark_group("ingest_serial");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter_with_setup(
                || ShardedTsdb::new(shards),
                |db| {
                    for chunk in batch.chunks(BATCH) {
                        db.put_batch(chunk);
                    }
                    black_box(db.stats().points)
                },
            );
        });
    }
    g.finish();
}

fn ingest_runtime(c: &mut Criterion) {
    // The staged runtime: producers route by hash onto per-shard SPSC
    // lanes, one writer thread per shard applies batches. Structurally
    // identical to `ingest_serial` for a fair head-to-head: a fresh store
    // per iteration, the same borrowed chunks, and the flush barrier
    // closing every timed region so it always covers the full
    // submit-to-applied path. Runtime construction (thread spawn) runs in
    // untimed setup and teardown (join) is deferred past the group via the
    // graveyard — an ingest tier is long-lived, and on a single-core host
    // per-iteration spawn/join jitter would otherwise dominate sample
    // noise. The loaded store itself still drops in the timed region on
    // both arms.
    let batches = ctt_bench::writer_batches(1, DEVICES, 2 * POINTS_PER_DEVICE);
    let batch = &batches[0];
    let mut g = c.benchmark_group("ingest_runtime");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for writers in [1usize, 2, 4, 8] {
        let mut high_water = 0i128;
        let mut graveyard = Vec::new();
        g.bench_with_input(
            BenchmarkId::new("writers", writers),
            &writers,
            |b, &writers| {
                b.iter_with_setup(
                    || {
                        let registry = Registry::new();
                        let mut db = ShardedTsdb::new(writers);
                        db.attach_registry(&registry);
                        let rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
                        (registry, db, rt)
                    },
                    |(registry, db, mut rt)| {
                        for chunk in batch.chunks(BATCH) {
                            rt.submit(chunk);
                        }
                        rt.flush();
                        graveyard.push((registry, rt));
                        black_box(db.stats().points)
                    },
                );
            },
        );
        // Lane occupancy at its worst: max over shards and iterations of
        // the unflushed-batch high-water gauge.
        for (registry, _) in &graveyard {
            let snap = registry.snapshot(Timestamp(0));
            high_water = high_water.max(
                (0..writers)
                    .filter_map(|i| snap.value(&format!("ingest.shard{i}.ring_high_water")))
                    .max()
                    .unwrap_or(0),
            );
        }
        drop(graveyard);
        report_metric(
            &format!("ingest_runtime/queue_high_water/{writers}"),
            high_water as f64,
        );
    }
    g.finish();
}

/// Devices and uplinks per device of the pipeline-shaped workload.
const PIPELINE_DEVICES: u32 = 32;
const PIPELINE_UPLINKS: i64 = 200;
/// Series per uplink: the eight sensed quantities plus RSSI, as the
/// pipeline stores them.
const PIPELINE_SERIES: usize = Quantity::ALL.len() + 1;
const RSSI_METRIC: &str = "ctt.net.rssi";

/// The pipeline's nine metric names, in storage order.
fn pipeline_metrics() -> impl Iterator<Item = String> {
    Quantity::ALL
        .iter()
        .map(|q| q.metric_name())
        .chain(std::iter::once(RSSI_METRIC.to_string()))
}

fn pipeline_tags(device: u32) -> TagSet {
    [
        ("city".to_string(), "trondheim".to_string()),
        ("device".to_string(), format!("{device:016x}")),
    ]
    .into()
}

/// The uplinks in arrival order (every device's uplink at one instant
/// before any at the next), each as a device and nine values.
fn pipeline_uplinks() -> Vec<(u32, Timestamp, [f64; PIPELINE_SERIES])> {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    (0..PIPELINE_UPLINKS)
        .flat_map(|i| {
            (0..PIPELINE_DEVICES).map(move |d| {
                let t = start + Span::minutes(5 * i) + Span::seconds(i64::from(d));
                let values = std::array::from_fn(|m| {
                    400.0 + (m as f64) * 10.0 + ((i as f64) * 0.02 + f64::from(d)).sin()
                });
                (d, t, values)
            })
        })
        .collect()
}

fn ingest_pipeline(c: &mut Criterion) {
    // The runtime in the pipeline's shape: each decoded uplink carries
    // nine series of one device, uplinks from all devices interleave, and
    // each uplink is one submit. `datapoints` builds the nine tagged
    // points per uplink and submits them (the runtime's last-series memo
    // never hits: consecutive points belong to different series);
    // `handles` resolves a device's nine series at its first uplink and
    // submits `(handle, time, value)` triples. Both arms end at the flush
    // barrier; runtime spawn is untimed setup, as in `ingest_runtime`.
    let uplinks = pipeline_uplinks();
    let points = uplinks.len() * PIPELINE_SERIES;
    let mut g = c.benchmark_group("ingest_pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(points as u64));
    for arm in ["datapoints", "handles"] {
        let mut graveyard = Vec::new();
        g.bench_with_input(BenchmarkId::new(arm, DEFAULT_SHARDS), &arm, |b, &arm| {
            b.iter_with_setup(
                || {
                    let registry = Registry::new();
                    let mut db = ShardedTsdb::new(DEFAULT_SHARDS);
                    db.attach_registry(&registry);
                    let rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
                    (registry, db, rt)
                },
                |(registry, db, mut rt)| {
                    if arm == "handles" {
                        let mut handles: HashMap<u32, Vec<SeriesHandle>> = HashMap::new();
                        let mut triples = Vec::with_capacity(PIPELINE_SERIES);
                        for (device, t, values) in &uplinks {
                            let hs = handles.entry(*device).or_insert_with(|| {
                                let tags = pipeline_tags(*device);
                                pipeline_metrics()
                                    .map(|m| rt.resolve(&m, &tags).expect("valid series"))
                                    .collect()
                            });
                            triples.clear();
                            triples.extend(hs.iter().zip(values).map(|(&h, &v)| (h, *t, v)));
                            rt.submit_resolved(&triples);
                        }
                    } else {
                        let mut batch = Vec::with_capacity(PIPELINE_SERIES);
                        for (device, t, values) in &uplinks {
                            let device_tag = format!("{device:016x}");
                            batch.clear();
                            batch.extend(pipeline_metrics().zip(values).map(|(m, &v)| {
                                DataPoint::new(
                                    m,
                                    vec![
                                        ("city".to_string(), "trondheim".to_string()),
                                        ("device".to_string(), device_tag.clone()),
                                    ],
                                    *t,
                                    v,
                                )
                                .expect("valid point")
                            }));
                            rt.submit(&batch);
                        }
                    }
                    rt.flush();
                    graveyard.push((registry, rt));
                    black_box(db.stats().points)
                },
            );
        });
        drop(graveyard);
    }
    g.finish();
}

criterion_group!(
    benches,
    ingest_throughput,
    ingest_single_writer,
    ingest_runtime,
    ingest_pipeline
);
criterion_main!(benches);
