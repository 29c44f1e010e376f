//! The traced run: per-layer numbers for one workload. Each pass runs the
//! workload untraced (reading counters from outside: metrics snapshots,
//! cache stats, scheduling profiles, `/proc/self`), replays it through the
//! stage driver with spans, checks the driver against the pipeline, and
//! runs the same cities the other way (fleet vs solo).

use crate::dashboard::Client;
use crate::driver::{StageDriver, ADVANCE_ROOT};
use crate::procfs;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::workload::{run_iteration, Digest, Workload, World};
use crate::Metric;
use ctt::Pipeline;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans of the stage driver that name a layer call; each gives
/// `<name>.self_s` and `<name>.calls`.
pub const LAYER_SPANS: [&str; 14] = [
    "core.node_step",
    "lorawan.submit",
    "lorawan.resolve",
    "lorawan.lns_ingest",
    "broker.publish",
    "broker.recv",
    "broker.decode",
    "tsdb.build_points",
    "ingest.submit",
    "ingest.flush",
    "dataport.on_uplink",
    "dataport.tick",
    "sim.dispatch",
    "tsdb.execute",
];

/// Metrics read from counters or derived from walls, with their units.
pub const DERIVED: [(&str, &str); 16] = [
    ("fleet.overhead_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
    ("threads.peak", "count"),
    ("cpu_s", "s"),
    ("tsdb.cache_hit_ratio", "ratio"),
    ("tsdb.rollup_share", "ratio"),
    ("tsdb.chunks_decoded", "count"),
    ("ingest.full_stalls", "count"),
    ("ingest.points_per_batch", "points"),
    ("broker.deferred", "count"),
    ("broker.redelivered", "count"),
    ("broker.shed", "count"),
    ("bridge.admission_shed", "count"),
    ("sim.drain_events", "count"),
    ("sim.slice_width_p50", "events"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    LAYER_SPANS
        .iter()
        .flat_map(|n| {
            [
                (format!("{n}.self_s"), "s"),
                (format!("{n}.calls"), "count"),
            ]
        })
        .chain(DERIVED.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// Sum of a per-shard counter `<prefix><i>.<field>` over every shard.
fn shard_sum(snap: &ctt::obs::Snapshot, prefix: &str, field: &str) -> f64 {
    (0..)
        .map_while(|i| snap.value(&format!("{prefix}{i}.{field}")))
        .sum::<i128>() as f64
}

/// The count after `key=` on a whitespace-separated profile line.
fn profile_value(profile: &str, key: &str) -> Option<f64> {
    profile
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Counters of the untraced cities, read from outside the program.
fn read_counters(cities: &[&Pipeline], out: &mut BTreeMap<String, f64>) {
    let mut c = BTreeMap::<&str, f64>::new();
    for p in cities {
        let snap = p.metrics_snapshot();
        let mut add = |k, v: f64| *c.entry(k).or_default() += v;
        add("rollup", shard_sum(&snap, "tsdb.shard", "rollup_buckets"));
        add("raw", shard_sum(&snap, "tsdb.shard", "raw_buckets"));
        add("chunks", shard_sum(&snap, "tsdb.shard", "chunks_decoded"));
        add("stalls", shard_sum(&snap, "ingest.shard", "full_stalls"));
        add("enqueued", shard_sum(&snap, "ingest.shard", "enqueued"));
        add("batches", shard_sum(&snap, "ingest.shard", "batches"));
        let stage = |k: &str| snap.value(k).unwrap_or(0) as f64;
        add("deferred", stage("stage.broker.deferred_qos1"));
        add("redelivered", stage("stage.broker.redelivered"));
        add("shed", stage("stage.broker.shed"));
        add("admission_shed", stage("stage.bridge.admission_shed"));
        let cache = p.tsdb.cache_stats();
        add("hits", cache.hits as f64);
        add("lookups", (cache.hits + cache.misses) as f64);
        add(
            "drains",
            profile_value(&p.scheduling_profile(), "p4").unwrap_or(0.0),
        );
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("tsdb.cache_hit_ratio", ratio(c["hits"], c["lookups"]));
    put(
        "tsdb.rollup_share",
        ratio(c["rollup"], c["rollup"] + c["raw"]),
    );
    put("tsdb.chunks_decoded", c["chunks"]);
    put("ingest.full_stalls", c["stalls"]);
    put(
        "ingest.points_per_batch",
        ratio(c["enqueued"], c["batches"]),
    );
    put("broker.deferred", c["deferred"]);
    put("broker.redelivered", c["redelivered"]);
    put("broker.shed", c["shed"]);
    put("bridge.admission_shed", c["admission_shed"]);
    put("sim.drain_events", c["drains"]);
}

/// Advance a world through the workload's segments with no reads;
/// returns the summed `run_until` wall.
fn advance_only(w: Workload, world: &mut World, start: ctt::core::time::Timestamp) -> f64 {
    let mut wall = 0.0;
    for end in w.segment_ends(start) {
        let t = Instant::now();
        world.run_until(end);
        wall += t.elapsed().as_secs_f64();
    }
    wall
}

fn slice_width_p50(world: &World) -> Option<f64> {
    match world {
        World::Fleet(f) => f
            .scheduling_profile()
            .lines()
            .find_map(|l| l.strip_prefix("slice_width.p50=")?.trim().parse().ok()),
        World::Solo(_) => None,
    }
}

/// One traced pass: its per-layer values and the driver's spans.
fn pass(w: Workload, seed: u64) -> Result<(BTreeMap<String, f64>, Vec<trace::Span>), String> {
    let mut m = BTreeMap::new();
    // Untraced reference run, exactly as the end-to-end run does it.
    let cpu0 = procfs::cpu_s()?;
    let mut world = World::build(w, seed, w.is_fleet());
    let mut threads = procfs::threads()?;
    let reference = run_iteration(w, seed, &mut world)?;
    threads = threads.max(procfs::threads()?);
    m.insert("cpu_s".into(), procfs::cpu_s()? - cpu0);
    m.insert("threads.peak".into(), threads as f64);
    read_counters(&world.cities(), &mut m);
    let reference_stats: Vec<_> = world.cities().iter().map(|p| p.stats()).collect();
    let start = world.cities()[0].deployment.started;
    let reference_advance: f64 = reference.advance_s.iter().sum();
    let mut slice_p50 = slice_width_p50(&world);
    drop(world);

    // The same cities the other way round: solo if the workload is a
    // fleet, a fleet of them if it is solo.
    let mut other = World::build(w, seed, !w.is_fleet());
    let other_advance = advance_only(w, &mut other, start);
    slice_p50 = slice_p50.or(slice_width_p50(&other));
    drop(other);
    let (fleet_s, solo_s) = if w.is_fleet() {
        (reference_advance, other_advance)
    } else {
        (other_advance, reference_advance)
    };
    m.insert("fleet.overhead_s".into(), fleet_s - solo_s);
    m.insert(
        "sim.slice_width_p50".into(),
        slice_p50.ok_or("fleet profile has no slice_width.p50")?,
    );

    // Traced replay through the stage driver.
    let mut drivers = w
        .cities(seed)
        .into_iter()
        .map(|(d, s, plan)| StageDriver::new(d, s, plan))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tr = Tracer::new();
    let mut client = Client::new(seed, drivers.len());
    let mut answers = Digest::new();
    let mut read = |drivers: &[StageDriver], n: usize, tr: &mut Tracer| -> Result<(), String> {
        for _ in 0..n {
            let (city, panel) = client.next();
            drivers[city].serve(panel, &mut answers, tr)?;
        }
        Ok(())
    };
    for end in w.segment_ends(start) {
        for d in &mut drivers {
            d.run_until(end, &mut tr);
        }
        read(&drivers, w.live_queries(), &mut tr)?;
    }
    read(&drivers, w.final_queries(), &mut tr)?;

    // Fidelity: the driver must be the program that was measured.
    for (d, want) in drivers.iter().zip(&reference_stats) {
        let got = d.stats();
        let key =
            |s: ctt::PipelineStats| (s.delivered, s.radio_lost, s.points_stored, s.adr_commands);
        if key(got) != key(*want) {
            return Err(format!(
                "fidelity: {} driver {got:?} != pipeline {want:?}",
                d.deployment.city
            ));
        }
    }
    if answers.0 != reference.answers {
        return Err("fidelity: driver query answers differ from the pipeline's".into());
    }
    drop(drivers);

    let spans = tr.spans().to_vec();
    let all = trace::self_times(&spans, None);
    for name in LAYER_SPANS {
        let layer = all.get(name).copied().unwrap_or_default();
        m.insert(format!("{name}.self_s"), layer.self_s);
        m.insert(format!("{name}.calls"), layer.calls as f64);
    }
    let advancing = trace::self_times(&spans, Some(ADVANCE_ROOT));
    let layer_self: f64 = advancing
        .iter()
        .filter(|(n, _)| **n != ADVANCE_ROOT)
        .map(|(_, l)| l.self_s)
        .sum();
    let traced_advance: f64 = spans
        .iter()
        .filter(|s| s.name == ADVANCE_ROOT)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    m.insert("pipeline.unattributed_s".into(), solo_s - layer_self);
    m.insert("trace.overhead".into(), traced_advance / solo_s);
    Ok((m, spans))
}

/// Directory for trace output, inside the benchmark's own directory.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run traced passes for `seconds` (at least one); report each per-layer
/// metric's median over the passes and write the last pass's spans and
/// the report to `out/`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<(Vec<Metric>, u64), String> {
    let t0 = Instant::now();
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut spans = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (m, s) = pass(w, seed)?;
        passes.push(m);
        spans = s;
    }
    let metrics: Vec<Metric> = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.get(&name).copied())
                .collect();
            let value = median(&values).ok_or(format!("no value for {name}"))?;
            Ok(Metric { name, value, unit })
        })
        .collect::<Result<_, String>>()?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let csv = dir.join(format!("trace-{}.csv", w.name()));
    trace::write_csv(&spans, &csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let json = dir.join(format!("layers-{}.json", w.name()));
    std::fs::write(&json, crate::metrics_json(&metrics))
        .map_err(|e| format!("{}: {e}", json.display()))?;
    eprintln!(
        "traced {} passes; spans in {}, layers in {}",
        passes.len(),
        csv.display(),
        json.display()
    );
    Ok((metrics, passes.len() as u64))
}
