//! End-to-end benchmark of the CTT pipeline.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` runs the workload in a closed loop for `--seconds` and
//! prints the end-to-end metrics; `--trace 1` runs the traced passes and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the exit code is non-zero when a
//! correctness or fidelity check fails. See `README.md`.

mod dashboard;
mod driver;
mod procfs;
mod stats;
mod trace;
mod traced;
mod workload;

use stats::{median, percentile};
use std::process::ExitCode;
use std::time::Instant;
use workload::{run_iteration, Accounting, Workload, World};

/// Dashboard requests a run collects at least, so that its p99 has ten
/// samples beyond it.
const MIN_QUERY_SAMPLES: usize = 1000;
/// Iterations a run makes at least, so the digest is compared across
/// repeats of one seed.
const MIN_ITERATIONS: usize = 3;
/// Set-ups timed before each iteration (spread over the run, so their
/// median is not one moment's machine speed), and at least in all.
const SETUPS_PER_ITERATION: usize = 3;
const MIN_SETUPS: usize = 21;

/// The end-to-end metrics with their units, in report order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("uplinks_per_s", "1/s"),
    ("advance_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("uplink_stored_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_point", "B/point"),
];

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: ctt-bench-e2e --workload <trondheim_week|fleet20_day|dashboard_live|vejle_spike> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = ctt_bench::SEED;
    let mut seconds = 50.0;
    let mut trace = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end run: closed-loop iterations of the workload, each on a
/// freshly built world after a few timed set-ups, until `seconds` have
/// passed and enough requests and iterations are in. Returns the metrics and the
/// requests issued.
fn run_end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<(Vec<Metric>, u64), String> {
    let time_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let world = World::build(w, seed, w.is_fleet());
        setups.push(t.elapsed().as_secs_f64());
        drop(world);
    };
    let mut setups = Vec::new();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut advances = Vec::new();
    let mut queries = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(u64, Accounting)> = None;
    loop {
        for _ in 0..SETUPS_PER_ITERATION {
            time_setup(&mut setups);
        }
        procfs::reset_peak_rss()?;
        let mut world = World::build(w, seed, w.is_fleet());
        let it = run_iteration(w, seed, &mut world)?;
        peaks.push(procfs::peak_rss_mb()?);
        drop(world);
        match first {
            None => first = Some((it.digest, it.acc)),
            Some((digest, _)) if digest != it.digest => {
                return Err(format!(
                    "digest {:016x} != first iteration's {digest:016x} for one seed",
                    it.digest
                ))
            }
            Some(_) => {}
        }
        walls.push(it.wall_s);
        rates.push(it.acc.produced as f64 / it.wall_s);
        advances.extend(it.advance_s);
        queries.extend(it.query_s);
        let done = t0.elapsed().as_secs_f64() >= seconds
            && queries.len() >= MIN_QUERY_SAMPLES
            && walls.len() >= MIN_ITERATIONS;
        if done {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        time_setup(&mut setups);
    }
    let (_, acc) = first.ok_or("no iteration ran")?;
    println!(
        "{}: {} iterations, {} requests; ledger produced={} stored={} attributed={} \
         in_flight accepted={} produced={}",
        w.name(),
        walls.len(),
        queries.len(),
        acc.produced,
        acc.stored,
        acc.attributed,
        acc.in_flight_accepted,
        acc.in_flight_produced
    );
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    let ms = 1e3;
    let values = [
        need(median(&setups), "setup_s")?,
        need(median(&walls), "wall_s")?,
        need(median(&rates), "uplinks_per_s")?,
        need(median(&advances), "advance_p50_ms")? * ms,
        need(median(&queries), "query_p50_ms")? * ms,
        need(percentile(&queries, 99.0), "query_p99_ms")? * ms,
        acc.stored as f64 / acc.produced.max(1) as f64,
        need(median(&peaks), "peak_rss_mb")?,
        acc.bytes as f64 / acc.points.max(1) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok((metrics, queries.len() as u64))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok((metrics, attempted)) => {
            for m in &metrics {
                println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
                metrics_json(&metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: check failed: {e}", args.workload.name());
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every metric this program prints, with the
    /// same unit, and the workloads steady enough to gate on.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(traced::per_layer_metrics());
        let mut count = 0;
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} [{unit}] missing");
            count += 1;
        }
        assert_eq!(json.matches("\"unit\"").count(), count, "extra metrics");
        for w in Workload::ALL {
            let listed = json.contains(&format!("\"name\": \"{}\"", w.name()));
            let steady = matches!(w, Workload::TrondheimWeek | Workload::VejleSpike);
            assert_eq!(listed, steady, "{}", w.name());
        }
    }

    #[test]
    fn args_parse_with_defaults() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload vejle_spike").expect("parses");
        assert_eq!(a.workload, Workload::VejleSpike);
        assert_eq!(a.seed, ctt_bench::SEED);
        assert!(!a.trace);
        let a = args("--workload fleet20_day --seed 7 --seconds 2.5 --trace 1").expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(args("--seed 7").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload vejle_spike --trace 2").is_err());
        assert!(args("--workload").is_err());
    }
}
