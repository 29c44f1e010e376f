//! Concurrent-writer stress: many threads hammer a shared [`ShardedTsdb`]
//! through `put_batch` while readers run queries and integrity scans. The
//! locks must neither lose writes nor deadlock, and the final contents must
//! equal a serial reference ingest of the same points. Concurrent readers
//! of a loaded store must each get exactly the reference answer.

use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{
    Aggregator, DataPoint, Downsample, FillPolicy, Query, ServePolicy, ShardedTsdb, TagSet,
};
use std::sync::{Arc, Barrier};

fn writer_points(writer: usize, points: i64) -> Vec<DataPoint> {
    (0..points)
        .map(|i| {
            DataPoint::new(
                "stress.metric",
                vec![("device".to_string(), format!("w{writer}"))],
                Timestamp(i * 60),
                writer as f64 * 1000.0 + i as f64,
            )
            .expect("valid point")
        })
        .collect()
}

#[test]
fn concurrent_writers_do_not_lose_or_duplicate_points() {
    const WRITERS: usize = 8;
    const POINTS: i64 = 500;
    const BATCH: usize = 50;

    let db = Arc::new(ShardedTsdb::with_chunk_size(4, 32));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let pts = writer_points(w, POINTS);
                let mut written = 0u64;
                for chunk in pts.chunks(BATCH) {
                    written += db.put_batch(chunk);
                }
                written
            })
        })
        .collect();

    // Concurrent readers: queries and scans while writes are in flight
    // must not deadlock or observe torn state (each sees some consistent
    // prefix of the writes).
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for _ in 0..50 {
                // Scan before stats: points only grow in this test, so a
                // scan snapshot never exceeds a later stats snapshot (the
                // two calls are not atomic across shards).
                let scan = db.integrity_scan();
                let st = db.stats();
                assert!(scan.readable_points + scan.quarantined_points <= st.points);
                let q = Query::range("stress.metric", Timestamp(0), Timestamp(i64::MAX));
                let _ = db.execute(&q);
                std::thread::yield_now();
            }
        })
    };

    let mut total = 0u64;
    for h in handles {
        total += h.join().expect("writer panicked");
    }
    reader.join().expect("reader panicked");

    assert_eq!(total, (WRITERS as u64) * (POINTS as u64));
    let st = db.stats();
    assert_eq!(st.points, total, "store lost or duplicated points");
    assert_eq!(st.series, WRITERS, "one series per writer expected");

    // Contents match a serial reference ingest exactly.
    let reference = ShardedTsdb::with_chunk_size(1, 32);
    for w in 0..WRITERS {
        reference.put_batch(&writer_points(w, POINTS));
    }
    for w in 0..WRITERS {
        let tags: TagSet = [("device".to_string(), format!("w{w}"))].into();
        let got = db.read_series("stress.metric", &tags, Timestamp(0), Timestamp(i64::MAX));
        let want = reference.read_series("stress.metric", &tags, Timestamp(0), Timestamp(i64::MAX));
        assert_eq!(got, want, "writer {w} series diverged from serial ingest");
    }
}

#[test]
fn concurrent_writers_with_interleaved_eviction() {
    const WRITERS: usize = 4;
    let db = Arc::new(ShardedTsdb::with_chunk_size(4, 16));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for chunk in writer_points(w, 300).chunks(25) {
                    db.put_batch(chunk);
                }
            })
        })
        .collect();
    // Evictions race with the writers; they must stay panic-free and
    // keep the store consistent.
    for cutoff in [1_000i64, 5_000, 9_000] {
        let _ = db.evict_before(Timestamp(cutoff));
    }
    for h in handles {
        h.join().expect("writer panicked");
    }
    // Final sweep removes everything below the last cutoff deterministically.
    db.evict_before(Timestamp(9_000)).expect("evict");
    let st = db.stats();
    // Each writer wrote times 0..300*60; at least points >= 9000/60 survive.
    let survivors_per_writer = 300 - 9_000 / 60;
    assert_eq!(st.points, (WRITERS as u64) * survivors_per_writer as u64);
    let scan = db.integrity_scan();
    assert_eq!(scan.readable_points + scan.quarantined_points, st.points);
}

#[test]
fn concurrent_readers_get_the_reference_answers() {
    const DEVICES: usize = 12;
    const POINTS: i64 = 576; // two days at a 5-minute cadence
    let db = ShardedTsdb::with_chunk_size(4, 64);
    for d in 0..DEVICES {
        let city = if d % 2 == 0 { "trondheim" } else { "vejle" };
        let pts: Vec<DataPoint> = (0..POINTS)
            .map(|i| {
                DataPoint::new(
                    "ctt.air.co2",
                    vec![
                        ("city".to_string(), city.to_string()),
                        ("device".to_string(), format!("n{d}")),
                    ],
                    Timestamp(i * 300),
                    400.0 + d as f64 + (i % 37) as f64 * 0.5,
                )
                .expect("valid point")
            })
            .collect();
        db.put_batch(&pts);
    }
    db.seal_all();
    let range = || Query::range("ctt.air.co2", Timestamp(0), Timestamp(POINTS * 300));
    let queries = [
        range().with_tag("city", "trondheim"),
        range().group_by("device"),
        range().aggregate(Aggregator::P95),
        range().downsample(Downsample {
            interval: Span::hours(1),
            aggregator: Aggregator::Avg,
            fill: FillPolicy::None,
        }),
    ];
    let reference: Vec<_> = queries
        .iter()
        .map(|q| db.execute_with(q, ServePolicy::raw()).expect("raw query"))
        .collect();
    assert!(reference.iter().all(|r| !r.is_empty()));
    // All readers start together, so their first, cache-cold rounds
    // collect the same shards at the same time.
    let start = Barrier::new(queries.len());
    std::thread::scope(|s| {
        for (q, want) in queries.iter().zip(&reference) {
            let (db, start) = (&db, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..200 {
                    let got = db.execute(q).expect("query");
                    assert_eq!(&got, want, "round {round} diverged on {q:?}");
                }
            });
        }
    });
}
