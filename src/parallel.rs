//! Deterministic parallelism: a crossbeam-channel worker pool with an
//! id-ordered merge, and the workspace-wide worker-width policy. Its users
//! are [`crate::Fleet`]'s same-slice shard dispatch and the end-to-end
//! benchmark in `bench_e2e/`.
//!
//! Parallel execution must not perturb replay: determinism tests compare
//! alarm traces and TSDB contents byte for byte across runs. The rule the
//! pool follows is *sequence everywhere*: each unit of work carries its
//! submission index, workers race freely, and results are merged back into
//! submission order before any stateful consumer sees them. Scheduling
//! nondeterminism therefore never escapes the pool.

use crossbeam::channel::{self, Receiver, Sender};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The machine's available parallelism clamped to `[lo, hi]` — the single
/// worker-width policy for every fixed-size pool in the workspace (fleet
/// slice dispatch, bench fan-outs), so a fleet of test pipelines cannot
/// oversubscribe the host. Falls back to `lo` when the parallelism cannot
/// be determined.
pub fn worker_width(lo: usize, hi: usize) -> usize {
    let par = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(lo);
    clamp_width(par, lo, hi)
}

/// The clamp behind [`worker_width`], split out so the boundary behavior
/// is testable independent of the host's core count. An inverted range
/// (`lo > hi`) is normalized by swapping rather than panicking — `clamp`
/// itself panics on `lo > hi`, and a misconfigured width bound must not
/// take down a pipeline.
fn clamp_width(par: usize, lo: usize, hi: usize) -> usize {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    par.clamp(lo, hi)
}

/// One queued job: its index in the caller's batch, the input, and the
/// caller's reply channel.
type Job<I, O> = (usize, I, Sender<(usize, O)>);

/// A fixed pool of worker threads applying one pure function to batches of
/// jobs, returning results in submission order (deterministic merge).
///
/// The function must be pure (no shared mutable state): the pool guarantees
/// *ordering* of results, while purity is what guarantees their *values*
/// are schedule-independent. Several threads may call [`OrderedPool::map`]
/// at once: every call collects its results on its own reply channel.
pub struct OrderedPool<I, O> {
    jobs: Option<Sender<Job<I, O>>>,
    workers: Vec<JoinHandle<()>>,
    /// Kept for the single-item inline fast path in [`OrderedPool::map`].
    f: Arc<dyn Fn(I) -> O + Send + Sync>,
}

impl<I, O> fmt::Debug for OrderedPool<I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<I: Send + 'static, O: Send + 'static> OrderedPool<I, O> {
    /// Spawn `workers` threads (clamped to at least 1) running `f`.
    pub fn new<F>(workers: usize, f: F) -> Self
    where
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (jobs_tx, jobs_rx) = channel::unbounded::<Job<I, O>>();
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx: Receiver<Job<I, O>> = jobs_rx.clone();
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    while let Ok((seq, job, reply)) = rx.recv() {
                        // A caller that stopped listening lost nothing
                        // another caller needs.
                        let _ = reply.send((seq, f(job)));
                    }
                })
            })
            .collect();
        OrderedPool {
            jobs: Some(jobs_tx),
            workers: handles,
            f,
        }
    }

    /// Apply the pool's function to every item, returning outputs in input
    /// order regardless of which worker finished first.
    ///
    /// Single-item batches run inline on the caller thread, skipping the
    /// channel round-trip: the function is pure, so where it runs cannot
    /// change the value, and one-item batches are the common shape for
    /// fleet slices that touch a single shard.
    pub fn map(&self, items: Vec<I>) -> Vec<O> {
        if items.len() == 1 {
            return items.into_iter().map(|item| (self.f)(item)).collect();
        }
        let Some(jobs) = self.jobs.as_ref() else {
            return Vec::new();
        };
        let (reply_tx, reply_rx) = channel::unbounded::<(usize, O)>();
        let mut submitted = 0usize;
        for (seq, item) in items.into_iter().enumerate() {
            if jobs.send((seq, item, reply_tx.clone())).is_err() {
                break;
            }
            submitted += 1;
        }
        drop(reply_tx);
        let mut slots: Vec<Option<O>> = (0..submitted).map(|_| None).collect();
        let mut received = 0usize;
        while received < submitted {
            let Ok((seq, out)) = reply_rx.recv() else {
                break; // all workers gone; return what arrived
            };
            if let Some(slot) = slots.get_mut(seq) {
                if slot.replace(out).is_none() {
                    received += 1;
                }
            }
        }
        slots.into_iter().flatten().collect()
    }
}

impl<I, O> Drop for OrderedPool<I, O> {
    fn drop(&mut self) {
        // Disconnect the job channel so workers fall out of recv, then join.
        self.jobs = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        let pool: OrderedPool<u64, u64> = OrderedPool::new(4, |x| {
            // Uneven work so completion order differs from submission order.
            let spin = (x % 7) * 1000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * 2
        });
        let items: Vec<u64> = (0..500).collect();
        let out = pool.map(items.clone());
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expect);
        // The pool is reusable across batches.
        assert_eq!(pool.map(vec![7, 3]), vec![14, 6]);
        // Single-item batches take the inline fast path; same contract.
        assert_eq!(pool.map(vec![5]), vec![10]);
        assert_eq!(pool.map(Vec::new()), Vec::<u64>::new());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let pool: OrderedPool<u64, u64> = OrderedPool::new(2, |x| x * 3);
        std::thread::scope(|s| {
            for caller in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..200u64 {
                        let items: Vec<u64> = (0..4)
                            .map(|i| caller * 1_000_000 + round * 10 + i)
                            .collect();
                        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
                        assert_eq!(pool.map(items), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn map_is_deterministic_across_runs() {
        let run = || {
            let pool: OrderedPool<u32, u32> =
                OrderedPool::new(8, |x: u32| x.wrapping_mul(2654435761));
            pool.map((0..2000).collect())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clamp_width_boundaries() {
        // Degenerate range lo == hi pins the width regardless of cores.
        assert_eq!(clamp_width(64, 4, 4), 4);
        assert_eq!(clamp_width(1, 4, 4), 4);
        // Inverted range is normalized, not a panic.
        assert_eq!(clamp_width(64, 8, 2), 8);
        assert_eq!(clamp_width(1, 8, 2), 2);
        assert_eq!(clamp_width(5, 8, 2), 5);
        // Single-core container: parallelism of 1 clamps up to lo.
        assert_eq!(clamp_width(1, 2, 8), 2);
        // Big host clamps down to hi.
        assert_eq!(clamp_width(128, 2, 8), 8);
        // In-range parallelism passes through.
        assert_eq!(clamp_width(4, 2, 8), 4);
    }

    #[test]
    fn worker_width_within_requested_bounds() {
        let w = worker_width(2, 8);
        assert!((2..=8).contains(&w), "width {w}");
        // Inverted bounds must not panic at the public entry point either.
        let w = worker_width(8, 2);
        assert!((2..=8).contains(&w), "width {w}");
    }
}
