//! Deterministic parallel fan-out for workload sweeps.
//!
//! `halo plot`, `halo run --benchmark all`, and the fig12/fig13/fig14
//! harnesses are embarrassingly parallel across workloads: every job owns
//! its whole pipeline (profiler, allocators, simulated memory), so nothing
//! is shared but the read-only workload descriptions. [`par_each_ordered`]
//! runs such jobs on scoped std threads and delivers results **in input
//! order, streamed as soon as each prefix completes** — so callers that
//! render results to text print rows progressively (like the old serial
//! loops) yet produce byte-identical output at any thread count, the
//! property `tests/cli_smoke.rs` pins down. [`par_map`] is the
//! collect-everything convenience wrapper.
//!
//! Thread count: `HALO_THREADS` if set (a positive integer; `1` forces the
//! serial path), else [`std::thread::available_parallelism`], capped at
//! the number of jobs. No crates.io dependency — just `std::thread::scope`,
//! an atomic work-stealing cursor, and a mutex/condvar for in-order
//! delivery.

use halo_graph::SubGraph;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Parse a `HALO_THREADS` value: a positive integer (`1` forces the
/// serial path). `Err` describes why the value is unusable — `0` and
/// non-numeric strings used to be silently ignored, which made typos like
/// `HALO_THREADS=max` run at full parallelism without a word.
pub fn parse_halo_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "HALO_THREADS={value} is invalid: thread count must be at least 1 \
             (use 1 to force the serial path)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "HALO_THREADS={value} is invalid: expected a positive integer, \
             e.g. HALO_THREADS=1 for the serial path"
        )),
    }
}

/// Worker threads to use for `jobs` independent jobs (≥ 1).
///
/// Honours `HALO_THREADS` when set to a valid positive integer; an invalid
/// value is reported on stderr via [`crate::parse_env_or_warn`] (once per
/// process) and falls back to the hardware parallelism instead of being
/// silently ignored.
pub fn thread_count(jobs: usize) -> usize {
    let hw = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested =
        crate::parse_env_or_warn("HALO_THREADS", "using hardware parallelism", parse_halo_threads)
            .unwrap_or_else(hw);
    requested.min(jobs).max(1)
}

/// Sets the shared panic flag if its thread unwinds, so the delivering
/// thread stops waiting on the condvar instead of deadlocking.
struct PanicSignal<'a> {
    flag: &'a AtomicBool,
    ready: &'a Condvar,
}

impl Drop for PanicSignal<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.flag.store(true, Ordering::Release);
            self.ready.notify_all();
        }
    }
}

/// Apply `f` to every item on a pool of scoped threads, handing each
/// result to `sink` in input order as soon as its prefix is complete
/// (item N's result is delivered once items 0..N have been delivered).
///
/// `sink` returns `false` to cancel the sweep: jobs not yet claimed are
/// skipped, already-running jobs finish but their results are dropped.
/// Panics in `f` propagate to the caller with their original payload.
pub fn par_each_ordered<T, R, F, S>(items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R) -> bool,
{
    par_each_ordered_on(thread_count(items.len()), items, f, sink);
}

/// [`par_each_ordered`] on exactly `threads` workers (`≤ 1` runs serially
/// on the calling thread), so tests can force the parallel path on any
/// host.
fn par_each_ordered_on<T, R, F, S>(threads: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R) -> bool,
{
    if threads <= 1 {
        for item in items {
            if !sink(f(item)) {
                return;
            }
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let panicked = AtomicBool::new(false);
    let ready = Condvar::new();
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|| {
                let _signal = PanicSignal { flag: &panicked, ready: &ready };
                loop {
                    if cancelled.load(Ordering::Acquire) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = f(item); // off-lock: jobs run concurrently
                    let mut guard = slots.lock().expect("sweep mutex");
                    guard[i] = Some(result);
                    drop(guard);
                    ready.notify_all();
                }
            }));
        }
        // This (the spawning) thread delivers results in order while the
        // workers fill slots; the block releases the slot lock before the
        // joins below.
        {
            let mut next = 0;
            let mut guard = slots.lock().expect("sweep mutex");
            while next < items.len() {
                if panicked.load(Ordering::Acquire) {
                    // Stop surviving workers from claiming further jobs; the
                    // worker's panic is re-raised after the joins below.
                    cancelled.store(true, Ordering::Release);
                    break;
                }
                match guard[next].take() {
                    Some(result) => {
                        drop(guard);
                        if !sink(result) {
                            cancelled.store(true, Ordering::Release);
                            break;
                        }
                        next += 1;
                        guard = slots.lock().expect("sweep mutex");
                    }
                    // Timed wait: the panic flag is stored without the lock,
                    // so a pure `wait` could miss its notification; the
                    // timeout bounds delivery latency on that (rare) path.
                    None => {
                        guard = ready
                            .wait_timeout(guard, std::time::Duration::from_millis(50))
                            .expect("sweep mutex")
                            .0
                    }
                }
            }
        }
        // Joining by hand keeps the worker's own payload: left to the
        // scope, it would be replaced by "a scoped thread panicked".
        let mut first_panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// [`par_each_ordered`], collected: apply `f` to every item and return all
/// results in input order regardless of completion order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    par_each_ordered(items, f, |r| {
        results.push(r);
        true
    });
    results
}

/// Union per-thread profiling shards into one [`SubGraph`] by parallel
/// tree reduction: each round pairs adjacent shards and merges the pairs
/// concurrently (an odd tail passes through), halving the count until one
/// remains. Because [`SubGraph::merge`] is commutative and associative,
/// the result is observably identical to the serial left fold at any
/// thread count — `tests/property_invariants.rs` pins that down.
///
/// `par_map` borrows its items, but `merge` consumes both sides; each
/// pair rides in a `Mutex<Option<_>>` cell the worker takes ownership
/// from. The per-round mutex traffic is two uncontended locks per merge,
/// noise next to the merges themselves.
pub fn par_merge_subgraphs(mut shards: Vec<SubGraph>) -> SubGraph {
    while shards.len() > 1 {
        type Cell = Mutex<(Option<SubGraph>, Option<SubGraph>)>;
        let mut cells: Vec<Cell> = Vec::with_capacity(shards.len().div_ceil(2));
        let mut iter = shards.into_iter();
        while let Some(a) = iter.next() {
            cells.push(Mutex::new((Some(a), iter.next())));
        }
        shards = par_map(&cells, |cell| {
            let (a, b) = {
                let mut guard = cell.lock().expect("merge cell");
                (guard.0.take(), guard.1.take())
            };
            let a = a.expect("each cell is visited exactly once");
            match b {
                Some(b) => a.merge(b),
                None => a,
            }
        });
    }
    shards.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_graph::NodeId;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let mut out = Vec::new();
            par_each_ordered_on(
                threads,
                &items,
                |&n| {
                    // Reverse completion order: later items finish first.
                    std::thread::sleep(std::time::Duration::from_micros(100 - n));
                    n * 2
                },
                |r| {
                    out.push(r);
                    true
                },
            );
            assert_eq!(out, items.iter().map(|n| n * 2).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(par_map(&[] as &[u32], |&n| n), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&n| n + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_capped_by_jobs_and_floored_at_one() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(64) >= 1);
    }

    #[test]
    fn halo_threads_values_parse_or_explain() {
        assert_eq!(parse_halo_threads("1"), Ok(1));
        assert_eq!(parse_halo_threads("16"), Ok(16));
        assert_eq!(parse_halo_threads(" 4 "), Ok(4), "surrounding whitespace tolerated");
        for bad in ["0", "max", "", "-2", "1.5", "two"] {
            let err = parse_halo_threads(bad).expect_err(bad);
            assert!(err.contains("HALO_THREADS"), "error names the variable: {err}");
            assert!(err.contains("invalid"), "error says why: {err}");
        }
    }

    #[test]
    fn sink_cancellation_stops_the_sweep() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 4] {
            let started = AtomicUsize::new(0);
            let mut delivered = Vec::new();
            par_each_ordered_on(
                threads,
                &items,
                |&n| {
                    started.fetch_add(1, Ordering::Relaxed);
                    // Slow enough that the sweep cannot drain all 1000 jobs
                    // before the sink's cancellation lands.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    n
                },
                |n| {
                    delivered.push(n);
                    n < 3 // cancel after delivering 0, 1, 2, 3
                },
            );
            assert_eq!(delivered, vec![0, 1, 2, 3], "{threads} threads");
            // Unclaimed jobs were skipped (in-flight ones may still finish).
            let started = started.load(Ordering::Relaxed);
            assert!(started < 1000, "cancellation did not stop the sweep on {threads} threads");
        }
    }

    #[test]
    fn delivery_streams_before_the_sweep_finishes() {
        // Item 9 blocks until item 0 has been *delivered* — only possible
        // if delivery is streamed, not batched after all jobs complete.
        use std::sync::atomic::AtomicBool;
        let first_delivered = AtomicBool::new(false);
        let items: Vec<u32> = (0..10).collect();
        let mut seen = 0;
        par_each_ordered_on(
            2,
            &items,
            |&n| {
                if n == 9 {
                    while !first_delivered.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                n
            },
            |_| {
                seen += 1;
                first_delivered.store(true, Ordering::Release);
                true
            },
        );
        assert_eq!(seen, 10);
    }

    #[test]
    fn tree_merge_matches_serial_fold() {
        // Shards with overlapping nodes/edges and an odd count (so the
        // pass-through tail path runs).
        let shards: Vec<SubGraph> = (0..7u32)
            .map(|s| {
                let mut sub = SubGraph::new();
                for i in 0..20u32 {
                    sub.add_accesses(NodeId((s * 3 + i) % 25), (s + i) as u64);
                    sub.add_edge_weight(
                        NodeId(i % 5),
                        NodeId((s + i) % 25),
                        1 + (s + i) as u64 % 7,
                    );
                }
                sub
            })
            .collect();
        let serial = shards.iter().cloned().fold(SubGraph::new(), SubGraph::merge);
        let parallel = par_merge_subgraphs(shards);
        assert_eq!(parallel.len(), serial.len());
        assert_eq!(parallel.edges(), serial.edges());
        for i in 0..25 {
            assert_eq!(parallel.accesses(NodeId(i)), serial.accesses(NodeId(i)), "node {i}");
        }
    }

    #[test]
    fn tree_merge_handles_empty_and_single() {
        assert!(par_merge_subgraphs(Vec::new()).is_empty());
        let mut only = SubGraph::new();
        only.add_edge_weight(NodeId(0), NodeId(1), 9);
        let merged = par_merge_subgraphs(vec![only]);
        assert_eq!(merged.weight(NodeId(0), NodeId(1)), 9);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        par_each_ordered_on(
            2,
            &items,
            |&n| {
                if n == 3 {
                    panic!("boom");
                }
                n
            },
            |_| true,
        );
    }
}
