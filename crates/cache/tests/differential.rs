//! Differential property suite: the fused fast-path hierarchy against the
//! retained reference walks.
//!
//! [`CoherentHierarchy`] — the one engine the measurement pipeline drives —
//! carries precomputed shift/mask geometry, a single-line short-circuit, a
//! per-thread MRU line filter and a timestamp-LRU L1, all claimed to be
//! *exactly* equivalent to the original per-access division-based walks
//! preserved in `halo_cache::reference`. These properties prove it on
//! randomized traces across geometries (including ways=1, non-power-of-two
//! set counts and page sizes, and prefetch on/off): on one thread against
//! the plain [`ReferenceHierarchy`], and across thread interleavings
//! against [`ReferenceCoherentHierarchy`] — counter for counter, MESI-lite
//! state for state.
//!
//! Case count per property follows the vendored proptest's config and the
//! `HALO_PROPTEST_CASES` override (CI trims it, soak runs raise it).

use halo_cache::{
    CacheConfig, CoherenceStats, CoherentHierarchy, HierarchyConfig, ReferenceCoherentHierarchy,
    ReferenceHierarchy, TimingModel,
};
use proptest::prelude::*;

/// A small geometry from the generated knobs. L1 set counts of 3 exercise
/// the modulo fallback (no mask); sets=1 exercises the degenerate
/// fully-associative corner; ways=1 the direct-mapped one. The L2/L3 stay
/// small so evictions and prefetch interactions actually happen within a
/// few hundred accesses.
#[allow(clippy::too_many_arguments)]
fn geometry(
    line: u64,
    l1_ways: u32,
    l1_sets: u64,
    prefetch: bool,
    page_bytes: u64,
    tlb_ways: u32,
    tlb_sets: u32,
) -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig {
            size_bytes: line * u64::from(l1_ways) * l1_sets,
            line_bytes: line,
            ways: l1_ways,
        },
        l2: CacheConfig { size_bytes: line * 4 * 8, line_bytes: line, ways: 4 },
        l3: CacheConfig { size_bytes: line * 8 * 16, line_bytes: line, ways: 8 },
        tlb_entries: tlb_ways * tlb_sets,
        tlb_ways,
        page_bytes,
        adjacent_line_prefetch: prefetch,
    }
}

/// Page sizes under test: the real 4 KiB, a non-power-of-two (the page
/// divider must fall back to division), and one small enough that most
/// accesses touch several pages.
const PAGES: [u64; 3] = [4096, 1000, 128];

/// Width from a generated exponent: 1..=16 bytes, so wide accesses
/// straddle lines and pages.
fn widths(step_exp: u8) -> u8 {
    1u8 << (step_exp % 5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One-thread fast path ≡ the plain reference walk, including across
    /// interleaved flushes (which reset the MRU filter) and varied dTLB
    /// geometries. With no peer to cohere with, the coherence counters stay
    /// zero and the coherent cycle model degenerates to the plain one.
    #[test]
    fn one_thread_coherent_matches_reference(
        line_exp in 5u32..7,
        l1_ways in 1u32..5,
        l1_sets in 1u64..5,
        prefetch in any::<bool>(),
        page_sel in 0usize..3,
        tlb_ways in 1u32..3,
        tlb_sets in 1u32..5,
        trace in proptest::collection::vec((0u64..8192, 0u8..5, any::<bool>()) , 1..400),
    ) {
        let config = geometry(
            1 << line_exp, l1_ways, l1_sets, prefetch, PAGES[page_sel], tlb_ways, tlb_sets,
        );
        let mut fast = CoherentHierarchy::new(config);
        let mut reference = ReferenceHierarchy::new(config);
        for (i, &(addr, wexp, store)) in trace.iter().enumerate() {
            let width = widths(wexp);
            fast.access(addr, width, store);
            reference.access(addr, width, store);
            if i % 97 == 96 {
                fast.flush();
                reference.flush();
                // Replaying the access right after the flush is what a
                // stale MRU filter would wrongly count as a hit.
                fast.access(addr, width, store);
                reference.access(addr, width, store);
            }
            prop_assert_eq!(fast.stats(), reference.stats(), "diverged at step {}", i);
            prop_assert_eq!(fast.coherence(), CoherenceStats::default(), "step {}", i);
        }
        let t = TimingModel::skylake_like();
        let instructions = trace.len() as u64;
        prop_assert_eq!(
            t.cycles(instructions, &reference.stats()),
            t.cycles_coherent(instructions, &fast.stats(), &fast.coherence())
        );
    }

    /// Thread-aware fast path ≡ reference MESI-lite walk: aggregate
    /// counters, coherence traffic, per-thread breakdowns, and the
    /// MESI-lite state of every touched line in every thread's L1D.
    #[test]
    fn coherent_hierarchy_matches_reference(
        line_exp in 5u32..7,
        l1_ways in 1u32..5,
        l1_sets in 1u64..5,
        prefetch in any::<bool>(),
        page_sel in 0usize..3,
        trace in proptest::collection::vec(
            (0u16..4, 0u64..2048, 0u8..5, any::<bool>()), 1..400),
    ) {
        let config =
            geometry(1 << line_exp, l1_ways, l1_sets, prefetch, PAGES[page_sel], 2, 4);
        let mut fast = CoherentHierarchy::new(config);
        let mut reference = ReferenceCoherentHierarchy::new(config);
        for (i, &(thread, addr, wexp, store)) in trace.iter().enumerate() {
            let width = widths(wexp);
            fast.set_thread(thread);
            reference.set_thread(thread);
            fast.access(addr, width, store);
            reference.access(addr, width, store);
            prop_assert_eq!(fast.stats(), reference.stats(), "stats diverged at step {}", i);
            prop_assert_eq!(
                fast.coherence(), reference.coherence(), "coherence diverged at step {}", i);
        }
        prop_assert_eq!(fast.thread_stats(), reference.thread_stats());
        for &(_, addr, _, _) in &trace {
            for t in 0..4u16 {
                prop_assert_eq!(
                    fast.line_state(t, addr),
                    reference.line_state(t, addr),
                    "state of addr {:#x} in thread {} diverged", addr, t
                );
            }
        }
    }

    /// `access_batch` ≡ per-access delivery at arbitrary batch boundaries.
    /// Batches never span a thread switch (the engine flushes before
    /// announcing one), so the trace is chunked within each thread's run
    /// of accesses.
    #[test]
    fn coherent_batch_matches_per_access(
        l1_ways in 1u32..5,
        l1_sets in 1u64..5,
        prefetch in any::<bool>(),
        chunk in 1usize..48,
        trace in proptest::collection::vec(
            (0u16..4, 0u64..2048, 0u8..5, any::<bool>()), 1..400),
    ) {
        let config = geometry(64, l1_ways, l1_sets, prefetch, 4096, 2, 4);
        let mut batched = CoherentHierarchy::new(config);
        let mut serial = CoherentHierarchy::new(config);
        // Split the trace into same-thread runs, then feed each run in
        // `chunk`-sized batches.
        let mut start = 0;
        while start < trace.len() {
            let thread = trace[start].0;
            let mut end = start;
            while end < trace.len() && trace[end].0 == thread {
                end += 1;
            }
            let addrs: Vec<u64> = trace[start..end].iter().map(|&(_, a, _, _)| a).collect();
            let ws: Vec<u8> = trace[start..end].iter().map(|&(_, _, w, _)| widths(w)).collect();
            let stores: Vec<bool> = trace[start..end].iter().map(|&(_, _, _, s)| s).collect();
            batched.set_thread(thread);
            for s in (0..addrs.len()).step_by(chunk) {
                let e = (s + chunk).min(addrs.len());
                batched.access_batch(&addrs[s..e], &ws[s..e], &stores[s..e]);
            }
            serial.set_thread(thread);
            for i in 0..addrs.len() {
                serial.access(addrs[i], ws[i], stores[i]);
            }
            start = end;
        }
        prop_assert_eq!(batched.stats(), serial.stats());
        prop_assert_eq!(batched.coherence(), serial.coherence());
        prop_assert_eq!(batched.thread_stats(), serial.thread_stats());
    }
}
