//! Thread-aware cache hierarchy with a MESI-lite coherence cost model.
//!
//! A single L1D shared by every logical thread would hide a sharded
//! allocator's true/false-sharing behaviour. [`CoherentHierarchy`] gives
//! every logical thread (announced via `Op::ThreadSwitch` upstream) its
//! own private L1D and dTLB over the *shared* L2/L3, and tracks a per-line
//! MESI-lite state in each private L1:
//!
//! * a demand fill is **Exclusive** when no other thread holds the line,
//!   **Shared** otherwise (a read miss also downgrades remote
//!   Modified/Exclusive copies to Shared);
//! * a write hit on Exclusive upgrades silently to **Modified**;
//! * a write hit on Shared is a bus upgrade: it counts one `upgrade`,
//!   invalidates every remote copy (one `invalidation` each), and leaves
//!   the writer Modified;
//! * a write miss invalidates every remote copy before filling Modified.
//!
//! Invalidations are the cycle-model hook: each one charges
//! [`TimingModel::coherence_penalty`](crate::TimingModel) via
//! [`TimingModel::cycles_coherent`](crate::TimingModel::cycles_coherent),
//! so false sharing (two threads writing disjoint halves of one line)
//! shows up as time, exactly the cost per-thread sharding removes.
//!
//! When only one logical thread ever runs, no line can ever be Shared, so
//! every counter here stays zero and the hit/miss/TLB stream — private L1
//! over shared L2/L3 with the same adjacent-line prefetch — is
//! *bit-identical* to the plain single-threaded walk
//! [`ReferenceHierarchy`](crate::ReferenceHierarchy); the differential
//! property suite pins that identity.

use crate::hierarchy::{AccessStats, HierarchyConfig};
use crate::set_assoc::{CacheConfig, SetAssocCache};
use crate::span::SpanUnit;

/// MESI-lite state of a line in one thread's private L1D.
///
/// The model folds the snooping protocol's transient states away: a line
/// is either absent ([`Invalid`](LineState::Invalid)) or resident in
/// exactly one of the three stable states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not resident in that thread's L1D.
    Invalid,
    /// Resident, clean, and possibly replicated in other threads' L1Ds.
    Shared,
    /// Resident, clean, and the only L1 copy.
    Exclusive,
    /// Resident, written, and the only L1 copy.
    Modified,
}

/// Coherence-traffic counters accumulated by a [`CoherentHierarchy`].
///
/// All three counters are zero for any run that only ever uses one
/// logical thread — the single-thread identity the differential tests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote L1 copies invalidated by a write (the per-event cost the
    /// timing model charges [`coherence_penalty`] for).
    ///
    /// [`coherence_penalty`]: crate::TimingModel::coherence_penalty
    pub invalidations: u64,
    /// Write hits on Shared lines (bus upgrades, S→M). Informational:
    /// the invalidations they broadcast are counted separately.
    pub upgrades: u64,
    /// Demand misses filled while another thread held the line (served by
    /// cache-to-cache transfer on real hardware) — the true-sharing read
    /// traffic that sharding cannot remove.
    pub remote_fills: u64,
}

/// Per-thread slice of a [`CoherentHierarchy`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadAccessStats {
    /// Logical thread id (the `Op::ThreadSwitch` operand).
    pub thread: u16,
    /// The accesses this thread issued and how its private L1/TLB and the
    /// shared L2/L3 served them.
    pub stats: AccessStats,
}

/// The per-thread MRU filter: the `(line, page)` the domain's previous
/// access ended on, plus whether that line is known Modified (so a store
/// hit is a state-machine no-op). Cleared by remote invalidation and
/// flush; downgraded (`writable = false`) by a remote read; never stale
/// across own accesses because every slow-path access rewrites it. The
/// full invalidation-rule argument lives in DESIGN.md §14.
#[derive(Debug, Clone, Copy)]
struct LineFilter {
    line: u64,
    page: u64,
    /// `true` only when the line is known Modified. `false` is always
    /// safe: it merely sends the next store down the exact slow path.
    writable: bool,
}

/// A private L1D whose lines carry their MESI-lite state inline: each set
/// is a `(tag, state)` list ordered MRU → LRU, replicating
/// [`SetAssocCache`]'s true-LRU maths exactly while making every state
/// lookup the same short way-scan as the hit check. This replaces the
/// former side `HashMap<u64, LineState>` — whose hashing dominated the
/// coherent hot loop — with zero-cost state access on the paths that need
/// it (write hits read the MRU slot directly; probes and invalidations
/// scan one set).
#[derive(Debug)]
struct StatefulL1 {
    sets: u64,
    set_mask: Option<u64>,
    ways: usize,
    /// Monotone access clock driving the timestamp-LRU replacement.
    clock: u64,
    /// Tag storage, `sets × ways`, empty slots holding [`Self::EMPTY`].
    /// Slots have **no positional recency meaning**: recency lives in
    /// `stamps`, so a hit is one timestamp store instead of the memmove a
    /// move-to-front list needs — element shuffling was the single
    /// largest term in the coherent hot loop.
    tags: Box<[u64]>,
    /// Last-touch clock value per slot (`0` = never touched, so empty
    /// ways are always preferred victims). Min stamp in a set is the
    /// true-LRU victim — the same line a move-to-front list would evict.
    stamps: Box<[u64]>,
    /// MESI-lite state of the line whose tag sits at the same flat index.
    /// Slots whose tag is [`Self::EMPTY`] hold garbage states that are
    /// never read (the sentinel can never match a probe).
    states: Box<[LineState]>,
    /// Flat index of the slot the last [`Self::access_line`] touched —
    /// the "MRU slot" that [`Self::mru_state`]/[`Self::set_mru_state`]
    /// address. Valid only between an access and the next mutation, which
    /// is exactly how the write-hit and fill-state-fixup paths use it
    /// (remote-domain probes in between touch *other* domains' L1s).
    mru: usize,
}

impl StatefulL1 {
    /// Sentinel tag for an empty way. Unreachable as a real tag: a line
    /// number is `addr >> line_shift` with `line_bytes ≥ 1`, and even at
    /// `line_bytes = 1` the tag `u64::MAX` would denote the last byte of
    /// the address space, which no modelled allocator hands out.
    const EMPTY: u64 = u64::MAX;

    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        StatefulL1 {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            clock: 0,
            tags: vec![Self::EMPTY; sets as usize * ways].into_boxed_slice(),
            stamps: vec![0u64; sets as usize * ways].into_boxed_slice(),
            states: vec![LineState::Invalid; sets as usize * ways].into_boxed_slice(),
            mru: 0,
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        }) as usize
    }

    /// Position of `line` in its set, if resident.
    #[inline]
    fn find(&self, base: usize, line: u64) -> Option<usize> {
        self.tags[base..base + self.ways].iter().position(|&t| t == line)
    }

    /// Touch `line`, filling it with `fill_state` on a miss (the LRU
    /// victim's state leaves with its tag). Returns whether it hit; on a
    /// hit the line keeps its state (read it via [`Self::mru_state`],
    /// update it via [`Self::set_mru_state`]). Victim choice is identical
    /// to [`SetAssocCache::access_line`]'s move-to-front list: the
    /// minimum stamp is the least-recently-touched resident way, with
    /// never-touched (stamp 0) empty ways preferred outright.
    #[inline]
    fn access_line(&mut self, line: u64, fill_state: LineState) -> bool {
        let set_idx = self.set_index(line);
        let base = set_idx * self.ways;
        self.clock += 1;
        if let Some(pos) = self.find(base, line) {
            self.stamps[base + pos] = self.clock;
            self.mru = base + pos;
            true
        } else {
            let set = &self.stamps[base..base + self.ways];
            let mut victim = 0;
            for i in 1..self.ways {
                if set[i] < set[victim] {
                    victim = i;
                }
            }
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            self.states[base + victim] = fill_state;
            self.mru = base + victim;
            false
        }
    }

    /// State of the slot the immediately preceding
    /// [`Self::access_line`] hit or filled.
    #[inline]
    fn mru_state(&self) -> LineState {
        self.states[self.mru]
    }

    /// Overwrite that slot's state (the write-hit upgrade and the
    /// post-probe fill fix-up).
    #[inline]
    fn set_mru_state(&mut self, state: LineState) {
        self.states[self.mru] = state;
    }

    /// State of `line` if resident (no recency update — the remote-probe
    /// read).
    #[inline]
    fn state_of(&self, line: u64) -> Option<LineState> {
        let base = self.set_index(line) * self.ways;
        self.find(base, line).map(|pos| self.states[base + pos])
    }

    /// Downgrade `line` to Shared if resident, without touching recency
    /// (the remote read-downgrade); returns whether a copy was found.
    #[inline]
    fn share_if_resident(&mut self, line: u64) -> bool {
        let base = self.set_index(line) * self.ways;
        if let Some(pos) = self.find(base, line) {
            self.states[base + pos] = LineState::Shared;
            true
        } else {
            false
        }
    }

    /// Remove `line` if resident (recency of survivors untouched — their
    /// stamps keep their relative order); returns whether a copy was
    /// dropped.
    fn invalidate_line(&mut self, line: u64) -> bool {
        let base = self.set_index(line) * self.ways;
        if let Some(pos) = self.find(base, line) {
            self.tags[base + pos] = Self::EMPTY;
            self.stamps[base + pos] = 0;
            true
        } else {
            false
        }
    }

    fn flush(&mut self) {
        self.tags.fill(Self::EMPTY);
        self.stamps.fill(0);
    }
}

/// One logical thread's private structures: a state-carrying L1D and a
/// dTLB. (The MESI-lite states live inside [`StatefulL1`]; eviction and
/// invalidation drop them together with the tag.)
#[derive(Debug)]
struct ThreadDomain {
    l1: StatefulL1,
    tlb: SetAssocCache,
    stats: AccessStats,
    /// Last-line MRU filter; `None` until the first access.
    filter: Option<LineFilter>,
}

impl ThreadDomain {
    fn new(config: &HierarchyConfig) -> Self {
        ThreadDomain {
            l1: StatefulL1::new(config.l1),
            tlb: SetAssocCache::new(CacheConfig {
                size_bytes: (config.tlb_entries as u64).max(config.tlb_ways as u64),
                line_bytes: 1,
                ways: config.tlb_ways,
            }),
            stats: AccessStats::default(),
            filter: None,
        }
    }

    /// Drop `line` from this L1 (and its state). Returns whether a copy
    /// was actually present.
    fn invalidate(&mut self, line: u64) -> bool {
        if self.l1.invalidate_line(line) {
            // A remote write killed the copy: the filter must not keep
            // reporting hits on it.
            if matches!(self.filter, Some(f) if f.line == line) {
                self.filter = None;
            }
            true
        } else {
            false
        }
    }

    /// A remote read downgraded `line` to Shared: a filtered store would
    /// now need a bus upgrade, so drop the write permission (loads keep
    /// fast-pathing — a read hit on Shared is stateless).
    fn downgrade(&mut self, line: u64) {
        if let Some(f) = &mut self.filter {
            if f.line == line {
                f.writable = false;
            }
        }
    }
}

/// Per-thread L1Ds and dTLBs over a shared L2/L3, with MESI-lite
/// coherence between the L1s. See the [module docs](self).
///
/// All levels fill on miss (mostly-inclusive, as on the evaluation part's
/// generation of Intel hardware) and replace true-LRU. Accesses that
/// straddle a line boundary are split and counted per line touched, which
/// is how a real L1D sees them.
#[derive(Debug)]
pub struct CoherentHierarchy {
    config: HierarchyConfig,
    l2: SetAssocCache,
    l3: SetAssocCache,
    /// Indexed by logical thread id; grown on demand by [`set_thread`].
    ///
    /// [`set_thread`]: CoherentHierarchy::set_thread
    threads: Vec<ThreadDomain>,
    current: usize,
    coherence: CoherenceStats,
    /// Precomputed shift/mask divider for L1 lines.
    line_unit: SpanUnit,
    /// Precomputed divider for pages (division fallback when the page
    /// size is not a power of two).
    page_unit: SpanUnit,
}

impl CoherentHierarchy {
    /// Build an empty hierarchy; accesses are attributed to logical
    /// thread 0 until [`set_thread`](CoherentHierarchy::set_thread) says
    /// otherwise (matching the engine, which starts on thread 0).
    pub fn new(config: HierarchyConfig) -> Self {
        CoherentHierarchy {
            config,
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            threads: vec![ThreadDomain::new(&config)],
            current: 0,
            coherence: CoherenceStats::default(),
            line_unit: SpanUnit::new(config.l1.line_bytes),
            page_unit: SpanUnit::new(config.page_bytes),
        }
    }

    /// The geometry this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Route subsequent accesses through logical thread `thread`'s private
    /// L1D/dTLB (the `Monitor::on_thread_switch` hook).
    pub fn set_thread(&mut self, thread: u16) {
        let t = thread as usize;
        while self.threads.len() <= t {
            self.threads.push(ThreadDomain::new(&self.config));
        }
        self.current = t;
    }

    /// Aggregate counters across all threads (field-for-field the sum of
    /// [`thread_stats`](CoherentHierarchy::thread_stats)). Summed on
    /// demand: the hot loop maintains only the per-domain counters, so
    /// every access saves the duplicate aggregate increments.
    pub fn stats(&self) -> AccessStats {
        let mut sum = AccessStats::default();
        for d in &self.threads {
            sum.loads += d.stats.loads;
            sum.stores += d.stats.stores;
            sum.l1_hits += d.stats.l1_hits;
            sum.l1_misses += d.stats.l1_misses;
            sum.l2_misses += d.stats.l2_misses;
            sum.l3_misses += d.stats.l3_misses;
            sum.tlb_misses += d.stats.tlb_misses;
        }
        sum
    }

    /// Coherence-traffic counters.
    pub fn coherence(&self) -> CoherenceStats {
        self.coherence
    }

    /// Per-thread counters, for every logical thread that issued at least
    /// one access, in thread-id order.
    pub fn thread_stats(&self) -> Vec<ThreadAccessStats> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, d)| d.stats.loads + d.stats.stores > 0)
            .map(|(t, d)| ThreadAccessStats { thread: t as u16, stats: d.stats })
            .collect()
    }

    /// MESI-lite state of the line containing `addr` in `thread`'s L1D
    /// (Invalid for unknown threads) — the hook the reference-model
    /// property test compares line-for-line.
    pub fn line_state(&self, thread: u16, addr: u64) -> LineState {
        let Some(domain) = self.threads.get(thread as usize) else {
            return LineState::Invalid;
        };
        let line = self.l2.line_of(addr);
        domain.l1.state_of(line).unwrap_or(LineState::Invalid)
    }

    /// Simulate a data access of `width` bytes at `addr` on the current
    /// logical thread. Line/page splitting and the shared-level walk
    /// mirror [`ReferenceHierarchy::access`](crate::ReferenceHierarchy::access)
    /// exactly.
    #[inline]
    pub fn access(&mut self, addr: u64, width: u8, store: bool) {
        let lines = self.line_unit.lines_touched(addr, width);
        let pages = self.page_unit.lines_touched(addr, width);
        let t = self.current;
        let domain = &mut self.threads[t];
        if store {
            domain.stats.stores += 1;
        } else {
            domain.stats.loads += 1;
        }
        // Single-line, single-page accesses (the overwhelmingly common
        // shape) run fused under one `domain` borrow: filter check, TLB,
        // L1, write-hit transition, and the filter update, with no loop
        // setup and no repeated `threads[t]` re-indexing.
        if lines.is_single() && pages.is_single() {
            // MRU filter: confined to the line and page this thread's
            // previous access ended on, the access is an L1+TLB hit whose
            // MRU promotions are no-ops, and — for stores — a
            // Modified-state write hit, which is a MESI no-op too. Remote
            // invalidations clear the filter and remote reads drop its
            // write permission, so the state machine stays exact.
            if let Some(f) = domain.filter {
                if f.line == lines.first && f.page == pages.first && (!store || f.writable) {
                    domain.stats.l1_hits += 1;
                    return;
                }
            }
            if !domain.tlb.access(pages.first) {
                domain.stats.tlb_misses += 1;
            }
            // The access leaves its line and page MRU in their sets; a
            // store leaves the line Modified (so the filter may fast-path
            // the next store), a load's final state is not re-checked
            // (`writable: false` is always safe — the next store simply
            // takes the exact slow path).
            let filter = Some(LineFilter { line: lines.first, page: pages.first, writable: store });
            if domain.l1.access_line(lines.first, LineState::Exclusive) {
                domain.stats.l1_hits += 1;
                if store {
                    // MESI-lite write-hit transition for the line the hit
                    // just stamped MRU. (A hit line is never Invalid.)
                    match domain.l1.mru_state() {
                        LineState::Modified => domain.filter = filter,
                        LineState::Shared => {
                            self.shared_write_upgrade(t, lines.first);
                            self.threads[t].filter = filter;
                        }
                        // Silent E→M upgrade: no bus traffic, no counters.
                        _ => {
                            domain.l1.set_mru_state(LineState::Modified);
                            domain.filter = filter;
                        }
                    }
                } else {
                    domain.filter = filter;
                }
            } else {
                domain.stats.l1_misses += 1;
                self.miss_line(t, lines.first, store);
                self.threads[t].filter = filter;
            }
            return;
        }
        // General path: line-straddling or page-straddling accesses.
        // dTLB: per page touched, on the current thread's private TLB.
        for page in pages.first..=pages.last {
            if !domain.tlb.access(page) {
                domain.stats.tlb_misses += 1;
            }
        }
        // Caches: per line touched.
        for line in lines.first..=lines.last {
            self.access_one_line(line, store);
        }
        // The walk leaves its final line and page MRU in their sets. A
        // store leaves every touched line Modified; a load's final state
        // is not tracked (false is always safe — the next store simply
        // takes the exact slow path).
        self.threads[t].filter =
            Some(LineFilter { line: lines.last, page: pages.last, writable: store });
    }

    /// Stream a batch of accesses (SoA slices, as flushed by the engine's
    /// batched monitor path) through the hierarchy on the current logical
    /// thread — identical, access for access, to calling
    /// [`access`](Self::access) per element, but monomorphised as one
    /// tight loop over the arrays.
    pub fn access_batch(&mut self, addrs: &[u64], widths: &[u8], stores: &[bool]) {
        debug_assert!(addrs.len() == widths.len() && addrs.len() == stores.len());
        for i in 0..addrs.len() {
            self.access(addrs[i], widths[i], stores[i]);
        }
    }

    #[inline]
    fn access_one_line(&mut self, line: u64, store: bool) {
        let t = self.current;
        // A miss fills with a provisional state, corrected after the
        // probe in `miss_line` (the fresh fill sits at the MRU slot, so
        // the fix-up is O(1)). A capacity/conflict victim silently takes
        // its state with it; dirty write-back is not modelled (the shared
        // L2 filled the line on the original demand miss, as in the
        // reference walk). The single `domain` borrow keeps the ~93%
        // hit path free of repeated `threads[t]` re-indexing.
        let domain = &mut self.threads[t];
        if domain.l1.access_line(line, LineState::Exclusive) {
            domain.stats.l1_hits += 1;
            if store {
                // MESI-lite write-hit transition for the line the hit
                // just stamped MRU.
                match domain.l1.mru_state() {
                    LineState::Modified => {}
                    LineState::Shared => self.shared_write_upgrade(t, line),
                    // Silent E→M upgrade: no bus traffic, no counters.
                    // (A hit line is never Invalid.)
                    _ => domain.l1.set_mru_state(LineState::Modified),
                }
            }
            return;
        }
        domain.stats.l1_misses += 1;
        self.miss_line(t, line, store);
    }

    /// The L1-miss slow path: coherence probe, fill-state fix-up, and the
    /// shared L2/L3 walk.
    fn miss_line(&mut self, t: usize, line: u64, store: bool) {
        // Coherence probe: does any other thread hold the line? Writes
        // invalidate remote copies, reads downgrade them to Shared.
        let mut remote_copies = false;
        for u in 0..self.threads.len() {
            if u == t {
                continue;
            }
            if store {
                if self.threads[u].invalidate(line) {
                    remote_copies = true;
                    self.coherence.invalidations += 1;
                }
            } else if self.threads[u].l1.share_if_resident(line) {
                remote_copies = true;
                self.threads[u].downgrade(line);
            }
        }
        if remote_copies {
            self.coherence.remote_fills += 1;
        }
        let state = match (store, remote_copies) {
            (true, _) => LineState::Modified,
            (false, true) => LineState::Shared,
            (false, false) => LineState::Exclusive,
        };
        self.threads[t].l1.set_mru_state(state);
        // Shared levels: exactly the reference walk (same calls, same
        // order), so single-thread L2/L3 contents stay bit-identical.
        let line_bytes = self.line_unit.bytes();
        let line_addr = line * line_bytes;
        let l2_hit = self.l2.access(line_addr);
        if !l2_hit {
            self.threads[t].stats.l2_misses += 1;
            if !self.l3.access(line_addr) {
                self.threads[t].stats.l3_misses += 1;
            }
        }
        if self.config.adjacent_line_prefetch {
            for neighbour in
                [line_addr.wrapping_add(line_bytes), line_addr.wrapping_sub(line_bytes)]
            {
                self.l2.access(neighbour);
                self.l3.access(neighbour);
            }
        }
    }

    /// Write hit on a Shared line: a bus upgrade announcing ownership,
    /// killing every remote copy. Counted even when remote copies were
    /// since evicted (the writer cannot know — the upgrade is still
    /// issued).
    fn shared_write_upgrade(&mut self, t: usize, line: u64) {
        self.coherence.upgrades += 1;
        for u in 0..self.threads.len() {
            if u != t && self.threads[u].invalidate(line) {
                self.coherence.invalidations += 1;
            }
        }
        self.threads[t].l1.set_mru_state(LineState::Modified);
    }

    /// Flush all levels, TLBs, and line states (counters are preserved).
    pub fn flush(&mut self) {
        self.l2.flush();
        self.l3.flush();
        for domain in &mut self.threads {
            domain.l1.flush();
            domain.tlb.flush();
            domain.filter = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceHierarchy;
    use crate::timing::TimingModel;

    const LINE: u64 = 64;

    fn coherent() -> CoherentHierarchy {
        CoherentHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn single_thread_is_bit_identical_to_plain_hierarchy() {
        // The deterministic core of the differential property suite: same
        // access stream, never switching threads, must produce the same
        // counters as the plain reference walk and the same cycles.
        for config in [
            HierarchyConfig::tiny(),
            HierarchyConfig { adjacent_line_prefetch: true, ..HierarchyConfig::tiny() },
            HierarchyConfig::xeon_w2195(),
        ] {
            let mut plain = ReferenceHierarchy::new(config);
            let mut coh = CoherentHierarchy::new(config);
            for i in 0..4000u64 {
                let addr = (i * 37) % 8192;
                let width = 1 + (i % 16) as u8;
                let store = i % 3 == 0;
                plain.access(addr, width, store);
                coh.access(addr, width, store);
            }
            assert_eq!(plain.stats(), coh.stats());
            assert_eq!(coh.coherence(), CoherenceStats::default());
            let t = TimingModel::skylake_like();
            assert_eq!(
                t.cycles(1_000, &plain.stats()),
                t.cycles_coherent(1_000, &coh.stats(), &coh.coherence())
            );
        }
    }

    #[test]
    fn exclusive_fill_then_silent_modified_upgrade() {
        let mut h = coherent();
        h.access(0, 8, false);
        assert_eq!(h.line_state(0, 0), LineState::Exclusive);
        h.access(0, 8, true); // E → M, no bus traffic
        assert_eq!(h.line_state(0, 0), LineState::Modified);
        assert_eq!(h.coherence(), CoherenceStats::default());
    }

    #[test]
    fn read_sharing_downgrades_to_shared() {
        let mut h = coherent();
        h.access(0, 8, true); // t0: M
        h.set_thread(1);
        h.access(0, 8, false); // t1 read miss: both S, cache-to-cache fill
        assert_eq!(h.line_state(0, 0), LineState::Shared);
        assert_eq!(h.line_state(1, 0), LineState::Shared);
        let c = h.coherence();
        assert_eq!(c.remote_fills, 1);
        assert_eq!(c.invalidations, 0);
        assert_eq!(c.upgrades, 0);
    }

    #[test]
    fn shared_write_hit_upgrades_and_invalidates() {
        let mut h = coherent();
        h.access(0, 8, false); // t0: E
        h.set_thread(1);
        h.access(0, 8, false); // both S
        h.access(0, 8, true); // t1 write *hit* on S: upgrade, kill t0's copy
        assert_eq!(h.line_state(1, 0), LineState::Modified);
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        let c = h.coherence();
        assert_eq!(c.upgrades, 1);
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn write_miss_invalidates_every_remote_copy() {
        let mut h = coherent();
        h.access(0, 8, false); // t0: E
        h.set_thread(1);
        h.access(0, 8, false); // t0, t1: S
        h.set_thread(2);
        h.access(0, 8, true); // t2 write miss: kill both copies
        assert_eq!(h.line_state(2, 0), LineState::Modified);
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.line_state(1, 0), LineState::Invalid);
        assert_eq!(h.coherence().invalidations, 2);
        assert_eq!(h.coherence().upgrades, 0);
    }

    #[test]
    fn false_sharing_ping_pong_on_one_split_line() {
        // Two threads write disjoint halves of one 64-byte line: every
        // store after the first misses (the other side just invalidated
        // the copy) and invalidates in turn — the pathology per-thread
        // sharded placement exists to avoid.
        let mut h = coherent();
        const ROUNDS: u64 = 10;
        for _ in 0..ROUNDS {
            h.set_thread(0);
            h.access(0, 8, true); // low half
            h.set_thread(1);
            h.access(32, 8, true); // high half, same line
        }
        let c = h.coherence();
        // Every store but the very first one invalidates the peer's copy.
        assert_eq!(c.invalidations, 2 * ROUNDS - 1);
        assert_eq!(c.upgrades, 0, "copies are always killed before a hit can upgrade");
        let s = h.stats();
        assert_eq!(s.l1_misses, 2 * ROUNDS, "each store misses: the line ping-pongs");
        // The invalidations carry a configurable cycle cost.
        let t = TimingModel::skylake_like();
        let with = t.cycles_coherent(0, &s, &c);
        let without = t.cycles(0, &s);
        assert_eq!(with - without, c.invalidations as f64 * t.coherence_penalty);
    }

    #[test]
    fn per_thread_stats_sum_to_aggregate() {
        let mut h = coherent();
        for i in 0..300u64 {
            h.set_thread((i % 3) as u16);
            h.access((i * 24) % 4096, 8, i % 4 == 0);
        }
        let per = h.thread_stats();
        assert_eq!(per.len(), 3);
        assert_eq!(per.iter().map(|t| t.thread).collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut sum = AccessStats::default();
        for t in &per {
            sum.l1_hits += t.stats.l1_hits;
            sum.l1_misses += t.stats.l1_misses;
            sum.l2_misses += t.stats.l2_misses;
            sum.l3_misses += t.stats.l3_misses;
            sum.tlb_misses += t.stats.tlb_misses;
            sum.loads += t.stats.loads;
            sum.stores += t.stats.stores;
        }
        assert_eq!(sum, h.stats());
    }

    #[test]
    fn idle_threads_are_not_reported() {
        let mut h = coherent();
        h.set_thread(5); // creates domains 0..=5
        h.access(0, 8, false);
        let per = h.thread_stats();
        assert_eq!(per.len(), 1, "only threads that accessed memory appear");
        assert_eq!(per[0].thread, 5);
    }

    #[test]
    fn eviction_drops_state_without_coherence_traffic() {
        // Overflow one L1 set (tiny: 4 sets, 2 ways): the victim's state
        // entry must go with it so `line_state` reports Invalid.
        let mut h = coherent();
        h.access(0, 8, false);
        h.access(4 * LINE, 8, false); // same set (4 sets)
        h.access(8 * LINE, 8, false); // evicts line 0
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.coherence(), CoherenceStats::default());
    }

    #[test]
    fn flush_clears_contents_and_states() {
        let mut h = coherent();
        h.access(0, 8, true);
        h.set_thread(1);
        h.access(LINE, 8, false);
        h.flush();
        assert_eq!(h.line_state(0, 0), LineState::Invalid);
        assert_eq!(h.line_state(1, LINE), LineState::Invalid);
        h.set_thread(0);
        h.access(0, 8, false);
        assert_eq!(h.stats().l1_misses, 3, "post-flush access misses again");
    }
}
