//! HALO's specialised group allocator (§4.4, Fig. 11).
//!
//! Memory is reserved from the simulated OS in large demand-paged **slabs**
//! and managed in smaller group-owned **chunks** from which regions are bump
//! allocated with no per-object headers. Each chunk counts its
//! `live_regions`; when the count reaches zero the chunk is empty and can be
//! reused or freed, subject to a spare-chunk policy that keeps up to
//! `max_spare_chunks` dirty chunks around before purging pages back to the
//! OS (as early jemalloc versions did, per §5.1).
//!
//! The allocator honours **per-group configuration overrides**: each group
//! may run its own chunk size, spare-chunk budget, and in-chunk reuse
//! policy (bump vs mimalloc-style sharded free lists), so a per-group
//! layout plan — not one global decision — shapes the heap. Chunk sizes may
//! therefore differ per group; a freed pointer finds its chunk through an
//! ordered base-address index rather than pointer masking.
//!
//! Allocations that are not grouped — selector mismatch, size at or above
//! the page-size cap, or too large for the group's own chunks — forward to
//! the fallback allocator (the paper uses `dlsym` to find the next
//! allocator; composition plays that role here).

use crate::faults::{DegradeStats, FaultInjector, FaultSite};
use crate::selector::SelectorTable;
use crate::stats::AllocatorStats;
use crate::vmm::{ReserveError, Vmm};
use crate::SizeClassAllocator;
use halo_graph::ReusePolicy;
use halo_vm::{CallSite, GroupState, Memory, VmAllocator, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Tunables of the group allocator, mirroring the artefact's flags
/// (`--chunk-size`, `--max-spare-chunks`, `--max-groups` lives in grouping).
///
/// One value acts as the allocator-wide default; [`HaloGroupAllocator`]
/// additionally accepts per-group overrides, of which the **per-group**
/// fields are `chunk_size`, `max_spare_chunks`, and `reuse_policy` —
/// `max_grouped_size`, `slab_size`, and `base` remain allocator-global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAllocConfig {
    /// Chunk size in bytes; must be a power of two of at least a page.
    /// Paper default: 1 MiB.
    pub chunk_size: u64,
    /// Dirty chunks a group may keep for reuse before purging pages. Paper
    /// default: 1; omnetpp/xalanc run with 0; `usize::MAX` models the
    /// "always reuse" configuration.
    pub max_spare_chunks: usize,
    /// Requests of this size or larger are never grouped (§4.4 uses the
    /// page size; profiling uses a 4 KiB max grouped-object size).
    /// Allocator-global (the check precedes group classification).
    pub max_grouped_size: u64,
    /// Bytes reserved per slab. Paper: "large, demand-paged slabs".
    /// Allocator-global.
    pub slab_size: u64,
    /// Base of the slab address span. Allocator-global.
    pub base: u64,
    /// In-chunk recycling policy (the paper's future-work axis; see
    /// [`ReusePolicy`]).
    pub reuse_policy: ReusePolicy,
}

impl Default for GroupAllocConfig {
    fn default() -> Self {
        GroupAllocConfig {
            chunk_size: 1 << 20,
            max_spare_chunks: 1,
            max_grouped_size: 4096,
            slab_size: 64 << 20,
            base: 0x70_0000_0000,
            reuse_policy: ReusePolicy::Bump,
        }
    }
}

/// Event counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupAllocStats {
    /// Allocations served from group chunks.
    pub grouped_allocs: u64,
    /// Allocations forwarded to the fallback allocator.
    pub fallback_allocs: u64,
    /// Frees of group-allocated regions.
    pub grouped_frees: u64,
    /// Frees forwarded to the fallback allocator.
    pub fallback_frees: u64,
    /// Chunks carved fresh from slabs.
    pub chunks_created: u64,
    /// Empty chunks reused (spare or purged pool, or in-place reset).
    pub chunks_reused: u64,
    /// Chunks whose pages were purged back to the OS.
    pub chunks_purged: u64,
}

/// Fragmentation at the peak, in the format of the paper's Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragReport {
    /// Resident bytes of group chunks at the observed peak.
    pub peak_resident_bytes: u64,
    /// Live (requested) grouped bytes at that moment.
    pub live_at_peak_bytes: u64,
}

impl FragReport {
    /// Wasted bytes: resident but not live (Table 1 "Frag. (bytes)").
    pub fn wasted_bytes(&self) -> u64 {
        self.peak_resident_bytes.saturating_sub(self.live_at_peak_bytes)
    }

    /// Wasted fraction of resident memory (Table 1 "Frag. (%)"), in
    /// `[0, 1]`; 0 when nothing was ever resident.
    pub fn frag_fraction(&self) -> f64 {
        if self.peak_resident_bytes == 0 {
            0.0
        } else {
            self.wasted_bytes() as f64 / self.peak_resident_bytes as f64
        }
    }
}

/// Running resident/live accounting for one pool (the whole allocator or a
/// single group), maintaining the Table 1 peak snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct PoolUsage {
    resident: u64,
    live: u64,
    frag: FragReport,
}

impl PoolUsage {
    /// Maintain the Table 1 snapshot: at the peak resident footprint,
    /// record the *worst* (smallest) live size observed — a chunk pinned by
    /// a lone survivor shows up as fragmentation exactly as in the paper.
    fn note(&mut self) {
        if self.resident > self.frag.peak_resident_bytes {
            self.frag.peak_resident_bytes = self.resident;
            self.frag.live_at_peak_bytes = self.live;
        } else if self.resident == self.frag.peak_resident_bytes
            && self.live < self.frag.live_at_peak_bytes
        {
            self.frag.live_at_peak_bytes = self.live;
        }
    }
}

#[derive(Debug)]
struct Chunk {
    group: usize,
    /// Next bump address.
    bump: u64,
    /// One past the last usable byte.
    end: u64,
    /// Regions allocated and not yet freed.
    live_regions: u64,
    /// Highest bump address ever reached (dirty extent).
    high_water: u64,
    /// Sharded free lists: rounded size → freed region addresses
    /// (only populated under [`ReusePolicy::ShardedFreeLists`]).
    shards: HashMap<u64, Vec<u64>>,
}

/// An empty-but-dirty chunk waiting for reuse. Its pages stay resident and
/// are attributed to `owner` (the group that last used it) until the chunk
/// is purged or handed to another group.
#[derive(Debug, Clone, Copy)]
struct SpareChunk {
    base: u64,
    high_water: u64,
    size: u64,
    owner: usize,
}

/// The specialised allocator synthesised by the HALO pipeline. Generic over
/// the fallback allocator `F` (defaults to the jemalloc-style baseline).
#[derive(Debug)]
pub struct HaloGroupAllocator<F = SizeClassAllocator> {
    config: GroupAllocConfig,
    /// Effective configuration per group (the global `config` unless a
    /// per-group plan overrode it).
    group_cfg: Vec<GroupAllocConfig>,
    selectors: SelectorTable,
    /// Immediate-call-site classification (the hot-data-streams comparison
    /// technique "utilise[s] the same specialised allocator as HALO, but
    /// with groups … identified at runtime using the immediate call site of
    /// the allocation procedure", §5.1). Empty in selector mode.
    site_groups: HashMap<CallSite, usize>,
    vmm: Vmm,
    /// Cursor into the current slab: `(next_free_byte, slab_end)`.
    slab_cursor: Option<(u64, u64)>,
    /// End of the highest slab reserved so far; pointers below `config.base`
    /// or at/above this are fallback-owned.
    slabs_end: u64,
    /// In-use chunks, ordered by base address so a freed pointer locates
    /// its (possibly group-sized) chunk by predecessor lookup.
    chunks: BTreeMap<u64, Chunk>,
    /// Current chunk base per group.
    current: Vec<Option<u64>>,
    /// Empty-but-dirty chunks available for reuse, oldest first.
    spare: Vec<SpareChunk>,
    /// Purged (clean) chunks available for reuse: `(base, size)`.
    clean: Vec<(u64, u64)>,
    /// Requested size per live grouped region. The real allocator needs no
    /// per-object metadata for `free` (only `live_regions`), but `realloc`
    /// must know how many bytes to copy; a native implementation gets this
    /// from the C library's usable-size machinery, which the simulation
    /// does not model, so it is kept out of band here.
    region_sizes: HashMap<u64, u64>,
    fallback: F,
    /// Allocator-wide usage and Table 1 snapshot.
    usage: PoolUsage,
    /// Per-group usage and Table 1 snapshots (what the per-group `auto`
    /// reuse policy ranks groups by).
    group_usage: Vec<PoolUsage>,
    stats: GroupAllocStats,
    /// Groups whose chunk supply failed: new requests route wholesale to
    /// the fallback (the paper's ungrouped path), live pointers keep
    /// working. The optimisation is lost for the group, never the process.
    degraded: Vec<bool>,
    /// Degradation-ladder counters. `degraded_groups` and
    /// `injected_faults` are snapshots computed on read (see
    /// [`Self::degrade_stats`]); the rest accumulate here.
    degrade: DegradeStats,
    /// Fault injector for chaos runs; `None` in production costs one
    /// branch per resource edge and changes no behaviour.
    faults: Option<Arc<FaultInjector>>,
}

impl HaloGroupAllocator<SizeClassAllocator> {
    /// Create an allocator with the default jemalloc-style fallback.
    pub fn new(config: GroupAllocConfig, selectors: SelectorTable) -> Self {
        Self::build(config, selectors, Vec::new(), SizeClassAllocator::new())
    }

    /// Create an allocator whose group `g` runs under `overrides[g]`
    /// instead of `config` (missing entries inherit `config`). Only the
    /// per-group fields are honoured — see [`GroupAllocConfig`].
    ///
    /// # Panics
    ///
    /// Panics if any override's `chunk_size` is not a power of two of at
    /// least a page, or does not divide the global `slab_size`.
    pub fn with_group_configs(
        config: GroupAllocConfig,
        selectors: SelectorTable,
        overrides: Vec<GroupAllocConfig>,
    ) -> Self {
        Self::build(config, selectors, overrides, SizeClassAllocator::new())
    }

    /// Create an allocator classifying by immediate call site (the
    /// hot-data-streams comparison) with the default fallback.
    pub fn with_site_groups(
        config: GroupAllocConfig,
        site_groups: HashMap<CallSite, usize>,
    ) -> Self {
        let mut a =
            Self::build(config, SelectorTable::empty(), Vec::new(), SizeClassAllocator::new());
        let num_groups = site_groups.values().map(|&g| g + 1).max().unwrap_or(0);
        a.ensure_groups(num_groups);
        a.site_groups = site_groups;
        a
    }
}

impl<F: VmAllocator> HaloGroupAllocator<F> {
    /// [`Self::with_group_configs`] with an explicit fallback — the shape
    /// [`crate::ShardedHaloAllocator`] needs: per-shard plans *and* a
    /// per-shard fallback rooted at a shard-private base address.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::with_group_configs`].
    pub fn with_group_configs_and_fallback(
        config: GroupAllocConfig,
        selectors: SelectorTable,
        overrides: Vec<GroupAllocConfig>,
        fallback: F,
    ) -> Self {
        Self::build(config, selectors, overrides, fallback)
    }

    fn build(
        config: GroupAllocConfig,
        selectors: SelectorTable,
        overrides: Vec<GroupAllocConfig>,
        fallback: F,
    ) -> Self {
        Self::validate_chunk(&config, config.chunk_size);
        let num_groups = selectors.num_groups().max(overrides.len());
        let mut group_cfg = vec![config; num_groups];
        for (g, over) in overrides.into_iter().enumerate() {
            Self::validate_chunk(&config, over.chunk_size);
            group_cfg[g] = over;
        }
        HaloGroupAllocator {
            config,
            group_cfg,
            selectors,
            vmm: Vmm::new(config.base, 1 << 38),
            slab_cursor: None,
            slabs_end: config.base,
            chunks: BTreeMap::new(),
            current: vec![None; num_groups],
            site_groups: HashMap::new(),
            spare: Vec::new(),
            clean: Vec::new(),
            region_sizes: HashMap::new(),
            fallback,
            usage: PoolUsage::default(),
            group_usage: vec![PoolUsage::default(); num_groups],
            stats: GroupAllocStats::default(),
            degraded: vec![false; num_groups],
            degrade: DegradeStats::default(),
            faults: None,
        }
    }

    pub(crate) fn validate_chunk(config: &GroupAllocConfig, chunk_size: u64) {
        assert!(chunk_size.is_power_of_two(), "chunk size must be a power of two");
        assert!(chunk_size >= PAGE_SIZE, "chunks must be at least a page");
        assert_eq!(config.slab_size % chunk_size, 0, "slabs must hold whole chunks");
    }

    /// Grow the per-group tables to at least `n` groups (new groups run
    /// under the global configuration).
    fn ensure_groups(&mut self, n: usize) {
        if n > self.current.len() {
            self.current.resize(n, None);
            self.group_cfg.resize(n, self.config);
            self.group_usage.resize(n, PoolUsage::default());
            self.degraded.resize(n, false);
        }
    }

    /// Event counters.
    pub fn stats(&self) -> GroupAllocStats {
        self.stats
    }

    /// Fragmentation of grouped memory at the peak observed so far
    /// (Table 1's measurement).
    pub fn frag_report(&self) -> FragReport {
        self.usage.frag
    }

    /// Per-group fragmentation snapshots (same rule as [`Self::frag_report`],
    /// scoped to each group's own chunks). Indexed by group.
    pub fn group_frag_reports(&self) -> Vec<FragReport> {
        self.group_usage.iter().map(|u| u.frag).collect()
    }

    /// The effective configuration of `group` (the global configuration
    /// unless overridden).
    pub fn group_config(&self, group: usize) -> GroupAllocConfig {
        self.group_cfg.get(group).copied().unwrap_or(self.config)
    }

    /// Hot-swap the allocator onto a new plan: replace the selector table
    /// and per-group configuration in place (DESIGN.md §15).
    ///
    /// The swap is *prospective*: it takes effect for freshly carved
    /// chunks only. A group whose effective configuration changed retires
    /// its open chunk (the next grouped allocation carves under the new
    /// configuration); a group whose configuration is unchanged keeps
    /// filling its current chunk, so swapping in an identical plan is
    /// observably a no-op. Live pointers never move — a free locates its
    /// chunk by address and recycles it under the configuration in force
    /// *at free time*, exactly as before the swap, and retired chunks
    /// drain through the normal free/spare/purge machinery. Groups parked
    /// by the degradation ladder stay parked: a plan change does not
    /// resurrect a group whose chunk supply already failed.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::with_group_configs`]
    /// (invalid override `chunk_size`) — validation happens before any
    /// state is touched, so a bad plan leaves the allocator unchanged.
    pub fn install_plan(&mut self, selectors: SelectorTable, overrides: Vec<GroupAllocConfig>) {
        for over in &overrides {
            Self::validate_chunk(&self.config, over.chunk_size);
        }
        let num_groups = selectors.num_groups().max(overrides.len());
        self.ensure_groups(num_groups);
        let mut new_cfg = vec![self.config; self.group_cfg.len()];
        for (g, over) in overrides.into_iter().enumerate() {
            new_cfg[g] = over;
        }
        for (g, cfg) in new_cfg.iter().enumerate() {
            if *cfg != self.group_cfg[g] {
                // Retire the open chunk; the next allocation for the
                // group carves fresh under the new configuration.
                self.current[g] = None;
            }
        }
        self.group_cfg = new_cfg;
        self.selectors = selectors;
    }

    /// The fallback allocator (for its own statistics).
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// Whether `ptr` was group allocated (lies within a slab).
    pub fn is_group_allocated(&self, ptr: u64) -> bool {
        (self.config.base..self.slabs_end).contains(&ptr)
    }

    /// Bytes of grouped data currently live.
    pub fn live_grouped_bytes(&self) -> u64 {
        self.usage.live
    }

    /// Resident bytes currently attributed to group chunks.
    pub fn resident_grouped_bytes(&self) -> u64 {
        self.usage.resident
    }

    /// Dirty (resident) bytes of a chunk whose bump high-water mark is
    /// `high_water`, in whole pages.
    fn dirty_bytes(base: u64, high_water: u64) -> u64 {
        (high_water - base).div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    fn carve_chunk(&mut self, cs: u64) -> Result<u64, ReserveError> {
        if let Some((next, end)) = self.slab_cursor {
            // Chunks of different groups may differ in size; align each to
            // its own size within the slab.
            let base = (next + cs - 1) & !(cs - 1);
            if base + cs <= end {
                self.slab_cursor = Some((base + cs, end));
                return Ok(base);
            }
        }
        if self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::VmmReserve)) {
            return Err(ReserveError::SpanExhausted {
                requested: self.config.slab_size,
                available: 0,
            });
        }
        let slab = self.vmm.reserve(self.config.slab_size, cs)?;
        self.slabs_end = self.slabs_end.max(slab + self.config.slab_size);
        self.slab_cursor = Some((slab + cs, slab + self.config.slab_size));
        Ok(slab)
    }

    /// Supply a chunk for `group`, or `None` when the chunk map cannot
    /// grow or the slab span is exhausted — the caller's cue to degrade
    /// the group, never a panic.
    fn acquire_chunk(&mut self, group: usize) -> Option<u64> {
        if self.faults.as_ref().is_some_and(|f| f.should_fail(FaultSite::ChunkAlloc)) {
            return None;
        }
        let cs = self.group_cfg[group].chunk_size;
        // Reuse pools are shared between groups, but only a chunk of the
        // group's own size qualifies.
        let (base, high_water) = if let Some(i) = self.spare.iter().position(|s| s.size == cs) {
            let s = self.spare.remove(i);
            self.stats.chunks_reused += 1;
            let dirty = Self::dirty_bytes(s.base, s.high_water);
            if s.owner != group && dirty > 0 {
                // The dirty pages change hands with the chunk.
                self.group_usage[s.owner].resident -= dirty;
                self.group_usage[group].resident += dirty;
            }
            (s.base, s.high_water)
        } else if let Some(i) = self.clean.iter().position(|&(_, size)| size == cs) {
            let (base, _) = self.clean.remove(i);
            self.stats.chunks_reused += 1;
            (base, base)
        } else {
            let base = self.carve_chunk(cs).ok()?;
            self.stats.chunks_created += 1;
            (base, base)
        };
        self.chunks.insert(
            base,
            Chunk {
                group,
                bump: base,
                end: base + cs,
                live_regions: 0,
                high_water,
                shards: HashMap::new(),
            },
        );
        self.current[group] = Some(base);
        Some(base)
    }

    /// Serve a grouped request, or `None` when the group's chunk supply
    /// failed (the degradation path: the caller routes to the fallback).
    fn group_malloc(&mut self, group: usize, size: u64) -> Option<u64> {
        let cfg = self.group_cfg[group];
        let rounded = (size.max(1) + 7) & !7;
        // Sharded reuse: recycle a freed same-size region from the group's
        // current chunk before bumping (mimalloc-style, §6 future work).
        if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
            if let Some(base) = self.current[group] {
                if let Some(chunk) = self.chunks.get_mut(&base) {
                    if let Some(list) = chunk.shards.get_mut(&rounded) {
                        if let Some(ptr) = list.pop() {
                            chunk.live_regions += 1;
                            self.region_sizes.insert(ptr, size);
                            self.usage.live += size;
                            self.group_usage[group].live += size;
                            self.stats.grouped_allocs += 1;
                            self.note_usage(group);
                            return Some(ptr);
                        }
                    }
                }
            }
        }
        let chunk_base = match self.current[group] {
            Some(base) if self.chunks.get(&base).is_some_and(|c| c.bump + rounded <= c.end) => base,
            _ => self.acquire_chunk(group)?,
        };
        let c = self.chunks.get_mut(&chunk_base)?;
        let ptr = c.bump;
        c.bump += rounded;
        c.live_regions += 1;
        if c.bump > c.high_water {
            let old_dirty = Self::dirty_bytes(chunk_base, c.high_water);
            c.high_water = c.bump;
            let new_dirty = Self::dirty_bytes(chunk_base, c.high_water);
            self.usage.resident += new_dirty - old_dirty;
            self.group_usage[group].resident += new_dirty - old_dirty;
        }
        self.region_sizes.insert(ptr, size);
        self.usage.live += size;
        self.group_usage[group].live += size;
        self.stats.grouped_allocs += 1;
        self.note_usage(group);
        Some(ptr)
    }

    /// Refresh the global and per-group Table 1 snapshots.
    fn note_usage(&mut self, group: usize) {
        self.usage.note();
        self.group_usage[group].note();
    }

    fn group_free(&mut self, ptr: u64, mem: &mut Memory) {
        // A pointer in the slab range with no live region (double free,
        // free of an interior address) is absorbed as a counted no-op —
        // the invalid free must not corrupt accounting or take the
        // process down with it.
        let Some(&size) = self.region_sizes.get(&ptr) else {
            self.degrade.invalid_frees += 1;
            return;
        };
        // Chunk sizes vary per group: locate the containing chunk by
        // predecessor lookup on the ordered base index.
        let Some((&chunk_base, chunk)) =
            self.chunks.range_mut(..=ptr).next_back().filter(|(_, c)| ptr < c.end)
        else {
            self.degrade.invalid_frees += 1;
            return;
        };
        self.region_sizes.remove(&ptr);
        let group = chunk.group;
        let cfg = self.group_cfg[group];
        self.usage.live -= size;
        self.group_usage[group].live -= size;
        self.stats.grouped_frees += 1;
        debug_assert!(chunk.live_regions > 0);
        chunk.live_regions -= 1;
        if chunk.live_regions > 0 {
            if cfg.reuse_policy == ReusePolicy::ShardedFreeLists {
                let rounded = (size.max(1) + 7) & !7;
                chunk.shards.entry(rounded).or_default().push(ptr);
            }
            self.note_usage(group);
            return;
        }
        // Chunk is empty: reuse or free (§4.4).
        if self.current[group] == Some(chunk_base) {
            // Still the group's current chunk: reset the bump pointer and
            // keep using it in place (its pages stay dirty/resident).
            chunk.bump = chunk_base;
            chunk.shards.clear();
            self.stats.chunks_reused += 1;
            self.note_usage(group);
            return;
        }
        let Some(chunk) = self.chunks.remove(&chunk_base) else {
            return; // just observed above; nothing sane to do if gone
        };
        self.spare.push(SpareChunk {
            base: chunk_base,
            high_water: chunk.high_water,
            size: chunk.end - chunk_base,
            owner: group,
        });
        // Each group keeps at most its own spare-chunk budget in the pool;
        // the oldest excess donation is purged back to the OS. Under the
        // "always reuse" budget (usize::MAX) no donation can ever exceed
        // it, so skip the ownership scan entirely — the pool is unbounded
        // precisely in that configuration, and an O(pool) count per
        // emptied chunk would make teardown quadratic.
        while cfg.max_spare_chunks != usize::MAX
            && self.spare.iter().filter(|s| s.owner == group).count() > cfg.max_spare_chunks
        {
            let Some(i) = self.spare.iter().position(|s| s.owner == group) else {
                break; // counted above; bail rather than spin if gone
            };
            let s = self.spare.remove(i);
            let dirty = Self::dirty_bytes(s.base, s.high_water);
            self.usage.resident -= dirty;
            self.group_usage[s.owner].resident -= dirty;
            mem.discard(s.base, s.size);
            self.clean.push((s.base, s.size));
            self.stats.chunks_purged += 1;
        }
        self.note_usage(group);
    }

    /// Attach a fault injector (chaos runs). Shared by `Arc` so one
    /// schedule can span an allocator and its shards.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Whether `group` has been degraded (its requests route to the
    /// fallback).
    pub fn is_degraded(&self, group: usize) -> bool {
        self.degraded.get(group).copied().unwrap_or(false)
    }

    /// Degrade `group`: new requests take the fallback path from now on.
    /// Live grouped pointers are unaffected — `free`/`realloc` still find
    /// their chunks.
    fn degrade_group(&mut self, group: usize) {
        if let Some(d) = self.degraded.get_mut(group) {
            *d = true;
        }
    }

    /// Degrade every group at once — the quarantine rung of the ladder,
    /// used when invariants can no longer be trusted (e.g. after a lock
    /// poisoning whose re-validation failed). The allocator keeps serving
    /// every request through the fallback.
    pub fn quarantine(&mut self) {
        for d in &mut self.degraded {
            *d = true;
        }
    }

    /// Degradation counters without the injected-fault count (the shard
    /// aggregation path fills that in exactly once from the shared
    /// injector, so per-shard sums do not multiply it).
    pub(crate) fn degrade_raw(&self) -> DegradeStats {
        DegradeStats {
            degraded_groups: self.degraded.iter().filter(|&&d| d).count() as u64,
            ..self.degrade
        }
    }

    /// Degradation-ladder counters, including faults fired by the
    /// attached injector.
    pub fn degrade_stats(&self) -> DegradeStats {
        let mut d = self.degrade_raw();
        if let Some(f) = &self.faults {
            d.injected_faults = f.fired();
        }
        d
    }

    /// Cheap structural self-check, run when recovering a poisoned lock:
    /// every chunk's bump/high-water within its span, the live-region
    /// count in agreement with the region-size table, and every current
    /// chunk present and owned by its group.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        let mut live_regions: u64 = 0;
        for (&base, c) in &self.chunks {
            if c.bump < base || c.bump > c.end {
                return Err("chunk bump pointer outside its span");
            }
            if c.high_water < base || c.high_water > c.end {
                return Err("chunk high-water mark outside its span");
            }
            live_regions += c.live_regions;
        }
        if live_regions != self.region_sizes.len() as u64 {
            return Err("live-region count disagrees with the region-size table");
        }
        for (g, cur) in self.current.iter().enumerate() {
            if let Some(base) = cur {
                match self.chunks.get(base) {
                    Some(c) if c.group == g => {}
                    _ => return Err("current chunk missing or owned by another group"),
                }
            }
        }
        Ok(())
    }
}

impl<F: VmAllocator> AllocatorStats for HaloGroupAllocator<F>
where
    F: AllocatorStats,
{
    fn live_bytes(&self) -> u64 {
        self.usage.live + self.fallback.live_bytes()
    }

    fn live_objects(&self) -> usize {
        self.region_sizes.len() + self.fallback.live_objects()
    }
}

impl<F: VmAllocator> VmAllocator for HaloGroupAllocator<F> {
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        // §4.4: the allocator "compares the size of the allocation with the
        // maximum grouped object size, and checks the contents of the group
        // state vector against the set of selectors". In site mode (the
        // hot-data-streams comparison) the immediate call site decides.
        if size < self.config.max_grouped_size {
            if let Some(group) =
                self.selectors.classify(gs).or_else(|| self.site_groups.get(&site).copied())
            {
                // A request too large for the group's own (possibly
                // plan-shrunken) chunks forwards like any other
                // non-groupable request.
                let rounded = (size.max(1) + 7) & !7;
                if rounded <= self.group_cfg[group].chunk_size {
                    if self.is_degraded(group) {
                        // Degradation ladder: a group whose chunk supply
                        // failed serves from the fallback (the ungrouped
                        // path of §4.4) instead of crashing or refusing.
                        self.degrade.fallback_routes += 1;
                    } else if let Some(ptr) = self.group_malloc(group, size) {
                        return ptr;
                    } else {
                        self.degrade_group(group);
                        self.degrade.fallback_routes += 1;
                    }
                }
            }
        }
        self.stats.fallback_allocs += 1;
        self.fallback.malloc(size, site, gs, mem)
    }

    fn free(&mut self, ptr: u64, mem: &mut Memory) {
        if self.is_group_allocated(ptr) {
            self.group_free(ptr, mem);
        } else {
            self.stats.fallback_frees += 1;
            self.fallback.free(ptr, mem);
        }
    }

    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        if self.is_group_allocated(ptr) {
            let old_size = self.region_sizes.get(&ptr).copied().unwrap_or(0);
            let newp = self.malloc(size, site, gs, mem);
            mem.copy(newp, ptr, old_size.min(size));
            self.group_free(ptr, mem);
            newp
        } else {
            self.fallback.realloc(ptr, size, site, gs, mem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::GroupSelector;
    use halo_graph::GroupPlan;

    fn site() -> CallSite {
        CallSite::new(halo_vm::FuncId(0), 0)
    }

    /// Two groups: group 0 on bit 0, group 1 on bit 1.
    fn two_group_table() -> SelectorTable {
        SelectorTable::new(
            vec![
                GroupSelector { group: 0, conjunctions: vec![vec![0]] },
                GroupSelector { group: 1, conjunctions: vec![vec![1]] },
            ],
            2,
        )
    }

    fn small_config() -> GroupAllocConfig {
        GroupAllocConfig {
            chunk_size: 8192,
            max_spare_chunks: 1,
            max_grouped_size: 4096,
            slab_size: 8192 * 8,
            ..GroupAllocConfig::default()
        }
    }

    fn setup() -> (HaloGroupAllocator, GroupState, Memory) {
        (
            HaloGroupAllocator::new(small_config(), two_group_table()),
            GroupState::new(2),
            Memory::new(),
        )
    }

    #[test]
    fn grouped_allocations_bump_contiguously() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p1 = a.malloc(24, site(), &gs, &mut mem);
        let p2 = a.malloc(24, site(), &gs, &mut mem);
        let p3 = a.malloc(10, site(), &gs, &mut mem);
        assert_eq!(p2, p1 + 24);
        assert_eq!(p3, p2 + 24);
        assert_eq!(p3 % 8, 0, "minimum 8-byte alignment");
        assert_eq!(a.stats().grouped_allocs, 3);
    }

    #[test]
    fn groups_get_separate_chunks() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p0 = a.malloc(16, site(), &gs, &mut mem);
        gs.clear(0);
        gs.set(1);
        let p1 = a.malloc(16, site(), &gs, &mut mem);
        let cs = small_config().chunk_size;
        assert_ne!(p0 & !(cs - 1), p1 & !(cs - 1), "different chunks");
        // Interleaving keeps each group contiguous.
        gs.clear(1);
        gs.set(0);
        let p0b = a.malloc(16, site(), &gs, &mut mem);
        assert_eq!(p0b, p0 + 16);
    }

    #[test]
    fn unmatched_state_falls_back() {
        let (mut a, gs, mut mem) = setup();
        let p = a.malloc(16, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p));
        assert_eq!(a.stats().fallback_allocs, 1);
        a.free(p, &mut mem);
        assert_eq!(a.stats().fallback_frees, 1);
    }

    #[test]
    fn large_requests_fall_back_even_when_selected() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(4096, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p));
        let q = a.malloc(4095, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(q));
    }

    #[test]
    fn chunk_exhaustion_rolls_to_new_chunk() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // 8192-byte chunks; 5 × 2048 forces a second chunk.
        let ptrs: Vec<u64> = (0..5).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let cs = small_config().chunk_size;
        let chunk0 = ptrs[0] & !(cs - 1);
        assert!(ptrs[..4].iter().all(|p| p & !(cs - 1) == chunk0));
        assert_ne!(ptrs[4] & !(cs - 1), chunk0);
        assert_eq!(a.stats().chunks_created, 2);
    }

    #[test]
    fn emptied_current_chunk_is_reset_in_place() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p1 = a.malloc(64, site(), &gs, &mut mem);
        let p2 = a.malloc(64, site(), &gs, &mut mem);
        a.free(p1, &mut mem);
        a.free(p2, &mut mem);
        // Bump pointer reset: next allocation reuses the same addresses.
        let p3 = a.malloc(64, site(), &gs, &mut mem);
        assert_eq!(p3, p1);
        assert_eq!(a.stats().chunks_created, 1);
    }

    #[test]
    fn emptied_non_current_chunk_goes_spare_then_purges() {
        let cfg = GroupAllocConfig { max_spare_chunks: 0, ..small_config() };
        let mut a = HaloGroupAllocator::new(cfg, two_group_table());
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        gs.set(0);
        // Fill chunk 1 fully, so chunk 2 becomes current.
        let big: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let p_new = a.malloc(2048, site(), &gs, &mut mem);
        // Touch pages so residency is real, then empty the first chunk.
        for &p in &big {
            mem.write(p, 8, 1);
        }
        let resident_before = a.resident_grouped_bytes();
        for &p in &big {
            a.free(p, &mut mem);
        }
        // max_spare_chunks = 0 → immediate purge.
        assert_eq!(a.stats().chunks_purged, 1);
        assert!(a.resident_grouped_bytes() < resident_before);
        // Purged chunk returns zeroed when reused.
        let _ = p_new;
        assert_eq!(mem.read(big[0], 8), 0);
    }

    #[test]
    fn spare_chunk_is_reused_before_carving() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // Fill chunk A, roll to chunk B, then empty chunk A → spare.
        let a_ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let _b = a.malloc(2048, site(), &gs, &mut mem);
        for &p in &a_ptrs {
            a.free(p, &mut mem);
        }
        let created_before = a.stats().chunks_created;
        // Group 1 needs a chunk: the spare one is handed over.
        gs.clear(0);
        gs.set(1);
        let p = a.malloc(16, site(), &gs, &mut mem);
        assert_eq!(
            p & !(small_config().chunk_size - 1),
            a_ptrs[0] & !(small_config().chunk_size - 1)
        );
        assert_eq!(a.stats().chunks_created, created_before);
    }

    #[test]
    fn realloc_between_group_and_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        mem.write(p, 8, 0xbeef);
        // Growing past the grouped cap moves it to the fallback.
        let q = a.realloc(p, 100_000, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(q));
        assert_eq!(mem.read(q, 8), 0xbeef);
        // A fallback-owned region stays with the fallback on realloc
        // (§4.4: non-group requests are forwarded wholesale).
        let r = a.realloc(q, 64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(r));
        assert_eq!(mem.read(r, 8), 0xbeef);
        // A still-grouped region realloc'd within the cap stays grouped.
        let g1 = a.malloc(64, site(), &gs, &mut mem);
        mem.write(g1, 8, 0xcafe);
        let g2 = a.realloc(g1, 128, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(g2));
        assert_eq!(mem.read(g2, 8), 0xcafe);
    }

    #[test]
    fn fragmentation_report_tracks_worst_live_at_peak() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        // 16 × 256 B fill one 4 KiB page: peak resident 4096, live 4096.
        let ptrs: Vec<u64> = (0..16).map(|_| a.malloc(256, site(), &gs, &mut mem)).collect();
        assert_eq!(a.frag_report().peak_resident_bytes, 4096);
        // A lone survivor pins the page: the snapshot at the (unchanged)
        // peak degrades to the leela-style pathology of Table 1.
        for &p in &ptrs[1..] {
            a.free(p, &mut mem);
        }
        let rep = a.frag_report();
        assert_eq!(rep.peak_resident_bytes, 4096);
        assert_eq!(rep.live_at_peak_bytes, 256);
        assert_eq!(rep.wasted_bytes(), 3840);
        assert!((rep.frag_fraction() - 0.9375).abs() < 1e-9);
    }

    #[test]
    fn frag_report_zero_resident_is_all_zeroes() {
        // A run that never groups anything (or an allocator never used):
        // nothing resident, nothing live — every derived metric must be a
        // finite zero, not 0/0.
        let rep = FragReport::default();
        assert_eq!(rep.peak_resident_bytes, 0);
        assert_eq!(rep.wasted_bytes(), 0);
        assert_eq!(rep.frag_fraction(), 0.0);
        assert!(rep.frag_fraction().is_finite());
        // And straight off an untouched allocator.
        let (a, _, _) = setup();
        assert_eq!(a.frag_report(), FragReport::default());
    }

    #[test]
    fn frag_report_live_above_resident_saturates() {
        // live > resident cannot arise from the allocator's own accounting,
        // but FragReport is a plain data type consumed by harness code —
        // a hand-built (or future buggy) report must saturate at zero
        // waste, not underflow to u64::MAX wasted bytes.
        let rep = FragReport { peak_resident_bytes: 4096, live_at_peak_bytes: 5000 };
        assert_eq!(rep.wasted_bytes(), 0, "saturating_sub, not wrap");
        assert_eq!(rep.frag_fraction(), 0.0);
        assert!(rep.frag_fraction() >= 0.0 && rep.frag_fraction() <= 1.0);
    }

    #[test]
    fn sharded_reuse_recycles_holes_within_the_chunk() {
        let cfg =
            GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..small_config() };
        let mut a = HaloGroupAllocator::new(cfg, two_group_table());
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        gs.set(0);
        let p1 = a.malloc(64, site(), &gs, &mut mem);
        let p2 = a.malloc(64, site(), &gs, &mut mem);
        let p3 = a.malloc(24, site(), &gs, &mut mem);
        // Free the middle region: under bump it would be lost until the
        // chunk empties; sharded reuse hands it straight back.
        a.free(p2, &mut mem);
        let p4 = a.malloc(64, site(), &gs, &mut mem);
        assert_eq!(p4, p2, "same-size hole recycled");
        // A different size shard does not steal it.
        a.free(p4, &mut mem);
        let p5 = a.malloc(24, site(), &gs, &mut mem);
        assert_ne!(p5, p2, "different shard bumps instead");
        let _ = (p1, p3);
    }

    #[test]
    fn sharded_reuse_reduces_survivor_fragmentation() {
        // The leela scenario: allocate a burst, free all but one survivor,
        // allocate another burst. Bump marches on; sharding backfills.
        let run = |policy: ReusePolicy| {
            let cfg = GroupAllocConfig { reuse_policy: policy, ..small_config() };
            let mut a = HaloGroupAllocator::new(cfg, two_group_table());
            let mut gs = GroupState::new(2);
            let mut mem = Memory::new();
            gs.set(0);
            for _round in 0..4 {
                let ptrs: Vec<u64> = (0..32).map(|_| a.malloc(48, site(), &gs, &mut mem)).collect();
                for &p in &ptrs[1..] {
                    a.free(p, &mut mem);
                }
            }
            a.frag_report()
        };
        let bump = run(ReusePolicy::Bump);
        let sharded = run(ReusePolicy::ShardedFreeLists);
        assert!(
            sharded.peak_resident_bytes <= bump.peak_resident_bytes,
            "sharding must not grow the footprint"
        );
        assert!(
            sharded.wasted_bytes() <= bump.wasted_bytes(),
            "sharded {} vs bump {}",
            sharded.wasted_bytes(),
            bump.wasted_bytes()
        );
    }

    #[test]
    fn live_accounting_spans_group_and_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let g = a.malloc(100, site(), &gs, &mut mem);
        gs.clear(0);
        let f = a.malloc(200, site(), &gs, &mut mem);
        assert_eq!(a.live_bytes(), 300);
        assert_eq!(a.live_objects(), 2);
        a.free(g, &mut mem);
        a.free(f, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    // --- per-group configuration overrides -----------------------------

    /// Group 0 on 8 KiB chunks, group 1 on 16 KiB chunks.
    fn mixed_chunk_alloc() -> HaloGroupAllocator {
        let global = GroupAllocConfig { slab_size: 16384 * 8, ..small_config() };
        HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![global, GroupAllocConfig { chunk_size: 16384, ..global }],
        )
    }

    #[test]
    fn per_group_chunk_sizes_coexist() {
        let mut a = mixed_chunk_alloc();
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 1's 16 KiB chunks hold eight 2 KiB regions where group 0's
        // 8 KiB chunks hold four.
        gs.set(1);
        let g1: Vec<u64> = (0..8).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        assert!(g1.windows(2).all(|w| w[1] == w[0] + 2048), "one contiguous 16 KiB chunk");
        gs.clear(1);
        gs.set(0);
        let g0: Vec<u64> = (0..5).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        // Chunks are aligned to their own size, so the 8 KiB mask finds
        // group 0's chunk boundaries: four regions per chunk, then roll.
        let m = |p: u64| p & !(8192 - 1);
        assert!(g0[..4].iter().all(|&p| m(p) == m(g0[0])), "first four share one 8 KiB chunk");
        assert_ne!(m(g0[4]), m(g0[0]), "group 0 rolls to a second chunk after four regions");
        // Frees locate the right chunk despite the mixed sizes.
        for &p in g1.iter().chain(&g0) {
            a.free(p, &mut mem);
        }
        assert_eq!(a.live_grouped_bytes(), 0);
    }

    #[test]
    fn per_group_reuse_policies_are_independent() {
        let global = small_config();
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![
                global, // group 0: bump
                GroupAllocConfig { reuse_policy: ReusePolicy::ShardedFreeLists, ..global },
            ],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        for group in [0u16, 1] {
            gs.reset();
            gs.set(group);
            let p1 = a.malloc(64, site(), &gs, &mut mem);
            let _p2 = a.malloc(64, site(), &gs, &mut mem);
            a.free(p1, &mut mem);
            let p3 = a.malloc(64, site(), &gs, &mut mem);
            if group == 1 {
                assert_eq!(p3, p1, "sharded group recycles the hole");
            } else {
                assert_ne!(p3, p1, "bump group never reuses until the chunk empties");
            }
        }
    }

    #[test]
    fn per_group_spare_budgets_are_independent() {
        let global = small_config(); // budget 1
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![GroupAllocConfig { max_spare_chunks: 0, ..global }, global],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // For each group: fill a chunk, roll to the next, then empty the
        // first so it leaves the in-use set.
        fn cycle(a: &mut HaloGroupAllocator, gs: &mut GroupState, mem: &mut Memory, bit: u16) {
            gs.reset();
            gs.set(bit);
            let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), gs, mem)).collect();
            let _keep = a.malloc(2048, site(), gs, mem);
            for &p in &ptrs {
                a.free(p, mem);
            }
        }
        cycle(&mut a, &mut gs, &mut mem, 0);
        assert_eq!(a.stats().chunks_purged, 1, "budget-0 group purges immediately");
        cycle(&mut a, &mut gs, &mut mem, 1);
        assert_eq!(a.stats().chunks_purged, 1, "budget-1 group keeps its spare");
    }

    #[test]
    fn oversized_for_group_chunk_falls_back() {
        // Global cap admits the request, but the group's plan shrank its
        // chunks below the request size: it must forward to the fallback
        // rather than overflow a chunk.
        let global =
            GroupAllocConfig { max_grouped_size: 16384, slab_size: 16384 * 8, ..small_config() };
        let mut a = HaloGroupAllocator::with_group_configs(
            global,
            two_group_table(),
            vec![GroupAllocConfig { chunk_size: 4096, ..global }],
        );
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        gs.set(0);
        let p = a.malloc(6000, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p), "request larger than the group's chunk");
        assert_eq!(a.stats().fallback_allocs, 1);
        let q = a.malloc(4000, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(q), "request fitting the group's chunk is grouped");
    }

    #[test]
    fn spare_chunks_only_serve_matching_sizes() {
        let mut a = mixed_chunk_alloc();
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 0 donates an 8 KiB spare.
        gs.set(0);
        let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        let _keep = a.malloc(2048, site(), &gs, &mut mem);
        for &p in &ptrs {
            a.free(p, &mut mem);
        }
        let created = a.stats().chunks_created;
        // Group 1 needs a 16 KiB chunk: the 8 KiB spare must not serve it.
        gs.reset();
        gs.set(1);
        let p = a.malloc(2048, site(), &gs, &mut mem);
        assert_eq!(a.stats().chunks_created, created + 1, "fresh carve, spare size mismatch");
        assert!(a.is_group_allocated(p));
    }

    #[test]
    fn per_group_frag_reports_isolate_the_offender() {
        let global = small_config();
        let mut a = HaloGroupAllocator::new(global, two_group_table());
        let mut gs = GroupState::new(2);
        let mut mem = Memory::new();
        // Group 0: survivor pathology (free all but the first).
        gs.set(0);
        let ptrs: Vec<u64> = (0..16).map(|_| a.malloc(256, site(), &gs, &mut mem)).collect();
        for &p in &ptrs[1..] {
            a.free(p, &mut mem);
        }
        // Group 1: everything stays live (three pages' worth, so its peak
        // is hit mid-growth with most of the pool live).
        gs.reset();
        gs.set(1);
        for _ in 0..33 {
            a.malloc(256, site(), &gs, &mut mem);
        }
        let reports = a.group_frag_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].frag_fraction() > 0.9, "group 0 is the offender: {reports:?}");
        assert!(reports[1].frag_fraction() < 0.5, "group 1 is healthy: {reports:?}");
        // The global report spans both pools.
        assert_eq!(
            a.frag_report().peak_resident_bytes,
            reports.iter().map(|r| r.peak_resident_bytes).sum::<u64>()
        );
    }

    #[test]
    fn homogeneous_overrides_match_the_plain_constructor() {
        // with_group_configs with every entry equal to the global config
        // must behave exactly like new(): same pointers, same stats.
        let cfg = small_config();
        let mut plain = HaloGroupAllocator::new(cfg, two_group_table());
        let mut over =
            HaloGroupAllocator::with_group_configs(cfg, two_group_table(), vec![cfg, cfg]);
        let mut gs = GroupState::new(2);
        let mut mem_a = Memory::new();
        let mut mem_b = Memory::new();
        let mut ptrs_a = Vec::new();
        let mut ptrs_b = Vec::new();
        for i in 0..64u64 {
            gs.reset();
            gs.set((i % 2) as u16);
            let size = 32 + (i % 7) * 24;
            ptrs_a.push(plain.malloc(size, site(), &gs, &mut mem_a));
            ptrs_b.push(over.malloc(size, site(), &gs, &mut mem_b));
            if i % 3 == 0 {
                plain.free(ptrs_a.pop().unwrap(), &mut mem_a);
                over.free(ptrs_b.pop().unwrap(), &mut mem_b);
            }
        }
        assert_eq!(ptrs_a, ptrs_b);
        assert_eq!(plain.stats(), over.stats());
        assert_eq!(plain.frag_report(), over.frag_report());
    }

    #[test]
    fn group_plan_default_mirrors_alloc_config_default() {
        // GroupPlan::default (halo_graph) and GroupAllocConfig::default
        // (this crate) describe the same paper-default layout; if one
        // changes, the other — and this test — must follow.
        let plan = GroupPlan::default();
        let cfg = GroupAllocConfig::default();
        assert_eq!(plan.chunk_size, cfg.chunk_size);
        assert_eq!(plan.max_spare_chunks, cfg.max_spare_chunks);
        assert_eq!(plan.reuse, cfg.reuse_policy);
    }

    // --- fault injection and the degradation ladder ---------------------

    use crate::faults::{FaultInjector, FaultPlan, FaultSite};
    use std::sync::Arc;

    #[test]
    fn slab_exhaustion_degrades_the_group_not_the_process() {
        let (mut a, mut gs, mut mem) = setup();
        a.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(1).at(FaultSite::VmmReserve, 1),
        )));
        gs.set(0);
        // First grouped request needs a slab; the injected reservation
        // failure must degrade group 0 and serve from the fallback.
        let p = a.malloc(64, site(), &gs, &mut mem);
        assert_ne!(p, 0, "the request is still served");
        assert!(!a.is_group_allocated(p), "served by the fallback");
        assert!(a.is_degraded(0));
        let d = a.degrade_stats();
        assert_eq!(d.fallback_routes, 1);
        assert_eq!(d.degraded_groups, 1);
        assert_eq!(d.injected_faults, 1);
        // Later requests for the degraded group keep routing, no retry.
        let q = a.malloc(64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(q));
        assert_eq!(a.degrade_stats().fallback_routes, 2);
        // The other group is untouched by group 0's degradation.
        gs.reset();
        gs.set(1);
        let r = a.malloc(64, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(r));
        // Everything frees cleanly; nothing leaks across the ladder.
        a.free(p, &mut mem);
        a.free(q, &mut mem);
        a.free(r, &mut mem);
        assert_eq!(a.live_bytes(), 0);
        a.check_invariants().expect("invariants hold after degradation");
    }

    #[test]
    fn chunk_alloc_fault_degrades_identically() {
        let (mut a, mut gs, mut mem) = setup();
        a.set_fault_injector(Arc::new(FaultInjector::new(
            FaultPlan::new(1).at(FaultSite::ChunkAlloc, 2),
        )));
        gs.set(0);
        // Occurrence 1 (fresh chunk) succeeds; fill the chunk so the
        // second acquisition — which the plan fails — is needed.
        let ptrs: Vec<u64> = (0..4).map(|_| a.malloc(2048, site(), &gs, &mut mem)).collect();
        assert!(ptrs.iter().all(|&p| a.is_group_allocated(p)));
        let p = a.malloc(2048, site(), &gs, &mut mem);
        assert_ne!(p, 0);
        assert!(!a.is_group_allocated(p), "chunk-map failure routes to fallback");
        assert!(a.is_degraded(0));
        assert_eq!(a.degrade_stats().injected_faults, 1);
        // Live grouped pointers still free through their chunks.
        for &q in &ptrs {
            a.free(q, &mut mem);
        }
        a.free(p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn invalid_group_free_is_a_counted_noop() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        let live = a.live_bytes();
        // An interior address inside the slab range: no live region.
        a.free(p + 8, &mut mem);
        assert_eq!(a.degrade_stats().invalid_frees, 1);
        assert_eq!(a.live_bytes(), live, "accounting untouched");
        // Double free of a real pointer is also absorbed.
        a.free(p, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.degrade_stats().invalid_frees, 2);
        assert_eq!(a.live_bytes(), 0);
        a.check_invariants().expect("no-op frees leave a consistent state");
    }

    #[test]
    fn quarantine_routes_every_group_to_the_fallback() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let grouped = a.malloc(64, site(), &gs, &mut mem);
        assert!(a.is_group_allocated(grouped));
        a.quarantine();
        let p = a.malloc(64, site(), &gs, &mut mem);
        assert!(!a.is_group_allocated(p), "quarantined group falls back");
        assert_eq!(a.degrade_stats().degraded_groups, 2, "both groups degraded");
        // Pre-quarantine pointers still free through their chunks.
        a.free(grouped, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn no_injector_means_no_degradation_branch_taken() {
        let (mut a, mut gs, mut mem) = setup();
        gs.set(0);
        let p = a.malloc(64, site(), &gs, &mut mem);
        a.free(p, &mut mem);
        assert_eq!(a.degrade_stats(), crate::faults::DegradeStats::default());
        assert!(!a.degrade_stats().any());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_override_chunk_size_panics() {
        let cfg = small_config();
        let _ = HaloGroupAllocator::with_group_configs(
            cfg,
            two_group_table(),
            vec![GroupAllocConfig { chunk_size: 12288, ..cfg }],
        );
    }
}
