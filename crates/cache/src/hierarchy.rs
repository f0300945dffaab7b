//! Geometry and counters of the three-level cache hierarchy plus data TLB.

use crate::set_assoc::CacheConfig;

/// Geometry of the whole simulated memory subsystem.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified per-core L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Data-TLB entry count.
    pub tlb_entries: u32,
    /// Data-TLB associativity.
    pub tlb_ways: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Adjacent-line prefetching into L2: on an L1 demand miss for line
    /// `L`, lines `L±1` are brought into L2/L3. Models the spatial
    /// prefetchers of the evaluation hardware — the reason sequential
    /// layouts are cheap and scattered ones "generat[e] … prefetching
    /// failures" (§1).
    pub adjacent_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The evaluation machine from §5.1: Intel Xeon W-2195 — 32 KiB 8-way
    /// L1D, 1024 KiB 16-way L2, 25344 KiB 11-way shared L3, 64-byte lines,
    /// 64-entry 4-way dTLB over 4 KiB pages.
    pub fn xeon_w2195() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 },
            l2: CacheConfig { size_bytes: 1024 * 1024, line_bytes: 64, ways: 16 },
            l3: CacheConfig { size_bytes: 25344 * 1024, line_bytes: 64, ways: 11 },
            tlb_entries: 64,
            tlb_ways: 4,
            page_bytes: 4096,
            adjacent_line_prefetch: true,
        }
    }

    /// A scaled-down hierarchy for fast unit tests (512 B / 4 KiB / 32 KiB),
    /// with prefetching off so tests see raw placement effects.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 },
            l2: CacheConfig { size_bytes: 4096, line_bytes: 64, ways: 4 },
            l3: CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 },
            tlb_entries: 8,
            tlb_ways: 2,
            page_bytes: 4096,
            adjacent_line_prefetch: false,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::xeon_w2195()
    }
}

/// Hit/miss counters accumulated by a [`CoherentHierarchy`](crate::CoherentHierarchy),
/// per logical thread and in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Demand accesses that hit in L1D.
    pub l1_hits: u64,
    /// Demand accesses that missed L1D.
    pub l1_misses: u64,
    /// L1 misses that also missed L2.
    pub l2_misses: u64,
    /// L2 misses that also missed L3 (memory accesses).
    pub l3_misses: u64,
    /// dTLB misses.
    pub tlb_misses: u64,
    /// Load accesses observed.
    pub loads: u64,
    /// Store accesses observed.
    pub stores: u64,
}

impl AccessStats {
    /// Total demand accesses (loads + stores, after line splitting).
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoherentHierarchy;

    #[test]
    fn hit_miss_progression_through_levels() {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        h.access(0, 8, false);
        assert_eq!(h.stats().l1_misses, 1);
        assert_eq!(h.stats().l2_misses, 1);
        assert_eq!(h.stats().l3_misses, 1);
        h.access(8, 8, false); // same line
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn l2_catches_l1_capacity_victims() {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        // Touch 16 distinct lines: L1 (512B = 8 lines) overflows, L2 holds all.
        for i in 0..16u64 {
            h.access(i * 64, 8, false);
        }
        let warm = h.stats();
        for i in 0..16u64 {
            h.access(i * 64, 8, false);
        }
        let s = h.stats();
        assert!(s.l1_misses > warm.l1_misses, "working set exceeds L1");
        assert_eq!(s.l2_misses, warm.l2_misses, "working set fits in L2");
    }

    #[test]
    fn line_straddling_access_counts_both_lines() {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        h.access(60, 8, true); // crosses the 64-byte boundary
        assert_eq!(h.stats().l1_misses, 2);
        assert_eq!(h.stats().stores, 1);
    }

    #[test]
    fn tlb_misses_per_new_page() {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        h.access(0, 8, false);
        h.access(4096, 8, false);
        h.access(0, 8, false); // still resident (8 entries)
        assert_eq!(h.stats().tlb_misses, 2);
    }

    #[test]
    fn dense_layout_beats_scattered_layout() {
        // The core premise of the paper, as seen by the simulator: the same
        // logical objects packed densely generate fewer misses than spread
        // across lines.
        let cfg = HierarchyConfig::tiny();
        let mut dense = CoherentHierarchy::new(cfg);
        let mut scattered = CoherentHierarchy::new(cfg);
        for _round in 0..10 {
            for i in 0..16u64 {
                dense.access(i * 16, 8, false); // 4 objects per line: 4 lines total
                scattered.access(i * 256, 8, false); // 1 object per 4 lines: 16 lines
            }
        }
        assert!(dense.stats().l1_misses < scattered.stats().l1_misses / 4);
    }

    #[test]
    fn warm_up_is_excluded_by_a_stats_delta() {
        // Measuring a phase as the difference of two snapshots keeps the
        // warm-up's cache contents: the measured re-access hits.
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        h.access(0, 8, false);
        let warm = h.stats();
        h.access(0, 8, false);
        let s = h.stats();
        assert_eq!(s.l1_hits - warm.l1_hits, 1);
        assert_eq!(s.l1_misses - warm.l1_misses, 0);
    }

    #[test]
    fn xeon_geometry_is_consistent() {
        // Constructing the full-size hierarchy exercises the geometry
        // assertions (25344 KiB / 64 B / 11 ways divides evenly).
        let h = CoherentHierarchy::new(HierarchyConfig::xeon_w2195());
        assert_eq!(h.config().l1.sets(), 64);
        assert_eq!(h.config().l3.ways, 11);
    }

    #[test]
    fn miss_rate_bounds() {
        let mut h = CoherentHierarchy::new(HierarchyConfig::tiny());
        assert_eq!(h.stats().accesses(), 0);
        for i in 0..100u64 {
            h.access(i * 8, 8, i % 2 == 0);
        }
        let s = h.stats();
        assert!(s.l1_misses > 0 && s.l1_misses <= s.accesses());
        assert_eq!(s.loads + s.stores, 100);
    }
}
