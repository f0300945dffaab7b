//! The pre-fast-path hierarchy walks, retained verbatim as behavioural
//! oracles.
//!
//! [`CoherentHierarchy`](crate::CoherentHierarchy) carries precomputed
//! shift/mask geometry, a single-line fast path, a per-thread MRU line
//! filter and a timestamp-LRU L1. Every one of those is claimed to be
//! *exactly* equivalent to the original per-access walk — same counters,
//! same LRU contents, same MESI-lite states. This module keeps that
//! original walk alive, division by division, so the differential property
//! suite can prove the claim on randomized traces instead of trusting it:
//! [`ReferenceHierarchy`] against one-thread runs, and
//! [`ReferenceCoherentHierarchy`] against thread interleavings.
//!
//! Nothing here is reachable from the measurement pipeline; the reference
//! models exist only to be compared against.

use crate::hierarchy::{AccessStats, HierarchyConfig};
use crate::set_assoc::{CacheConfig, SetAssocCache};
use crate::{CoherenceStats, LineState, ThreadAccessStats};
use std::collections::HashMap;

/// The original single-threaded three-level walk: one division per level
/// per access, no fast paths, no coherence. A one-thread
/// [`CoherentHierarchy`](crate::CoherentHierarchy) must match it counter
/// for counter.
#[derive(Debug)]
pub struct ReferenceHierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    tlb: SetAssocCache,
    stats: AccessStats,
}

impl ReferenceHierarchy {
    /// Build an empty reference hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        ReferenceHierarchy {
            config,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            tlb: SetAssocCache::new(CacheConfig {
                size_bytes: (config.tlb_entries as u64).max(config.tlb_ways as u64),
                line_bytes: 1,
                ways: config.tlb_ways,
            }),
            stats: AccessStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// The original `access`: division-based page/line splitting, inclusive
    /// range loop, no filter.
    pub fn access(&mut self, addr: u64, width: u8, store: bool) {
        if store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let first_page = addr / self.config.page_bytes;
        let last_page = (addr + width.max(1) as u64 - 1) / self.config.page_bytes;
        for page in first_page..=last_page {
            if !self.tlb.access(page) {
                self.stats.tlb_misses += 1;
            }
        }
        let line_bytes = self.config.l1.line_bytes;
        let first_line = addr / line_bytes;
        let last_line = (addr + width.max(1) as u64 - 1) / line_bytes;
        for line in first_line..=last_line {
            self.access_one_line(line * line_bytes);
        }
    }

    fn access_one_line(&mut self, line_addr: u64) {
        if self.l1.access(line_addr) {
            self.stats.l1_hits += 1;
            return;
        }
        self.stats.l1_misses += 1;
        let line_bytes = self.config.l1.line_bytes;
        let l2_hit = self.l2.access(line_addr);
        if !l2_hit {
            self.stats.l2_misses += 1;
            if !self.l3.access(line_addr) {
                self.stats.l3_misses += 1;
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

    /// Flush all levels and the TLB (counters are preserved).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.tlb.flush();
    }
}

/// One logical thread's private structures in the reference coherent
/// model, mirroring the original `ThreadDomain`.
#[derive(Debug)]
struct RefThreadDomain {
    l1: SetAssocCache,
    tlb: SetAssocCache,
    states: HashMap<u64, LineState>,
    stats: AccessStats,
}

impl RefThreadDomain {
    fn new(config: &HierarchyConfig) -> Self {
        RefThreadDomain {
            l1: SetAssocCache::new(config.l1),
            tlb: SetAssocCache::new(CacheConfig {
                size_bytes: (config.tlb_entries as u64).max(config.tlb_ways as u64),
                line_bytes: 1,
                ways: config.tlb_ways,
            }),
            states: HashMap::new(),
            stats: AccessStats::default(),
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        if self.l1.invalidate_line(line) {
            self.states.remove(&line);
            true
        } else {
            false
        }
    }
}

/// The original thread-aware MESI-lite walk, per-access and
/// division-based: the oracle the fast-path
/// [`CoherentHierarchy`](crate::CoherentHierarchy) is differentially
/// tested against, line state by line state.
#[derive(Debug)]
pub struct ReferenceCoherentHierarchy {
    config: HierarchyConfig,
    l2: SetAssocCache,
    l3: SetAssocCache,
    threads: Vec<RefThreadDomain>,
    current: usize,
    stats: AccessStats,
    coherence: CoherenceStats,
}

impl ReferenceCoherentHierarchy {
    /// Build an empty reference hierarchy on logical thread 0.
    pub fn new(config: HierarchyConfig) -> Self {
        ReferenceCoherentHierarchy {
            config,
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            threads: vec![RefThreadDomain::new(&config)],
            current: 0,
            stats: AccessStats::default(),
            coherence: CoherenceStats::default(),
        }
    }

    /// Route subsequent accesses through `thread`'s private L1D/dTLB.
    pub fn set_thread(&mut self, thread: u16) {
        let t = thread as usize;
        while self.threads.len() <= t {
            self.threads.push(RefThreadDomain::new(&self.config));
        }
        self.current = t;
    }

    /// Aggregate counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Coherence-traffic counters.
    pub fn coherence(&self) -> CoherenceStats {
        self.coherence
    }

    /// Per-thread counters (active threads only, thread-id order).
    pub fn thread_stats(&self) -> Vec<ThreadAccessStats> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, d)| d.stats.loads + d.stats.stores > 0)
            .map(|(t, d)| ThreadAccessStats { thread: t as u16, stats: d.stats })
            .collect()
    }

    /// MESI-lite state of the line containing `addr` in `thread`'s L1D.
    pub fn line_state(&self, thread: u16, addr: u64) -> LineState {
        let Some(domain) = self.threads.get(thread as usize) else {
            return LineState::Invalid;
        };
        let line = self.l2.line_of(addr);
        domain.states.get(&line).copied().unwrap_or(LineState::Invalid)
    }

    /// The original coherent `access`, division-based and filter-free.
    pub fn access(&mut self, addr: u64, width: u8, store: bool) {
        if store {
            self.stats.stores += 1;
            self.threads[self.current].stats.stores += 1;
        } else {
            self.stats.loads += 1;
            self.threads[self.current].stats.loads += 1;
        }
        let first_page = addr / self.config.page_bytes;
        let last_page = (addr + width.max(1) as u64 - 1) / self.config.page_bytes;
        for page in first_page..=last_page {
            if !self.threads[self.current].tlb.access(page) {
                self.stats.tlb_misses += 1;
                self.threads[self.current].stats.tlb_misses += 1;
            }
        }
        let line_bytes = self.config.l1.line_bytes;
        let first_line = addr / line_bytes;
        let last_line = (addr + width.max(1) as u64 - 1) / line_bytes;
        for line in first_line..=last_line {
            self.access_one_line(line * line_bytes, store);
        }
    }

    fn access_one_line(&mut self, line_addr: u64, store: bool) {
        let t = self.current;
        let line = self.threads[t].l1.line_of(line_addr);
        let (hit, evicted) = self.threads[t].l1.access_line(line);
        if let Some(victim) = evicted {
            self.threads[t].states.remove(&victim);
        }
        if hit {
            self.stats.l1_hits += 1;
            self.threads[t].stats.l1_hits += 1;
            if store {
                self.write_hit(t, line);
            }
            return;
        }
        self.stats.l1_misses += 1;
        self.threads[t].stats.l1_misses += 1;
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
            } else if self.threads[u].states.contains_key(&line) {
                remote_copies = true;
                self.threads[u].states.insert(line, LineState::Shared);
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
        self.threads[t].states.insert(line, state);
        let line_bytes = self.config.l1.line_bytes;
        let l2_hit = self.l2.access(line_addr);
        if !l2_hit {
            self.stats.l2_misses += 1;
            self.threads[t].stats.l2_misses += 1;
            if !self.l3.access(line_addr) {
                self.stats.l3_misses += 1;
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

    fn write_hit(&mut self, t: usize, line: u64) {
        let state = *self.threads[t].states.get(&line).expect("resident line has a state");
        match state {
            LineState::Modified => {}
            LineState::Exclusive => {
                self.threads[t].states.insert(line, LineState::Modified);
            }
            LineState::Shared => {
                self.coherence.upgrades += 1;
                for u in 0..self.threads.len() {
                    if u != t && self.threads[u].invalidate(line) {
                        self.coherence.invalidations += 1;
                    }
                }
                self.threads[t].states.insert(line, LineState::Modified);
            }
            LineState::Invalid => unreachable!("a hit line is never Invalid"),
        }
    }

    /// Flush all levels, TLBs, and states (counters are preserved).
    pub fn flush(&mut self) {
        self.l2.flush();
        self.l3.flush();
        for domain in &mut self.threads {
            domain.l1.flush();
            domain.tlb.flush();
            domain.states.clear();
        }
    }
}
