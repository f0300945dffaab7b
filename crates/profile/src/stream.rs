//! Continuous profiling for serve mode (DESIGN.md §15): successive
//! profiling *windows* are absorbed into one streaming affinity graph
//! with exponential decay, so the graph tracks the workload's current
//! phase instead of averaging over its whole history.
//!
//! Each window is an ordinary [`Profile`] from a bounded profiling run.
//! Absorbing it first decays every edge weight and node access count
//! already in the stream by the configured factor, then adds the
//! window's edges and accesses on top. After `k` windows, a window that
//! is `j` windows old contributes with weight `decay^j` — recent
//! behaviour dominates, and a dead phase's affinities melt away
//! geometrically instead of pinning the grouping to history.
//!
//! **Node identity:** windows must intern contexts in the same order
//! (serve mode replays each profiling window from the same train seed),
//! so a [`halo_graph::NodeId`] means the same allocation context in
//! every window. The stream unions the id spaces and trusts the caller
//! on this; mixing profiles of different programs aliases nodes.

use crate::Profile;
use halo_graph::AffinityGraph;

/// A streaming affinity graph over successive profiling windows.
#[derive(Debug)]
pub struct ProfileStream {
    graph: AffinityGraph,
    decay: f64,
    windows: u64,
}

impl ProfileStream {
    /// Create an empty stream. `decay` is the per-window retention
    /// factor in `[0, 1]`: `0.0` forgets everything each window (the
    /// stream is just the latest profile), `1.0` never forgets (plain
    /// accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `[0, 1]` (via
    /// [`AffinityGraph::decay`] on the first absorb).
    pub fn new(decay: f64) -> Self {
        ProfileStream { graph: AffinityGraph::new(), decay, windows: 0 }
    }

    /// Decay the stream by one window and fold `window`'s object-level
    /// graph on top. Every context alive or dead in the window keeps its
    /// node id; the stream grows its node table as new contexts appear.
    pub fn absorb(&mut self, window: &Profile) {
        self.graph.decay(self.decay);
        while self.graph.len() < window.graph.len() {
            self.graph.add_node(0);
        }
        for n in window.graph.nodes() {
            let acc = window.graph.accesses(n);
            if acc > 0 {
                self.graph.add_accesses(n, acc);
            }
        }
        self.graph.reserve_edges(window.graph.edge_count());
        for (u, v, w) in window.graph.edges() {
            self.graph.add_edge_weight(u, v, w);
        }
        self.windows += 1;
    }

    /// The current streaming graph (decayed history plus the most recent
    /// window).
    pub fn graph(&self) -> &AffinityGraph {
        &self.graph
    }

    /// Number of windows absorbed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The configured per-window retention factor.
    pub fn decay(&self) -> f64 {
        self.decay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_graph::NodeId;

    fn window(nodes: usize, edges: &[(u32, u32, u64)]) -> Profile {
        let mut graph = AffinityGraph::new();
        for _ in 0..nodes {
            graph.add_node(0);
        }
        for &(u, v, w) in edges {
            graph.add_edge_weight(NodeId(u), NodeId(v), w);
            graph.add_accesses(NodeId(u), w);
            graph.add_accesses(NodeId(v), w);
        }
        Profile {
            page_graph: AffinityGraph::new(),
            contexts: Vec::new(),
            total_accesses: graph.total_accesses(),
            total_page_accesses: 0,
            total_allocs: 0,
            queue_work: 0,
            shard_count: 1,
            graph,
        }
    }

    #[test]
    fn absorbing_decays_history_geometrically() {
        let mut s = ProfileStream::new(0.5);
        s.absorb(&window(2, &[(0, 1, 100)]));
        assert_eq!(s.graph().weight(NodeId(0), NodeId(1)), 100);
        // Second window: history halves, fresh weight lands whole.
        s.absorb(&window(2, &[(0, 1, 100)]));
        assert_eq!(s.graph().weight(NodeId(0), NodeId(1)), 150);
        // An empty window still decays what is there.
        s.absorb(&window(2, &[]));
        assert_eq!(s.graph().weight(NodeId(0), NodeId(1)), 75);
        assert_eq!(s.windows(), 3);
    }

    #[test]
    fn phase_shift_melts_the_old_structure() {
        let mut s = ProfileStream::new(0.5);
        s.absorb(&window(2, &[(0, 1, 8)]));
        // The workload moves on: contexts 2 and 3 dominate from now on.
        for _ in 0..4 {
            s.absorb(&window(4, &[(2, 3, 100)]));
        }
        // 8 × 0.5⁴ = 0.5 → floor 0 → edge dropped entirely.
        assert_eq!(s.graph().weight(NodeId(0), NodeId(1)), 0, "dead phase fully melted");
        assert!(s.graph().weight(NodeId(2), NodeId(3)) > 100, "live phase accumulates");
        assert_eq!(s.graph().len(), 4, "node table grew with the new contexts");
    }

    #[test]
    fn zero_decay_keeps_only_the_latest_window() {
        let mut s = ProfileStream::new(0.0);
        s.absorb(&window(2, &[(0, 1, 40)]));
        s.absorb(&window(2, &[(0, 1, 7)]));
        assert_eq!(s.graph().weight(NodeId(0), NodeId(1)), 7);
    }
}
