//! Memory-hierarchy simulation for the HALO reproduction.
//!
//! The paper evaluates on an Intel Xeon W-2195 (32 KiB per-core L1D,
//! 1024 KiB per-core L2, 25344 KiB shared L3) and reports two metrics per
//! configuration: **L1 data-cache misses** and **time elapsed**. This crate
//! provides the stand-in for that hardware: set-associative LRU caches, a
//! data TLB, a three-level hierarchy with per-thread L1Ds kept coherent,
//! and a simple latency-based timing model that converts access counts
//! into simulated cycles. [`CoherentHierarchy`] is the one engine the
//! measurement pipeline drives; the [`ReferenceHierarchy`] and
//! [`ReferenceCoherentHierarchy`] walks are the oracles it is tested
//! against.
//!
//! Absolute numbers will not match a real Xeon — the reproduction targets
//! the *shape* of the results (who wins and by roughly what factor), as
//! explained in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use halo_cache::{CoherentHierarchy, HierarchyConfig};
//!
//! let mut h = CoherentHierarchy::new(HierarchyConfig::xeon_w2195());
//! h.access(0x1000, 8, false);
//! h.access(0x1000, 8, false); // same line: L1 hit
//! assert_eq!(h.stats().l1_misses, 1);
//! assert_eq!(h.stats().l1_hits, 1);
//! ```

mod coherent;
mod hierarchy;
mod reference;
mod set_assoc;
mod span;
mod timing;

pub use coherent::{CoherenceStats, CoherentHierarchy, LineState, ThreadAccessStats};
pub use hierarchy::{AccessStats, HierarchyConfig};
pub use reference::{ReferenceCoherentHierarchy, ReferenceHierarchy};
pub use set_assoc::{CacheConfig, SetAssocCache};
pub use timing::TimingModel;
