//! Measurement: run a program under an allocator on the simulated memory
//! hierarchy and report the paper's metrics.

use halo_cache::{
    AccessStats, CoherenceStats, CoherentHierarchy, HierarchyConfig, ThreadAccessStats, TimingModel,
};
use halo_vm::{
    AccessBatch, Engine, EngineLimits, ExitStats, Monitor, Program, VmAllocator, VmError,
};

/// Measurement-run parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasureConfig {
    /// Memory-subsystem geometry (defaults to the Xeon W-2195).
    pub hierarchy: HierarchyConfig,
    /// Cycle model.
    pub timing: TimingModel,
    /// Execution limits.
    pub limits: EngineLimits,
    /// Seed for the program's internal randomness (the *ref* input).
    pub seed: u64,
    /// Scale argument passed to the entry function in `r0` (the *ref*
    /// input size).
    pub entry_arg: i64,
}

/// A [`Monitor`] feeding data accesses into a [`CoherentHierarchy`],
/// routing each access through the private L1D/dTLB of the logical thread
/// the engine most recently announced (`Op::ThreadSwitch` →
/// [`Monitor::on_thread_switch`]). Programs that never switch threads see
/// counters bit-identical to the plain single-threaded walk
/// [`ReferenceHierarchy`](halo_cache::ReferenceHierarchy) — the
/// differential property suite pins that.
#[derive(Debug)]
pub struct CacheMonitor {
    hierarchy: CoherentHierarchy,
}

impl CacheMonitor {
    /// Wrap a hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheMonitor { hierarchy: CoherentHierarchy::new(config) }
    }

    /// The accumulated statistics, aggregated over all logical threads.
    pub fn stats(&self) -> AccessStats {
        self.hierarchy.stats()
    }

    /// Coherence-traffic counters (all zero for single-threaded runs).
    pub fn coherence(&self) -> CoherenceStats {
        self.hierarchy.coherence()
    }

    /// Per-thread counters, one entry per logical thread that touched
    /// memory, in thread-id order.
    pub fn thread_stats(&self) -> Vec<ThreadAccessStats> {
        self.hierarchy.thread_stats()
    }
}

impl Monitor for CacheMonitor {
    fn on_access(&mut self, addr: u64, width: u8, store: bool) {
        self.hierarchy.access(addr, width, store);
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        // One virtual call per up to `AccessBatch::CAPACITY` accesses; the
        // engine flushes before every thread switch, so the whole batch
        // belongs to the hierarchy's current thread.
        self.hierarchy.access_batch(batch.addrs(), batch.widths(), batch.stores());
    }

    fn on_thread_switch(&mut self, thread: u16) {
        self.hierarchy.set_thread(thread);
    }
}

/// One measured execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Cache and TLB counters.
    pub stats: AccessStats,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles under the configured [`TimingModel`].
    pub cycles: f64,
    /// Allocation count (for "allocations per million instructions").
    pub allocs: u64,
    /// Free count.
    pub frees: u64,
    /// Coherence traffic between the logical threads' private L1Ds
    /// (all-zero for single-threaded programs). The invalidations are
    /// already folded into `cycles` via
    /// [`TimingModel::cycles_coherent`].
    pub coherence: CoherenceStats,
}

impl Measurement {
    /// L1D miss reduction of `self` relative to `baseline`, as a fraction
    /// (Fig. 13's axis; positive = fewer misses). A zero-miss baseline
    /// yields 0.0 — an unguarded division here would emit NaN (0/0) or
    /// −inf, which flows unchecked into `halo_bench::pct` and the
    /// fig13/fig14 tables.
    pub fn miss_reduction_vs(&self, baseline: &Measurement) -> f64 {
        if baseline.stats.l1_misses == 0 {
            return 0.0;
        }
        1.0 - self.stats.l1_misses as f64 / baseline.stats.l1_misses as f64
    }

    /// Speedup of `self` relative to `baseline`, as a fraction
    /// (Figs. 14/15's axis; positive = faster).
    pub fn speedup_vs(&self, baseline: &Measurement) -> f64 {
        TimingModel::speedup(baseline.cycles, self.cycles)
    }

    /// Heap allocations per million instructions (the benchmark-selection
    /// criterion of §5.1).
    pub fn allocs_per_million_instructions(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.allocs as f64 * 1e6 / self.instructions as f64
    }
}

/// Run `program` under `alloc` and measure it.
///
/// # Errors
///
/// Returns the [`VmError`] if the program traps or exceeds limits.
pub fn measure<A: VmAllocator>(
    program: &Program,
    alloc: &mut A,
    config: &MeasureConfig,
) -> Result<Measurement, VmError> {
    measure_with(program, alloc, config).map(|(m, _)| m)
}

/// Like [`measure`], but also returns the raw [`ExitStats`].
///
/// # Errors
///
/// Returns the [`VmError`] if the program traps or exceeds limits.
pub fn measure_with<A: VmAllocator>(
    program: &Program,
    alloc: &mut A,
    config: &MeasureConfig,
) -> Result<(Measurement, ExitStats), VmError> {
    measure_detailed(program, alloc, config).map(|d| (d.measurement, d.exit))
}

/// A [`Measurement`] plus the per-thread breakdown behind it (not `Copy`:
/// the breakdown is one entry per active logical thread).
#[derive(Debug, Clone)]
pub struct MeasureDetail {
    /// The aggregate measurement (what [`measure`] returns).
    pub measurement: Measurement,
    /// The raw engine exit counters.
    pub exit: ExitStats,
    /// Per-thread cache counters, in thread-id order, one entry per
    /// logical thread that touched memory (always at least one).
    pub thread_stats: Vec<ThreadAccessStats>,
}

/// Like [`measure`], but also returns the raw [`ExitStats`] and the
/// per-thread cache counters.
///
/// # Errors
///
/// Returns the [`VmError`] if the program traps or exceeds limits.
pub fn measure_detailed<A: VmAllocator>(
    program: &Program,
    alloc: &mut A,
    config: &MeasureConfig,
) -> Result<MeasureDetail, VmError> {
    let mut monitor = CacheMonitor::new(config.hierarchy);
    let exit = Engine::new(program)
        .with_seed(config.seed)
        .with_entry_arg(config.entry_arg)
        .with_limits(config.limits)
        .run(alloc, &mut monitor)?;
    let stats = monitor.stats();
    let coherence = monitor.coherence();
    // With zero invalidations (every single-threaded program) this is
    // exactly `timing.cycles`, preserving all pre-coherence timings.
    let cycles = config.timing.cycles_coherent(exit.instructions, &stats, &coherence);
    Ok(MeasureDetail {
        measurement: Measurement {
            stats,
            instructions: exit.instructions,
            cycles,
            allocs: exit.allocs,
            frees: exit.frees,
            coherence,
        },
        thread_stats: monitor.thread_stats(),
        exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_mem::{BumpAllocator, SizeClassAllocator};
    use halo_vm::{Cond, ProgramBuilder, Reg, Width};

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    /// Interleave two kinds of 16-byte objects, then sweep only one kind.
    fn interleaved_sweep() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(9), 0);
        m.imm(r(10), 0);
        m.imm(r(11), 512);
        m.imm(r(0), 16);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(Cond::Ge, r(10), r(11), done);
        m.malloc(r(0), r(1)); // hot
        m.store(r(9), r(1), 0, Width::W8);
        m.mov(r(9), r(1));
        m.malloc(r(0), r(2)); // cold
        m.store(r(10), r(2), 8, Width::W8);
        m.add_imm(r(10), r(10), 1);
        m.jump(top);
        m.bind(done);
        m.imm(r(12), 0);
        m.imm(r(14), 50);
        let sweep = m.label();
        let sdone = m.label();
        m.bind(sweep);
        m.branch(Cond::Ge, r(12), r(14), sdone);
        m.mov(r(6), r(9));
        let walk = m.label();
        let wdone = m.label();
        m.bind(walk);
        m.branch(Cond::Eq, r(6), r(13), wdone);
        m.load(r(6), r(6), 0, Width::W8);
        m.jump(walk);
        m.bind(wdone);
        m.add_imm(r(12), r(12), 1);
        m.jump(sweep);
        m.bind(sdone);
        m.ret(None);
        let main = m.finish();
        pb.finish(main)
    }

    #[test]
    fn measurement_captures_misses_and_cycles() {
        let p = interleaved_sweep();
        let mut alloc = SizeClassAllocator::new();
        let m = measure(&p, &mut alloc, &MeasureConfig::default()).expect("runs");
        assert!(m.stats.l1_misses > 0);
        assert!(m.cycles > 0.0);
        assert_eq!(m.allocs, 1024);
        assert!(m.allocs_per_million_instructions() > 1.0);
    }

    #[test]
    fn denser_layout_measures_faster() {
        // The same program under a pure bump allocator (hot and cold
        // interleaved in memory) vs. size classes: both interleave here, so
        // instead compare against a hierarchy with tiny caches to verify
        // monotonicity of the cycle model with misses.
        let p = interleaved_sweep();
        let mut a1 = SizeClassAllocator::new();
        let big = measure(&p, &mut a1, &MeasureConfig::default()).expect("runs");
        let tiny_cfg =
            MeasureConfig { hierarchy: halo_cache::HierarchyConfig::tiny(), ..Default::default() };
        let mut a2 = SizeClassAllocator::new();
        let small = measure(&p, &mut a2, &tiny_cfg).expect("runs");
        assert!(small.stats.l1_misses >= big.stats.l1_misses);
        assert!(small.cycles > big.cycles);
    }

    #[test]
    fn metric_helpers_match_definitions() {
        let p = interleaved_sweep();
        let mut a1 = SizeClassAllocator::new();
        let base = measure(&p, &mut a1, &MeasureConfig::default()).expect("runs");
        let mut a2 = BumpAllocator::new();
        let opt = measure(&p, &mut a2, &MeasureConfig::default()).expect("runs");
        let mr = opt.miss_reduction_vs(&base);
        assert!((-1.0..=1.0).contains(&mr));
        let su = opt.speedup_vs(&base);
        assert!(su > -1.0);
        // Identity comparisons are zero.
        assert_eq!(base.miss_reduction_vs(&base), 0.0);
        assert_eq!(base.speedup_vs(&base), 0.0);
    }

    /// Two logical threads alternately storing to opposite halves of one
    /// 64-byte object: textbook false sharing.
    fn false_sharing_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main");
        m.imm(r(0), 64);
        m.malloc(r(0), r(1));
        m.imm(r(2), 0);
        m.imm(r(3), 200);
        let top = m.label();
        let done = m.label();
        m.bind(top);
        m.branch(Cond::Ge, r(2), r(3), done);
        m.thread_switch(1);
        m.store(r(2), r(1), 0, Width::W8);
        m.thread_switch(2);
        m.store(r(2), r(1), 32, Width::W8);
        m.add_imm(r(2), r(2), 1);
        m.jump(top);
        m.bind(done);
        m.free(r(1));
        m.ret(None);
        let main = m.finish();
        pb.finish(main)
    }

    #[test]
    fn thread_switches_reach_the_cache_model() {
        let p = false_sharing_program();
        let mut alloc = SizeClassAllocator::new();
        let config = MeasureConfig::default();
        let d = measure_detailed(&p, &mut alloc, &config).expect("runs");
        let c = d.measurement.coherence;
        assert!(c.invalidations > 100, "the line ping-pongs between the threads: {c:?}");
        // The two writers are reported separately; the main thread never
        // touches memory, so only threads 1 and 2 appear.
        let threads: Vec<u16> = d.thread_stats.iter().map(|t| t.thread).collect();
        assert_eq!(threads, vec![1, 2]);
        assert!(d.thread_stats.iter().all(|t| t.stats.stores > 0));
        assert_eq!(d.exit.thread_switches, 400);
        // The invalidations are charged in the cycle model.
        assert_eq!(
            d.measurement.cycles,
            config.timing.cycles(d.measurement.instructions, &d.measurement.stats)
                + c.invalidations as f64 * config.timing.coherence_penalty
        );
    }

    #[test]
    fn single_threaded_measurements_report_no_coherence_traffic() {
        let p = interleaved_sweep();
        let mut alloc = SizeClassAllocator::new();
        let config = MeasureConfig::default();
        let d = measure_detailed(&p, &mut alloc, &config).expect("runs");
        assert_eq!(d.measurement.coherence, halo_cache::CoherenceStats::default());
        assert_eq!(d.thread_stats.len(), 1);
        assert_eq!(d.thread_stats[0].thread, 0);
        assert_eq!(d.thread_stats[0].stats, d.measurement.stats);
        assert_eq!(d.exit.thread_switches, 0);
        // Bit-identity with the pre-coherence cycle model.
        assert_eq!(
            d.measurement.cycles,
            config.timing.cycles(d.measurement.instructions, &d.measurement.stats)
        );
    }

    #[test]
    fn zero_miss_baseline_yields_zero_not_nan() {
        // Regression test: a workload whose baseline never misses (or a
        // synthetic Measurement with no misses) must compare as 0.0, not
        // NaN (0/0) or −inf (n/0), because the result flows unchecked into
        // percentage formatting and the fig13/fig14 tables.
        let zero = Measurement {
            stats: AccessStats::default(),
            instructions: 100,
            cycles: 100.0,
            allocs: 0,
            frees: 0,
            coherence: CoherenceStats::default(),
        };
        let mut missing = zero;
        missing.stats.l1_misses = 42;
        assert_eq!(zero.miss_reduction_vs(&zero), 0.0);
        assert_eq!(missing.miss_reduction_vs(&zero), 0.0, "n/0 must not be -inf");
        assert!(zero.miss_reduction_vs(&zero).is_finite());
        // And the formatted form stays printable.
        assert_eq!(format!("{:+.1}%", missing.miss_reduction_vs(&zero) * 100.0), "+0.0%");
    }
}
