//! Per-layer metrics of one traced pass: self times from the spans,
//! the bare-VM probe, and the counters each workload collected.

use crate::replay::Log;
use crate::stats::Metric;
use crate::trace::{self, Span, LAYERS};
use halo::mem::SizeClassAllocator;
use halo::vm::{Engine, NullMonitor};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The share of a traced pass that may fall outside every layer span
/// (the benchmark's own loop) before the layer breakdown is rejected.
pub const COVERAGE_TOLERANCE: f64 = 0.02;

/// Allocator counters of the HALO layouts a pass ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemSummary {
    pub grouped_allocs: u64,
    pub fallback_allocs: u64,
    pub chunks_created: u64,
    pub chunks_reused: u64,
    pub frag_fraction: f64,
    pub remote_frees: u64,
    pub remote_peak_queue: u64,
    pub degraded: u64,
}

/// What the serve loop reported (all zero outside `serve_shift`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeSummary {
    pub swap_us: f64,
    pub swaps: u64,
    pub drift_max: f64,
    pub miss_reduction: f64,
    pub static_gap: f64,
}

/// Workload-side counters that the spans cannot see.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub hot_streams: u64,
    pub groups: u64,
    pub monitored_sites: u64,
    pub sites_instrumented: u64,
    pub invalidations: u64,
    pub mem: MemSummary,
    pub serve: ServeSummary,
}

/// One traced pass: its spans and root span, what the replay logged, and
/// the counters the spans cannot see.
pub struct TracedPass {
    pub spans: Vec<Span>,
    pub root: u64,
    pub log: Log,
    /// Name of the span that wraps one operation of the workload.
    pub op_span: &'static str,
    pub counters: Counters,
}

/// The per-layer metrics plus whether the output checks the probe makes
/// (bare runs agree with the measured runs) and the coverage check held.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub probe_ok: bool,
    pub coverage_ok: bool,
    pub summary: String,
}

/// Replay every baseline measurement of the pass on the bare VM (no cache
/// model, no monitor) and time it. Returns `(span, program, seconds)` per
/// run, and whether each bare run reproduced the measured run's return
/// value, instruction, allocation and free counts.
fn bare_probe(log: &Log) -> (Vec<(Option<u64>, String, f64)>, bool) {
    let runs = log.baselines.lock().expect("log poisoned").clone();
    let mut out = Vec::with_capacity(runs.len());
    let mut ok = true;
    for run in runs {
        let mut alloc = SizeClassAllocator::new();
        let start = Instant::now();
        let exit = Engine::new(&run.program)
            .with_seed(run.config.seed)
            .with_entry_arg(run.config.entry_arg)
            .with_limits(run.config.limits)
            .run(&mut alloc, &mut NullMonitor);
        let secs = start.elapsed().as_secs_f64();
        match exit {
            Ok(exit) if exit == run.exit => {}
            other => {
                eprintln!("check failed: bare run of {} differs: {other:?}", run.program_name);
                ok = false;
            }
        }
        out.push((run.span, run.program_name, secs));
    }
    (out, ok)
}

/// Per-layer metrics of `pass`, run with `threads` workers; the tracing
/// overhead is measured against `untraced_wall`.
pub fn layer_report(pass: &TracedPass, threads: usize, untraced_wall: f64) -> LayerReport {
    let spans = &pass.spans;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.id);
        }
    }
    let wall = by_id[&pass.root].secs();
    let sum_named = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans.iter().filter(|s| pred(s)).map(|s| s.secs()).sum()
    };

    // Bare-VM probe, outside the pass.
    let (bare, probe_ok) = bare_probe(&pass.log);
    let vm_bare: f64 = bare.iter().map(|b| b.2).sum();
    let probed_span_secs: f64 =
        bare.iter().filter_map(|b| b.0).filter_map(|id| by_id.get(&id)).map(|s| s.secs()).sum();
    // Per program, the share of a measurement that is bare VM time.
    let mut vm_share: HashMap<String, (f64, f64)> = HashMap::new();
    for (id, program, secs) in &bare {
        if let Some(s) = id.and_then(|id| by_id.get(&id)) {
            let e = vm_share.entry(program.clone()).or_default();
            e.0 += secs;
            e.1 += s.secs();
        }
    }

    // Wall-clock self time per layer; measurement spans split between
    // `vm` and `cache` by their program's bare share.
    let (charged, busy) = trace::self_times(spans, pass.root);
    let mut layer_self: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (id, secs) in &charged {
        let s = by_id[id];
        if s.layer == "cache" {
            let share = vm_share
                .get(&s.program)
                .map_or(0.0, |(bare, measured)| (bare / measured).clamp(0.0, 1.0));
            *layer_self.entry("vm").or_default() += secs * share;
            *layer_self.entry("cache").or_default() += secs * (1.0 - share);
        } else {
            *layer_self.entry(s.layer).or_default() += secs;
        }
    }
    let covered: f64 = layer_self.iter().filter(|(l, _)| **l != "bench").map(|(_, v)| v).sum();
    let coverage = covered / wall;
    let coverage_ok = (1.0 - coverage) <= COVERAGE_TOLERANCE;

    // Trials: each optimise span minus its profile/group/ident/rewrite
    // descendants.
    let mut trials = 0.0;
    for s in spans.iter().filter(|s| s.name == "core.optimise") {
        let mut stage = 0.0;
        let mut stack = children.get(&s.id).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            let cs = by_id[&c];
            if ["profile", "graph", "ident", "rewrite"].contains(&cs.layer) {
                stage += cs.secs();
            } else if let Some(more) = children.get(&c) {
                stack.extend(more);
            }
        }
        trials += s.secs() - stage;
    }

    let measure_baseline = sum_named(&|s| s.name == "core.measure.baseline");
    let measure_halo = sum_named(&|s| {
        ["core.measure.halo", "core.measure.static", "core.measure.serve"]
            .contains(&s.name.as_str())
    });
    let cache_model = probed_span_secs - vm_bare;
    let accesses: u64 = pass
        .log
        .baselines
        .lock()
        .expect("log poisoned")
        .iter()
        .map(|b| b.exit.loads + b.exit.stores)
        .sum();
    let profiles = pass.log.profiles.lock().expect("log poisoned").clone();
    let op_max =
        spans.iter().filter(|s| s.name == pass.op_span).map(Span::secs).fold(0.0, f64::max);
    let windows: Vec<f64> =
        spans.iter().filter(|s| s.name == "serve.window").map(Span::secs).collect();
    let c = &pass.counters;
    let m = &c.mem;
    let layer_secs = |layer: &str| sum_named(&|s| s.layer == layer);

    let mut metrics = vec![
        Metric::one("trace.wall_s", "s", wall),
        Metric::one("trace.overhead_s", "s", wall - untraced_wall),
        Metric::one("trace.coverage", "fraction", coverage),
    ];
    for (layer, secs) in &layer_self {
        metrics.push(Metric::one(&format!("{layer}.self_s"), "s", *secs));
    }
    metrics.extend([
        Metric::one("vm.bare_s", "s", vm_bare),
        Metric::one("cache.model_s", "s", cache_model),
        Metric::one(
            "cache.accesses_per_s",
            "1/s",
            if cache_model > 0.0 { accesses as f64 / cache_model } else { 0.0 },
        ),
        Metric::one("cache.invalidations", "count", c.invalidations as f64),
        Metric::one("core.measure_s.baseline", "s", measure_baseline),
        Metric::one("core.measure_s.halo", "s", measure_halo),
        Metric::one("core.measure_s.hds", "s", sum_named(&|s| s.name == "core.measure.hds")),
        Metric::one("core.policy_trials_s", "s", trials),
        Metric::one("core.evaluate_max_s", "s", op_max),
        Metric::one("core.busy_s", "s", busy),
        Metric::one("core.parallel_efficiency", "fraction", busy / (wall * threads as f64)),
        Metric::one("profile.s", "s", layer_secs("profile")),
        Metric::one("profile.nodes", "count", profiles.iter().map(|p| p.0 as f64).sum()),
        Metric::one("profile.edges", "count", profiles.iter().map(|p| p.1 as f64).sum()),
        Metric::one("profile.accesses", "count", profiles.iter().map(|p| p.2 as f64).sum()),
        Metric::one("hds.trace_s", "s", sum_named(&|s| s.name == "hds.trace")),
        Metric::one("hds.analyze_s", "s", sum_named(&|s| s.name == "hds.analyze")),
        Metric::one("hds.hot_streams", "count", c.hot_streams as f64),
        Metric::one("graph.group_s", "s", sum_named(&|s| s.name == "graph.group")),
        Metric::one("graph.groups", "count", c.groups as f64),
        Metric::one("ident.s", "s", layer_secs("ident")),
        Metric::one("ident.monitored_sites", "count", c.monitored_sites as f64),
        Metric::one("rewrite.s", "s", layer_secs("rewrite")),
        Metric::one("rewrite.sites_instrumented", "count", c.sites_instrumented as f64),
        Metric::one("mem.grouped_allocs", "count", m.grouped_allocs as f64),
        Metric::one("mem.fallback_allocs", "count", m.fallback_allocs as f64),
        Metric::one(
            "mem.grouped_share",
            "fraction",
            m.grouped_allocs as f64 / (m.grouped_allocs + m.fallback_allocs).max(1) as f64,
        ),
        Metric::one("mem.chunks_created", "count", m.chunks_created as f64),
        Metric::one("mem.chunks_reused", "count", m.chunks_reused as f64),
        Metric::one("mem.frag_fraction", "fraction", m.frag_fraction),
        Metric::one("mem.remote_frees", "count", m.remote_frees as f64),
        Metric::one("mem.remote_peak_queue", "count", m.remote_peak_queue as f64),
        Metric::one("mem.degraded", "count", m.degraded as f64),
        Metric::one(
            "serve.window_s",
            "s",
            if windows.is_empty() { 0.0 } else { crate::stats::median(&windows) },
        ),
        Metric::one("serve.swap_us", "us", c.serve.swap_us),
        Metric::one("serve.swaps", "count", c.serve.swaps as f64),
        Metric::one("serve.drift_max", "fraction", c.serve.drift_max),
        Metric::one("serve.miss_reduction", "fraction", c.serve.miss_reduction),
        Metric::one("serve.static_gap", "fraction", c.serve.static_gap),
    ]);

    let share = |l: &str| layer_self[l] / wall;
    let summary = format!(
        "traced pass {wall:.3} s ({:.3} s over untraced); layer self times cover {:.2}% of it \
         (tolerance {:.0}%)\nsplits: vm+cache {:.1}%, profile {:.1}%, core {:.1}%, hds {:.1}%, \
         graph+ident+rewrite {:.2}%, mem {:.2}%, bench {:.2}%\n",
        wall - untraced_wall,
        coverage * 100.0,
        COVERAGE_TOLERANCE * 100.0,
        (share("vm") + share("cache")) * 100.0,
        share("profile") * 100.0,
        share("core") * 100.0,
        share("hds") * 100.0,
        (share("graph") + share("ident") + share("rewrite")) * 100.0,
        share("mem") * 100.0,
        share("bench") * 100.0,
    );
    LayerReport { metrics, probe_ok, coverage_ok, summary }
}
