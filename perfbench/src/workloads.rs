//! The three workloads: inputs from the seed, the timed passes, the
//! output checks, the layout-quality figures and the traced pass.

use crate::layers::{layer_report, Counters, MemSummary, ServeSummary, TracedPass};
use crate::replay::{self, Log, ServeReplay};
use crate::stats::{geomean, mean, median, Metric};
use crate::trace::{self, span};
use crate::{peak_rss_mb, Args, Fingerprint, Outcome};
use halo::core::{
    backend_spec, evaluate_with_arg, measure_detailed, par_map, serve, BackendCtx, EvalConfig,
    EvalResult, Halo, HaloConfig, MeasureConfig, Measurement, Optimised, ServeConfig, ServePhase,
    ServeReport,
};
use halo::mem::SizeClassAllocator;
use halo::vm::{Engine, ExitStats, NullMonitor, Program, SplitMix64};
use halo::workloads::{all, multithreaded, toy, RunSpec, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const NAMES: &[&str] = &["paper_eval", "optimise", "serve_shift"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The `halo serve` phase script: the server mix, then the xalanc-mt mix.
const SERVE_SCRIPT: &[(&str, u64)] = &[("server", 2), ("xalanc-mt", 4)];
const SERVE_SHARDS: usize = 2;

/// One program with its inputs and the paper configuration.
struct Prog {
    name: &'static str,
    program: Program,
    train: RunSpec,
    config: EvalConfig,
    /// What the unmodified program returns on the ref input under the
    /// baseline allocator, with no monitor: the result every layout must
    /// reproduce.
    expected: Result<ExitStats, String>,
}

/// The paper seed itself, or one derived from it and the workload seed.
fn derive(paper: u64, seed: Option<u64>) -> u64 {
    match seed {
        None => paper,
        Some(s) => SplitMix64::new(paper ^ SplitMix64::new(s).next_u64()).next_u64(),
    }
}

fn prog(w: Workload, seed: Option<u64>) -> Prog {
    let train = RunSpec { seed: derive(w.train.seed, seed), arg: w.train.arg };
    let reference = RunSpec { seed: derive(w.reference.seed, seed), arg: w.reference.arg };
    let mut config = halo_bench::paper_config(&w);
    config.measure.seed = reference.seed;
    config.measure.entry_arg = reference.arg;
    // Serially, like all of set-up: worker threads would leave the
    // simulated heaps in per-thread malloc arenas, which makes the
    // process's peak RSS vary from run to run.
    let expected = reference_exit(&w.program, &config.measure);
    Prog { name: w.name, program: w.program, train, config, expected }
}

/// The 11 paper programs plus `toy`: what `halo run --benchmark all` runs.
fn paper_programs(seed: Option<u64>) -> Vec<Prog> {
    let mut ws = all();
    ws.push(toy::build());
    ws.into_iter().map(|w| prog(w, seed)).collect()
}

/// One serve window's reference result: `(program, ref seed, result)`.
type WindowExpected = (String, u64, Result<ExitStats, String>);

/// The pipeline configuration `evaluate_with_arg` hands to `Halo`: the
/// auto policies validate against the measurement geometry.
fn halo_config(config: &EvalConfig) -> HaloConfig {
    HaloConfig { hierarchy: config.measure.hierarchy, timing: config.measure.timing, ..config.halo }
}

fn serve_inputs(seed: Option<u64>) -> (Vec<ServePhase>, ServeConfig, Vec<WindowExpected>) {
    let mt = multithreaded();
    let phases: Vec<ServePhase> = SERVE_SCRIPT
        .iter()
        .map(|&(name, windows)| {
            let w = mt.iter().find(|w| w.name == name).expect("serve phase workload exists");
            ServePhase {
                name: w.name.into(),
                program: w.program.clone(),
                train_seed: derive(w.train.seed, seed),
                train_arg: w.train.arg,
                ref_seed: derive(w.reference.seed, seed),
                ref_arg: w.reference.arg,
                windows,
            }
        })
        .collect();
    let config = ServeConfig { shards: SERVE_SHARDS, ..ServeConfig::default() };
    // `serve` measures window `w` (numbered across phases) with the
    // phase's ref seed plus `w`.
    let mut windows = Vec::new();
    for p in &phases {
        for _ in 0..p.windows {
            let cfg = MeasureConfig {
                seed: p.ref_seed + windows.len() as u64,
                entry_arg: p.ref_arg,
                ..config.measure
            };
            windows.push((p, cfg));
        }
    }
    let expected = windows
        .iter()
        .map(|(p, cfg)| (p.name.clone(), cfg.seed, reference_exit(&p.program, cfg)))
        .collect();
    (phases, config, expected)
}

/// Run `build` [`SETUP_REPS`] times; keep the last result. Set-up builds
/// the programs and configurations from the seed and runs each
/// unmodified program once to get the results the checks expect.
fn timed_setup<T>(build: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        last = Some(std::hint::black_box(build()));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Repeat `pass` until `seconds` have elapsed (at least once); returns
/// each pass's wall time.
fn timed_passes(seconds: f64, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        pass(walls.len());
        walls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return walls;
        }
    }
}

/// One operation: its error or panic becomes an `Err`.
fn attempt<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn fail(what: &str) -> bool {
    eprintln!("check failed: {what}");
    false
}

/// The unmodified program under the baseline allocator, with no monitor:
/// the reference every layout must reproduce.
fn reference_exit(program: &Program, cfg: &MeasureConfig) -> Result<ExitStats, String> {
    Engine::new(program)
        .with_seed(cfg.seed)
        .with_entry_arg(cfg.entry_arg)
        .with_limits(cfg.limits)
        .run(&mut SizeClassAllocator::new(), &mut NullMonitor)
        .map_err(|e| e.to_string())
}

/// Same observable result as the reference: return value, allocations
/// and frees.
fn same_result(a: &ExitStats, b: &ExitStats) -> bool {
    a.return_value == b.return_value && a.allocs == b.allocs && a.frees == b.frees
}

/// Per-operation status across passes: `ok[pass][op]`.
struct Ledger {
    ok: Vec<Vec<bool>>,
}

impl Ledger {
    fn attempted(&self) -> u64 {
        self.ok.iter().map(|p| p.len() as u64).sum()
    }
    fn failed(&self) -> u64 {
        self.ok.iter().flatten().filter(|ok| !**ok).count() as u64
    }
    /// Operation `op` failed its output check, so it failed in every pass
    /// (all passes produced the same output; see the pass comparison).
    fn fail_everywhere(&mut self, op: usize) {
        for pass in &mut self.ok {
            pass[op] = false;
        }
    }
}

fn quality_metrics(miss: &[f64], speed: &[f64], frag: &[f64]) -> [Metric; 3] {
    [
        Metric::one("halo_miss_ratio", "x", geomean(miss)),
        Metric::one("halo_speedup", "x", geomean(speed)),
        Metric::one("halo_frag_fraction", "fraction", mean(frag)),
    ]
}

fn ratio(base: u64, layout: u64) -> f64 {
    base.max(1) as f64 / layout.max(1) as f64
}

/// Arm the span recorder, run `pass` under a root span, and return its
/// output, the spans and the root's id.
fn traced<T>(pass: impl FnOnce() -> T) -> (T, Vec<trace::Span>, u64) {
    trace::arm();
    let (out, root) = span("bench", "bench.pass", "", || (pass(), trace::current()));
    let spans = trace::disarm();
    (out, spans, root.expect("recording was armed"))
}

fn write_spans(args: &Args, fp: &Fingerprint, spans: &[trace::Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let seed = args.seed.map_or("paper".to_string(), |s| s.to_string());
    let path = dir.join(format!("spans-{}-{seed}.json", args.workload));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":\"{seed}\",\"nproc\":{},\"halo_threads\":{},\
         \"rustc\":\"{}\",\"rev\":\"{}\"",
        args.workload, fp.nproc, fp.threads, fp.rustc, fp.rev
    );
    match std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, trace::to_json(spans, &header)))
    {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

pub fn run(args: &Args, fp: &Fingerprint) -> Outcome {
    match args.workload.as_str() {
        "paper_eval" => paper_eval(args, fp),
        "optimise" => optimise(args, fp),
        _ => serve_shift(args, fp),
    }
}

/// What a workload's run measured and checked.
struct Run {
    ledger: Ledger,
    checks_ok: bool,
    walls: Vec<f64>,
    setups: Vec<f64>,
    quality: [Metric; 3],
    /// Workload-specific metrics shown in the table only.
    extra: Vec<Metric>,
    traced: Option<TracedPass>,
}

/// Finish an outcome: add the timing metrics in `BENCHMARK.json` order
/// and, for a traced run, the per-layer report.
fn finish(args: &Args, fp: &Fingerprint, run: Run) -> Outcome {
    let mut checks_ok = run.checks_ok;
    let untraced_wall = median(&run.walls);
    let mut end_to_end = vec![
        Metric::new("wall_s", "s", run.walls),
        Metric::new("setup_s", "s", run.setups),
        Metric::one("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    end_to_end.extend(run.quality);
    let mut per_layer = Vec::new();
    if let Some(pass) = run.traced {
        write_spans(args, fp, &pass.spans);
        let report = layer_report(&pass, fp.threads, untraced_wall);
        print!("{}", report.summary);
        checks_ok &= report.probe_ok;
        if !report.coverage_ok {
            checks_ok = fail("layer self times do not add up to the traced wall time");
        }
        per_layer = report.metrics;
    }
    Outcome {
        attempted: run.ledger.attempted(),
        failed: run.ledger.failed(),
        checks_ok,
        end_to_end,
        extra: run.extra,
        per_layer,
    }
}

// ---------------------------------------------------------------- paper_eval

/// What must repeat exactly between passes and between the library call
/// and its traced replay: every backend's simulated counters and the
/// grouping they ran.
fn eval_signature(r: &EvalResult) -> (Vec<(&'static str, Measurement)>, Vec<halo::graph::Group>) {
    (r.backends.iter().map(|(id, c)| (*id, c.measurement)).collect(), r.optimised.groups.clone())
}

/// Independent output check of one evaluation: every backend's run
/// returns what the unmodified program returns under the baseline
/// allocator, with the same allocation and free counts.
fn check_eval(p: &Prog, r: &EvalResult) -> bool {
    let reference = match &p.expected {
        Ok(e) => e,
        Err(e) => return fail(&format!("{}: reference run failed: {e}", p.name)),
    };
    let halo = Halo::new(halo_config(&p.config));
    let ctx = BackendCtx {
        config: &p.config,
        halo: Some(&halo),
        optimised: Some(&r.optimised),
        hds: Some(&r.hds_analysis),
    };
    let mut ok = true;
    for (id, c) in &r.backends {
        let m = &c.measurement;
        if m.allocs != reference.allocs || m.frees != reference.frees {
            ok = fail(&format!("{} {id}: measured alloc/free counts differ", p.name));
        }
        let spec = backend_spec(id).expect("measured backends are registered");
        let mut alloc = spec.make_allocator(&ctx);
        let target = if spec.rewritten { &r.optimised.program } else { &p.program };
        let exit = Engine::new(target)
            .with_seed(p.config.measure.seed)
            .with_entry_arg(p.config.measure.entry_arg)
            .with_limits(p.config.measure.limits)
            .run(&mut alloc, &mut NullMonitor);
        if !exit.as_ref().is_ok_and(|e| same_result(e, reference)) {
            ok = fail(&format!("{} {id}: result differs from the unmodified program", p.name));
        }
    }
    ok
}

fn paper_eval(args: &Args, fp: &Fingerprint) -> Outcome {
    let (progs, setups) = timed_setup(|| paper_programs(args.seed));
    let mut ledger = Ledger { ok: Vec::new() };
    let mut first: Vec<Option<EvalResult>> = Vec::new();
    let walls = timed_passes(args.seconds, |pass| {
        let mut row = Vec::with_capacity(progs.len());
        for (i, p) in progs.iter().enumerate() {
            let r = attempt(|| {
                evaluate_with_arg(&p.program, p.name, p.train.seed, p.train.arg, &p.config)
                    .map_err(|e| e.to_string())
            });
            let ok = match (&r, first.get(i)) {
                (Err(e), _) => fail(&format!("{}: {e}", p.name)),
                (Ok(r), Some(Some(f))) if eval_signature(r) != eval_signature(f) => {
                    fail(&format!("{}: pass {pass} differs from pass 0", p.name))
                }
                _ => true,
            };
            row.push(ok);
            if pass == 0 {
                first.push(r.ok());
            }
        }
        ledger.ok.push(row);
    });

    let mut checks_ok = true;
    let jobs: Vec<(usize, &Prog, &EvalResult)> = progs
        .iter()
        .zip(&first)
        .enumerate()
        .filter_map(|(i, (p, r))| Some((i, p, r.as_ref()?)))
        .collect();
    for (i, ok) in par_map(&jobs, |&(i, p, r)| (i, check_eval(p, r))) {
        if !ok {
            ledger.fail_everywhere(i);
        }
    }

    let done: Vec<&EvalResult> = first.iter().flatten().collect();
    let miss: Vec<f64> = done
        .iter()
        .map(|r| {
            ratio(r.baseline().measurement.stats.l1_misses, r.halo().measurement.stats.l1_misses)
        })
        .collect();
    let speed: Vec<f64> = done
        .iter()
        .map(|r| r.baseline().measurement.cycles / r.halo().measurement.cycles)
        .collect();
    let frag: Vec<f64> =
        done.iter().map(|r| r.halo().frag.map_or(0.0, |f| f.frag_fraction())).collect();

    let traced = args.trace.then(|| {
        let log = Log::default();
        let (results, spans, root) = traced(|| {
            progs
                .iter()
                .map(|p| {
                    replay::evaluate(&log, &p.program, p.name, p.train.seed, p.train.arg, &p.config)
                })
                .collect::<Vec<_>>()
        });
        let mut counters = Counters::default();
        for (i, (p, r)) in progs.iter().zip(&results).enumerate() {
            let same = match (r, &first[i]) {
                (Ok(t), Some(f)) => eval_signature(t) == eval_signature(f),
                _ => false,
            };
            if !same {
                checks_ok = fail(&format!("{}: traced counters differ from evaluate", p.name));
            }
        }
        for r in results.iter().flatten() {
            counters.hot_streams += r.hds_analysis.stats.hot_streams as u64;
            count_optimised(&mut counters, &r.optimised);
            let halo = r.halo();
            if let Some(s) = halo.alloc_stats {
                add_alloc_stats(&mut counters.mem, &s);
            }
            if let Some(d) = halo.degrade {
                counters.mem.degraded += d.fallback_routes + d.queue_overflows;
            }
            counters.invalidations += halo.measurement.coherence.invalidations;
        }
        counters.mem.frag_fraction = mean(&frag);
        TracedPass { spans, root, log, op_span: "core.evaluate", counters }
    });

    let quality = quality_metrics(&miss, &speed, &frag);
    finish(args, fp, Run { ledger, checks_ok, walls, setups, quality, extra: Vec::new(), traced })
}

fn count_optimised(c: &mut Counters, o: &Optimised) {
    c.groups += o.groups.len() as u64;
    c.monitored_sites += o.ident.monitored_sites().count() as u64;
    c.sites_instrumented += o.rewrite.sites_instrumented as u64;
}

fn add_alloc_stats(m: &mut MemSummary, s: &halo::mem::GroupAllocStats) {
    m.grouped_allocs += s.grouped_allocs;
    m.fallback_allocs += s.fallback_allocs;
    m.chunks_created += s.chunks_created;
    m.chunks_reused += s.chunks_reused;
}

// ------------------------------------------------------------------ optimise

fn optimise_signature(o: &Optimised) -> impl PartialEq + '_ {
    (
        &o.groups,
        o.granularity,
        o.auto_declined,
        o.ident.monitored_sites().collect::<std::collections::BTreeSet<_>>(),
        (o.rewrite.sites_instrumented, o.rewrite.instructions_added, o.rewrite.branches_fixed),
    )
}

fn optimise(args: &Args, fp: &Fingerprint) -> Outcome {
    let (progs, setups) = timed_setup(|| {
        let mut progs = paper_programs(args.seed);
        progs.extend(multithreaded().into_iter().map(|w| prog(w, args.seed)));
        progs
    });
    let halos: Vec<Halo> = progs.iter().map(|p| Halo::new(halo_config(&p.config))).collect();
    let mut ledger = Ledger { ok: Vec::new() };
    let mut first: Vec<Option<Optimised>> = Vec::new();
    let walls = timed_passes(args.seconds, |pass| {
        let mut row = Vec::with_capacity(progs.len());
        for (i, p) in progs.iter().enumerate() {
            let r = attempt(|| {
                halos[i]
                    .optimise_with_arg(&p.program, p.train.seed, p.train.arg)
                    .map_err(|e| e.to_string())
            });
            let ok = match (&r, first.get(i)) {
                (Err(e), _) => fail(&format!("{}: {e}", p.name)),
                (Ok(o), Some(Some(f))) if optimise_signature(o) != optimise_signature(f) => {
                    fail(&format!("{}: pass {pass} differs from pass 0", p.name))
                }
                _ => true,
            };
            row.push(ok);
            if pass == 0 {
                first.push(r.ok());
            }
        }
        ledger.ok.push(row);
    });

    // Layout quality and output check on the ref input, as `paper_eval`
    // measures it: each plan's allocator on the rewritten binary against
    // the baseline allocator on the unmodified one.
    let jobs: Vec<(usize, &Prog, &Optimised)> = progs
        .iter()
        .zip(&first)
        .enumerate()
        .filter_map(|(i, (p, o))| Some((i, p, o.as_ref()?)))
        .collect();
    // One job per (program, layout), so the long programs' two runs
    // overlap.
    let runs: Vec<(usize, bool)> = jobs.iter().flat_map(|j| [(j.0, false), (j.0, true)]).collect();
    let mut done = par_map(&runs, |&(k, laid)| {
        let (i, p, o) = jobs[k];
        if laid {
            let mut alloc = halos[i].make_allocator(o);
            measure_detailed(&o.program, &mut alloc, &p.config.measure)
                .map(|d| (d, Some((alloc.frag_report(), alloc.stats(), alloc.degrade_stats()))))
        } else {
            measure_detailed(&p.program, &mut SizeClassAllocator::new(), &p.config.measure)
                .map(|d| (d, None))
        }
    })
    .into_iter();
    let measured: Vec<_> = jobs
        .iter()
        .map(|&(i, p, _)| match (done.next(), done.next(), &p.expected) {
            (Some(Ok((b, None))), Some(Ok((l, Some((f, stats, degrade))))), Ok(e))
                if same_result(&b.exit, e) && same_result(&l.exit, e) =>
            {
                Ok((b.measurement, l.measurement, f, stats, degrade))
            }
            _ => Err(i),
        })
        .collect();
    let (mut miss, mut speed, mut frag) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem = MemSummary::default();
    let mut invalidations = 0;
    for m in measured {
        match m {
            Ok((b, l, f, stats, degrade)) => {
                miss.push(ratio(b.stats.l1_misses, l.stats.l1_misses));
                speed.push(b.cycles / l.cycles);
                frag.push(f.frag_fraction());
                add_alloc_stats(&mut mem, &stats);
                mem.degraded += degrade.fallback_routes + degrade.queue_overflows;
                invalidations += l.coherence.invalidations;
            }
            Err(i) => {
                fail(&format!("{}: optimised program's result differs on ref", progs[i].name));
                ledger.fail_everywhere(i);
            }
        }
    }
    mem.frag_fraction = mean(&frag);

    let mut checks_ok = true;
    let traced = args.trace.then(|| {
        let log = Log::default();
        let (results, spans, root) = traced(|| {
            progs
                .iter()
                .zip(&halos)
                .map(|(p, h)| {
                    replay::optimise(&log, h, p.name, &p.program, p.train.seed, p.train.arg)
                })
                .collect::<Vec<_>>()
        });
        let mut counters = Counters { mem, invalidations, ..Counters::default() };
        for (i, (p, r)) in progs.iter().zip(&results).enumerate() {
            match (r, &first[i]) {
                (Ok(t), Some(f)) if optimise_signature(t) == optimise_signature(f) => {
                    count_optimised(&mut counters, t)
                }
                _ => checks_ok = fail(&format!("{}: traced plan differs from optimise", p.name)),
            }
        }
        TracedPass { spans, root, log, op_span: "core.optimise", counters }
    });

    let quality = quality_metrics(&miss, &speed, &frag);
    finish(args, fp, Run { ledger, checks_ok, walls, setups, quality, extra: Vec::new(), traced })
}

// --------------------------------------------------------------- serve_shift

/// The deterministic part of a serve report (everything but latency).
fn serve_signature(r: &ServeReport) -> Vec<(u64, u64, Option<f64>, bool, f64, f64)> {
    r.rows
        .iter()
        .map(|w| {
            (w.window, w.plan_epoch, w.drift, w.swapped, w.miss_reduction, w.static_miss_reduction)
        })
        .collect()
}

fn replay_signature(r: &ServeReplay) -> Vec<(u64, u64, Option<f64>, bool, f64, f64)> {
    r.windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (
                i as u64,
                w.plan_epoch,
                w.drift,
                w.swapped,
                w.serve.miss_reduction_vs(&w.baseline),
                w.static_m.miss_reduction_vs(&w.baseline),
            )
        })
        .collect()
}

fn serve_shift(args: &Args, fp: &Fingerprint) -> Outcome {
    let ((phases, config, expected), setups) = timed_setup(|| serve_inputs(args.seed));
    let windows: usize = phases.iter().map(|p| p.windows as usize).sum();
    let mut ledger = Ledger { ok: Vec::new() };
    let mut first: Option<ServeReport> = None;
    let walls = timed_passes(args.seconds, |pass| {
        let r = attempt(|| serve(&phases, &config).map_err(|e| e.to_string()));
        let ok = match (&r, &first) {
            (Err(e), _) => fail(&format!("serve: {e}")),
            (Ok(r), _) if r.swaps < 1 || !r.recovered => {
                fail(&format!("serve: {} swaps, recovered={}", r.swaps, r.recovered))
            }
            (Ok(r), Some(f)) if serve_signature(r) != serve_signature(f) => {
                fail(&format!("serve: pass {pass} differs from pass 0"))
            }
            _ => true,
        };
        ledger.ok.push(vec![ok; windows]);
        if pass == 0 {
            first = r.ok();
        }
    });

    // The replay is the traced pass when tracing; untraced otherwise. It
    // checks the report and gives the serve allocator's state.
    let log = Log::default();
    let run_replay = || replay::serve(&log, &phases, &config);
    let (replayed, trace_data) = if args.trace {
        let (r, spans, root) = traced(run_replay);
        (r, Some((spans, root)))
    } else {
        (run_replay(), None)
    };
    let mut checks_ok = true;
    let mut quality = quality_metrics(&[], &[], &[]);
    let mut extra = Vec::new();
    let mut counters = Counters::default();
    match (&replayed, &first) {
        (Ok(rep), Some(f)) => {
            if replay_signature(rep) != serve_signature(f) {
                checks_ok = fail("serve: replayed windows differ from the serve report");
            }
            // Every window's baseline, static and serve runs (not the
            // auto-policy trials) must return what set-up expects.
            let exits: Vec<replay::Execution> = log
                .executions
                .lock()
                .expect("log poisoned")
                .iter()
                .filter(|e| e.kind == "core.measure")
                .cloned()
                .collect();
            if exits.len() != 3 * windows {
                checks_ok = fail("serve: the replay did not measure every window");
            }
            for e in &exits {
                let reference = expected
                    .iter()
                    .find(|(name, seed, _)| *name == e.program_name && *seed == e.seed);
                if !reference
                    .is_some_and(|(_, _, r)| r.as_ref().is_ok_and(|r| same_result(r, &e.exit)))
                {
                    checks_ok = fail(&format!(
                        "serve: {} window's result differs from the unmodified program",
                        e.backend
                    ));
                }
            }
            let last = rep.windows.last().expect("at least one window");
            quality = quality_metrics(
                &[ratio(last.baseline.stats.l1_misses, last.serve.stats.l1_misses)],
                &[last.baseline.cycles / last.serve.cycles],
                &[rep.serve_frag.frag_fraction()],
            );
            let gap = f.final_miss_reduction - f.final_static_miss_reduction;
            extra.push(Metric::one("serve_miss_reduction", "fraction", f.final_miss_reduction));
            extra.push(Metric::one("serve_static_gap", "fraction", gap));
            let s = &rep.serve_stats;
            counters = Counters {
                groups: rep.groups as u64,
                monitored_sites: rep.monitored_sites as u64,
                sites_instrumented: rep.sites_instrumented as u64,
                invalidations: rep.windows.iter().map(|w| w.serve.coherence.invalidations).sum(),
                mem: MemSummary {
                    grouped_allocs: s.alloc.grouped_allocs,
                    fallback_allocs: s.alloc.fallback_allocs,
                    chunks_created: s.alloc.chunks_created,
                    chunks_reused: s.alloc.chunks_reused,
                    frag_fraction: rep.serve_frag.frag_fraction(),
                    remote_frees: s.remote_frees,
                    remote_peak_queue: s.remote_peak_queue,
                    degraded: s.degrade.fallback_routes + s.degrade.queue_overflows,
                },
                serve: ServeSummary {
                    swap_us: rep.windows.iter().map(|w| w.swap_us).sum(),
                    swaps: rep.windows.iter().filter(|w| w.swapped).count() as u64,
                    drift_max: rep.windows.iter().filter_map(|w| w.drift).fold(0.0, f64::max),
                    miss_reduction: f.final_miss_reduction,
                    static_gap: gap,
                },
                ..Counters::default()
            };
        }
        (Err(e), _) => checks_ok = fail(&format!("serve replay: {e}")),
        (_, None) => checks_ok = false,
    }
    let traced = trace_data.map(|(spans, root)| TracedPass {
        spans,
        root,
        log,
        op_span: "serve.window",
        counters,
    });
    finish(args, fp, Run { ledger, checks_ok, walls, setups, quality, extra, traced })
}
