//! The library's composite entry points, re-enacted from the public calls
//! of each layer so that the traced pass can put a span around every
//! layer boundary without tracing inside the program.
//!
//! [`optimise`], [`evaluate`] and [`serve`] follow
//! `Halo::optimise_with_arg`, `evaluate_with_arg` and `serve` step by
//! step (profile → group → identify → rewrite, the auto-policy trials,
//! the hot-data-streams analysis, the per-backend measurements, the serve
//! windows). The benchmark checks that each replay reproduces the library
//! call's simulated counters exactly, so a drift between the two shows as
//! a failed operation rather than as a silently different trace.

use crate::trace::{self, span};
use halo::core::{
    measure_detailed, par_map, BackendCtx, BackendSpec, ConfigResult, EvalConfig, EvalResult, Halo,
    MeasureConfig, Measurement, Optimised, PipelineError, ServeConfig, ServePhase, BACKENDS,
};
use halo::graph::{group, grouping_drift, Granularity, Group, GroupPlan, ReusePolicyChoice};
use halo::hds::analyze;
use halo::ident::{contexts_from_profile, identify};
use halo::mem::{FragReport, GroupAllocConfig, ReusePolicy, ShardedAllocStats, SizeClassAllocator};
use halo::profile::{Profile, ProfileStream, TraceCollector};
use halo::rewrite::instrument;
use halo::vm::{Engine, ExitStats, Program, VmAllocator, VmError, PAGE_SIZE};
use std::sync::Mutex;

/// A measurement the traced pass made with the plain baseline allocator,
/// kept so that the bare-VM probe can replay its input without the cache
/// model after the pass.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    pub span: Option<u64>,
    pub program_name: String,
    pub program: Program,
    pub config: MeasureConfig,
    pub exit: ExitStats,
}

/// Every simulated execution of a replay: which allocator ran it and what
/// the engine reported, for the output checks.
#[derive(Debug, Clone)]
pub struct Execution {
    /// `core.measure` for a measured run, `core.trial` for an auto-policy
    /// trial.
    pub kind: String,
    pub program_name: String,
    pub backend: String,
    pub seed: u64,
    pub exit: ExitStats,
}

/// Baseline runs and executions collected during a replay.
#[derive(Debug, Default)]
pub struct Log {
    pub baselines: Mutex<Vec<BaselineRun>>,
    pub executions: Mutex<Vec<Execution>>,
    /// `(nodes, edges, accesses)` of every profiling run.
    pub profiles: Mutex<Vec<(usize, usize, u64)>>,
}

/// Measure `program` under `alloc` inside a `cache` span named
/// `core.measure.<backend>` (or `core.trial.<backend>` for auto-policy
/// trials), logging the execution.
fn measure_logged<A: VmAllocator>(
    log: &Log,
    kind: &str,
    backend: &str,
    name: &str,
    program: &Program,
    alloc: &mut A,
    cfg: &MeasureConfig,
) -> Result<Measurement, VmError> {
    let layer = if kind == "core.trial" { "core" } else { "cache" };
    let (id, detail) = span(layer, &format!("{kind}.{backend}"), name, || {
        (trace::current(), measure_detailed(program, alloc, cfg))
    });
    let detail = detail?;
    log.executions.lock().expect("log poisoned").push(Execution {
        kind: kind.to_string(),
        program_name: name.to_string(),
        backend: backend.to_string(),
        seed: cfg.seed,
        exit: detail.exit.clone(),
    });
    if backend == "baseline" {
        log.baselines.lock().expect("log poisoned").push(BaselineRun {
            span: id,
            program_name: name.to_string(),
            program: program.clone(),
            config: *cfg,
            exit: detail.exit,
        });
    }
    Ok(detail.measurement)
}

/// `Halo::profile_with_arg` inside a `profile` span, logging the size of
/// the affinity graph it built.
fn profile_run(
    log: &Log,
    halo: &Halo,
    name: &str,
    program: &Program,
    seed: u64,
    arg: i64,
) -> Result<Profile, PipelineError> {
    let profile =
        span("profile", "profile.run", name, || halo.profile_with_arg(program, seed, arg))?;
    log.profiles.lock().expect("log poisoned").push((
        profile.graph.len(),
        profile.graph.edge_count(),
        profile.total_accesses,
    ));
    Ok(profile)
}

fn train_measure(halo: &Halo, seed: u64, arg: i64) -> MeasureConfig {
    let c = halo.config();
    MeasureConfig {
        hierarchy: c.hierarchy,
        timing: c.timing,
        limits: c.limits,
        seed,
        entry_arg: arg,
    }
}

/// `Halo::assemble`: group one concrete granularity's graph, stamp the
/// configured plan, identify and rewrite.
fn assemble(
    halo: &Halo,
    name: &str,
    program: &Program,
    profile: Profile,
    granularity: Granularity,
    auto_declined: bool,
) -> Optimised {
    let c = halo.config();
    let graph = match granularity {
        Granularity::Page => &profile.page_graph,
        _ => &profile.graph,
    };
    let resolved = if granularity == Granularity::Auto { Granularity::Object } else { granularity };
    let mut groups = if auto_declined {
        Vec::new()
    } else {
        span("graph", "graph.group", name, || group(graph, &c.grouping))
    };
    let plan = GroupPlan {
        granularity: resolved,
        reuse: c.reuse.initial_policy(),
        chunk_size: c.alloc.chunk_size,
        max_spare_chunks: c.alloc.max_spare_chunks,
    };
    for g in &mut groups {
        g.plan = plan;
    }
    let ident = span("ident", "ident.identify", name, || {
        identify(&groups, &contexts_from_profile(&profile))
    });
    let (rewritten, rewrite) =
        span("rewrite", "rewrite.instrument", name, || instrument(program, &ident.site_bits));
    Optimised {
        program: rewritten,
        profile,
        groups,
        granularity: resolved,
        auto_declined,
        ident,
        rewrite,
    }
}

/// `Halo::optimise_with_arg`, one layer call at a time.
pub fn optimise(
    log: &Log,
    halo: &Halo,
    name: &str,
    program: &Program,
    seed: u64,
    arg: i64,
) -> Result<Optimised, PipelineError> {
    span("core", "core.optimise", name, || {
        let profile = profile_run(log, halo, name, program, seed, arg)?;
        let c = halo.config();
        let optimised = match c.profile.granularity {
            Granularity::Auto => resolve_auto(log, halo, name, program, profile, seed, arg)?,
            g => assemble(halo, name, program, profile, g, false),
        };
        if c.reuse == ReusePolicyChoice::Auto && !optimised.groups.is_empty() {
            resolve_reuse(log, halo, name, optimised, seed, arg)
        } else {
            Ok(optimised)
        }
    })
}

fn resolve_auto(
    log: &Log,
    halo: &Halo,
    name: &str,
    program: &Program,
    profile: Profile,
    seed: u64,
    arg: i64,
) -> Result<Optimised, PipelineError> {
    let cfg = train_measure(halo, seed, arg);
    let mut base_alloc = SizeClassAllocator::new();
    let baseline =
        measure_logged(log, "core.trial", "baseline", name, program, &mut base_alloc, &cfg)?;
    for granularity in [Granularity::Object, Granularity::Page] {
        let candidate = assemble(halo, name, program, profile.clone(), granularity, false);
        if candidate.groups.is_empty() {
            continue;
        }
        let mut alloc = halo.make_allocator(&candidate);
        let measured =
            measure_logged(log, "core.trial", "halo", name, &candidate.program, &mut alloc, &cfg)?;
        if measured.miss_reduction_vs(&baseline) > halo.config().auto_min_gain {
            return Ok(candidate);
        }
    }
    Ok(assemble(halo, name, program, profile, Granularity::Object, true))
}

fn resolve_reuse(
    log: &Log,
    halo: &Halo,
    name: &str,
    mut optimised: Optimised,
    seed: u64,
    arg: i64,
) -> Result<Optimised, PipelineError> {
    let c = halo.config();
    let cfg = train_measure(halo, seed, arg);
    let mut alloc = halo.make_allocator(&optimised);
    let bump =
        measure_logged(log, "core.trial", "halo", name, &optimised.program, &mut alloc, &cfg)?;
    let group_frags = alloc.group_frag_reports();
    let mut best = (alloc.frag_report().frag_fraction(), bump.stats.l1_misses);
    let miss_cap = (bump.stats.l1_misses as f64 * (1.0 + c.reuse_miss_tolerance)) as u64;
    let mut candidates: Vec<usize> = (0..optimised.groups.len())
        .filter(|&i| {
            group_frags[i].frag_fraction() >= c.reuse_min_frag
                && group_frags[i].wasted_bytes() >= PAGE_SIZE
        })
        .collect();
    candidates.sort_by_key(|&i| std::cmp::Reverse(group_frags[i].wasted_bytes()));
    for i in candidates {
        let bump_plan = optimised.groups[i].plan;
        let mut accepted: Option<(GroupPlan, (f64, u64))> = None;
        let mut tried: Vec<GroupPlan> = Vec::new();
        for chunk_size in
            [bump_plan.chunk_size, bump_plan.chunk_size / 64, bump_plan.chunk_size / 128]
        {
            let chunk_size = chunk_size.max(2 * PAGE_SIZE).min(bump_plan.chunk_size);
            let candidate =
                GroupPlan { reuse: ReusePolicy::ShardedFreeLists, chunk_size, ..bump_plan };
            if tried.contains(&candidate) {
                continue;
            }
            tried.push(candidate);
            optimised.groups[i].plan = candidate;
            let mut alloc = halo.make_allocator(&optimised);
            let measured = measure_logged(
                log,
                "core.trial",
                "halo",
                name,
                &optimised.program,
                &mut alloc,
                &cfg,
            )?;
            let score = (alloc.frag_report().frag_fraction(), measured.stats.l1_misses);
            if measured.stats.l1_misses <= miss_cap
                && score.0 < best.0
                && accepted.as_ref().is_none_or(|(_, s)| score < *s)
            {
                accepted = Some((candidate, score));
            }
        }
        match accepted {
            Some((plan, score)) => {
                optimised.groups[i].plan = plan;
                best = score;
            }
            None => optimised.groups[i].plan = bump_plan,
        }
    }
    Ok(optimised)
}

/// `evaluate_with_arg`: optimise, analyse hot data streams, then measure
/// every enabled backend on the ref input, fanned out like the library.
pub fn evaluate(
    log: &Log,
    program: &Program,
    name: &str,
    seed: u64,
    arg: i64,
    config: &EvalConfig,
) -> Result<EvalResult, PipelineError> {
    span("core", "core.evaluate", name, || {
        let mut halo_config = config.halo;
        halo_config.hierarchy = config.measure.hierarchy;
        halo_config.timing = config.measure.timing;
        let halo = Halo::new(halo_config);
        let optimised = optimise(log, &halo, name, program, seed, arg)?;

        let trace = span("hds", "hds.trace", name, || {
            let mut collector = TraceCollector::new();
            let mut alloc = SizeClassAllocator::new();
            Engine::new(program)
                .with_seed(seed)
                .with_entry_arg(arg)
                .with_limits(config.halo.limits)
                .run(&mut alloc, &mut collector)
                .map(|_| collector.finish())
        })?;
        let hds_analysis = span("hds", "hds.analyze", name, || analyze(&trace, &config.hds));

        let ctx = BackendCtx {
            config,
            halo: Some(&halo),
            optimised: Some(&optimised),
            hds: Some(&hds_analysis),
        };
        let enabled: Vec<&BackendSpec> = BACKENDS.iter().filter(|s| s.enabled(config)).collect();
        let measured = span("core", "core.measure", name, || {
            let fan_out = trace::current();
            par_map(&enabled, |spec| {
                trace::adopt(fan_out, || -> Result<(&'static str, ConfigResult), VmError> {
                    let mut alloc =
                        span("mem", "mem.make_allocator", name, || spec.make_allocator(&ctx));
                    let target = if spec.rewritten { &optimised.program } else { program };
                    let measurement = measure_logged(
                        log,
                        "core.measure",
                        spec.id,
                        name,
                        target,
                        &mut alloc,
                        &config.measure,
                    )?;
                    Ok((
                        spec.id,
                        ConfigResult {
                            measurement,
                            frag: alloc.backend_frag(),
                            alloc_stats: alloc.backend_stats(),
                            sharded: alloc.backend_sharded_stats(),
                            degrade: alloc.backend_degrade(),
                            thread_stats: Vec::new(),
                        },
                    ))
                })
            })
        });
        let mut backends = Vec::with_capacity(measured.len());
        for result in measured {
            backends.push(result?);
        }
        Ok(EvalResult { name: name.to_string(), backends, optimised, hds_analysis })
    })
}

/// One window of a serve replay, with what the library's report omits.
#[derive(Debug, Clone)]
pub struct WindowReplay {
    pub plan_epoch: u64,
    pub drift: Option<f64>,
    pub swapped: bool,
    pub swap_us: f64,
    pub baseline: Measurement,
    pub static_m: Measurement,
    pub serve: Measurement,
}

/// The outcome of a serve replay: per-window rows plus the serve
/// allocator's final state.
#[derive(Debug)]
pub struct ServeReplay {
    pub windows: Vec<WindowReplay>,
    pub groups: usize,
    pub monitored_sites: usize,
    pub sites_instrumented: usize,
    pub serve_stats: ShardedAllocStats,
    pub serve_frag: FragReport,
}

/// `Halo::alloc_plan`: the global allocator configuration and one
/// override per group plan.
fn alloc_plan(halo: &Halo, optimised: &Optimised) -> (GroupAllocConfig, Vec<GroupAllocConfig>) {
    let mut alloc = halo.config().alloc;
    if optimised.granularity == Granularity::Page {
        alloc.max_grouped_size = alloc.max_grouped_size.max(alloc.chunk_size);
    }
    let overrides = optimised
        .groups
        .iter()
        .map(|g| GroupAllocConfig {
            chunk_size: g.plan.chunk_size,
            max_spare_chunks: g.plan.max_spare_chunks,
            reuse_policy: g.plan.reuse,
            ..alloc
        })
        .collect();
    (alloc, overrides)
}

/// `serve`: stream, detect, swap and measure each window of the script.
pub fn serve(
    log: &Log,
    phases: &[ServePhase],
    config: &ServeConfig,
) -> Result<ServeReplay, PipelineError> {
    span("core", "core.serve", "serve", || {
        let mut halo_config = config.halo;
        halo_config.hierarchy = config.measure.hierarchy;
        halo_config.timing = config.measure.timing;
        let halo = Halo::new(halo_config);
        let first = &phases[0];
        let initial =
            optimise(log, &halo, &first.name, &first.program, first.train_seed, first.train_arg)?;
        let static_opt =
            optimise(log, &halo, &first.name, &first.program, first.train_seed, first.train_arg)?;
        let (serve_alloc, static_alloc) = span("mem", "mem.make_allocator", &first.name, || {
            (
                halo.make_sharded_allocator(&initial, config.shards),
                halo.make_sharded_allocator(&static_opt, config.shards),
            )
        });
        let mut stream = ProfileStream::new(config.decay);
        span("profile", "profile.absorb", &first.name, || stream.absorb(&initial.profile));
        let mut active_groups: Vec<Group> = initial.groups.clone();
        let mut active = initial;
        let mut source_phase = 0usize;
        let mut best = f64::NEG_INFINITY;
        let mut windows: Vec<WindowReplay> = Vec::new();
        let mut window = 0u64;
        for (phase_idx, phase) in phases.iter().enumerate() {
            let name = phase.name.as_str();
            if phase_idx > 0 {
                stream = ProfileStream::new(config.decay);
            }
            for _ in 0..phase.windows {
                let row = span("core", "serve.window", name, || -> Result<_, PipelineError> {
                    let profile = profile_run(
                        log,
                        &halo,
                        name,
                        &phase.program,
                        phase.train_seed,
                        phase.train_arg,
                    )?;
                    span("profile", "profile.absorb", name, || stream.absorb(&profile));
                    let mut drift = None;
                    if window.is_multiple_of(config.regroup_every) {
                        let fresh = span("graph", "graph.group", name, || {
                            group(stream.graph(), &halo.config().grouping)
                        });
                        drift = Some(if source_phase == phase_idx {
                            span("graph", "graph.drift", name, || {
                                grouping_drift(&active_groups, &fresh)
                            })
                        } else {
                            1.0
                        });
                    }
                    let regressed = best.is_finite()
                        && windows.last().is_some_and(|w: &WindowReplay| {
                            w.serve.miss_reduction_vs(&w.baseline)
                                < best - config.regression_tolerance
                        });
                    let mut swapped = false;
                    let mut swap_us = 0.0;
                    if drift.is_some_and(|d| d > config.drift_threshold) || regressed {
                        let granularity = match halo.config().profile.granularity {
                            Granularity::Auto => Granularity::Object,
                            g => g,
                        };
                        let mut streamed = profile.clone();
                        streamed.graph = stream.graph().clone();
                        let reopt =
                            assemble(&halo, name, &phase.program, streamed, granularity, false);
                        let (_, overrides) = alloc_plan(&halo, &reopt);
                        let start = std::time::Instant::now();
                        span("mem", "mem.swap_plans", name, || {
                            serve_alloc.swap_plans(reopt.ident.table.clone(), overrides)
                        });
                        swap_us = start.elapsed().as_secs_f64() * 1e6;
                        swapped = true;
                        active_groups = reopt.groups.clone();
                        active = reopt;
                        source_phase = phase_idx;
                        best = f64::NEG_INFINITY;
                    }
                    let mcfg = MeasureConfig {
                        seed: phase.ref_seed + window,
                        entry_arg: phase.ref_arg,
                        ..config.measure
                    };
                    let mut plain = SizeClassAllocator::new();
                    let baseline = measure_logged(
                        log,
                        "core.measure",
                        "baseline",
                        name,
                        &phase.program,
                        &mut plain,
                        &mcfg,
                    )?;
                    let static_target =
                        if phase_idx == 0 { &static_opt.program } else { &phase.program };
                    let mut handle = &static_alloc;
                    let static_m = measure_logged(
                        log,
                        "core.measure",
                        "static",
                        name,
                        static_target,
                        &mut handle,
                        &mcfg,
                    )?;
                    let serve_target =
                        if source_phase == phase_idx { &active.program } else { &phase.program };
                    let mut handle = &serve_alloc;
                    let serve_m = measure_logged(
                        log,
                        "core.measure",
                        "serve",
                        name,
                        serve_target,
                        &mut handle,
                        &mcfg,
                    )?;
                    best = best.max(serve_m.miss_reduction_vs(&baseline));
                    Ok(WindowReplay {
                        plan_epoch: serve_alloc.plan_epoch(),
                        drift,
                        swapped,
                        swap_us,
                        baseline,
                        static_m,
                        serve: serve_m,
                    })
                })?;
                windows.push(row);
                window += 1;
            }
        }
        Ok(ServeReplay {
            windows,
            groups: active.groups.len(),
            monitored_sites: active.ident.monitored_sites().count(),
            sites_instrumented: active.rewrite.sites_instrumented,
            serve_stats: serve_alloc.sharded_stats(),
            serve_frag: serve_alloc.frag_report(),
        })
    })
}
