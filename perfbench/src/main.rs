//! The repository benchmark: drives one named workload through the HALO
//! library's public entry points, in process, and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_eval --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: an operation starts
//! only after the previous one finished. A *pass* is the workload's fixed
//! work; passes repeat until `--seconds` have elapsed and `wall_s` is
//! their median. `--trace 1` adds one traced pass (spans around every
//! layer call, written to `perfbench/out/`) and reports the per-layer
//! metrics instead of the end-to-end ones. See `perfbench/README.md`.

mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use stats::{result_json, table, Metric};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// `None` runs the paper's own train/ref seeds.
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_eval|optimise|serve_shift> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: None, seconds: 20.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Host facts recorded with every result.
pub struct Fingerprint {
    pub nproc: usize,
    pub threads: usize,
    pub rustc: &'static str,
    pub rev: String,
}

impl Fingerprint {
    fn render(&self) -> String {
        format!(
            "host: nproc={} HALO_THREADS={} rustc=\"{}\" rev={}",
            self.nproc, self.threads, self.rustc, self.rev
        )
    }
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git (the benchmark also runs from plain source trees,
/// where this is `unknown`).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..l.len().min(40)].into())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cap the library's worker threads at the core count, for this process
/// only, before any thread starts.
fn cap_threads(nproc: usize) -> usize {
    let requested = std::env::var("HALO_THREADS").ok().and_then(|v| v.trim().parse().ok());
    let threads = requested.filter(|&n: &usize| n >= 1).unwrap_or(nproc).min(nproc);
    std::env::set_var("HALO_THREADS", threads.to_string());
    threads
}

/// Peak resident set size of this process, in MB: `VmHWM` from
/// `/proc/self/status`. `getrusage` is only the fallback, because after
/// `exec` its `ru_maxrss` still holds the launching process's peak (under
/// `cargo run`, Cargo's own).
pub fn peak_rss_mb() -> f64 {
    let hwm_kib = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    hwm_kib.unwrap_or_else(rusage_max_rss_kib) / 1024.0
}

fn rusage_max_rss_kib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words), then 14
    // `long`s, of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a writable buffer the size of `struct rusage`,
    // and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.0[4] as f64
    } else {
        f64::NAN
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check outside the per-operation ones held.
    pub checks_ok: bool,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific metrics shown in the table only.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = Fingerprint {
        nproc,
        threads: cap_threads(nproc),
        rustc: env!("PERFBENCH_RUSTC_VERSION"),
        rev: git_rev(),
    };
    println!("{}", fingerprint.render());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed.map_or("paper".to_string(), |s| s.to_string()),
        args.seconds,
        u8::from(args.trace)
    );

    let outcome = workloads::run(&args, &fingerprint);
    let correct = outcome.checks_ok && outcome.failed == 0;
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let mut shown = outcome.end_to_end.clone();
    shown.push(Metric::one("error_rate", "fraction", error_rate));
    shown.extend(outcome.extra.iter().cloned());
    print!("{}", table(&shown));
    if args.trace {
        print!("{}", table(&outcome.per_layer));
    }
    let reported = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    println!("{}", result_json(correct, outcome.attempted, outcome.failed, reported));
    ExitCode::SUCCESS
}
