//! Span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the library is instrumented. A span
//! carries its layer, a name, the program it worked on, its start and end
//! (ns since the recorder was armed), the span that caused it and the
//! thread it ran on. Spans stay in memory and are written out once, when
//! the traced run ends.
//!
//! Recording is off unless [`arm`] was called, so the untraced passes run
//! the exact same code with no recording cost beyond one atomic load per
//! call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers a span can belong to, in report order. `bench` is the
/// benchmark's own harness time inside a pass.
pub const LAYERS: &[&str] =
    &["vm", "profile", "graph", "ident", "rewrite", "hds", "mem", "cache", "core", "bench"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: String,
    pub program: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording spans.
pub fn arm() {
    EPOCH.get_or_init(Instant::now);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every span recorded so far.
pub fn disarm() -> Vec<Span> {
    ARMED.store(false, Ordering::SeqCst);
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The innermost open span on this thread, if recording.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` with `parent` as this thread's innermost open span, so that
/// spans opened by a worker thread hang under the span that fanned out.
pub fn adopt<R>(parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    let Some(parent) = parent else { return f() };
    STACK.with(|s| s.borrow_mut().push(parent));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    out
}

/// Run `f` inside a span of `layer` named `name`, working on `program`.
/// With recording off this is a plain call.
pub fn span<R>(layer: &'static str, name: &str, program: &str, f: impl FnOnce() -> R) -> R {
    if !ARMED.load(Ordering::Relaxed) {
        return f();
    }
    debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        layer,
        name: name.to_string(),
        program: program.to_string(),
        start_ns,
        end_ns,
        thread: THREAD.with(|t| *t),
    };
    SPANS.lock().expect("span store poisoned").push(span);
    out
}

/// Wall-clock self time of every span, by sweeping the root's interval:
/// each instant is charged to the innermost spans open at that instant
/// (those with no open child), split evenly when several threads are
/// inside spans at once. On a serial stretch this is the usual self time
/// (duration minus the children's cover); over a parallel fan-out the
/// concurrent leaves share the wall time. The charges of all spans add up
/// to the root's duration exactly. Also returns the busy time: the
/// integral of the number of open innermost spans other than `root`,
/// i.e. the thread-seconds spent inside some layer's span.
pub fn self_times(spans: &[Span], root: u64) -> (BTreeMap<u64, f64>, f64) {
    let mut edges: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        edges.push((s.start_ns, true, i));
        edges.push((s.end_ns, false, i));
    }
    // Ends before starts at the same instant: a span that ends exactly
    // when its sibling starts never overlaps it.
    edges.sort_by_key(|&(t, open, i)| (t, open, i));
    let mut open: Vec<usize> = Vec::new();
    let mut charged: BTreeMap<u64, f64> = BTreeMap::new();
    let mut busy = 0.0;
    let mut last = edges.first().map_or(0, |e| e.0);
    for (t, is_start, i) in edges {
        if t > last && !open.is_empty() {
            let dt = (t - last) as f64 * 1e-9;
            let leaves: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&a| !open.iter().any(|&b| spans[b].parent == Some(spans[a].id)))
                .collect();
            let share = dt / leaves.len() as f64;
            for &l in &leaves {
                *charged.entry(spans[l].id).or_default() += share;
                if spans[l].id != root {
                    busy += dt;
                }
            }
        }
        last = t;
        if is_start {
            open.push(i);
        } else {
            open.retain(|&o| o != i);
        }
    }
    (charged, busy)
}

/// Render the spans as a JSON document.
pub fn to_json(spans: &[Span], header: &str) -> String {
    let mut out = format!("{{{header},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"program\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            if i > 0 { ",\n" } else { "" },
            s.id,
            parent,
            s.layer,
            s.name,
            s.program,
            s.start_ns,
            s.end_ns,
            s.thread
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer: "core",
            name: String::new(),
            program: String::new(),
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
            thread: 0,
        }
    }

    #[test]
    fn serial_self_time_is_duration_minus_children() {
        let spans = [sp(1, None, 0, 10), sp(2, Some(1), 1, 4), sp(3, Some(2), 2, 3)];
        let (t, busy) = self_times(&spans, 1);
        assert!((t[&1] - 7.0).abs() < 1e-9);
        assert!((t[&2] - 2.0).abs() < 1e-9);
        assert!((t[&3] - 1.0).abs() < 1e-9);
        assert!((busy - 3.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_leaves_share_wall_time_and_sum_to_the_root() {
        // Two workers under one fan-out span: [2,6) and [2,4).
        let spans =
            [sp(1, None, 0, 8), sp(2, Some(1), 2, 6), sp(3, Some(2), 2, 6), sp(4, Some(2), 2, 4)];
        let (t, busy) = self_times(&spans, 1);
        assert!((t[&3] - 3.0).abs() < 1e-9, "1 s shared, 2 s alone");
        assert!((t[&4] - 1.0).abs() < 1e-9);
        assert!(t.get(&2).copied().unwrap_or(0.0).abs() < 1e-9);
        assert!((t.values().sum::<f64>() - 8.0).abs() < 1e-9);
        assert!((busy - 6.0).abs() < 1e-9);
    }
}
