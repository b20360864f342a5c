//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the program under test is instrumented: a span opens
//! just before the benchmark calls a layer's public function and closes
//! when the call returns. Spans are kept in memory and written out when
//! the run ends.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Small per-process thread number, so self time subtracts only the
    /// children that ran on the span's own thread.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened but not yet closed.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The in-memory span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open) -> Span {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.ns_since_epoch(open.start),
            end_ns: self.ns_since_epoch(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span store")
            .push(span);
        span
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let r = f();
        self.close(open);
        r
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in id (open) order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span store")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-name totals: span count, summed duration and summed self time
/// (duration minus the same-thread children's durations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let threads: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if threads.get(&s.parent) == Some(&s.thread) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Summed duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Length of the union of `intervals` (start, end), in ns.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// How much of the spans named `root` their descendants (on any thread)
/// cover: `(covered_ns, root_ns)` summed over roots. With `names`
/// non-empty, only descendants with one of those names count.
pub fn coverage(spans: &[Span], root: &str, names: &[&str]) -> (u64, u64) {
    let (mut covered, mut total) = (0, 0);
    for r in spans.iter().filter(|s| s.name == root) {
        // Ids grow in open order and a parent always opens before its
        // children, so one pass in id order finds every descendant.
        let mut family: HashSet<u64> = HashSet::from([r.id]);
        let mut intervals = Vec::new();
        for s in spans.iter().filter(|s| s.id > r.id) {
            if family.contains(&s.parent) {
                family.insert(s.id);
                if names.is_empty() || names.contains(&s.name) {
                    intervals.push((s.start_ns.max(r.start_ns), s.end_ns.min(r.end_ns)));
                }
            }
        }
        intervals.retain(|(s, e)| s < e);
        covered += union_ns(intervals);
        total += r.dur_ns();
    }
    (covered, total)
}

/// Writes the spans as JSON lines (one object per span) to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "root" } else { "child" },
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_same_thread_children() {
        let spans = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 2, 20, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 70);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_ns, 100);
    }

    #[test]
    fn coverage_is_the_union_of_descendants() {
        let spans = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 2, 20, 90),
            span(4, 3, 2, 95, 120),
        ];
        assert_eq!(coverage(&spans, "root", &[]), (85, 100));
        assert_eq!(coverage(&spans, "root", &["nothing"]), (0, 100));
        assert_eq!(union_ns(vec![(0, 5), (3, 8), (10, 12)]), 10);
    }
}
