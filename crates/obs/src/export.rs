//! Exporters: Chrome trace-event JSON, the hierarchical phase report,
//! and folded span stacks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use crate::json::Writer;
use crate::trace::{Event, Phase, Window};

/// Render events as Chrome trace-event JSON (the "JSON array format"),
/// loadable in Perfetto or `chrome://tracing`. Spans become complete
/// (`"ph": "X"`) events, instants become thread-scoped instant
/// (`"ph": "i"`) events; timestamps and durations are microseconds since
/// the trace epoch. The event's subsystem (the first dotted name segment)
/// is exposed as the `cat` field so the UI can filter by layer.
pub fn chrome_trace(events: &[Event]) -> String {
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mut w = Writer::with_capacity(events.len() * 96 + 2);
    w.arr(|w| {
        for e in events {
            w.obj(|w| {
                let cat = e.name.split('.').next().unwrap_or("misc");
                w.field("name", e.name)
                    .field("cat", cat)
                    .field("pid", 1u64)
                    .field("tid", e.tid)
                    .field("ts", us(e.start_ns));
                match e.phase {
                    Phase::Span => w.field("ph", "X").field("dur", us(e.dur_ns)),
                    Phase::Instant => w.field("ph", "i").field("s", "t"),
                };
                let mut args = e.args.iter().filter(|a| !a.key.is_empty()).peekable();
                if args.peek().is_some() {
                    w.key("args").obj(|w| {
                        for a in args {
                            w.field(a.key, a.val);
                        }
                    });
                }
            });
        }
    });
    w.line()
}

#[derive(Default)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    instants: u64,
}

/// Render a human-readable report of a capture window: every span name
/// aggregated (count, total, mean, max), indented hierarchically by its
/// dotted name segments so `bdd.solve` and `bdd.any_sat` group under
/// `bdd`. Instant events are listed with counts only.
pub fn phase_report(window: &Window) -> String {
    let mut agg: BTreeMap<&'static str, PhaseAgg> = BTreeMap::new();
    for e in &window.events {
        let a = agg.entry(e.name).or_default();
        match e.phase {
            Phase::Span => {
                a.count += 1;
                a.total_ns += e.dur_ns;
                a.max_ns = a.max_ns.max(e.dur_ns);
            }
            Phase::Instant => a.instants += 1,
        }
    }
    if agg.is_empty() {
        return "phase report: no events recorded\n".to_string();
    }
    let mut out = String::from("phase report (per span name: count / total / mean / max)\n");
    let dropped = window.dropped;
    if dropped > 0 {
        out.push_str(&format!(
            "  WARNING: {dropped} events lost to span-ring wrap-around — totals undercount\n"
        ));
    }
    let mut last_root = "";
    for (name, a) in &agg {
        let root = name.split('.').next().unwrap_or(name);
        if root != last_root {
            out.push_str(&format!("  {root}\n"));
            last_root = root;
        }
        let depth = name.matches('.').count().max(1);
        let indent = "  ".repeat(depth + 1);
        if let Some(mean) = a.total_ns.checked_div(a.count) {
            out.push_str(&format!(
                "{indent}{name:<28} {:>8} × {:>10} total {:>10} mean {:>10} max\n",
                a.count,
                fmt_dur(a.total_ns),
                fmt_dur(mean),
                fmt_dur(a.max_ns)
            ));
        }
        if a.instants > 0 {
            out.push_str(&format!("{indent}{name:<28} {:>8} events\n", a.instants));
        }
    }
    out
}

/// What [`folded_spans`] weighs each span by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weight {
    /// Span wall time, in whole µs per stack: the cpu view.
    WallUs,
    /// Bytes the span's thread allocated while it was open
    /// ([`Event::alloc_bytes`]): the heap view.
    Bytes,
}

/// One span whose children are still being read by [`folded_spans`].
struct OpenSpan {
    name: &'static str,
    tid: u32,
    end_ns: u64,
    /// Own weight minus the children seen so far.
    self_weight: u64,
}

/// Fold span events into `(stack, weight)` rows: both profile views of
/// a trace window. Spans are grouped by `tid` and their RAII nesting is
/// rebuilt from `(start_ns, dur_ns)` — a span nests inside the nearest
/// earlier span of its thread that ends no sooner. Each stack `a;b;c`
/// is charged the innermost span's *self* weight (its own minus its
/// direct children's), summed over the window — wall time rounded to
/// whole µs, or allocated bytes; so per thread the rows add up to the
/// root spans' weights (µs to rounding). A span whose parent was not
/// recorded (still open, or lost to ring wrap-around) is a root.
/// Instants are ignored. Rows are sorted by descending weight, then
/// stack text.
pub fn folded_spans(events: &[Event], weight: Weight) -> Vec<(String, u64)> {
    let own = |e: &Event| match weight {
        Weight::WallUs => e.dur_ns,
        Weight::Bytes => e.alloc_bytes,
    };
    let mut spans: Vec<&Event> = events.iter().filter(|e| e.phase == Phase::Span).collect();
    // A parent starts no later than its children and, on a tie, lasts
    // at least as long, so it sorts first.
    spans.sort_by_key(|e| (e.tid, e.start_ns, Reverse(e.dur_ns)));
    /// Charge the innermost open span's self weight to its stack.
    fn close(open: &mut Vec<OpenSpan>, folded: &mut HashMap<Vec<&'static str>, u64>) {
        let stack: Vec<&'static str> = open.iter().map(|s| s.name).collect();
        if let Some(span) = open.pop() {
            *folded.entry(stack).or_default() += span.self_weight;
        }
    }
    let mut folded: HashMap<Vec<&'static str>, u64> = HashMap::new();
    let mut open: Vec<OpenSpan> = Vec::new();
    for e in spans {
        let end_ns = e.start_ns + e.dur_ns;
        while open
            .last()
            .is_some_and(|top| top.tid != e.tid || top.end_ns < end_ns)
        {
            close(&mut open, &mut folded);
        }
        if let Some(parent) = open.last_mut() {
            parent.self_weight = parent.self_weight.saturating_sub(own(e));
        }
        open.push(OpenSpan {
            name: e.name,
            tid: e.tid,
            end_ns,
            self_weight: own(e),
        });
    }
    while !open.is_empty() {
        close(&mut open, &mut folded);
    }
    let mut rows: Vec<(String, u64)> = folded
        .into_iter()
        .map(|(stack, w)| match weight {
            Weight::WallUs => (stack.join(";"), (w + 500) / 1_000),
            Weight::Bytes => (stack.join(";"), w),
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Render folded rows as text, one `a;b;c weight` line each: the format
/// every flamegraph toolchain reads.
pub fn folded_text(rows: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, weight) in rows {
        out.push_str(&format!("{stack} {weight}\n"));
    }
    out
}

fn fmt_dur(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Arg;

    fn ev(name: &'static str, phase: Phase, start: u64, dur: u64) -> Event {
        Event {
            name,
            phase,
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            args: [Arg { key: "n", val: 2 }, Arg::default()],
            alloc_bytes: 0,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            ev("bdd.solve", Phase::Span, 1_500, 2_000),
            ev("sat.restart", Phase::Instant, 2_000, 0),
        ];
        let json = chrome_trace(&events);
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"bdd\""));
        assert!(json.contains("\"ts\":1.5,"));
        assert!(json.contains("\"args\":{\"n\":2}"));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace(&[]);
        crate::json::validate(&json).unwrap();
    }

    #[test]
    fn phase_report_groups_by_subsystem() {
        let events = vec![
            ev("bdd.solve", Phase::Span, 0, 5_000),
            ev("bdd.solve", Phase::Span, 10, 3_000),
            ev("engine.query", Phase::Span, 20, 9_000),
            ev("sat.restart", Phase::Instant, 30, 0),
        ];
        let report = phase_report(&Window {
            events,
            ..Window::default()
        });
        assert!(report.contains("bdd.solve"));
        assert!(report.contains("2 ×"));
        assert!(report.contains("engine.query"));
        assert!(report.contains("sat.restart"));
        assert!(phase_report(&Window::default()).contains("no events"));
    }

    fn on(tid: u32, name: &'static str, phase: Phase, at_us: u64, us: u64, bytes: u64) -> Event {
        Event {
            tid,
            alloc_bytes: bytes,
            ..ev(name, phase, at_us * 1_000, us * 1_000)
        }
    }

    fn rows(expect: &[(&str, u64)]) -> Vec<(String, u64)> {
        expect.iter().map(|&(s, w)| (s.to_string(), w)).collect()
    }

    #[test]
    fn folded_spans_rebuild_nesting_exactly() {
        // In capture order: by start, threads interleaved, and a
        // child recorded before the parent it shares a start with.
        let events = vec![
            on(1, "engine.query", Phase::Span, 0, 6, 50),
            on(1, "serve.job", Phase::Span, 0, 10, 100),
            on(1, "sat.solve", Phase::Span, 1, 2, 20),
            on(1, "sat.restart", Phase::Instant, 2, 0, 0),
            // Thread 2's parent was never recorded: this is a root, and
            // although it overlaps thread 1's serve.job it is not its child.
            on(2, "bdd.solve", Phase::Span, 5, 4, 40),
            on(2, "bdd.mk", Phase::Span, 6, 1, 40),
            on(1, "serve.encode", Phase::Span, 7, 1, 10),
            on(2, "engine.backend", Phase::Span, 12, 2, 7),
            on(1, "serve.job", Phase::Span, 20, 3, 5),
        ];
        let us = folded_spans(&events, Weight::WallUs);
        assert_eq!(
            us,
            rows(&[
                ("serve.job", 6),
                ("serve.job;engine.query", 4),
                ("bdd.solve", 3),
                ("engine.backend", 2),
                ("serve.job;engine.query;sat.solve", 2),
                ("bdd.solve;bdd.mk", 1),
                ("serve.job;serve.encode", 1),
            ])
        );
        assert_eq!(
            folded_text(&us[..2]),
            "serve.job 6\nserve.job;engine.query 4\n"
        );
        // The same nesting weighs bytes: a parent whose child allocated
        // all of its bytes keeps a zero row.
        assert_eq!(
            folded_spans(&events, Weight::Bytes),
            rows(&[
                ("serve.job", 100 - 50 - 10 + 5),
                ("bdd.solve;bdd.mk", 40),
                ("serve.job;engine.query", 50 - 20),
                ("serve.job;engine.query;sat.solve", 20),
                ("serve.job;serve.encode", 10),
                ("engine.backend", 7),
                ("bdd.solve", 0),
            ])
        );

        // Per thread, the rows add up to the root spans' weights.
        for (tid, roots_us, roots_bytes) in [(1, 10 + 3, 100 + 5), (2, 4 + 2, 40 + 7)] {
            let own: Vec<Event> = events.iter().copied().filter(|e| e.tid == tid).collect();
            let total = |w| -> u64 { folded_spans(&own, w).iter().map(|(_, v)| v).sum() };
            assert_eq!(total(Weight::WallUs), roots_us, "tid {tid}");
            assert_eq!(total(Weight::Bytes), roots_bytes, "tid {tid}");
        }
    }
}
