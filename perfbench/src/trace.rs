//! perfbench's own span recorder.
//!
//! Spans are recorded from the harness, around the public calls into
//! each crate — `rzen-obs` tracing stays off. A span carries a stage
//! name (`layer.stage`), start, end, the span that caused it and the
//! request it belongs to; they stay in memory and are written as Chrome
//! trace events when the run ends. A stage's *self time* is its span's
//! duration minus the part its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage name, `layer.stage`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request (operation) id shared by the spans of one op.
    pub req: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn recording on for this thread, dropping anything recorded before.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Turn recording off and hand back everything recorded.
pub fn disable() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Open a span; it closes when the guard drops. Costs one thread-local
/// check when recording is off.
pub fn span(name: &'static str, req: u64) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let idx = rec.spans.len() as u32;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            req,
        });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                // Guards drop in reverse open order, so `idx` is on top.
                rec.open.pop();
            }
        });
    }
}

/// Run `f` inside a span.
pub fn in_span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, req);
    f()
}

/// Self time of every span, in nanoseconds, in span order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-stage aggregate over a recorded span list.
#[derive(Clone, Debug, Default)]
pub struct StageStat {
    /// Spans recorded under this name.
    pub count: usize,
    /// Summed self time, microseconds.
    pub total_us: f64,
    /// Median self time per span, microseconds.
    pub median_us: f64,
}

/// Self-time statistics per stage name.
pub fn stage_stats(spans: &[Span]) -> BTreeMap<&'static str, StageStat> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&own) {
        by_name.entry(s.name).or_default().push(*ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, us)| {
            let stat = StageStat {
                count: us.len(),
                total_us: us.iter().sum(),
                median_us: crate::stats::median(&us),
            };
            (name, stat)
        })
        .collect()
}

/// The layer a stage belongs to: the part of its name before the dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Events written per file; a served round records far more spans than
/// a trace viewer wants, so the file keeps the first this-many.
pub const MAX_FILE_EVENTS: usize = 60_000;

/// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{}\",\"spans_recorded\":{},\"spans_written\":{}}},\"traceEvents\":[",
        rzen_obs::json::escape(workload),
        spans.len(),
        spans.len().min(MAX_FILE_EVENTS)
    )?;
    for (i, s) in spans.iter().take(MAX_FILE_EVENTS).enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        let parent = s.parent.map_or(-1, i64::from);
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.req
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a.outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "a.mid",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "a.leaf",
                start_ns: 20,
                end_ns: 50,
                parent: Some(1),
                req: 1,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
        let stats = stage_stats(&spans);
        assert_eq!(stats["a.mid"].count, 1);
        assert!((stats["a.outer"].total_us - 0.05).abs() < 1e-12);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        enable();
        {
            let _outer = span("t.outer", 7);
            in_span("t.inner", 7, || std::hint::black_box(1 + 1));
        }
        let spans = disable();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Off again: spans cost nothing and record nothing.
        let _g = span("t.off", 1);
        assert!(disable().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![Span {
            name: "sat.solve",
            start_ns: 1500,
            end_ns: 4500,
            parent: None,
            req: 3,
        }];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/unit-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        write_chrome_trace(&path, "unit", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = rzen_obs::json::parse(&text).unwrap();
        assert!(v.get("traceEvents").is_some());
        assert!(text.contains("\"cat\":\"sat\""));
    }
}
