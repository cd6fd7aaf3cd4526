//! The global metrics registry: atomic counters, gauges, and histograms.
//!
//! Metrics are registered lazily at the first use of a call site through
//! the [`counter!`](crate::counter), [`gauge!`](crate::gauge), and
//! [`histogram!`](crate::histogram) macros, which cache the registry
//! lookup in a per-call-site `OnceLock` so the steady-state cost of an
//! update is one acquire load plus one relaxed atomic add. Registration
//! deduplicates by name (and label set), so two call sites naming the
//! same metric share one instrument.
//!
//! ## Labels
//!
//! A metric may carry a small set of `key="value"` labels, turning one
//! name into a *family* of instruments (`engine.backend.wins` split by
//! `backend="bdd"` / `backend="smt"`). Labels with values known at the
//! call site go through the macros (`counter!("n", "h", "backend" =>
//! "bdd")`), which cache as usual; labels whose value is chosen at run
//! time (an error `kind`) go through [`Registry::counter_with`] directly —
//! a mutex lookup per call, acceptable on rare paths. Every instrument in
//! a family must have the same kind.
//!
//! ## Exposition
//!
//! [`Registry::render_prometheus`] renders the registry in the Prometheus
//! text exposition format: dotted names become underscored, counters gain
//! a `_total` suffix, and the log₂ histograms render as cumulative
//! `_bucket{le="..."}` series whose `+Inf` bucket equals `_count` even
//! while other threads are updating the histogram.

use std::any::Any;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (normally obtained through the registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, live worker counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge (normally obtained through the registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i > 0`
/// holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` observations (latencies in
/// microseconds, sizes in nodes). Quantiles are estimated from bucket
/// upper bounds, so they are accurate to a factor of two — plenty for
/// "where did the time go" questions, and recording stays lock-free.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram (normally obtained through the registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// One read of every bucket. Exposition derives its `_count` from the
    /// sum of this array rather than [`Histogram::count`] so the `+Inf`
    /// cumulative bucket always equals `_count`, even when observers race
    /// with `observe` between the two atomics.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the target rank. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl MetricRef {
    fn kind(&self) -> &'static str {
        match self {
            MetricRef::Counter(_) => "counter",
            MetricRef::Gauge(_) => "gauge",
            MetricRef::Histogram(_) => "histogram",
        }
    }

    /// The instrument, if it is a `T`.
    fn downcast<T: Any>(&self) -> Option<&'static T> {
        let any: &'static dyn Any = match *self {
            MetricRef::Counter(c) => c,
            MetricRef::Gauge(g) => g,
            MetricRef::Histogram(h) => h,
        };
        any.downcast_ref()
    }
}

/// An owned label set: keys are static (they come from call sites), values
/// may be chosen at run time.
type Labels = Vec<(&'static str, String)>;

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Labels,
    metric: MetricRef,
}

fn labels_eq(owned: &Labels, wanted: &[(&'static str, &str)]) -> bool {
    owned.len() == wanted.len()
        && owned
            .iter()
            .zip(wanted)
            .all(|((ok, ov), (wk, wv))| ok == wk && ov == wv)
}

/// The process-wide metric registry. Obtain it with [`registry`].
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        entries: Mutex::new(Vec::new()),
    })
}

/// A point-in-time reading of one registered metric.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Dotted metric name (`"bdd.mk.calls"`).
    pub name: &'static str,
    /// One-line description supplied at registration.
    pub help: &'static str,
    /// Label set (empty for unlabeled metrics).
    pub labels: Vec<(&'static str, String)>,
    /// The value, by instrument kind.
    pub value: SnapshotValue,
}

impl MetricSnapshot {
    /// `name` with a `{k=v,...}` suffix when labels are present — the
    /// display key used by the text and JSON renderers.
    pub fn display_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// The value part of a [`MetricSnapshot`].
#[derive(Clone, Debug)]
pub enum SnapshotValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram summary.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Estimated median.
        p50: u64,
        /// Estimated 95th percentile.
        p95: u64,
    },
}

impl Registry {
    /// Find-or-create the instrument `name` with `labels`. Every member
    /// of a name family must be of one kind; a kind mismatch panics (a
    /// programming error).
    fn find_or_create<T: Any + Default>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        wrap: fn(&'static T) -> MetricRef,
    ) -> &'static T {
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter().filter(|e| e.name == name) {
            let Some(m) = e.metric.downcast() else {
                panic!("metric {name:?} already registered with a different kind");
            };
            if labels_eq(&e.labels, labels) {
                return m;
            }
        }
        let m: &'static T = Box::leak(Box::default());
        entries.push(Entry {
            name,
            help,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            metric: wrap(m),
        });
        m
    }

    /// Find-or-create the counter `name`. Panics if `name` is already
    /// registered as a different instrument kind (a programming error).
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        self.counter_with(name, help, &[])
    }

    /// Find-or-create the counter `name` with `labels`. Every member of a
    /// name family must be a counter; a kind mismatch panics.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> &'static Counter {
        self.find_or_create(name, help, labels, MetricRef::Counter)
    }

    /// Find-or-create the gauge `name`. Panics on a kind mismatch.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Find-or-create the gauge `name` with `labels`. Panics on a kind
    /// mismatch anywhere in the name family.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> &'static Gauge {
        self.find_or_create(name, help, labels, MetricRef::Gauge)
    }

    /// Find-or-create the histogram `name`. Panics on a kind mismatch.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Find-or-create the histogram `name` with `labels`. Panics on a
    /// kind mismatch anywhere in the name family.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> &'static Histogram {
        self.find_or_create(name, help, labels, MetricRef::Histogram)
    }

    /// Read every registered metric, sorted by name then labels.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name,
                help: e.help,
                labels: e.labels.clone(),
                value: match e.metric {
                    MetricRef::Counter(c) => SnapshotValue::Counter(c.get()),
                    MetricRef::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    MetricRef::Histogram(h) => SnapshotValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    /// Render every metric as an aligned text table.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let names: Vec<String> = snap.iter().map(|s| s.display_name()).collect();
        let width = names.iter().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (s, name) in snap.iter().zip(&names) {
            let value = match s.value {
                SnapshotValue::Counter(v) => format!("{v}"),
                SnapshotValue::Gauge(v) => format!("{v}"),
                SnapshotValue::Histogram {
                    count,
                    sum,
                    p50,
                    p95,
                } => format!("count {count} sum {sum} p50≈{p50} p95≈{p95}"),
            };
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }

    /// Render every metric as one JSON object keyed by metric name (with a
    /// `{k=v}` suffix for labeled metrics).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", crate::json::escape(&s.display_name())));
            match s.value {
                SnapshotValue::Counter(v) => out.push_str(&v.to_string()),
                SnapshotValue::Gauge(v) => out.push_str(&v.to_string()),
                SnapshotValue::Histogram {
                    count,
                    sum,
                    p50,
                    p95,
                } => out.push_str(&format!(
                    "{{\"count\":{count},\"sum\":{sum},\"p50\":{p50},\"p95\":{p95}}}"
                )),
            }
        }
        out.push('}');
        out
    }

    /// Render every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per family, dotted
    /// names underscored, `_total` suffixed counters, and histograms as
    /// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
    ///
    /// The histogram `_count` is derived from one read of the bucket
    /// array, so the `+Inf` bucket always equals `_count` even while
    /// other threads are observing into the histogram.
    pub fn render_prometheus(&self) -> String {
        struct Row {
            labels: Labels,
            value: PromValue,
        }
        enum PromValue {
            Counter(u64),
            Gauge(i64),
            Histogram {
                buckets: Box<[u64; BUCKETS]>,
                sum: u64,
            },
        }
        // Snapshot under the lock: (family name, help, kind, rows).
        let mut families: Vec<(&'static str, &'static str, &'static str, Vec<Row>)> = Vec::new();
        {
            let entries = self.entries.lock().unwrap();
            for e in entries.iter() {
                let value = match e.metric {
                    MetricRef::Counter(c) => PromValue::Counter(c.get()),
                    MetricRef::Gauge(g) => PromValue::Gauge(g.get()),
                    MetricRef::Histogram(h) => PromValue::Histogram {
                        buckets: Box::new(h.bucket_counts()),
                        sum: h.sum(),
                    },
                };
                let row = Row {
                    labels: e.labels.clone(),
                    value,
                };
                match families.iter_mut().find(|(n, ..)| *n == e.name) {
                    Some((_, _, _, rows)) => rows.push(row),
                    None => families.push((e.name, e.help, e.metric.kind(), vec![row])),
                }
            }
        }
        families.sort_by_key(|(n, ..)| *n);
        let mut out = String::new();
        for (name, help, kind, mut rows) in families {
            rows.sort_by(|a, b| a.labels.cmp(&b.labels));
            let base = prom_name(name);
            let family = if kind == "counter" && !base.ends_with("_total") {
                format!("{base}_total")
            } else {
                base
            };
            if !help.is_empty() {
                out.push_str(&format!("# HELP {family} {}\n", prom_escape_help(help)));
            }
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            for row in rows {
                match row.value {
                    PromValue::Counter(v) => {
                        out.push_str(&format!("{family}{} {v}\n", prom_labels(&row.labels, None)));
                    }
                    PromValue::Gauge(v) => {
                        out.push_str(&format!("{family}{} {v}\n", prom_labels(&row.labels, None)));
                    }
                    PromValue::Histogram { buckets, sum } => {
                        let total: u64 = buckets.iter().sum();
                        // Emit finite buckets up to the last non-empty one
                        // (always at least le="0"), then +Inf == _count.
                        let hi = buckets
                            .iter()
                            .rposition(|&c| c != 0)
                            .unwrap_or(0)
                            .min(BUCKETS - 2);
                        let mut cum = 0u64;
                        for (i, &c) in buckets.iter().enumerate().take(hi + 1) {
                            cum += c;
                            out.push_str(&format!(
                                "{family}_bucket{} {cum}\n",
                                prom_labels(&row.labels, Some(&bucket_upper_bound(i).to_string()))
                            ));
                        }
                        out.push_str(&format!(
                            "{family}_bucket{} {total}\n",
                            prom_labels(&row.labels, Some("+Inf"))
                        ));
                        out.push_str(&format!(
                            "{family}_sum{} {sum}\n",
                            prom_labels(&row.labels, None)
                        ));
                        out.push_str(&format!(
                            "{family}_count{} {total}\n",
                            prom_labels(&row.labels, None)
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Convert a dotted metric name into a valid Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a `{k="v",...}` label block (empty string when there are no
/// labels and no `le`). `le`, when present, is appended last.
fn prom_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value: backslash, double quote, and newline.
fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline.
fn prom_escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Find-or-create a [`Counter`] in the global registry, caching the lookup
/// per call site. `counter!("name")`, `counter!("name", "help text")`, or
/// `counter!("name", "help", "label" => "value", ...)` for labels whose
/// values are known at the call site (run-time label values go through
/// [`Registry::counter_with`] directly).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, "")
    };
    ($name:expr, $help:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().counter($name, $help))
    }};
    ($name:expr, $help:expr, $($k:expr => $v:expr),+ $(,)?) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| {
            $crate::metrics::registry().counter_with($name, $help, &[$(($k, $v)),+])
        })
    }};
}

/// Find-or-create a [`Gauge`] in the global registry, caching the lookup
/// per call site. Labeled form as in [`counter!`](crate::counter).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::gauge!($name, "")
    };
    ($name:expr, $help:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().gauge($name, $help))
    }};
    ($name:expr, $help:expr, $($k:expr => $v:expr),+ $(,)?) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| {
            $crate::metrics::registry().gauge_with($name, $help, &[$(($k, $v)),+])
        })
    }};
}

/// Find-or-create a [`Histogram`] in the global registry, caching the
/// lookup per call site. Labeled form as in [`counter!`](crate::counter).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::histogram!($name, "")
    };
    ($name:expr, $help:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::registry().histogram($name, $help))
    }};
    ($name:expr, $help:expr, $($k:expr => $v:expr),+ $(,)?) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| {
            $crate::metrics::registry().histogram_with($name, $help, &[$(($k, $v)),+])
        })
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_macro_dedups_by_name() {
        let a = crate::counter!("test.metrics.dedup");
        let b = crate::counter!("test.metrics.dedup");
        assert!(std::ptr::eq(a, b));
        let before = a.get();
        b.add(3);
        assert_eq!(a.get(), before + 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = crate::gauge!("test.metrics.gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [0u64, 1, 1, 2, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1104);
        // p50 of {0,1,1,2,100,1000}: rank 3 lands in the bucket of 1..2.
        assert!(h.quantile(0.5) <= 3);
        // p100 is in the bucket containing 1000.
        assert!(h.quantile(1.0) >= 1000);
        assert!(h.quantile(1.0) < 2048);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        crate::counter!("test.metrics.zz", "last").inc();
        crate::counter!("test.metrics.aa", "first").inc();
        let snap = registry().snapshot();
        let keys: Vec<String> = snap.iter().map(|s| s.display_name()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let text = registry().render_text();
        assert!(text.contains("test.metrics.aa"));
        let json = registry().render_json();
        crate::json::validate(&json).unwrap();
    }

    #[test]
    fn labels_split_one_name_into_a_family() {
        let bdd = crate::counter!("test.metrics.family", "split", "backend" => "bdd");
        let smt = registry().counter_with("test.metrics.family", "split", &[("backend", "smt")]);
        assert!(
            !std::ptr::eq(bdd, smt),
            "distinct label sets, distinct cells"
        );
        let again = registry().counter_with("test.metrics.family", "split", &[("backend", "bdd")]);
        assert!(std::ptr::eq(bdd, again), "same label set dedups");
        bdd.add(2);
        smt.inc();
        let snap = registry().snapshot();
        let rows: Vec<&MetricSnapshot> = snap
            .iter()
            .filter(|s| s.name == "test.metrics.family")
            .collect();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|s| s.display_name() == "test.metrics.family{backend=bdd}"));
    }

    #[test]
    fn prometheus_exposition_basics() {
        crate::counter!("test.prom.hits", "hit counter").add(7);
        crate::gauge!("test.prom.depth", "queue depth").set(-3);
        let h = crate::histogram!("test.prom.lat_us", "latency");
        for v in [0u64, 1, 5, 5, 300] {
            h.observe(v);
        }
        let text = registry().render_prometheus();
        assert!(text.contains("# TYPE test_prom_hits_total counter"));
        assert!(text.contains("# HELP test_prom_hits_total hit counter"));
        assert!(
            text.contains("\ntest_prom_hits_total 7\n")
                || text.starts_with("test_prom_hits_total 7\n")
        );
        assert!(text.contains("# TYPE test_prom_depth gauge"));
        assert!(text.contains("test_prom_depth -3"));
        assert!(text.contains("# TYPE test_prom_lat_us histogram"));
        assert!(text.contains("test_prom_lat_us_bucket{le=\"0\"} 1"));
        assert!(text.contains("test_prom_lat_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("test_prom_lat_us_count 5"));
        assert!(text.contains("test_prom_lat_us_sum 311"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        registry()
            .counter_with("test.prom.esc", "", &[("kind", "a\"b\\c\nd")])
            .inc();
        let text = registry().render_prometheus();
        assert!(text.contains("test_prom_esc_total{kind=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn counter_name_already_ending_in_total_is_not_doubled() {
        crate::counter!("test.prom.events_total", "pre-suffixed").inc();
        let text = registry().render_prometheus();
        assert!(text.contains("# TYPE test_prom_events_total counter"));
        assert!(!text.contains("events_total_total"));
    }
}
