//! The repeatability tools: `repeat`, `compare`, `check-counts`.
//!
//! Each run is a child process of this same binary (one process per
//! workload run, as the driver does it), so heap high-water marks and
//! process CPU never carry over between runs.

use std::collections::BTreeMap;
use std::process::Command;

use rzen_obs::json::{parse, Value};

use crate::inputs::Kind;
use crate::stats::{iqr_share, median, quartiles};

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What `BENCHMARK.json` says about one metric.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer declarations of `BENCHMARK.json`.
pub struct Declarations {
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Declared>,
    /// Per-layer metrics by name.
    pub per_layer: BTreeMap<String, Declared>,
}

/// Read `BENCHMARK.json` from the working directory (the repo root).
pub fn declarations() -> Result<Declarations, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = parse(&text)?;
    let list = |key: &str| -> Result<BTreeMap<String, Declared>, String> {
        let Some(Value::Arr(items)) = v.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .ok_or(format!("{key}: missing {k}"))
                };
                let bound = match m.get("bound") {
                    Some(Value::Num(b)) => Some(*b),
                    _ => None,
                };
                Ok((
                    s("name")?.to_string(),
                    Declared {
                        unit: s("unit")?.to_string(),
                        higher_is_better: s("better")? == "higher",
                        bound,
                    },
                ))
            })
            .collect()
    };
    Ok(Declarations {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// The driver's line of one run, parsed.
pub struct RunLine {
    /// The `correct` flag.
    pub correct: bool,
    /// Ops that failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Run one workload in a child process and parse its last line.
pub fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); stderr: {}",
            kind.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(members)) = v.get("metrics") {
        for (name, m) in members {
            if let (Some(Value::Num(x)), Some(unit)) =
                (m.get("value"), m.get("unit").and_then(Value::as_str))
            {
                metrics.insert(name.clone(), (*x, unit.to_string()));
            }
        }
    }
    if metrics.is_empty() {
        return Err(format!("{}: result line has no metrics", kind.name()));
    }
    Ok(RunLine {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX),
        metrics,
    })
}

/// Workload → metric → one value per run.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn render_table(table: &Table, failed: &BTreeMap<String, u64>, seed: u64, runs: usize) -> String {
    let workloads: Vec<String> = table
        .iter()
        .map(|(w, metrics)| {
            let ms: Vec<String> = metrics
                .iter()
                .map(|(m, vs)| {
                    let vs: Vec<String> = vs.iter().map(f64::to_string).collect();
                    format!("\"{m}\":[{}]", vs.join(","))
                })
                .collect();
            format!(
                "\"{w}\":{{\"failed\":{},\"metrics\":{{{}}}}}",
                failed.get(w).copied().unwrap_or(0),
                ms.join(",")
            )
        })
        .collect();
    format!(
        "{{\"seed\":{seed},\"runs\":{runs},\"workloads\":{{{}}}}}\n",
        workloads.join(",")
    )
}

fn load_table(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse(text.trim())?;
    let Some(Value::Obj(workloads)) = v.get("workloads") else {
        return Err(format!("{path}: not a `perfbench repeat --out` file"));
    };
    let mut table = Table::new();
    for (w, body) in workloads {
        let Some(Value::Obj(metrics)) = body.get("metrics") else {
            continue;
        };
        for (m, values) in metrics {
            let Value::Arr(values) = values else { continue };
            let values = values.iter().filter_map(|x| {
                if let Value::Num(n) = x {
                    Some(*n)
                } else {
                    None
                }
            });
            table
                .entry(w.clone())
                .or_default()
                .insert(m.clone(), values.collect());
        }
    }
    Ok(table)
}

/// `perfbench repeat N`: run every workload `n` times (run `i` on seed
/// `seed + i`, as the driver varies it), print per metric the median,
/// the quartiles, their distance as a share of the median and
/// (max−min)/median. Fails when an op failed, or when the quartile
/// spread of any end-to-end metric exceeds its bound in
/// `BENCHMARK.json`.
pub fn repeat(n: usize, seed: u64, seconds: f64, out: Option<String>) -> Result<bool, String> {
    if n < 2 {
        return Err("repeat needs at least 2 runs to have quartiles".to_string());
    }
    let decl = declarations()?;
    let mut table = Table::new();
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..n {
        for kind in Kind::ALL {
            let line = run_child(kind, seed + i as u64, seconds, false)?;
            *failed.entry(kind.name().to_string()).or_default() += line.failed;
            let row = table.entry(kind.name().to_string()).or_default();
            for (name, (value, _)) in line.metrics {
                row.entry(name).or_default().push(value);
            }
            eprintln!(
                "run {}/{n} {} seed {}: failed {}",
                i + 1,
                kind.name(),
                seed + i as u64,
                line.failed
            );
        }
    }
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    for (w, metrics) in &table {
        for (m, values) in metrics {
            let [q1, _, q3] = quartiles(values);
            let med = median(values);
            let spread = iqr_share(values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let bound = decl.end_to_end.get(m).and_then(|d| d.bound);
            let verdict = match bound {
                Some(b) if spread > b => {
                    ok = false;
                    "TOO NOISY"
                }
                Some(b) if spread > b / 3.0 => "above a third of the bound",
                Some(_) => "steady",
                None => "not declared end-to-end",
            };
            println!(
                "{w:<14} {m:<20} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}% {:>8.2}% {:>7}  {verdict}",
                spread * 100.0,
                (hi - lo) / med * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0))
            );
        }
        let f = failed.get(w).copied().unwrap_or(0);
        if f > 0 {
            ok = false;
            println!("{w:<14} {f} FAILED OPS");
        }
    }
    if let Some(path) = out {
        std::fs::write(&path, render_table(&table, &failed, seed, n))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(ok)
}

/// `perfbench compare A.json B.json`: one row per workload × end-to-end
/// metric with both medians and the ratio B/A (base: A). A row whose
/// spread in either file exceeds the metric's bound is `unresolved`, not
/// unchanged. Fails when a resolved row is worse than its bound allows.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let decl = declarations()?;
    let (ta, tb) = (load_table(a)?, load_table(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B/A (base A)", "iqr A", "iqr B"
    );
    for (w, metrics) in &ta {
        for (m, va) in metrics {
            let (Some(vb), Some(d)) = (tb.get(w).and_then(|t| t.get(m)), decl.end_to_end.get(m))
            else {
                continue;
            };
            let Some(bound) = d.bound else { continue };
            let (ma, mb) = (median(va), median(vb));
            let (sa, sb) = (iqr_share(va), iqr_share(vb));
            let worse_by = if d.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let verdict = if sa > bound || sb > bound {
                "unresolved (spread exceeds the bound)"
            } else if worse_by > bound {
                ok = false;
                "WORSE than the bound allows"
            } else {
                "within the bound"
            };
            println!(
                "{w:<14} {m:<20} {ma:>14.6} {mb:>14.6} {:>16.4} {:>7.2}% {:>7.2}%  {verdict}",
                mb / ma,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    Ok(ok)
}

/// `perfbench check-counts`: every per-layer metric declared with unit
/// `count` must be identical between two traced runs on one seed, and
/// `peak_heap_mb` of the two batch workloads identical between two
/// untraced runs; a traced run on the next seed must still get every op
/// right while its ACL counters move (the ACLs match other packets and
/// are probed in another order).
pub fn check_counts(seed: u64) -> Result<bool, String> {
    let decl = declarations()?;
    let counts: Vec<&String> = decl
        .per_layer
        .iter()
        .filter(|(_, d)| d.unit == "count")
        .map(|(name, _)| name)
        .collect();
    let mut ok = true;
    for kind in Kind::ALL {
        let (a, b) = (
            run_child(kind, seed, 1.0, true)?,
            run_child(kind, seed, 1.0, true)?,
        );
        let other = run_child(kind, seed + 1, 1.0, true)?;
        let value = |run: &RunLine, name: &String| run.metrics.get(name).map(|m| m.0);
        for name in &counts {
            let (x, y) = (value(&a, name), value(&b, name));
            if x != y || x.is_none() {
                ok = false;
                println!("{} {name}: {x:?} != {y:?} on the same seed", kind.name());
            }
        }
        let moved = counts
            .iter()
            .any(|name| value(&a, name) != value(&other, name));
        if kind == Kind::AclSessions && !moved {
            ok = false;
            println!(
                "{}: seed {} left every count where seed {seed} put it",
                kind.name(),
                seed + 1
            );
        }
        for (label, run) in [("first", &a), ("second", &b), ("next-seed", &other)] {
            if !run.correct {
                ok = false;
                println!(
                    "{} {label} traced run: {} failed ops",
                    kind.name(),
                    run.failed
                );
            }
        }
        println!(
            "{}: {} count metrics identical across two traced runs: {}",
            kind.name(),
            counts.len(),
            ok
        );
        if !kind.served() {
            let heaps: Vec<Option<f64>> = (0..2)
                .map(|_| {
                    run_child(kind, seed, 1.0, false)
                        .map(|r| r.metrics.get("peak_heap_mb").map(|m| m.0))
                })
                .collect::<Result<_, _>>()?;
            if heaps[0] != heaps[1] || heaps[0].is_none() {
                ok = false;
            }
            println!(
                "{}: peak_heap_mb {:?} vs {:?}",
                kind.name(),
                heaps[0],
                heaps[1]
            );
        }
    }
    Ok(ok)
}
