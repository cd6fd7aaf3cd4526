//! `rzen-repro`: regenerate the paper's evaluation — Table 1, Table 2,
//! Fig. 10 and the §6/§8 ablations — on a plain wall-clock timer. The
//! question answered here is "does the result still have the paper's
//! shape"; how fast the system is belongs to `perfbench/`.

use std::path::Path;
use std::time::Instant;

mod ablate;
mod fig10;
mod table1;
mod table2;

const USAGE: &str = "\
usage: rzen-repro fig10 [acl|routemap|all] [reps]   Fig. 10 sweeps (default: all 3), CSV to results/
       rzen-repro table1                            expressiveness matrix, all six analyses run live
       rzen-repro table2                            lines-of-code table, counted from crates/net/src
       rzen-repro ablate [ordering|fold|compile]    §6/§8 ablations (default: all three)";

/// The workspace root: outputs and counted sources are found relative to
/// it, not to wherever the binary happens to be run from.
pub(crate) fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/repro sits two levels below the workspace root")
}

/// Time a closure, returning (result, milliseconds).
pub(crate) fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Mean of `reps > 0` timed runs (the paper reports "the mean value
/// across 100 runs"). Each run gets a fresh expression context so arena
/// growth does not skew later runs.
pub(crate) fn mean_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut total = 0.0;
    for _ in 0..reps {
        rzen::reset_ctx();
        total += time_ms(&mut f).1;
    }
    rzen::reset_ctx();
    total / reps as f64
}

/// Write a CSV file into the workspace's `results/`.
pub(crate) fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = workspace_root().join("results").join(name);
    let body = format!("{header}\n{}\n", rows.join("\n"));
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["fig10", rest @ ..] if rest.len() <= 2 => {
            let reps = rest.get(1).map_or(3, |r| match r.parse() {
                Ok(n) if n > 0 => n,
                _ => usage_error(&format!("reps must be a positive integer, got {r:?}")),
            });
            match rest.first().copied().unwrap_or("all") {
                "acl" => fig10::acl_series(reps),
                "routemap" => fig10::routemap_series(reps),
                "all" => {
                    fig10::acl_series(reps);
                    println!();
                    fig10::routemap_series(reps);
                }
                other => usage_error(&format!("unknown fig10 series {other:?}")),
            }
            true
        }
        ["table1"] => table1::run(),
        ["table2"] => table2::run(),
        ["ablate", which @ ..] if which.len() <= 1 => {
            let all: [(&str, fn()); 3] = [
                ("ordering", ablate::ordering),
                ("fold", ablate::fold),
                ("compile", ablate::compile),
            ];
            let picked: Vec<fn()> = all
                .iter()
                .filter(|(name, _)| which.first().is_none_or(|w| w == name))
                .map(|&(_, run)| run)
                .collect();
            if picked.is_empty() {
                usage_error(&format!("unknown ablation {:?}", which[0]));
            }
            for (i, run) in picked.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                run();
            }
            true
        }
        [] => usage_error("missing subcommand"),
        _ => usage_error(&format!("unknown command: {}", args.join(" "))),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
