//! `perfbench` — run one workload, or one of the repeatability tools.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! perfbench repeat N [--seed N] [--seconds S] [--out FILE]
//! perfbench compare A.json B.json
//! perfbench check-counts [--seed N]
//! perfbench expected NAME            # print expected/NAME.txt for the default seed
//! ```

use perfbench::inputs::{Inputs, Kind, DEFAULT_SEED};
use perfbench::measure::{end_to_end, RunConfig};
use perfbench::oracle::Oracle;
use perfbench::{tools, traced};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       perfbench repeat N [--seed N] [--seconds S] [--out FILE]
       perfbench compare A.json B.json
       perfbench check-counts [--seed N]
       perfbench expected NAME
workloads: acl-sessions fabric-batch serve-hot fabric-churn";

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn workload(name: &str) -> Result<Kind, String> {
    Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("repeat") => {
            let n = args
                .get(1)
                .and_then(|n| n.parse().ok())
                .ok_or("repeat needs a count")?;
            tools::repeat(
                n,
                flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
                flag(args, "--seconds")?.unwrap_or(tools::DEFAULT_SECONDS),
                flag::<String>(args, "--out")?,
            )
        }
        Some("compare") => match args {
            [_, a, b] => tools::compare(a, b),
            _ => Err("compare needs two files".to_string()),
        },
        Some("check-counts") => tools::check_counts(flag(args, "--seed")?.unwrap_or(DEFAULT_SEED)),
        Some("expected") => {
            let kind = workload(args.get(1).ok_or("expected needs a workload")?)?;
            let inputs = Inputs::generate(kind, DEFAULT_SEED, 1);
            let oracle = Oracle::compute_unpinned(&inputs);
            print!("{}", oracle.render(&inputs));
            Ok(oracle.problems.is_empty())
        }
        _ => {
            let cfg = RunConfig {
                kind: workload(
                    &flag::<String>(args, "--workload")?.ok_or("--workload is required")?,
                )?,
                seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
                seconds: flag(args, "--seconds")?.unwrap_or(tools::DEFAULT_SECONDS),
                quick: args.iter().any(|a| a == "--quick"),
            };
            let report = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
                0 => end_to_end(&cfg)?,
                _ => traced::traced(&cfg)?,
            };
            report.print();
            Ok(report.correct())
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(2),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(1);
        }
    }
}
