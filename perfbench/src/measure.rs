//! The untraced run: the workload is set up [`SETUPS`] times, each
//! set-up followed by its share of the identical measured rounds, so
//! that the set-ups sample the same stretch of host time as the rounds
//! do; every end-to-end metric is a median over them.

use std::time::Instant;

use crate::inputs::{Inputs, Kind};
use crate::oracle::Oracle;
use crate::report::{Metric, Report};
use crate::run::{set_up, Round};
use crate::stats::{latency_summary, median};
use crate::{alloc, host};

/// Times the set-up is executed, spread evenly between the measured
/// rounds with a teardown before each; the median is reported.
pub const SETUPS: usize = 3;
/// Measured rounds a comparable run has at the least.
pub const MIN_ROUNDS: usize = 6;
/// The same for `acl-sessions`, whose rounds are not equally dear: what
/// a warm session has to build depends on the order its probes arrive
/// in, and that order is redrawn every round (±5 % from round to round).
pub const MIN_ROUNDS_ACL: usize = 10;
/// Measured rounds a run stops at even if time remains.
pub const MAX_ROUNDS: usize = 40;
/// Rounds of a `--quick` run.
pub const QUICK_ROUNDS: usize = 2;
/// What `--quick` divides the per-round counts by.
pub const QUICK_SCALE: usize = 10;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds the measured rounds should add up to (a floor of
    /// [`MIN_ROUNDS`] rounds applies; a round is never cut short).
    pub seconds: f64,
    /// Two tenth-size rounds; numbers are not comparable.
    pub quick: bool,
}

impl RunConfig {
    /// Divisor of the per-round counts.
    pub fn scale(&self) -> usize {
        if self.quick {
            QUICK_SCALE
        } else {
            1
        }
    }
}

/// The figures of one measured round. Times and rates are corrected to
/// the reference host speed ([`host::speed`]).
pub struct RoundFigures {
    /// Correct decisive verdicts per wall second.
    pub verdicts_per_s: f64,
    /// Median per-verdict latency, ms.
    pub p50_ms: f64,
    /// 95th percentile per-verdict latency, ms.
    pub p95_ms: f64,
    /// Process CPU per verdict, ms.
    pub cpu_ms_per_verdict: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Wall seconds, as the clock read them.
    pub wall_s: f64,
    /// The fixed spin loop around the round, ms (mean of before/after).
    pub spin_ms: f64,
}

/// Name, unit, and where in a round's figures to read a time metric.
pub type TimeMetric = (&'static str, &'static str, fn(&RoundFigures) -> f64);

/// The four end-to-end metrics that are figures of a round; a run
/// reports the median over its rounds.
pub const TIME_METRICS: [TimeMetric; 4] = [
    ("verdicts_per_s", "1/s", |r| r.verdicts_per_s),
    ("verdict_p50_ms", "ms", |r| r.p50_ms),
    ("verdict_p95_ms", "ms", |r| r.p95_ms),
    ("cpu_ms_per_verdict", "ms", |r| r.cpu_ms_per_verdict),
];

/// Derive a round's figures from what it measured and the spin loop's
/// readings before and after it. `strict` enforces the percentile rule.
pub fn figures(
    round: &mut Round,
    spin_ms: (f64, f64),
    strict: bool,
) -> Result<RoundFigures, String> {
    let verdicts = round.verdicts().max(1) as f64;
    let lat = latency_summary(&mut round.latencies_ms, strict)?;
    let speed = host::speed(spin_ms.0, spin_ms.1);
    Ok(RoundFigures {
        verdicts_per_s: verdicts / (round.wall_s * speed),
        p50_ms: lat.p50 * speed,
        p95_ms: lat.p95 * speed,
        cpu_ms_per_verdict: round.cpu_s * 1e3 / verdicts * speed,
        samples: lat.samples,
        wall_s: round.wall_s,
        spin_ms: (spin_ms.0 + spin_ms.1) / 2.0,
    })
}

/// The oracle of a run. Pins the process to one CPU first and restarts
/// the heap high-water mark afterwards: the other-backend solves are the
/// harness's cost, not the workload's.
pub fn oracle(cfg: &RunConfig) -> Oracle {
    match host::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("NOT pinned to one cpu: served latencies depend on thread placement"),
    }
    let t = Instant::now();
    let inputs = Inputs::generate(cfg.kind, cfg.seed, cfg.scale());
    let oracle = Oracle::compute(&inputs);
    println!(
        "oracle: {} distinct queries classed by the other backend in {:.2}s, {} problems",
        inputs.cases.len(),
        t.elapsed().as_secs_f64(),
        oracle.problems.len()
    );
    for p in oracle.problems.iter().take(5) {
        println!("oracle problem: {p}");
    }
    drop(inputs);
    alloc::reset_peak();
    oracle
}

/// Run the workload untraced and report the end-to-end metrics.
pub fn end_to_end(cfg: &RunConfig) -> Result<Report, String> {
    let oracle = oracle(cfg);
    let (setups, min_rounds) = if cfg.quick {
        (QUICK_ROUNDS, QUICK_ROUNDS)
    } else {
        (
            SETUPS,
            if cfg.kind == Kind::AclSessions {
                MIN_ROUNDS_ACL
            } else {
                MIN_ROUNDS
            },
        )
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut rounds: Vec<RoundFigures> = Vec::new();
    let mut measured_s = 0.0;
    for cycle in 1..=setups {
        let spin = host::spin_ms();
        let t = Instant::now();
        let (mut state, mut warm) = set_up(cfg.kind, cfg.seed, cfg.scale())?;
        let raw_setup_s = t.elapsed().as_secs_f64();
        let spin_after = host::spin_ms();
        setup_s.push(raw_setup_s * host::speed(spin, spin_after));
        println!("set-up {cycle}: {raw_setup_s:.3}s wall, spin {spin:.3}/{spin_after:.3}ms");
        state.judge(&mut warm, &oracle);
        attempted += warm.attempted;
        failed += warm.failed;
        // This set-up's share of the rounds and of the measuring time.
        let share = cycle as f64 / setups as f64;
        let rounds_due = (min_rounds as f64 * share).ceil() as usize;
        let seconds_due = if cfg.quick { 0.0 } else { cfg.seconds * share };
        while rounds.len() < MAX_ROUNDS && (rounds.len() < rounds_due || measured_s < seconds_due) {
            let done = rounds.len();
            let spin = host::spin_ms();
            let mut round = state.run(done, cfg.scale())?;
            let spin_after = host::spin_ms();
            state.judge(&mut round, &oracle);
            attempted += round.attempted;
            failed += round.failed;
            let f = figures(&mut round, (spin, spin_after), !cfg.quick)?;
            println!(
                "round {done}: {:.3}s wall, spin {spin:.3}/{spin_after:.3}ms, {} samples; at reference speed {:.1} verdicts/s, p50 {:.4}ms, p95 {:.4}ms, {:.4} cpu-ms/verdict; {} failed",
                f.wall_s, f.samples, f.verdicts_per_s, f.p50_ms, f.p95_ms, f.cpu_ms_per_verdict, round.failed
            );
            measured_s += f.wall_s;
            rounds.push(f);
        }
        state.tear_down();
    }
    let peak_heap_mb = alloc::peak_bytes() as f64 / (1024.0 * 1024.0);

    let col = |f: fn(&RoundFigures) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![Metric::new("setup_s", median(&setup_s), "s")];
    metrics.extend(
        TIME_METRICS
            .iter()
            .map(|&(name, unit, of)| Metric::new(name, col(of), unit)),
    );
    metrics.push(Metric::new("peak_heap_mb", peak_heap_mb, "MiB"));
    let mut notes = vec![
        format!(
            "{} measured rounds of {} latency samples each between {} set-ups ({}); medians",
            rounds.len(),
            rounds.first().map_or(0, |r| r.samples),
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.3}s"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "host.spin_ms {:.4} (median of rounds; reference {})",
            col(|r| r.spin_ms),
            host::SPIN_REF_MS
        ),
        format!(
            "as the clock read them (medians of rounds): {:.6} verdicts/s, p50 {:.6} ms, p95 {:.6} ms, {:.6} cpu-ms/verdict",
            col(|r| r.verdicts_per_s * host::SPIN_REF_MS / r.spin_ms),
            col(|r| r.p50_ms * r.spin_ms / host::SPIN_REF_MS),
            col(|r| r.p95_ms * r.spin_ms / host::SPIN_REF_MS),
            col(|r| r.cpu_ms_per_verdict * r.spin_ms / host::SPIN_REF_MS)
        ),
        format!(
            "host.peak_rss_mb {:.1} (diagnostic, VmHWM)",
            host::peak_rss_mb()
        ),
    ];
    if cfg.quick {
        notes.push("QUICK RUN: tenth-size rounds, numbers are NOT comparable".to_string());
    }
    Ok(Report {
        workload: cfg.kind.name(),
        seed: cfg.seed,
        attempted,
        failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_on_a_slow_host_reads_as_it_would_at_reference_speed() {
        let round = || {
            let mut r = Round::default();
            r.wall_s = 2.0;
            r.cpu_s = 1.0;
            r.latencies_ms = (1..=400).map(f64::from).collect();
            r.attempted = 400;
            r
        };
        let reference = host::SPIN_REF_MS;
        let at_speed = figures(&mut round(), (reference, reference), true).unwrap();
        assert_eq!(at_speed.verdicts_per_s, 200.0);
        assert_eq!((at_speed.p50_ms, at_speed.p95_ms), (200.0, 380.0));
        assert_eq!(at_speed.cpu_ms_per_verdict, 2.5);
        // The same round while the spin loop takes a quarter longer: every
        // duration shrinks to 4/5, every rate grows to 5/4.
        let slow = figures(&mut round(), (reference * 1.5, reference), true).unwrap();
        assert!((slow.verdicts_per_s - 250.0).abs() < 1e-9);
        assert!((slow.p50_ms - 160.0).abs() < 1e-9);
        assert!((slow.cpu_ms_per_verdict - 2.0).abs() < 1e-9);
        assert_eq!((slow.wall_s, slow.samples), (2.0, 400));
    }

    #[test]
    fn a_refused_delta_is_a_failed_op_but_not_a_lost_verdict() {
        let mut r = Round::default();
        r.latencies_ms = vec![1.0; 224];
        r.attempted = 226;
        r.failed = 3;
        r.failed_deltas = 1;
        assert_eq!(r.verdicts(), 222);
    }
}
