//! What a run prints: every metric by name and unit for people, then
//! one JSON object as the last line for the driver.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Ops issued, warm-ups included.
    pub attempted: usize,
    /// Ops that errored, timed out, were shed or answered wrongly.
    pub failed: usize,
    /// The metrics of this run that `BENCHMARK.json` declares for its
    /// mode (end-to-end or per-layer): what the driver's line carries.
    pub metrics: Vec<Metric>,
    /// Lines for the human reader: sample counts, diagnostics.
    pub notes: Vec<String>,
}

impl Report {
    /// Every op attempted was answered correctly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// Print the readable summary and, last, the driver's line.
    pub fn print(&self) {
        println!("workload {} seed {}", self.workload, self.seed);
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  ops attempted {} failed {} -> {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        println!("{}", self.json_line());
    }
}

/// `{"name":{"value":v,"unit":"u"},...}` with every digit of each value.
fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_parses_and_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "serve-hot",
            seed: 1,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("verdicts_per_s", 1.5e4, "1/s"),
            ],
            notes: vec![],
        };
        let v = rzen_obs::json::parse(&r.json_line()).expect("valid json");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(key).is_some(), "{key} missing");
        }
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert!(r.json_line().contains("\"value\":0.8127"));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let r = Report {
            workload: "x",
            seed: 1,
            attempted: 10,
            failed: 1,
            metrics: vec![],
            notes: vec![],
        };
        assert!(!r.correct());
        assert!(r.json_line().starts_with("{\"correct\":false"));
    }
}
