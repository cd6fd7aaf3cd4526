//! End-to-end CLI test: `rzen-cli batch --trace-out --stats-json --metrics`
//! on the paper's figure-3 network must emit a loadable Chrome trace with
//! spans from at least four subsystems and a machine-readable stats file.

use std::path::PathBuf;
use std::process::Command;

fn spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/fig3.net")
}

#[test]
fn batch_emits_valid_trace_and_stats_json() {
    let dir = std::env::temp_dir().join(format!("rzen-cli-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let stats = dir.join("stats.json");

    // One forced-backend batch per substrate: in a portfolio race the
    // loser can be cancelled before it opens its solve span, so only a
    // backend running alone is certain to leave its spans in the trace.
    for (backend, solver_spans, counter) in [
        ("bdd", &["\"bdd.solve\""][..], "bdd.mk.calls"),
        (
            "smt",
            &["\"sat.solve\"", "\"bitblast.compile\""][..],
            "sat.propagations",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rzen-cli"))
            .args([
                "batch",
                spec_path().to_str().unwrap(),
                "--jobs",
                "2",
                "--backend",
                backend,
                "--trace-out",
                trace.to_str().unwrap(),
                "--stats-json",
                stats.to_str().unwrap(),
                "--metrics",
            ])
            .output()
            .expect("rzen-cli must run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "batch --backend {backend} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );

        // The trace is a valid JSON array of Chrome trace events covering
        // the engine and this backend's substrates.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        rzen_obs::json::validate(&trace_text).expect("trace must be valid JSON");
        assert!(trace_text.trim_start().starts_with('['));
        for span in solver_spans
            .iter()
            .chain(&["\"engine.query\"", "\"engine.batch\""])
        {
            assert!(
                trace_text.contains(span),
                "--backend {backend}: trace missing {span}"
            );
        }
        assert!(trace_text.contains("\"ph\":\"X\""), "no duration spans");

        // The stats file is a valid JSON object with results, aggregated
        // stats, and the metrics snapshot.
        let stats_text = std::fs::read_to_string(&stats).unwrap();
        rzen_obs::json::validate(&stats_text).expect("stats must be valid JSON");
        for key in [
            "\"results\":",
            "\"stats\":",
            "\"metrics\":",
            "\"latency_p50_us\":",
        ] {
            assert!(stats_text.contains(key), "stats missing {key}");
        }
        assert!(
            stats_text.contains(&format!("\"{counter}\"")),
            "metrics snapshot absent"
        );

        // --metrics prints the registry and the phase report to stdout.
        assert!(stdout.contains(counter));
        assert!(stdout.contains("engine.batch"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rzen_trace_env_var_enables_tracing_and_exports() {
    let dir = std::env::temp_dir().join(format!("rzen-cli-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("env-trace.json");

    let out = Command::new(env!("CARGO_BIN_EXE_rzen-cli"))
        .env("RZEN_TRACE", trace.to_str().unwrap())
        .args(["batch", spec_path().to_str().unwrap(), "--jobs", "1"])
        .output()
        .expect("rzen-cli must run");
    assert!(
        out.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_text = std::fs::read_to_string(&trace).expect("RZEN_TRACE path must be written");
    rzen_obs::json::validate(&trace_text).expect("trace must be valid JSON");
    assert!(trace_text.contains("\"engine.batch\""));

    std::fs::remove_dir_all(&dir).ok();
}
