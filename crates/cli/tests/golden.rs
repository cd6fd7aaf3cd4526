//! Golden bytes for CLI output other tools diff: the `--verdicts-json`
//! file (compared mode against mode in CI) and the witness lines of the
//! single-query commands.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rzen-cli");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.net");

fn stdout(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn verdicts_json_file_is_byte_stable() {
    let path = std::env::temp_dir().join(format!("rzen-cli-golden-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    stdout(&["batch", SPEC, "--jobs", "2", "--verdicts-json", path_str]);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        text,
        "{\"verdicts\":[\
         {\"index\":0,\"kind\":\"reach\",\"verdict\":\"sat\"},\
         {\"index\":1,\"kind\":\"drops\",\"verdict\":\"sat\"},\
         {\"index\":2,\"kind\":\"reach\",\"verdict\":\"unsat\"},\
         {\"index\":3,\"kind\":\"drops\",\"verdict\":\"sat\"}]}\n"
    );
}

#[test]
fn witness_lines_are_byte_stable() {
    assert_eq!(
        stdout(&["reach", SPEC, "u1:1", "u3:2"]),
        "REACHABLE via a 3-hop path\n  witness: dst=10.0.0.0 src=0.0.0.0 dport=2048 sport=16384 proto=0\n"
    );
    assert_eq!(
        stdout(&["hsa", SPEC, "u1:1", "u3:2"]),
        "reachable packet set: 2^104.0 packets\n  sample: dst=0.0.0.0 src=0.0.0.0 dport=0 sport=0 proto=0\n"
    );
    assert_eq!(
        stdout(&["drops", SPEC, "u1:1", "u3:2"]),
        "DROPPED on all 1 path(s):\n  witness: dst=0.0.0.0 src=0.0.0.0 dport=0 sport=0 proto=0\n"
    );
}
