//! Argument contract of `rzen-repro`, on the convention
//! `crates/cli/tests/cli_exit.rs` pins for `rzen-cli`: a malformed
//! invocation prints usage on stderr and exits 2 before doing any work.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rzen-repro"))
        .args(args)
        // A foreign working directory: nothing may depend on running
        // from the workspace root.
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn malformed_invocations_exit_2_with_usage_on_stderr() {
    for args in [
        &[][..],
        &["fig11"],
        &["fig10", "acls"],
        &["fig10", "acl", "three"], // used to fall back to 3 silently
        &["fig10", "acl", "0"],     // used to print NaN
        &["fig10", "acl", "1", "extra"],
        &["table1", "extra"],
        &["ablate", "nothing"],
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: rzen-repro"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} did work before failing");
    }
}

#[test]
fn table2_finds_its_sources_from_any_directory() {
    let (code, stdout, stderr) = run(&["table2"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("within 2x"), "{stdout}");
}
