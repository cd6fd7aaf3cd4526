//! Golden bytes for the JSON lines other programs read by offset or by
//! `diff`: the served verdict and error lines and every delta op's NDJSON
//! rendering. Each expected string is the exact wire text, so a change
//! of key order, whitespace, escaping or number spelling fails here.

use std::time::Duration;

use rzen_delta::{parse_op, AclDir, DeltaOp};
use rzen_engine::{QueryResult, Verdict, Witness};
use rzen_net::headers::Header;
use rzen_serve::proto::{error_response, verdict_response};

fn result(verdict: Verdict, winner: Option<rzen::Backend>, cache_hit: bool) -> QueryResult {
    QueryResult {
        index: 0,
        kind: "reach",
        verdict,
        latency: Duration::from_micros(1_234),
        winner,
        cache_hit,
        sat_stats: None,
        bdd_stats: None,
        session: None,
    }
}

fn witness() -> Verdict {
    Verdict::Sat(Witness::Header(Header::new(
        0x0a00_0001,
        0xc0a8_0102,
        443,
        1024,
        6,
    )))
}

#[test]
fn sat_cache_hit_winner_verdict_line() {
    let line = verdict_response(
        Some(7),
        42,
        "reach",
        &result(witness(), Some(rzen::Backend::Smt), true),
        false,
    );
    assert_eq!(
        line,
        "{\"id\":7,\"req\":42,\"op\":\"reach\",\"verdict\":\"sat\",\
         \"witness\":\"dst=10.0.0.1 src=192.168.1.2 dport=443 sport=1024 proto=6\",\
         \"winner\":\"smt\",\"cache_hit\":true,\"coalesced\":false,\"latency_us\":1234}\n"
    );
}

#[test]
fn unsat_and_error_verdict_lines() {
    let line = verdict_response(
        None,
        0,
        "drops",
        &result(Verdict::Unsat, Some(rzen::Backend::Bdd), false),
        true,
    );
    assert_eq!(
        line,
        "{\"op\":\"drops\",\"verdict\":\"unsat\",\"winner\":\"bdd\",\
         \"cache_hit\":false,\"coalesced\":true,\"latency_us\":1234}\n"
    );
    let line = verdict_response(
        Some(1),
        9,
        "reach",
        &result(Verdict::Error("bad \"hop\"\n\tat\\x".into()), None, false),
        false,
    );
    assert_eq!(
        line,
        "{\"id\":1,\"req\":9,\"op\":\"reach\",\"verdict\":\"error\",\
         \"error\":\"bad \\\"hop\\\"\\n\\tat\\\\x\",\
         \"cache_hit\":false,\"coalesced\":false,\"latency_us\":1234}\n"
    );
}

#[test]
fn error_lines() {
    assert_eq!(
        error_response(Some(3), 99, "overloaded"),
        "{\"id\":3,\"req\":99,\"error\":\"overloaded\"}\n"
    );
    assert_eq!(
        error_response(None, 0, "shutting_down"),
        "{\"error\":\"shutting_down\"}\n"
    );
    assert_eq!(
        error_response(None, 5, "bad json: expected \"op\"\u{1}"),
        "{\"req\":5,\"error\":\"bad json: expected \\\"op\\\"\\u0001\"}\n"
    );
}

#[test]
fn every_delta_op_line() {
    let cases = [
        (
            DeltaOp::AddDevice {
                name: "x9".into(),
                intfs: vec![1, 2, 30],
            },
            "{\"op\":\"add-device\",\"name\":\"x9\",\"intfs\":[1,2,30]}\n",
        ),
        (
            DeltaOp::AddDevice {
                name: "empty".into(),
                intfs: vec![],
            },
            "{\"op\":\"add-device\",\"name\":\"empty\",\"intfs\":[]}\n",
        ),
        (
            DeltaOp::RemoveDevice { name: "u2".into() },
            "{\"op\":\"remove-device\",\"name\":\"u2\"}\n",
        ),
        (
            DeltaOp::SetAcl {
                device: "u2".into(),
                intf: 1,
                dir: AclDir::In,
                acl: "deny-dport 22 23".into(),
            },
            "{\"op\":\"set-acl\",\"device\":\"u2\",\"intf\":1,\"dir\":\"in\",\"acl\":\"deny-dport 22 23\"}\n",
        ),
        (
            DeltaOp::RemoveAcl {
                device: "u2".into(),
                intf: 3,
                dir: AclDir::Out,
            },
            "{\"op\":\"remove-acl\",\"device\":\"u2\",\"intf\":3,\"dir\":\"out\"}\n",
        ),
        (
            DeltaOp::SetRoute {
                device: "u1".into(),
                prefix: "10.1.0.0/16".parse().unwrap(),
                port: 2,
            },
            "{\"op\":\"set-route\",\"device\":\"u1\",\"prefix\":\"10.1.0.0/16\",\"port\":2}\n",
        ),
        (
            DeltaOp::RemoveRoute {
                device: "u1".into(),
                prefix: "0.0.0.0/0".parse().unwrap(),
            },
            "{\"op\":\"remove-route\",\"device\":\"u1\",\"prefix\":\"0.0.0.0/0\"}\n",
        ),
        (
            DeltaOp::LinkUp {
                a: "u1:2".into(),
                b: "u2:1".into(),
            },
            "{\"op\":\"link-up\",\"a\":\"u1:2\",\"b\":\"u2:1\"}\n",
        ),
        (
            DeltaOp::LinkDown {
                a: "u\"1:2".into(),
                b: "u2:1".into(),
            },
            "{\"op\":\"link-down\",\"a\":\"u\\\"1:2\",\"b\":\"u2:1\"}\n",
        ),
    ];
    for (op, want) in cases {
        assert_eq!(op.to_line(), want);
        assert_eq!(parse_op(want.trim_end()).unwrap(), op, "{want}");
    }
}
