//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, always in order
//! per connection. Requests:
//!
//! ```text
//! {"op":"reach","src":"u1:1","dst":"u3:2"}
//! {"id":7,"op":"drops","src":"u1:1","dst":"u3:2","timeout_ms":500}
//! {"op":"hsa","src":"u1:1","dst":"u3:2"}
//! {"op":"paths","src":"u1:1","dst":"u3:2"}
//! ```
//!
//! `id` is an optional client-chosen correlation number echoed back
//! verbatim; `timeout_ms` overrides the server's default per-request
//! deadline (measured from *admission*, so time spent queued counts).
//! Responses carry a `verdict` string identical to the `rzen-cli batch`
//! verdict vocabulary (`sat`/`unsat`/`timeout`/`cancelled`/`error`), or a
//! single `error` member (`"overloaded"` when the request was shed,
//! `"shutting_down"` during drain).

use rzen_engine::{QueryResult, Verdict, Witness};
use rzen_net::headers::Header;
use rzen_net::ip::fmt_ip;
use rzen_obs::json::{parse, Value, Writer};

/// A parsed request line.
pub struct Request {
    /// Client correlation id, echoed back in the response.
    pub id: Option<u64>,
    /// What to do.
    pub op: Op,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

/// The operation of one request.
pub enum Op {
    /// Find a packet delivered from `src` to `dst` on some simple path.
    Reach {
        /// Entry endpoint, `device:port`.
        src: String,
        /// Exit endpoint, `device:port`.
        dst: String,
    },
    /// Find a packet dropped on every simple path from `src` to `dst`.
    Drops {
        /// Entry endpoint, `device:port`.
        src: String,
        /// Exit endpoint, `device:port`.
        dst: String,
    },
    /// Exact reachable-set size via header-space transformers.
    Hsa {
        /// Entry endpoint, `device:port`.
        src: String,
        /// Exit endpoint, `device:port`.
        dst: String,
    },
    /// Count simple paths between the endpoints.
    Paths {
        /// Entry endpoint, `device:port`.
        src: String,
        /// Exit endpoint, `device:port`.
        dst: String,
    },
    /// Debug-only (`debug_ops`): occupy a worker for `ms` milliseconds.
    /// Exists so tests can deterministically fill the admission queue.
    Sleep {
        /// How long to hold the worker.
        ms: u64,
    },
}

impl Op {
    /// The op name, echoed in responses.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Reach { .. } => "reach",
            Op::Drops { .. } => "drops",
            Op::Hsa { .. } => "hsa",
            Op::Paths { .. } => "paths",
            Op::Sleep { .. } => "sleep",
        }
    }
}

/// Parse one request line. `debug_ops` gates the test-only `sleep` op so
/// a production server never exposes it.
pub fn parse_request(line: &str, debug_ops: bool) -> Result<Request, String> {
    let v = parse(line).map_err(|e| format!("bad json: {e}"))?;
    let id = v.get("id").and_then(Value::as_u64);
    let op_name = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"op\"".to_string())?;
    let timeout_ms = v.get("timeout_ms").and_then(Value::as_u64);
    let endpoint = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op {op_name:?} needs \"{key}\""))
    };
    let op = match op_name {
        "reach" => Op::Reach {
            src: endpoint("src")?,
            dst: endpoint("dst")?,
        },
        "drops" => Op::Drops {
            src: endpoint("src")?,
            dst: endpoint("dst")?,
        },
        "hsa" => Op::Hsa {
            src: endpoint("src")?,
            dst: endpoint("dst")?,
        },
        "paths" => Op::Paths {
            src: endpoint("src")?,
            dst: endpoint("dst")?,
        },
        "sleep" if debug_ops => Op::Sleep {
            ms: v
                .get("ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| "op \"sleep\" needs \"ms\"".to_string())?,
        },
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Request { id, op, timeout_ms })
}

/// One response line (newline-terminated): the client's correlation id,
/// the server-minted request id (0 = omit) that the flight recorder and
/// trace spans carry, then the members `body` writes.
pub(crate) fn response_line(id: Option<u64>, req: u64, body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::with_capacity(192);
    w.obj(|w| {
        if let Some(id) = id {
            w.field("id", id);
        }
        if req != 0 {
            w.field("req", req);
        }
        body(w);
    });
    w.line()
}

/// One response line carrying only an error, still echoing `req` so a
/// failed request can be found in `/debug/requests`.
pub fn error_response(id: Option<u64>, req: u64, error: &str) -> String {
    response_line(id, req, |w| {
        w.field("error", error);
    })
}

/// Human-readable concrete header, same shape the CLI prints.
pub fn describe_header(h: &Header) -> String {
    format!(
        "dst={} src={} dport={} sport={} proto={}",
        fmt_ip(h.dst_ip),
        fmt_ip(h.src_ip),
        h.dst_port,
        h.src_port,
        h.protocol
    )
}

fn describe_witness(w: &Witness) -> String {
    match w {
        Witness::Header(h) => describe_header(h),
        Witness::Packet(p) => describe_header(&p.overlay_header),
        Witness::Announcement(_) => "announcement".to_string(),
    }
}

/// The response line for an engine verdict. The `verdict` vocabulary is
/// byte-identical to `rzen-cli batch --verdicts-json`, so a query set
/// replayed through the server diffs clean against the batch path.
pub fn verdict_response(
    id: Option<u64>,
    req: u64,
    op: &'static str,
    result: &QueryResult,
    coalesced: bool,
) -> String {
    response_line(id, req, |w| {
        w.field("op", op)
            .field("verdict", result.verdict.class().as_str());
        match &result.verdict {
            Verdict::Sat(witness) => {
                w.field("witness", describe_witness(witness));
            }
            Verdict::Error(msg) => {
                w.field("error", msg);
            }
            _ => {}
        }
        if let Some(winner) = result.winner_name() {
            w.field("winner", winner);
        }
        w.field("cache_hit", result.cache_hit)
            .field("coalesced", coalesced)
            .field("latency_us", result.latency.as_micros());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_request_shape() {
        let r = parse_request(
            "{\"id\":7,\"op\":\"drops\",\"src\":\"u1:1\",\"dst\":\"u3:2\",\"timeout_ms\":500}",
            false,
        )
        .unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.timeout_ms, Some(500));
        let Op::Drops { src, dst } = r.op else {
            panic!("wrong op");
        };
        assert_eq!((src.as_str(), dst.as_str()), ("u1:1", "u3:2"));
    }

    #[test]
    fn sleep_is_gated_behind_debug_ops() {
        let line = "{\"op\":\"sleep\",\"ms\":5}";
        assert!(parse_request(line, false).is_err());
        assert!(matches!(
            parse_request(line, true).unwrap().op,
            Op::Sleep { ms: 5 }
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"reach\",\"src\":\"u1:1\"}",
        ] {
            assert!(parse_request(line, true).is_err(), "{line:?} accepted");
        }
    }

    #[test]
    fn floats_round_trip_and_non_finite_degrades_to_null() {
        let line = response_line(None, 0, |w| {
            w.field("a", 13.870_312_5).field("b", f64::INFINITY);
        });
        rzen_obs::json::validate(line.trim()).unwrap();
        let v = parse(line.trim()).unwrap();
        assert!(matches!(v.get("a"), Some(Value::Num(n)) if *n == 13.870_312_5));
        assert!(matches!(v.get("b"), Some(Value::Null)));
    }

    #[test]
    fn responses_are_valid_json_lines() {
        let e = error_response(Some(3), 99, "overloaded");
        rzen_obs::json::validate(e.trim()).unwrap();
        assert!(e.contains("\"req\":99"));
        let bare = error_response(None, 0, "overloaded");
        rzen_obs::json::validate(bare.trim()).unwrap();
        assert!(!bare.contains("req"));
    }
}
