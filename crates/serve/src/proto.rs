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
use rzen_obs::json::{escape, parse, Value};

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

/// One response line (newline-terminated) carrying only an error. `req`
/// is the server-minted request id (0 = omit), echoed so a failed
/// request can still be found in `/debug/requests`.
pub fn error_response(id: Option<u64>, req: u64, error: &str) -> String {
    let mut b = Body::with_id(id);
    if req != 0 {
        b.num("req", req);
    }
    b.str("error", error);
    b.line()
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
/// replayed through the server diffs clean against the batch path. `req`
/// is the server-minted request id (0 = omit) that the flight recorder
/// and trace spans carry for this request.
pub fn verdict_response(
    id: Option<u64>,
    req: u64,
    op: &'static str,
    result: &QueryResult,
    coalesced: bool,
) -> String {
    let mut out = String::from("{");
    if let Some(id) = id {
        out.push_str(&format!("\"id\":{id},"));
    }
    if req != 0 {
        out.push_str(&format!("\"req\":{req},"));
    }
    out.push_str(&format!("\"op\":\"{op}\","));
    out.push_str(&format!(
        "\"verdict\":\"{}\"",
        result.verdict.class().as_str()
    ));
    if let Verdict::Sat(w) = &result.verdict {
        out.push_str(&format!(
            ",\"witness\":\"{}\"",
            escape(&describe_witness(w))
        ));
    }
    if let Verdict::Error(msg) = &result.verdict {
        out.push_str(&format!(",\"error\":\"{}\"", escape(msg)));
    }
    match result.winner {
        Some(rzen::Backend::Bdd) => out.push_str(",\"winner\":\"bdd\""),
        Some(rzen::Backend::Smt) => out.push_str(",\"winner\":\"smt\""),
        None => {}
    }
    out.push_str(&format!(
        ",\"cache_hit\":{},\"coalesced\":{coalesced},\"latency_us\":{}}}\n",
        result.cache_hit,
        result.latency.as_micros()
    ));
    out
}

/// A tiny ordered JSON-object builder for the non-verdict responses.
#[derive(Default)]
pub struct Body {
    parts: Vec<String>,
}

impl Body {
    /// Empty object.
    pub fn new() -> Body {
        Body::default()
    }

    /// With the optional correlation id first, matching requests.
    pub fn with_id(id: Option<u64>) -> Body {
        let mut b = Body::new();
        if let Some(id) = id {
            b.num("id", id);
        }
        b
    }

    /// Append an unsigned number member.
    pub fn num(&mut self, key: &str, v: u64) -> &mut Body {
        self.parts.push(format!("\"{}\":{v}", escape(key)));
        self
    }

    /// Append a float member, rendered with Rust's shortest round-trip
    /// formatting. JSON has no NaN/Infinity tokens, so non-finite values
    /// render as `null` rather than emitting invalid JSON.
    pub fn float(&mut self, key: &str, v: f64) -> &mut Body {
        let rendered = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{}\":{rendered}", escape(key)));
        self
    }

    /// Append a string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Body {
        self.parts
            .push(format!("\"{}\":\"{}\"", escape(key), escape(v)));
        self
    }

    /// Append a boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Body {
        self.parts.push(format!("\"{}\":{v}", escape(key)));
        self
    }

    /// Render as one `{...}` line with a trailing newline.
    pub fn line(&self) -> String {
        format!("{{{}}}\n", self.parts.join(","))
    }

    /// Render as one `{...}` document without the newline (HTTP bodies).
    pub fn document(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
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
        let mut b = Body::new();
        b.float("a", 13.870_312_5).float("b", f64::INFINITY);
        let line = b.line();
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
        let mut b = Body::with_id(None);
        b.str("status", "ok")
            .num("inflight", 0)
            .bool("draining", false);
        rzen_obs::json::validate(b.line().trim()).unwrap();
    }
}
