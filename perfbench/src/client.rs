//! The load generator's side of the wire: one NDJSON connection with one
//! request outstanding (closed loop), plus one-shot HTTP for `/delta`
//! and `/metrics`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One NDJSON connection. `TCP_NODELAY` is set and every request goes
/// out in one `write_all`, or Nagle + delayed ACK add ~40 ms a request.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The last response line, newline included; reused across requests
    /// so a steady-state request allocates nothing here.
    pub line: Vec<u8>,
}

impl Client {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: Vec::with_capacity(512),
        })
    }

    /// Send one request line and read its response line into
    /// [`Client::line`]. An empty line afterwards means the server hung
    /// up.
    pub fn ask(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(request)?;
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        Ok(())
    }

    /// Send `requests` back to back without waiting, then read one
    /// response each (a pipelined burst). Returns how many arrived.
    pub fn burst(&mut self, requests: &[&[u8]]) -> std::io::Result<usize> {
        let mut out = Vec::new();
        for r in requests {
            out.extend_from_slice(r);
        }
        self.writer.write_all(&out)?;
        let mut got = 0;
        for _ in requests {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                break;
            }
            got += 1;
        }
        Ok(got)
    }
}

/// First position of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The part of a verdict response that identifies the answer itself —
/// op, verdict and witness — without the per-request fields around it
/// (`req`, `winner`, `cache_hit`, `latency_us`). Also reports whether
/// the answer was a result-cache hit. `None` for anything that is not a
/// verdict response (an error, a shed request).
pub fn answer_key(line: &[u8]) -> Option<(&[u8], bool)> {
    let start = find(line, b"\"op\":")?;
    let cache = start + find(&line[start..], b",\"cache_hit\":")?;
    let end = find(&line[start..cache], b",\"winner\"").map_or(cache, |w| start + w);
    let hit = line.get(cache + b",\"cache_hit\":".len()) == Some(&b't');
    Some((&line[start..end], hit))
}

/// One-shot HTTP exchange; returns (status code, body).
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// The value of an unlabelled sample `name` in a Prometheus exposition.
pub fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_key_ignores_per_request_fields() {
        let cold = b"{\"id\":5,\"req\":9,\"op\":\"reach\",\"verdict\":\"sat\",\"witness\":\"dst=1.2.3.4 src=0.0.0.0 dport=1 sport=2 proto=3\",\"winner\":\"smt\",\"cache_hit\":false,\"coalesced\":false,\"latency_us\":18000}\n";
        let warm = b"{\"id\":5,\"req\":31,\"op\":\"reach\",\"verdict\":\"sat\",\"witness\":\"dst=1.2.3.4 src=0.0.0.0 dport=1 sport=2 proto=3\",\"cache_hit\":true,\"coalesced\":false,\"latency_us\":2}\n";
        let (a, a_hit) = answer_key(cold).unwrap();
        let (b, b_hit) = answer_key(warm).unwrap();
        assert_eq!(a, b);
        assert!(!a_hit && b_hit);
        assert!(answer_key(b"{\"id\":5,\"req\":3,\"error\":\"overloaded\"}\n").is_none());
    }

    #[test]
    fn metric_value_reads_plain_samples() {
        let text =
            "# TYPE loop_wakeups_total counter\nloop_wakeups_total 1234\nloop_wakeups_total_x 9\n";
        assert_eq!(metric_value(text, "loop_wakeups_total"), Some(1234.0));
        assert_eq!(metric_value(text, "absent"), None);
    }
}
