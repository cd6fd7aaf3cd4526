//! The flight recorder: an always-on, lock-free ring of per-request
//! records plus a top-K slow-query table.
//!
//! Where [`crate::trace`] answers "where does the time go inside one
//! operation" (and must be switched on), the flight recorder answers
//! "which requests went through this process recently, and which were
//! slow" — continuously, at a cost low enough to leave on in production:
//! one atomic ticket fetch plus a seqlock-protected 15-word write per
//! *request* (not per event), and no allocation anywhere on the record
//! path.
//!
//! ## Request identity
//!
//! A [`RequestCtx`] is minted once per request at serve admission (or per
//! query in a batch) from a process-wide monotonic counter, and carries
//! the model fingerprint and mutation generation the request was admitted
//! under. The id is threaded through spans (as a `"req"` argument), the
//! in-flight coalescer (followers record their leader's id), and the
//! flight record, so one request can be followed across every layer.
//!
//! ## Concurrency
//!
//! The ring is a fixed array of seqlock slots. A writer claims a slot
//! with one `fetch_add` on the head ticket, marks the slot's sequence
//! odd (by compare-exchange from an even one; a slot found mid-write is
//! skipped and that record dropped), writes the record as relaxed word
//! stores, and publishes an even sequence. Readers ([`snapshot`]) sample each slot's sequence before
//! and after copying and discard torn reads. The record payload is held
//! as relaxed `AtomicU64` words rather than a plain struct so that a
//! read racing a write is *defined* (and then discarded by the sequence
//! check) instead of a data race. Writers never wait on readers or on
//! each other; a reader racing a writer simply skips that slot.
//!
//! The slow table keeps the K largest-latency records seen since
//! startup. Requests faster than the table's current minimum skip the
//! lock entirely (one relaxed atomic load); only candidate slow requests
//! take the small mutex.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity, in records.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Slow-query table size.
pub const SLOW_K: usize = 16;

/// Fixed-size inline string for ops and endpoints: no allocation on the
/// record path. Longer inputs are truncated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmallStr {
    len: u8,
    buf: [u8; 15],
}

impl SmallStr {
    /// Build from a `&str`, truncating (on a char boundary) to 15 bytes.
    pub fn new(s: &str) -> SmallStr {
        let mut end = s.len().min(15);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; 15];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallStr {
            len: end as u8,
            buf,
        }
    }

    /// The stored text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }

    /// Pack into two little-endian words for the ring's atomic slots.
    fn pack(self) -> [u64; 2] {
        let mut bytes = [0u8; 16];
        bytes[0] = self.len;
        bytes[1..].copy_from_slice(&self.buf);
        [
            u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            u64::from_le_bytes(bytes[8..].try_into().unwrap()),
        ]
    }

    /// Inverse of [`SmallStr::pack`]. The length is clamped defensively;
    /// `as_str` additionally validates UTF-8, so arbitrary words can
    /// never produce an invalid string.
    fn unpack(words: [u64; 2]) -> SmallStr {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&words[0].to_le_bytes());
        bytes[8..].copy_from_slice(&words[1].to_le_bytes());
        let mut buf = [0u8; 15];
        buf.copy_from_slice(&bytes[1..]);
        SmallStr {
            len: bytes[0].min(15),
            buf,
        }
    }
}

/// Verdict classification of a finished request — the engine verdicts
/// plus the serve-layer outcomes that never reach the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum VerdictClass {
    /// Satisfiable (witness found).
    Sat,
    /// Proven unsatisfiable.
    Unsat,
    /// Deadline expired.
    Timeout,
    /// Cancelled before a verdict.
    Cancelled,
    /// The request errored (panic, analysis failure).
    #[default]
    Error,
    /// A non-verdict op (hsa / paths / sleep) answered normally.
    Ok,
    /// Shed by the full admission queue.
    Overloaded,
    /// Refused during drain.
    ShuttingDown,
    /// The request line did not parse.
    BadRequest,
    /// An endpoint name did not resolve against the model.
    ResolveFailed,
    /// The worker disappeared before answering.
    WorkerLost,
}

impl VerdictClass {
    /// Stable lowercase label, used in JSON and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictClass::Sat => "sat",
            VerdictClass::Unsat => "unsat",
            VerdictClass::Timeout => "timeout",
            VerdictClass::Cancelled => "cancelled",
            VerdictClass::Error => "error",
            VerdictClass::Ok => "ok",
            VerdictClass::Overloaded => "overloaded",
            VerdictClass::ShuttingDown => "shutting_down",
            VerdictClass::BadRequest => "bad_request",
            VerdictClass::ResolveFailed => "resolve_failed",
            VerdictClass::WorkerLost => "worker_lost",
        }
    }

    /// Inverse of `self as u8` for ring decoding; unknown values (which
    /// a validated seqlock read never produces) fall back to the default.
    fn from_u8(v: u8) -> VerdictClass {
        match v {
            0 => VerdictClass::Sat,
            1 => VerdictClass::Unsat,
            2 => VerdictClass::Timeout,
            3 => VerdictClass::Cancelled,
            5 => VerdictClass::Ok,
            6 => VerdictClass::Overloaded,
            7 => VerdictClass::ShuttingDown,
            8 => VerdictClass::BadRequest,
            9 => VerdictClass::ResolveFailed,
            10 => VerdictClass::WorkerLost,
            _ => VerdictClass::Error,
        }
    }

    /// Did the request fail at the serve layer (as opposed to carrying an
    /// engine verdict or a normal non-verdict answer)?
    pub fn is_serve_error(self) -> bool {
        matches!(
            self,
            VerdictClass::Error
                | VerdictClass::Overloaded
                | VerdictClass::ShuttingDown
                | VerdictClass::BadRequest
                | VerdictClass::ResolveFailed
                | VerdictClass::WorkerLost
        )
    }
}

/// Which backend answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum BackendClass {
    /// No backend ran (errors, non-verdict ops, joiners).
    #[default]
    None,
    /// The BDD pipeline decided.
    Bdd,
    /// The SAT/SMT pipeline decided.
    Smt,
    /// Served from the result cache.
    Cache,
}

impl BackendClass {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendClass::None => "none",
            BackendClass::Bdd => "bdd",
            BackendClass::Smt => "smt",
            BackendClass::Cache => "cache",
        }
    }

    /// Inverse of `self as u8` for ring decoding.
    fn from_u8(v: u8) -> BackendClass {
        match v {
            1 => BackendClass::Bdd,
            2 => BackendClass::Smt,
            3 => BackendClass::Cache,
            _ => BackendClass::None,
        }
    }
}

/// Record flag: the verdict came from the result cache.
pub const FLAG_CACHE_HIT: u8 = 1 << 0;
/// Record flag: the request coalesced onto an identical in-flight leader.
pub const FLAG_COALESCED: u8 = 1 << 1;
/// Record flag: solved through a warm solver session.
pub const FLAG_SESSION: u8 = 1 << 2;

/// One finished request, as kept by the ring and the slow table.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestRecord {
    /// Monotonic process-wide request id (from [`RequestCtx::mint`]).
    pub id: u64,
    /// Microseconds since the flight-recorder epoch (process start).
    pub start_us: u64,
    /// Request wall latency in microseconds.
    pub latency_us: u64,
    /// Composite model fingerprint the request was admitted under.
    pub model: u64,
    /// Model mutation generation at admission.
    pub generation: u64,
    /// Leader's request id when coalesced (0 otherwise).
    pub leader: u64,
    /// Operation (`reach`, `drops`, `sleep`, ...).
    pub op: SmallStr,
    /// Source endpoint, as given by the client.
    pub src: SmallStr,
    /// Destination endpoint.
    pub dst: SmallStr,
    /// How the request ended.
    pub verdict: VerdictClass,
    /// Which backend decided.
    pub backend: BackendClass,
    /// `FLAG_*` bits.
    pub flags: u8,
    /// Heap bytes the worker allocated serving this request, as tallied
    /// by [`crate::profile::CountingAlloc`]. Zero unless a
    /// [`crate::trace::Capture`] was live while the request ran.
    pub alloc_bytes: u64,
    /// Allocation count behind `alloc_bytes` (same enablement rule).
    pub alloc_count: u64,
    /// Engine shard that served the request, stored as `shard_id + 1`;
    /// 0 means "not sharded" (threads mode / batch) and renders as -1.
    pub shard: u16,
}

/// Words per encoded [`RequestRecord`] in a ring slot.
const RECORD_WORDS: usize = 15;

impl RequestRecord {
    /// Encode into the ring's fixed word layout: eight u64 fields, three
    /// packed [`SmallStr`]s, and one word of verdict/backend/flags bytes.
    /// Explicit (de)serialization — rather than transmuting the struct —
    /// keeps the atomic slot words free of padding/uninit bytes.
    fn encode(&self) -> [u64; RECORD_WORDS] {
        let op = self.op.pack();
        let src = self.src.pack();
        let dst = self.dst.pack();
        [
            self.id,
            self.start_us,
            self.latency_us,
            self.model,
            self.generation,
            self.leader,
            self.alloc_bytes,
            self.alloc_count,
            op[0],
            op[1],
            src[0],
            src[1],
            dst[0],
            dst[1],
            u64::from(self.verdict as u8)
                | u64::from(self.backend as u8) << 8
                | u64::from(self.flags) << 16
                | u64::from(self.shard) << 24,
        ]
    }

    /// Inverse of [`RequestRecord::encode`].
    fn decode(words: &[u64; RECORD_WORDS]) -> RequestRecord {
        RequestRecord {
            id: words[0],
            start_us: words[1],
            latency_us: words[2],
            model: words[3],
            generation: words[4],
            leader: words[5],
            alloc_bytes: words[6],
            alloc_count: words[7],
            op: SmallStr::unpack([words[8], words[9]]),
            src: SmallStr::unpack([words[10], words[11]]),
            dst: SmallStr::unpack([words[12], words[13]]),
            verdict: VerdictClass::from_u8(words[14] as u8),
            backend: BackendClass::from_u8((words[14] >> 8) as u8),
            flags: (words[14] >> 16) as u8,
            shard: (words[14] >> 24) as u16,
        }
    }

    /// Write as one JSON object.
    fn write_json(&self, w: &mut crate::json::Writer) {
        w.obj(|w| {
            w.field("req", self.id)
                .field("start_us", self.start_us)
                .field("latency_us", self.latency_us)
                .field("op", self.op.as_str())
                .field("src", self.src.as_str())
                .field("dst", self.dst.as_str())
                .field("verdict", self.verdict.as_str())
                .field("backend", self.backend.as_str())
                .field("cache_hit", self.flags & FLAG_CACHE_HIT != 0)
                .field("coalesced", self.flags & FLAG_COALESCED != 0)
                .field("session", self.flags & FLAG_SESSION != 0)
                .field("leader", self.leader)
                .field("model", format!("{:016x}", self.model))
                .field("generation", self.generation)
                .field("alloc_bytes", self.alloc_bytes)
                .field("alloc_count", self.alloc_count)
                .field("shard", i64::from(self.shard) - 1);
        });
    }
}

/// Request identity and model provenance, minted once per request at
/// admission and threaded through spans, the coalescer, and the flight
/// record.
#[derive(Clone, Copy, Debug)]
pub struct RequestCtx {
    /// Monotonic process-wide request id (never 0).
    pub id: u64,
    /// Composite model fingerprint at admission.
    pub model: u64,
    /// Model mutation generation at admission.
    pub generation: u64,
    /// Serving shard as `shard_id + 1`; 0 until (unless) the reactor
    /// routes the request to a shard.
    pub shard: u16,
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

impl RequestCtx {
    /// Mint the next request id, stamped with the model identity the
    /// request is being admitted under.
    pub fn mint(model: u64, generation: u64) -> RequestCtx {
        RequestCtx {
            id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
            model,
            generation,
            shard: 0,
        }
    }
}

/// One seqlock slot: an odd sequence marks a write in progress; a reader
/// accepts a copy only when the sequence was even and unchanged around
/// it. The payload is relaxed `AtomicU64` words (the encoded record) so
/// a read racing a write yields defined — if torn — values that the
/// sequence check then discards; no `unsafe` anywhere on this path.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; RECORD_WORDS],
}

struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

struct Flight {
    ring: Ring,
    slow: Mutex<Vec<RequestRecord>>,
    /// Latency floor for the slow table: requests at or below it cannot
    /// displace an entry, so the common (fast) path never takes the lock.
    slow_floor: AtomicU64,
    epoch: Instant,
}

static FLIGHT: OnceLock<Flight> = OnceLock::new();
static CONFIGURED_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

fn new_flight(capacity: usize) -> Flight {
    let capacity = capacity.max(16);
    let slots = (0..capacity)
        .map(|_| Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        })
        .collect();
    Flight {
        ring: Ring {
            slots,
            head: AtomicU64::new(0),
        },
        slow: Mutex::new(Vec::with_capacity(SLOW_K)),
        slow_floor: AtomicU64::new(0),
        epoch: Instant::now(),
    }
}

fn flight() -> &'static Flight {
    FLIGHT.get_or_init(|| new_flight(CONFIGURED_CAPACITY.load(Ordering::Relaxed)))
}

/// Set the ring capacity (in records) before the first record is written.
/// Once the recorder has materialized, the capacity is fixed; a late call
/// is a silent no-op — resizing a lock-free ring under writers is not
/// worth the complexity for a debug facility.
pub fn set_capacity(records: usize) {
    CONFIGURED_CAPACITY.store(records.max(16), Ordering::Relaxed);
}

/// Ring capacity currently in effect.
pub fn capacity() -> usize {
    flight().ring.slots.len()
}

/// Microseconds since the flight-recorder epoch, for stamping
/// [`RequestRecord::start_us`].
pub fn now_us() -> u64 {
    flight().epoch.elapsed().as_micros() as u64
}

/// Append one finished request. Lock-free: one `fetch_add` plus a
/// seqlock-guarded 15-word store; never allocates, never blocks.
pub fn record(rec: RequestRecord) {
    let f = flight();
    let ticket = f.ring.head.fetch_add(1, Ordering::Relaxed);
    let slot = &f.ring.slots[(ticket % f.ring.slots.len() as u64) as usize];
    // Claim: odd sequence tells readers a write is in progress, and is
    // only ever taken from an even one. A writer that stalls mid-write for
    // a full ring-lap would otherwise share its slot with the writer that
    // lapped it: their words interleave under a sequence either may
    // publish last, and a reader accepts the mix (seen as a hung tier-1
    // test, then diagnosed, in PR 24). The later writer drops its record
    // instead — the recorder is lossy by design, a torn record is not.
    // The release fence keeps the relaxed data stores below from becoming
    // visible before the odd claim — a reader that observes any of them
    // (relaxed loads + acquire fence) then re-reads `seq` and sees the
    // odd value. A release *store* of the claim would not give that
    // ordering; release only orders earlier operations.
    let claimed = ticket.wrapping_mul(2).wrapping_add(1);
    let seen = slot.seq.load(Ordering::Relaxed);
    let claim = |seen| {
        slot.seq
            .compare_exchange(seen, claimed, Ordering::Relaxed, Ordering::Relaxed)
    };
    if seen & 1 == 0 && claim(seen).is_ok() {
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(rec.encode()) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(claimed.wrapping_add(1), Ordering::Release);
    }

    // Slow-table admission. Fast path: one relaxed load against the
    // current floor. The floor only rises, so a stale read can cause at
    // worst one unnecessary lock, never a missed admission.
    if rec.latency_us > f.slow_floor.load(Ordering::Relaxed) {
        maybe_admit_slow(f, rec);
    }
}

fn maybe_admit_slow(f: &Flight, rec: RequestRecord) {
    if rec.latency_us <= f.slow_floor.load(Ordering::Relaxed) {
        return;
    }
    let mut slow = f.slow.lock().unwrap();
    if slow.len() < SLOW_K {
        slow.push(rec);
    } else {
        let (mi, min) = slow
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.latency_us)
            .map(|(i, r)| (i, r.latency_us))
            .unwrap();
        if rec.latency_us <= min {
            return;
        }
        slow[mi] = rec;
    }
    if slow.len() == SLOW_K {
        let floor = slow.iter().map(|r| r.latency_us).min().unwrap_or(0);
        f.slow_floor.store(floor, Ordering::Relaxed);
    }
}

/// Copy out the ring's live records, oldest first. Torn slots (a writer
/// was mid-store) are skipped; with the ring orders of magnitude larger
/// than the writer count, that loses at most a handful of records.
pub fn snapshot() -> Vec<RequestRecord> {
    let f = flight();
    let head = f.ring.head.load(Ordering::Acquire);
    let cap = f.ring.slots.len() as u64;
    let live = head.min(cap);
    let mut out = Vec::with_capacity(live as usize);
    // Oldest live ticket first.
    for ticket in head.saturating_sub(cap)..head {
        let slot = &f.ring.slots[(ticket % cap) as usize];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 % 2 == 1 {
            continue;
        }
        let mut words = [0u64; RECORD_WORDS];
        for (copy, word) in words.iter_mut().zip(&slot.words) {
            *copy = word.load(Ordering::Relaxed);
        }
        // The acquire fence keeps the relaxed data loads above from
        // sinking below the `seq` re-read: a load that raced a writer's
        // store makes that writer's odd claim visible to the re-read
        // (release fence in `record`), so the copy is discarded.
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 == s2 && s1 != 0 {
            out.push(RequestRecord::decode(&words));
        }
    }
    out
}

/// The slow-query table, slowest first. At most [`SLOW_K`] entries.
pub fn slow_snapshot() -> Vec<RequestRecord> {
    let mut slow = flight().slow.lock().unwrap().clone();
    slow.sort_by_key(|r| std::cmp::Reverse(r.latency_us));
    slow
}

/// Total requests recorded since startup (including ones since
/// overwritten by ring wrap).
pub fn records_written() -> u64 {
    flight().ring.head.load(Ordering::Relaxed)
}

/// Render `records` as a JSON array (`/debug/requests`, `/debug/slow`).
pub fn render_json(records: &[RequestRecord]) -> String {
    let mut w = crate::json::Writer::with_capacity(records.len() * 320 + 2);
    w.arr(|w| records.iter().for_each(|r| r.write_json(w)));
    w.line()
}

/// Render the slow table as an aligned text table (CLI `batch` output).
pub fn render_slow_text() -> String {
    let slow = slow_snapshot();
    if slow.is_empty() {
        return "slow-query table: empty\n".to_string();
    }
    let mut out = String::from(
        "slow-query table (top latencies since start)\n  req        latency      op        src->dst                verdict    backend\n",
    );
    for r in &slow {
        out.push_str(&format!(
            "  {:<10} {:>8}µs   {:<9} {:<23} {:<10} {}{}\n",
            r.id,
            r.latency_us,
            r.op.as_str(),
            format!("{}->{}", r.src.as_str(), r.dst.as_str()),
            r.verdict.as_str(),
            r.backend.as_str(),
            if r.flags & FLAG_CACHE_HIT != 0 {
                " (cache)"
            } else if r.flags & FLAG_COALESCED != 0 {
                " (coalesced)"
            } else {
                ""
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, latency_us: u64) -> RequestRecord {
        RequestRecord {
            id,
            latency_us,
            op: SmallStr::new("reach"),
            src: SmallStr::new("u1:1"),
            dst: SmallStr::new("u3:2"),
            verdict: VerdictClass::Sat,
            backend: BackendClass::Bdd,
            ..RequestRecord::default()
        }
    }

    #[test]
    fn small_str_truncates_on_char_boundary() {
        assert_eq!(SmallStr::new("reach").as_str(), "reach");
        assert_eq!(SmallStr::new("").as_str(), "");
        let long = "abcdefghijklmnopqrstuvwxyz";
        assert_eq!(SmallStr::new(long).as_str(), &long[..15]);
        // Multi-byte char straddling the cut is dropped whole.
        let uni = "aaaaaaaaaaaaaa\u{00e9}"; // 14 ASCII + 2-byte é = 16 bytes
        assert_eq!(SmallStr::new(uni).as_str(), "aaaaaaaaaaaaaa");
    }

    #[test]
    fn record_encoding_round_trips() {
        let mut r = rec(12_345, 678);
        r.start_us = 11;
        r.model = u64::MAX;
        r.generation = 7;
        r.leader = 9;
        r.alloc_bytes = 1 << 40;
        r.alloc_count = 3;
        r.flags = FLAG_CACHE_HIT | FLAG_SESSION;
        r.shard = 513;
        // The JSON covers every field, so equal JSON means a faithful trip.
        assert_eq!(
            render_json(&[RequestRecord::decode(&r.encode())]),
            render_json(&[r])
        );

        for verdict in [
            VerdictClass::Sat,
            VerdictClass::Unsat,
            VerdictClass::Timeout,
            VerdictClass::Cancelled,
            VerdictClass::Error,
            VerdictClass::Ok,
            VerdictClass::Overloaded,
            VerdictClass::ShuttingDown,
            VerdictClass::BadRequest,
            VerdictClass::ResolveFailed,
            VerdictClass::WorkerLost,
        ] {
            assert_eq!(VerdictClass::from_u8(verdict as u8), verdict);
        }
        for backend in [
            BackendClass::None,
            BackendClass::Bdd,
            BackendClass::Smt,
            BackendClass::Cache,
        ] {
            assert_eq!(BackendClass::from_u8(backend as u8), backend);
        }
    }

    #[test]
    fn mint_is_monotonic() {
        let a = RequestCtx::mint(1, 0);
        let b = RequestCtx::mint(1, 0);
        assert!(b.id > a.id);
        assert!(a.id > 0);
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        // The ring is shared with the four spinning writers of
        // `concurrent_writers_never_tear_records`, which lap it in under a
        // millisecond: on a loaded host a record can be overwritten before
        // this thread gets to look, so look more than once.
        let (snap, got) = (0..1000)
            .find_map(|_| {
                record(rec(u64::MAX - 7, 42));
                let snap = snapshot();
                let got = snap.iter().find(|r| r.id == u64::MAX - 7).copied()?;
                Some((snap, got))
            })
            .expect("record visible in snapshot");
        assert_eq!(got.latency_us, 42);
        assert_eq!(got.op.as_str(), "reach");
        assert_eq!(got.verdict, VerdictClass::Sat);
        crate::json::validate(&render_json(&snap)).unwrap();
    }

    #[test]
    fn slow_table_keeps_the_k_slowest() {
        // Ids in a disjoint range so parallel tests don't interfere.
        let base = 1 << 40;
        for i in 0..200u64 {
            record(rec(base + i, i * 1_000_000));
        }
        let slow = slow_snapshot();
        assert_eq!(slow.len(), SLOW_K);
        // Slowest first, strictly ordered.
        for w in slow.windows(2) {
            assert!(w[0].latency_us >= w[1].latency_us);
        }
        assert_eq!(slow[0].latency_us, 199_000_000);
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        use std::sync::atomic::AtomicBool;
        let stop = AtomicBool::new(false);
        let mut torn: Vec<RequestRecord> = Vec::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Self-consistent payload: latency == id low bits.
                        let id = (2 << 40) + t * 1_000_000 + i;
                        let mut r = rec(id, id & 0xffff);
                        r.generation = id & 0xffff;
                        record(r);
                        i += 1;
                    }
                });
            }
            // Collect, stop the writers, then judge: a panic inside the
            // scope would unwind past the store below and leave the scope
            // joining four spinning writers forever.
            for _ in 0..50 {
                // Only this test's ids: `record_and_snapshot_round_trip`
                // next door records u64::MAX - 7 with latency 42, which
                // an open-ended range would call torn.
                torn.extend(snapshot().into_iter().filter(|r| {
                    (2 << 40..3 << 40).contains(&r.id)
                        && (r.latency_us != r.id & 0xffff || r.generation != r.id & 0xffff)
                }));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(
            torn.is_empty(),
            "torn records escaped the seqlock: {torn:?}"
        );
    }
}
