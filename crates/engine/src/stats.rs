//! Per-query results and batch-level aggregation, with a printable
//! summary table.

use std::fmt;
use std::time::Duration;

use rzen::Backend;
use rzen_obs::json::Writer;

use crate::query::Verdict;

/// The engine's answer for one query, with provenance and timing.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Position in the input batch.
    pub index: usize,
    /// Query kind label (e.g. `"reach"`).
    pub kind: &'static str,
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock time this query took inside the engine (near zero for
    /// cache hits).
    pub latency: Duration,
    /// The backend that produced the verdict (`None` for cache hits and
    /// undecided queries).
    pub winner: Option<Backend>,
    /// Served from the structural-fingerprint cache.
    pub cache_hit: bool,
    /// CDCL counters from the SMT run, if one ran.
    pub sat_stats: Option<rzen_sat::Stats>,
    /// BDD manager counters from the BDD run, if one ran.
    pub bdd_stats: Option<rzen_bdd::BddStats>,
    /// Session reuse counters for this query (session mode only).
    pub session: Option<rzen::SessionStats>,
}

impl QueryResult {
    /// The deciding backend's wire name (`"bdd"` / `"smt"`), if one ran
    /// to a verdict.
    pub fn winner_name(&self) -> Option<&'static str> {
        self.winner.map(|b| match b {
            Backend::Bdd => "bdd",
            Backend::Smt => "smt",
        })
    }

    /// Classify which backend answered, for the flight recorder: cache
    /// hits trump the (absent) winner, undecided queries map to `None`.
    pub fn backend_class(&self) -> rzen_obs::BackendClass {
        if self.cache_hit {
            return rzen_obs::BackendClass::Cache;
        }
        match self.winner {
            Some(Backend::Bdd) => rzen_obs::BackendClass::Bdd,
            Some(Backend::Smt) => rzen_obs::BackendClass::Smt,
            None => rzen_obs::BackendClass::None,
        }
    }

    /// The flight-recorder flag bits this result sets: served from the
    /// cache, solved through a warm session.
    pub fn flight_flags(&self) -> u8 {
        use rzen_obs::flight::{FLAG_CACHE_HIT, FLAG_SESSION};
        let mut flags = 0;
        if self.cache_hit {
            flags |= FLAG_CACHE_HIT;
        }
        if self.session.is_some() {
            flags |= FLAG_SESSION;
        }
        flags
    }
}

/// Everything [`crate::Engine::run_batch`] returns.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-query results, in input order.
    pub results: Vec<QueryResult>,
    /// Batch-level aggregation.
    pub stats: EngineStats,
}

impl BatchReport {
    /// Serialize the full report as a JSON object: per-query results (in
    /// input order), the batch-level aggregation, and a snapshot of the
    /// global `rzen-obs` metrics registry.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096);
        w.obj(|w| {
            w.key("results").arr(|w| {
                for r in &self.results {
                    w.obj(|w| {
                        w.field("index", r.index)
                            .field("kind", r.kind)
                            .field("verdict", r.verdict.class().as_str())
                            .field("latency_us", r.latency.as_micros())
                            .field("winner", r.winner_name())
                            .field("cache_hit", r.cache_hit);
                    });
                }
            });
            let s = &self.stats;
            w.key("stats").obj(|w| {
                w.field("total", s.total)
                    .field("sat", s.sat)
                    .field("unsat", s.unsat)
                    .field("timeout", s.timeout)
                    .field("cancelled", s.cancelled)
                    .field("errors", s.errors)
                    .field("cache_hits", s.cache_hits)
                    .field("bdd_wins", s.bdd_wins)
                    .field("smt_wins", s.smt_wins)
                    .field("wall_us", s.wall.as_micros())
                    .field("latency_p50_us", s.latency_p50.as_micros())
                    .field("latency_p95_us", s.latency_p95.as_micros())
                    .field("latency_max_us", s.latency_max.as_micros())
                    .field("sat_conflicts", s.sat_conflicts)
                    .field("sat_propagations", s.sat_propagations)
                    .field("sat_learned", s.sat_learned)
                    .field("sat_restarts", s.sat_restarts)
                    .field("sat_deleted", s.sat_deleted)
                    .field("sat_gcs", s.sat_gcs)
                    .field("sat_lbd_sum", s.sat_lbd_sum)
                    .field("bdd_nodes", s.bdd_nodes)
                    .field("bdd_cache_lookups", s.bdd_cache_lookups)
                    .field("bdd_cache_hits", s.bdd_cache_hits)
                    .field("session_bitblast_hits", s.session_bitblast_hits)
                    .field("session_sat_carried", s.session_sat_carried)
                    .field("session_bdd_reused", s.session_bdd_reused);
            });
            w.key("metrics");
            rzen_obs::metrics::registry().write_json(w);
        });
        w.finish()
    }

    /// Serialize only the verdicts, `{"verdicts":[{index,kind,verdict}..]}`
    /// plus a newline. Latencies, winners and session counters may
    /// legitimately differ between runs and between session scopes, so
    /// this is the byte-stable view for diffing one mode against another.
    pub fn verdicts_json(&self) -> String {
        let mut w = Writer::with_capacity(64 * self.results.len() + 16);
        w.obj(|w| {
            w.key("verdicts").arr(|w| {
                for r in &self.results {
                    w.obj(|w| {
                        w.field("index", r.index)
                            .field("kind", r.kind)
                            .field("verdict", r.verdict.class().as_str());
                    });
                }
            });
        });
        w.line()
    }
}

/// Aggregated observability counters for a batch.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Total queries in the batch.
    pub total: usize,
    /// Verdict counts.
    pub sat: usize,
    /// Proven-unsat count.
    pub unsat: usize,
    /// Deadline expiries.
    pub timeout: usize,
    /// Explicit cancellations.
    pub cancelled: usize,
    /// Queries that panicked inside a worker.
    pub errors: usize,
    /// Queries served from the result cache.
    pub cache_hits: usize,
    /// Queries decided by the BDD backend.
    pub bdd_wins: usize,
    /// Queries decided by the SAT backend.
    pub smt_wins: usize,
    /// Wall clock for the whole batch.
    pub wall: Duration,
    /// Median per-query latency.
    pub latency_p50: Duration,
    /// 95th-percentile per-query latency.
    pub latency_p95: Duration,
    /// Slowest query.
    pub latency_max: Duration,
    /// Summed CDCL conflicts across all SMT runs.
    pub sat_conflicts: u64,
    /// Summed CDCL propagations.
    pub sat_propagations: u64,
    /// Summed learnt clauses.
    pub sat_learned: u64,
    /// Summed restarts.
    pub sat_restarts: u64,
    /// Summed learnt clauses deleted by reduction/simplification.
    pub sat_deleted: u64,
    /// Summed clause-arena garbage collections.
    pub sat_gcs: u64,
    /// Summed LBD (glue) of learnt clauses; `/ sat_learned` is the
    /// average glue across the batch.
    pub sat_lbd_sum: u64,
    /// Summed BDD nodes allocated across all BDD runs.
    pub bdd_nodes: u64,
    /// Summed computed-cache lookups.
    pub bdd_cache_lookups: u64,
    /// Summed computed-cache hits.
    pub bdd_cache_hits: u64,
    /// Bitblast-cache lookups served across queries (session mode).
    pub session_bitblast_hits: u64,
    /// Learnt clauses carried into queries (session mode).
    pub session_sat_carried: u64,
    /// BDD nodes alive at query start, summed (session mode).
    pub session_bdd_reused: u64,
}

impl EngineStats {
    /// Fold per-query results into batch counters.
    pub fn aggregate(results: &[QueryResult], wall: Duration) -> EngineStats {
        let mut s = EngineStats {
            total: results.len(),
            wall,
            ..EngineStats::default()
        };
        let mut latencies: Vec<Duration> = Vec::with_capacity(results.len());
        for r in results {
            match &r.verdict {
                Verdict::Sat(_) => s.sat += 1,
                Verdict::Unsat => s.unsat += 1,
                Verdict::Timeout => s.timeout += 1,
                Verdict::Cancelled => s.cancelled += 1,
                Verdict::Error(_) => s.errors += 1,
            }
            if r.cache_hit {
                s.cache_hits += 1;
            }
            match r.winner {
                Some(Backend::Bdd) => s.bdd_wins += 1,
                Some(Backend::Smt) => s.smt_wins += 1,
                None => {}
            }
            if let Some(st) = r.sat_stats {
                s.sat_conflicts += st.conflicts;
                s.sat_propagations += st.propagations;
                s.sat_learned += st.learned_clauses;
                s.sat_restarts += st.restarts;
                s.sat_deleted += st.deleted_clauses;
                s.sat_gcs += st.gcs;
                s.sat_lbd_sum += st.lbd_sum;
            }
            if let Some(st) = r.bdd_stats {
                s.bdd_nodes += st.nodes as u64;
                s.bdd_cache_lookups += st.cache_lookups;
                s.bdd_cache_hits += st.cache_hits;
            }
            if let Some(st) = r.session {
                s.session_bitblast_hits += st.bitblast_hits;
                s.session_sat_carried += st.sat_clauses_carried;
                s.session_bdd_reused += st.bdd_nodes_reused;
            }
            latencies.push(r.latency);
        }
        latencies.sort();
        s.latency_p50 = percentile(&latencies, 50);
        s.latency_p95 = percentile(&latencies, 95);
        s.latency_max = latencies.last().copied().unwrap_or(Duration::ZERO);
        s
    }

    /// Nearest-rank percentile over the batch's latencies: the value at
    /// rank `⌈p/100·n⌉` of the sorted list. Well-defined for every batch
    /// size — an empty batch reports zero, and a single sample is every
    /// percentile of itself.
    pub fn latency_percentile(results: &[QueryResult], p: u32) -> Duration {
        let mut latencies: Vec<Duration> = results.iter().map(|r| r.latency).collect();
        latencies.sort();
        percentile(&latencies, p)
    }

    /// Cache hit rate over the batch, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total as f64
        }
    }

    /// Aggregate BDD computed-cache hit rate, in `[0, 1]`.
    pub fn bdd_cache_hit_rate(&self) -> f64 {
        if self.bdd_cache_lookups == 0 {
            0.0
        } else {
            self.bdd_cache_hits as f64 / self.bdd_cache_lookups as f64
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted list. Empty input is
/// zero; a single sample answers every percentile. Never panics, never
/// divides by zero.
fn percentile(sorted: &[Duration], p: u32) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine summary")?;
        writeln!(
            f,
            "  queries      {:>8}   wall {:>10}",
            self.total,
            fmt_dur(self.wall)
        )?;
        writeln!(
            f,
            "  verdicts     sat {} / unsat {} / timeout {} / cancelled {} / errors {}",
            self.sat, self.unsat, self.timeout, self.cancelled, self.errors
        )?;
        writeln!(
            f,
            "  latency      p50 {:>10}   p95 {:>10}   max {:>10}",
            fmt_dur(self.latency_p50),
            fmt_dur(self.latency_p95),
            fmt_dur(self.latency_max)
        )?;
        writeln!(
            f,
            "  backend wins bdd {} / smt {}",
            self.bdd_wins, self.smt_wins
        )?;
        writeln!(
            f,
            "  cache        {} hits / {} queries ({:.0}%)",
            self.cache_hits,
            self.total,
            self.cache_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "  sat substrate  conflicts {} / props {} / learned {} / restarts {}",
            self.sat_conflicts, self.sat_propagations, self.sat_learned, self.sat_restarts
        )?;
        writeln!(
            f,
            "  sat clause db  deleted {} / gcs {} / avg glue {:.1}",
            self.sat_deleted,
            self.sat_gcs,
            if self.sat_learned == 0 {
                0.0
            } else {
                self.sat_lbd_sum as f64 / self.sat_learned as f64
            }
        )?;
        write!(
            f,
            "  bdd substrate  nodes {} / computed-cache hit rate {:.0}%",
            self.bdd_nodes,
            self.bdd_cache_hit_rate() * 100.0
        )?;
        if self.session_bitblast_hits + self.session_sat_carried + self.session_bdd_reused > 0 {
            write!(
                f,
                "\n  session reuse  bitblast hits {} / sat clauses carried {} / bdd nodes kept {}",
                self.session_bitblast_hits, self.session_sat_carried, self.session_bdd_reused
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(index: usize, latency_ms: u64) -> QueryResult {
        QueryResult {
            index,
            kind: "reach",
            verdict: Verdict::Unsat,
            latency: Duration::from_millis(latency_ms),
            winner: Some(Backend::Bdd),
            cache_hit: false,
            sat_stats: None,
            bdd_stats: None,
            session: None,
        }
    }

    #[test]
    fn aggregate_empty_batch_is_well_defined() {
        let s = EngineStats::aggregate(&[], Duration::from_millis(1));
        assert_eq!(s.total, 0);
        assert_eq!(s.latency_p50, Duration::ZERO);
        assert_eq!(s.latency_p95, Duration::ZERO);
        assert_eq!(s.latency_max, Duration::ZERO);
        // The derived rates must be numbers, not NaN.
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.bdd_cache_hit_rate(), 0.0);
    }

    #[test]
    fn aggregate_single_result_is_every_percentile() {
        let r = [result(0, 7)];
        let s = EngineStats::aggregate(&r, Duration::from_millis(8));
        assert_eq!(s.latency_p50, Duration::from_millis(7));
        assert_eq!(s.latency_p95, Duration::from_millis(7));
        assert_eq!(s.latency_max, Duration::from_millis(7));
    }

    #[test]
    fn aggregate_percentiles_use_nearest_rank() {
        // 1ms..=100ms: nearest-rank p50 is the 50th sample, p95 the 95th.
        let rs: Vec<QueryResult> = (1..=100).map(|ms| result(ms as usize, ms)).collect();
        let s = EngineStats::aggregate(&rs, Duration::from_secs(1));
        assert_eq!(s.latency_p50, Duration::from_millis(50));
        assert_eq!(s.latency_p95, Duration::from_millis(95));
        assert_eq!(s.latency_max, Duration::from_millis(100));
    }

    #[test]
    fn aggregate_two_results_percentiles_in_range() {
        let rs = [result(0, 2), result(1, 10)];
        let s = EngineStats::aggregate(&rs, Duration::from_millis(12));
        assert_eq!(s.latency_p50, Duration::from_millis(2));
        assert_eq!(s.latency_p95, Duration::from_millis(10));
        assert_eq!(s.latency_max, Duration::from_millis(10));
    }

    #[test]
    fn batch_report_json_is_valid() {
        let results = vec![result(0, 3), result(1, 5)];
        let stats = EngineStats::aggregate(&results, Duration::from_millis(9));
        let report = BatchReport { results, stats };
        let json = report.to_json();
        rzen_obs::json::validate(&json).expect("report JSON must parse");
        assert!(json.contains("\"latency_p50_us\":3000"));
        assert!(json.contains("\"verdict\":\"unsat\""));
    }
}
