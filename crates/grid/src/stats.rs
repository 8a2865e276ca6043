//! End-to-end statistics of a grid simulation: job response times,
//! throughput, availability under faults, and the underlying cache
//! metrics.

use crate::time::SimDuration;
use fbc_sim::metrics::Metrics;
use fbc_sim::report::{f4, Table};
use std::collections::BTreeMap;

/// Exact bounded accumulator of job response times.
///
/// The engines used to push one `SimDuration` per completed job into an
/// ever-growing vector just to answer mean/p95 — a million-job run
/// carried an 8 MB+ log, and every percentile call cloned and re-sorted
/// it (twice per rendered report). This accumulator keeps a running sum
/// plus an ordered `micros → count` histogram, so memory is bounded by
/// the number of *distinct* response times, quantiles are exact
/// (nearest-rank over the ordered counts, no sort ever) and the report
/// renders without cloning anything.
///
/// The per-job log survives behind the [`GridStats`] driver's
/// `full_response_log` opt-in ([`crate::engine::GridConfig`]): only runs
/// that ask for completion-order response times pay for storing them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResponseStats {
    count: u64,
    sum_micros: u128,
    hist: BTreeMap<u64, u64>,
    full_log: Option<Vec<SimDuration>>,
}

impl ResponseStats {
    /// A fresh accumulator without the per-job log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh accumulator that additionally keeps every response time in
    /// completion order (unbounded — one entry per completed job).
    pub fn with_full_log() -> Self {
        Self {
            full_log: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Turns on the per-job log (no-op if already on). Call before the
    /// first [`record`](Self::record); samples recorded earlier are not
    /// back-filled.
    pub fn enable_full_log(&mut self) {
        self.full_log.get_or_insert_with(Vec::new);
    }

    /// Folds one completed job's response time into the accumulator.
    pub fn record(&mut self, rt: SimDuration) {
        self.count += 1;
        self.sum_micros += u128::from(rt.micros());
        *self.hist.entry(rt.micros()).or_insert(0) += 1;
        if let Some(log) = &mut self.full_log {
            log.push(rt);
        }
    }

    /// Number of recorded response times.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean response time, or zero when nothing was recorded (integer
    /// microsecond division, matching the previous vector-based mean).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.sum_micros / u128::from(self.count)) as u64)
    }

    /// Exact nearest-rank `q`-quantile (`0.0 ..= 1.0`), zero when empty.
    ///
    /// A single cumulative walk over the ordered histogram — no clone, no
    /// sort — with the same semantics as [`fbc_obs::quantile`].
    pub fn quantile(&self, q: f64) -> SimDuration {
        let n = usize::try_from(self.count).unwrap_or(usize::MAX);
        let Some(idx) = fbc_obs::quantile::nearest_rank_index(q, n) else {
            return SimDuration::ZERO;
        };
        let rank = idx as u64; // 0-based rank among the sorted samples
        let mut seen = 0u64;
        for (&micros, &c) in &self.hist {
            seen += c;
            if seen > rank {
                return SimDuration(micros);
            }
        }
        SimDuration::ZERO // unreachable for a consistent accumulator
    }

    /// Largest recorded response time (zero when empty).
    pub fn max(&self) -> SimDuration {
        self.hist
            .keys()
            .next_back()
            .map_or(SimDuration::ZERO, |&m| SimDuration(m))
    }

    /// The completion-order per-job log, if the opt-in was active.
    pub fn full_log(&self) -> Option<&[SimDuration]> {
        self.full_log.as_deref()
    }

    /// Folds another accumulator into this one. The per-job log is
    /// concatenated only when both sides keep one (shard merges append in
    /// shard order, so a merged log is per-shard completion order, not
    /// global completion order).
    pub fn merge(&mut self, other: &ResponseStats) {
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        for (&micros, &c) in &other.hist {
            *self.hist.entry(micros).or_insert(0) += c;
        }
        if let (Some(log), Some(other_log)) = (&mut self.full_log, &other.full_log) {
            log.extend_from_slice(other_log);
        }
    }
}

/// Results of one grid run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridStats {
    /// Cache-level accounting (hits, bytes fetched, …).
    pub cache: Metrics,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs rejected (bundle larger than the entire cache).
    pub rejected: u64,
    /// Jobs that exhausted their fetch retry budget and were abandoned.
    pub failed: u64,
    /// Fetch attempts issued to the MSS + link (first tries and retries).
    pub fetch_attempts: u64,
    /// Retries scheduled after a failed or timed-out fetch attempt.
    pub fetch_retries: u64,
    /// Fetch attempts abandoned at the timeout deadline (or immediately,
    /// when the service can never complete the read and no timeout is
    /// configured).
    pub fetch_timeouts: u64,
    /// Fetch attempts that completed their transfer but failed transiently.
    pub transient_fetch_errors: u64,
    /// Response times (arrival → completion) of completed jobs.
    pub responses: ResponseStats,
    /// Virtual time at which the last job completed.
    pub makespan: SimDuration,
}

impl GridStats {
    /// Mean response time, or zero when nothing completed.
    pub fn mean_response(&self) -> SimDuration {
        self.responses.mean()
    }

    /// The `p`-th percentile response time (`0.0 ..= 1.0`), nearest-rank.
    ///
    /// Uses the workspace-wide semantics of [`fbc_obs::quantile`] — the
    /// same as `LatencyStats::quantile`. Exact and sort-free: the
    /// accumulator keeps an ordered histogram (see [`ResponseStats`]).
    pub fn percentile_response(&self, p: f64) -> SimDuration {
        self.responses.quantile(p)
    }

    /// Folds another run's statistics into this one — the deterministic
    /// shard merge used by [`crate::concurrent`]: counters sum, cache
    /// metrics merge, response accumulators merge, and the makespan is
    /// the latest completion across shards (throughput of the merged
    /// stats is total completions over that shared virtual-time span).
    pub fn merge_shard(&mut self, other: &GridStats) {
        self.cache.merge(&other.cache);
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.fetch_attempts += other.fetch_attempts;
        self.fetch_retries += other.fetch_retries;
        self.fetch_timeouts += other.fetch_timeouts;
        self.transient_fetch_errors += other.transient_fetch_errors;
        self.responses.merge(&other.responses);
        self.makespan = self.makespan.max(other.makespan);
    }

    /// Completed jobs per second of virtual time.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Fraction of serviceable jobs that actually completed:
    /// `completed / (completed + failed)`. Rejected jobs (infeasibly large
    /// bundles) don't count against availability; a run with no
    /// serviceable jobs reports 1.0.
    pub fn availability(&self) -> f64 {
        let attempted = self.completed + self.failed;
        if attempted == 0 {
            1.0
        } else {
            self.completed as f64 / attempted as f64
        }
    }

    /// Renders the run as a two-column report.
    pub fn report(&self, policy: &str) -> GridReport {
        GridReport::new(policy, self)
    }
}

/// Results of a grid run over one or more SRM nodes
/// ([`crate::engine::run_grid_topology`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiGridStats {
    /// Aggregated over all nodes.
    pub overall: GridStats,
    /// Per-node statistics, indexed by node id. Empty for a one-node grid,
    /// whose node's statistics are `overall`.
    pub per_node: Vec<GridStats>,
    /// Jobs routed to each node.
    pub routed: Vec<u64>,
}

impl MultiGridStats {
    /// Max/mean routing imbalance: 1.0 is perfectly balanced.
    pub fn routing_imbalance(&self) -> f64 {
        let Some(&max) = self.routed.iter().max() else {
            return 1.0;
        };
        let mean = self.routed.iter().sum::<u64>() as f64 / self.routed.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max as f64 / mean
        }
    }
}

/// A rendered summary of one grid run.
///
/// The rendering is a pure function of the statistics, so determinism
/// tests can compare two runs byte for byte via [`GridReport::as_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridReport {
    text: String,
}

impl GridReport {
    /// Builds the report table for `stats` produced by `policy`.
    pub fn new(policy: &str, stats: &GridStats) -> Self {
        let mut t = Table::new(["metric", "value"]);
        t.add_row(["policy", policy]);
        t.add_row(["completed", &stats.completed.to_string()]);
        t.add_row(["failed", &stats.failed.to_string()]);
        t.add_row(["rejected", &stats.rejected.to_string()]);
        t.add_row(["availability", &f4(stats.availability())]);
        t.add_row(["byte miss ratio", &f4(stats.cache.byte_miss_ratio())]);
        t.add_row(["fetch attempts", &stats.fetch_attempts.to_string()]);
        t.add_row(["fetch retries", &stats.fetch_retries.to_string()]);
        t.add_row(["fetch timeouts", &stats.fetch_timeouts.to_string()]);
        t.add_row([
            "transient errors",
            &stats.transient_fetch_errors.to_string(),
        ]);
        t.add_row(["mean response", &stats.mean_response().to_string()]);
        t.add_row(["p95 response", &stats.percentile_response(0.95).to_string()]);
        t.add_row(["makespan", &stats.makespan.to_string()]);
        t.add_row(["throughput (jobs/s)", &format!("{:.3}", stats.throughput())]);
        Self { text: t.to_ascii() }
    }

    /// The rendered report text.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for GridReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn responses(secs: impl IntoIterator<Item = u64>) -> ResponseStats {
        let mut r = ResponseStats::new();
        for s in secs {
            r.record(SimDuration::from_secs(s));
        }
        r
    }

    /// Regression (zero-denominator audit): every report-path quantity
    /// must be a defined, finite-or-conventional value on a run with zero
    /// attempts — no NaN anywhere the competitive-ratio harness or the
    /// grid reports can read.
    #[test]
    fn empty_run_reports_defined_values() {
        let s = GridStats::default();
        assert_eq!(s.availability(), 1.0, "no serviceable jobs → 1.0");
        assert!(!s.availability().is_nan());
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.cache.byte_miss_ratio(), 0.0);
        assert_eq!(s.cache.byte_hit_ratio(), 0.0);
        assert_eq!(s.cache.request_hit_ratio(), 0.0);
        assert_eq!(s.cache.request_miss_ratio(), 0.0);
        assert_eq!(s.mean_response(), SimDuration::default());
    }

    /// Regression (zero-denominator audit): merging empty shards must not
    /// manufacture NaN — an all-empty merge stays at the empty-run
    /// conventions, and empty shards merged into a live one leave its
    /// ratios untouched.
    #[test]
    fn merge_shard_of_empty_shards_keeps_values_defined() {
        let mut merged = GridStats::default();
        for _ in 0..4 {
            merged.merge_shard(&GridStats::default());
        }
        assert_eq!(merged.availability(), 1.0);
        assert!(!merged.availability().is_nan());
        assert_eq!(merged.throughput(), 0.0);
        assert_eq!(merged.cache.byte_miss_ratio(), 0.0);

        let mut live = GridStats {
            completed: 3,
            failed: 1,
            responses: responses([1, 2, 3]),
            makespan: SimDuration::from_secs(6),
            ..GridStats::default()
        };
        live.merge_shard(&GridStats::default());
        assert_eq!(live.availability(), 0.75);
        assert!((live.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn response_time_summaries() {
        let s = GridStats {
            responses: responses([1, 3, 2]),
            completed: 3,
            makespan: SimDuration::from_secs(6),
            ..GridStats::default()
        };
        assert_eq!(s.mean_response(), SimDuration::from_secs(2));
        assert_eq!(s.percentile_response(0.0), SimDuration::from_secs(1));
        assert_eq!(s.percentile_response(1.0), SimDuration::from_secs(3));
        assert_eq!(s.percentile_response(0.5), SimDuration::from_secs(2));
        assert!((s.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn even_length_percentiles_are_true_nearest_rank() {
        // Regression for the linear-indexing bug: with 4 samples at
        // p = 0.5 the nearest rank is ⌈0.5·4⌉ = 2, so the answer is the
        // 2nd element; round(0.5·(4−1)) picked the 3rd.
        let s = GridStats {
            responses: responses([4, 1, 3, 2]),
            ..GridStats::default()
        };
        assert_eq!(s.percentile_response(0.5), SimDuration::from_secs(2));
        assert_eq!(s.percentile_response(0.25), SimDuration::from_secs(1));
        assert_eq!(s.percentile_response(0.75), SimDuration::from_secs(3));
        assert_eq!(s.percentile_response(1.0), SimDuration::from_secs(4));
        // p95 over 14 samples: nearest rank ⌈0.95·14⌉ = 14 → the max;
        // the old linear index round(0.95·13) = 12 picked the 13th.
        let s = GridStats {
            responses: responses(1..=14),
            ..GridStats::default()
        };
        assert_eq!(s.percentile_response(0.95), SimDuration::from_secs(14));
    }

    #[test]
    fn accumulator_matches_sorted_vector_semantics() {
        // The accumulator must reproduce exactly what clone+sort+
        // nearest_rank produced on the old Vec<SimDuration> field,
        // including ties and truncating integer mean.
        let samples: Vec<u64> = vec![7, 3, 3, 9, 1, 3, 9, 2, 8, 8];
        let mut acc = ResponseStats::new();
        for &s in &samples {
            acc.record(SimDuration(s));
        }
        let mut sorted: Vec<SimDuration> = samples.iter().map(|&s| SimDuration(s)).collect();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                acc.quantile(q),
                fbc_obs::quantile::nearest_rank(&sorted, q).unwrap(),
                "q={q}"
            );
        }
        let total: u64 = samples.iter().sum();
        assert_eq!(acc.mean(), SimDuration(total / samples.len() as u64));
        assert_eq!(acc.len(), samples.len() as u64);
        assert_eq!(acc.max(), SimDuration(9));
        assert_eq!(acc.full_log(), None, "log is opt-in");
    }

    #[test]
    fn full_log_preserves_completion_order() {
        let mut acc = ResponseStats::with_full_log();
        for s in [5u64, 2, 9] {
            acc.record(SimDuration(s));
        }
        assert_eq!(
            acc.full_log().unwrap(),
            &[SimDuration(5), SimDuration(2), SimDuration(9)]
        );
        // enable_full_log on an active log is a no-op, not a reset.
        acc.enable_full_log();
        assert_eq!(acc.full_log().unwrap().len(), 3);
    }

    #[test]
    fn merged_accumulators_summarise_the_union() {
        let mut a = responses([1, 4]);
        let b = responses([2, 2, 8]);
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.quantile(1.0), SimDuration::from_secs(8));
        assert_eq!(a.quantile(0.5), SimDuration::from_secs(2));
        // mean = (1+4+2+2+8)/5 = 3.4s → truncates to 3.4e6 µs exactly.
        assert_eq!(a.mean(), SimDuration::from_millis(3400));
    }

    #[test]
    fn merge_shard_sums_counters_and_takes_latest_makespan() {
        let mut a = GridStats {
            completed: 3,
            failed: 1,
            fetch_attempts: 5,
            responses: responses([1, 2, 3]),
            makespan: SimDuration::from_secs(10),
            ..GridStats::default()
        };
        let b = GridStats {
            completed: 2,
            rejected: 1,
            fetch_attempts: 4,
            fetch_retries: 2,
            responses: responses([4, 5]),
            makespan: SimDuration::from_secs(7),
            ..GridStats::default()
        };
        a.merge_shard(&b);
        assert_eq!(a.completed, 5);
        assert_eq!(a.failed, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.fetch_attempts, 9);
        assert_eq!(a.fetch_retries, 2);
        assert_eq!(a.responses.len(), 5);
        assert_eq!(a.makespan, SimDuration::from_secs(10));
        assert_eq!(a.mean_response(), SimDuration::from_secs(3));
        assert!((a.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = GridStats::default();
        assert_eq!(s.mean_response(), SimDuration::ZERO);
        assert_eq!(s.percentile_response(0.5), SimDuration::ZERO);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.availability(), 1.0);
    }

    #[test]
    fn availability_counts_failed_jobs() {
        let s = GridStats {
            completed: 3,
            failed: 1,
            rejected: 2, // excluded from the denominator
            ..GridStats::default()
        };
        assert!((s.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_is_a_pure_function_of_stats() {
        let s = GridStats {
            completed: 5,
            failed: 1,
            fetch_attempts: 9,
            fetch_retries: 3,
            ..GridStats::default()
        };
        let a = s.report("OptFileBundle");
        let b = s.report("OptFileBundle");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), b.as_str());
        let text = a.as_str();
        assert!(text.contains("availability"));
        assert!(text.contains("fetch retries"));
        assert!(text.contains("OptFileBundle"));
    }
}
