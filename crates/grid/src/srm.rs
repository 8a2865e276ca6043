//! The Storage Resource Manager node (paper §2, Fig. 2).
//!
//! An SRM owns a disk cache and a replacement policy, admits jobs into a
//! FIFO service queue, and — while a job is in service — *pins* the job's
//! files so concurrent replacement decisions cannot evict them (the paper's
//! "holding, for some duration of time, data that are requested").

use crate::time::SimDuration;
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::types::Bytes;

/// SRM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrmConfig {
    /// Disk-cache capacity.
    pub cache_size: Bytes,
    /// How many jobs may be in service (fetching or processing) at once.
    pub max_concurrent_jobs: usize,
    /// Post-fetch processing rate in bytes/second (the "transformation /
    /// filtering" the paper describes); `f64::INFINITY` for instant.
    pub processing_rate: f64,
    /// Fixed per-job processing overhead.
    pub processing_overhead: SimDuration,
}

impl Default for SrmConfig {
    fn default() -> Self {
        Self {
            cache_size: 100 * fbc_core::types::GIB,
            max_concurrent_jobs: 4,
            processing_rate: 200.0e6, // 200 MB/s scan rate
            processing_overhead: SimDuration::from_millis(100),
        }
    }
}

impl SrmConfig {
    /// Processing duration for a job that read `bytes`.
    pub fn processing_time(&self, bytes: Bytes) -> SimDuration {
        let stream = if self.processing_rate.is_finite() && self.processing_rate > 0.0 {
            SimDuration::from_secs_f64(bytes as f64 / self.processing_rate)
        } else {
            SimDuration::ZERO
        };
        self.processing_overhead + stream
    }
}

/// How the SRM reacts to failed or stalled fetches: exponential backoff
/// with seeded jitter, a bounded retry budget, and an optional per-fetch
/// timeout. After the budget is exhausted the job is reported `failed` —
/// the simulation degrades gracefully instead of hanging or panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many times a failed fetch is retried before the job fails
    /// (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff delay (before jitter).
    pub max_backoff: SimDuration,
    /// Jitter fraction: each backoff is scaled by a seeded factor in
    /// `[1, 1 + jitter_frac)`. Zero keeps backoff fully deterministic and
    /// draw-free.
    pub jitter_frac: f64,
    /// Abandon a fetch attempt that has not completed after this long.
    /// `None` disables timeouts; a fetch that can *never* complete (a
    /// permanent outage) is then failed immediately at issue time so the
    /// simulation still terminates.
    pub fetch_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(60),
            jitter_frac: 0.1,
            fetch_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay after the `failed_attempts`-th consecutive failure
    /// (1-based), scaled by a pre-drawn `jitter` factor.
    ///
    /// `max_backoff` is a hard ceiling on the *delivered* delay: the cap
    /// is applied after jitter. (Capping before jitter let a saturated
    /// backoff exceed the configured maximum by up to `jitter_frac` —
    /// with many workers in simultaneous backoff that overshoot defeats
    /// the bound the cap exists to provide.)
    pub fn backoff(&self, failed_attempts: u32, jitter: f64) -> SimDuration {
        debug_assert!(failed_attempts >= 1, "backoff before any failure");
        let shift = failed_attempts.saturating_sub(1).min(20);
        let exp = self.base_backoff.micros().saturating_mul(1u64 << shift);
        let jittered = (exp as f64 * jitter).round() as u64;
        SimDuration(jittered.min(self.max_backoff.micros()))
    }
}

/// Pins every file of `bundle` in the cache (all must be resident).
pub fn pin_bundle(cache: &mut CacheState, bundle: &Bundle) {
    for f in bundle.iter() {
        cache
            .pin(f)
            .expect("a serviced job's files must be resident when pinned");
    }
}

/// Releases the pins taken by [`pin_bundle`].
///
/// # Panics
/// Panics if a file is not resident or not pinned: a pinned file cannot be
/// evicted, so either means the pin accounting is broken.
pub fn unpin_bundle(cache: &mut CacheState, bundle: &Bundle) {
    for f in bundle.iter() {
        cache
            .unpin(f)
            .expect("an in-service job's files stay resident and pinned until released");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbc_core::catalog::FileCatalog;

    #[test]
    fn processing_time_combines_overhead_and_streaming() {
        let cfg = SrmConfig {
            processing_rate: 1e6,
            processing_overhead: SimDuration::from_millis(100),
            ..SrmConfig::default()
        };
        // 1 MB at 1 MB/s + 100 ms = 1.1 s.
        assert_eq!(cfg.processing_time(1_000_000).micros(), 1_100_000);
    }

    #[test]
    fn infinite_rate_means_overhead_only() {
        let cfg = SrmConfig {
            processing_rate: f64::INFINITY,
            processing_overhead: SimDuration::from_millis(5),
            ..SrmConfig::default()
        };
        assert_eq!(cfg.processing_time(u64::MAX).micros(), 5_000);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let rp = RetryPolicy {
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(5),
            ..RetryPolicy::default()
        };
        assert_eq!(rp.backoff(1, 1.0), SimDuration::from_secs(1));
        assert_eq!(rp.backoff(2, 1.0), SimDuration::from_secs(2));
        assert_eq!(rp.backoff(3, 1.0), SimDuration::from_secs(4));
        assert_eq!(rp.backoff(4, 1.0), SimDuration::from_secs(5)); // capped
        assert_eq!(rp.backoff(40, 1.0), SimDuration::from_secs(5)); // no overflow
    }

    #[test]
    fn backoff_jitter_scales() {
        let rp = RetryPolicy {
            base_backoff: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        assert_eq!(rp.backoff(1, 1.5), SimDuration::from_millis(1500));
    }

    #[test]
    fn jitter_cannot_exceed_max_backoff() {
        // Regression: the cap used to apply before the jitter multiply,
        // so a saturated backoff escaped max_backoff by jitter_frac.
        let rp = RetryPolicy {
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(5),
            ..RetryPolicy::default()
        };
        for attempts in [4, 10, 40] {
            assert_eq!(rp.backoff(attempts, 1.5), SimDuration::from_secs(5));
            assert!(rp.backoff(attempts, 1.0999) <= rp.max_backoff);
        }
        // Unsaturated delays still scale with jitter below the cap…
        assert_eq!(rp.backoff(2, 1.25), SimDuration::from_millis(2500));
        // …and a jittered near-cap delay is clamped, not overshot.
        assert_eq!(rp.backoff(3, 1.5), SimDuration::from_secs(5));
    }

    #[test]
    fn pin_unpin_roundtrip() {
        let catalog = FileCatalog::from_sizes(vec![1, 1]);
        let mut cache = CacheState::new(10);
        let bundle = Bundle::from_raw([0, 1]);
        for f in bundle.iter() {
            cache.insert(f, &catalog).unwrap();
        }
        pin_bundle(&mut cache, &bundle);
        assert!(cache.is_pinned(fbc_core::types::FileId(0)));
        assert!(cache.evict(fbc_core::types::FileId(0)).is_err());
        unpin_bundle(&mut cache, &bundle);
        assert!(cache.evict(fbc_core::types::FileId(0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "stay resident and pinned")]
    fn releasing_unheld_pins_panics() {
        let catalog = FileCatalog::from_sizes(vec![1]);
        let mut cache = CacheState::new(10);
        let bundle = Bundle::from_raw([0]);
        cache.insert(fbc_core::types::FileId(0), &catalog).unwrap();
        unpin_bundle(&mut cache, &bundle);
    }
}
