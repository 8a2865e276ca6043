//! Mass Storage System model.
//!
//! The MSS (an HPSS-style tape/disk hierarchy) serves file fetches with a
//! per-request *mount latency* (tape positioning / robot arm) followed by a
//! streaming read at drive bandwidth, on a limited number of concurrent
//! drives. Requests beyond drive capacity queue for the earliest-free drive.

use crate::faults::FaultInjector;
use crate::time::{SimDuration, SimTime};
use fbc_core::types::Bytes;

/// Configuration of a mass storage system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MssConfig {
    /// Number of drives that can stream concurrently.
    pub drives: usize,
    /// Fixed positioning latency per fetch request.
    pub mount_latency: SimDuration,
    /// Streaming bandwidth per drive, bytes per second.
    pub drive_bandwidth: f64,
}

impl Default for MssConfig {
    fn default() -> Self {
        Self {
            drives: 4,
            // Tens of seconds of tape mount/seek is typical for HPSS loads;
            // use a modest 5 s default so short simulations stay interesting.
            mount_latency: SimDuration::from_secs(5),
            drive_bandwidth: 60.0e6, // 60 MB/s per drive
        }
    }
}

/// A mass storage system with drive contention.
#[derive(Debug, Clone)]
pub struct MassStorage {
    config: MssConfig,
    /// When each drive becomes free.
    drive_free_at: Vec<SimTime>,
    /// Totals for reports.
    requests_served: u64,
    bytes_read: Bytes,
}

impl MassStorage {
    /// Creates an idle MSS.
    pub fn new(config: MssConfig) -> Self {
        assert!(config.drives > 0, "MSS needs at least one drive");
        assert!(
            config.drive_bandwidth > 0.0,
            "drive bandwidth must be positive"
        );
        Self {
            drive_free_at: vec![SimTime::ZERO; config.drives],
            config,
            requests_served: 0,
            bytes_read: 0,
        }
    }

    /// Service time for `bytes` on an idle drive (mount + streaming).
    pub fn service_time(&self, bytes: Bytes) -> SimDuration {
        self.config.mount_latency
            + SimDuration::from_secs_f64(bytes as f64 / self.config.drive_bandwidth)
    }

    /// Schedules a fetch of `bytes` arriving at `now`; picks the
    /// earliest-free drive and returns the completion time.
    pub fn schedule_fetch(&mut self, now: SimTime, bytes: Bytes) -> SimTime {
        self.schedule_fetch_with(now, bytes, None)
            .expect("a fault-free fetch always completes")
    }

    /// Schedules a fetch under an optional fault injector.
    ///
    /// The earliest-free drive is picked exactly as in [`Self::schedule_fetch`];
    /// with an injector the read is stretched by that drive's outage
    /// windows (suspend semantics — work resumes after repair). Returns
    /// `None`, charging the drive nothing, when the drive can never finish
    /// the read (a permanent outage).
    pub fn schedule_fetch_with(
        &mut self,
        now: SimTime,
        bytes: Bytes,
        faults: Option<&FaultInjector>,
    ) -> Option<SimTime> {
        let (drive, done) = self.plan_fetch(now, bytes, faults);
        let done = done?;
        self.drive_free_at[drive] = done;
        self.requests_served += 1;
        self.bytes_read += bytes;
        Some(done)
    }

    /// When a fetch of `bytes` issued at `now` would complete (`None`:
    /// never), without scheduling it — the earliest-finish probe replicated
    /// storage runs over a file's replica sites.
    pub(crate) fn probe_fetch(
        &self,
        now: SimTime,
        bytes: Bytes,
        faults: Option<&FaultInjector>,
    ) -> Option<SimTime> {
        self.plan_fetch(now, bytes, faults).1
    }

    /// The earliest-free drive and the completion time a fetch would get
    /// on it.
    fn plan_fetch(
        &self,
        now: SimTime,
        bytes: Bytes,
        faults: Option<&FaultInjector>,
    ) -> (usize, Option<SimTime>) {
        let drive = self
            .drive_free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one drive");
        let start = self.drive_free_at[drive].max(now);
        let work = self.service_time(bytes);
        let done = match faults {
            None => Some(start + work),
            Some(inj) => inj.drive_completion(drive, start, work),
        };
        (drive, done)
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Bytes streamed so far.
    pub fn bytes_read(&self) -> Bytes {
        self.bytes_read
    }

    /// The MSS configuration.
    pub fn config(&self) -> &MssConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mss(drives: usize) -> MassStorage {
        MassStorage::new(MssConfig {
            drives,
            mount_latency: SimDuration::from_secs(1),
            drive_bandwidth: 1e6,
        })
    }

    #[test]
    fn service_time_includes_mount() {
        let m = mss(1);
        // 2 MB at 1 MB/s + 1 s mount = 3 s.
        assert_eq!(m.service_time(2_000_000).micros(), 3_000_000);
    }

    #[test]
    fn single_drive_serialises() {
        let mut m = mss(1);
        let a = m.schedule_fetch(SimTime::ZERO, 1_000_000); // 2 s
        let b = m.schedule_fetch(SimTime::ZERO, 1_000_000); // queued: 4 s
        assert_eq!(a.micros(), 2_000_000);
        assert_eq!(b.micros(), 4_000_000);
    }

    #[test]
    fn multiple_drives_run_in_parallel() {
        let mut m = mss(2);
        let a = m.schedule_fetch(SimTime::ZERO, 1_000_000);
        let b = m.schedule_fetch(SimTime::ZERO, 1_000_000);
        assert_eq!(a.micros(), 2_000_000);
        assert_eq!(b.micros(), 2_000_000); // second drive
        let c = m.schedule_fetch(SimTime::ZERO, 1_000_000);
        assert_eq!(c.micros(), 4_000_000); // waits for a free drive
    }

    #[test]
    fn probe_predicts_without_committing() {
        let mut m = mss(1);
        let probed = m.probe_fetch(SimTime::ZERO, 1_000_000, None);
        assert_eq!(probed, Some(SimTime(2_000_000)));
        assert_eq!(m.requests_served(), 0);
        assert_eq!(Some(m.schedule_fetch(SimTime::ZERO, 1_000_000)), probed);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = mss(2);
        m.schedule_fetch(SimTime::ZERO, 10);
        m.schedule_fetch(SimTime::ZERO, 20);
        assert_eq!(m.requests_served(), 2);
        assert_eq!(m.bytes_read(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one drive")]
    fn zero_drives_rejected() {
        let _ = MassStorage::new(MssConfig {
            drives: 0,
            mount_latency: SimDuration::ZERO,
            drive_bandwidth: 1.0,
        });
    }
}
