//! fbc-perfbench — the repository benchmark.
//!
//! ```text
//! fbc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the stack from outside, through the public API of `fbc-workload`,
//! `fbc-sim`, `fbc-grid`, `fbc-core`, `fbc-baselines` and `fbc-obs`, in one
//! process on one thread. A seed selects a suite of [`STREAMS`] job
//! streams. The host side is a closed loop: the suite is set up
//! and replayed as fast as possible, again and again, until `--seconds` have
//! been measured. The
//! simulated side of the grid workloads is an open loop of precomputed
//! Poisson arrivals. Every run checks its outputs and prints one JSON result
//! as the last line of standard output; `README.md` next to this crate
//! describes the workloads and metrics.

mod trace;

use fbc_baselines::Landlord;
use fbc_core::cache::CacheState;
use fbc_core::optfilebundle::OptFileBundle;
use fbc_core::policy::CachePolicy;
use fbc_core::types::{Bytes, GIB};
use fbc_grid::client::{schedule_arrivals, ArrivalProcess, JobArrival};
use fbc_grid::engine::{run_grid_on_cache, GridConfig};
use fbc_grid::network::LinkConfig;
use fbc_grid::srm::SrmConfig;
use fbc_grid::stats::GridStats;
use fbc_grid::time::SimDuration;
use fbc_obs::quantile::{nearest_rank, nearest_rank_index};
use fbc_obs::Obs;
use fbc_sim::metrics::Metrics;
use fbc_sim::runner::{run_jobs, RunConfig};
use fbc_workload::{Popularity, Workload, WorkloadConfig};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{PolicyTally, SpanId, TimedPolicy, Tracer, PROBE_REPEATS};

/// Job streams per seed. Pooling streams keeps the simulated outcomes of
/// different seeds close: one 10 000-job Zipf stream's byte miss ratio, and
/// above all its tail response time, depend strongly on which few bundles
/// happen to be popular and on its arrival bursts.
const STREAMS: usize = 64;
/// Streams of the sim workload's response-time replay: its suite and as
/// many more. An `OptFileBundle` SRM's p99.9 response time varies across
/// seeds about twice as much as `Landlord`'s, so it is pooled over twice the
/// streams.
const RESPONSE_STREAMS: usize = 2 * STREAMS;
/// Jobs in one stream (the paper's 10 000).
const JOBS: usize = 10_000;
/// Cache of the decision-bound sim workload: ≈50 mean requests.
const SIM_CACHE: Bytes = 10 * GIB;
/// SRM cache of the fetch-bound grid workloads.
const GRID_CACHE: Bytes = 2 * GIB;
/// SRM service slots.
const GRID_SLOTS: usize = 4;
/// Poisson arrival rate, jobs per simulated second: below fetch saturation.
const ARRIVAL_RATE: f64 = 0.3;
/// Mixed into a stream's seed to seed its arrival process.
const ARRIVAL_SALT: u64 = 0xA77_1BA1;
/// Fewest set-up + replay iterations per process, whatever `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// Least share of an iteration's replay time spent on set-up samples. A
/// long replay (≈10 s on the sim workload) is followed, at the start of the
/// next iteration, by further set-ups whose suites are dropped at once, so
/// every workload gets a dozen or more `setup_s` samples per run,
/// interleaved with its replays, and never holds two suites.
const SETUP_SHARE: f64 = 0.1;
/// Tail percentile of simulated response time.
const TAIL_Q: f64 = 0.999;
/// Completions that must lie beyond the tail percentile.
const MIN_BEYOND_TAIL: u64 = 10;
/// Largest ratio allowed between the median response times of the first
/// and the second half of a stream's completions (a wider gap means a
/// backlog, or a cold start that dominates the run).
const BACKLOG_LIMIT: f64 = 1.5;

const USAGE: &str =
    "usage: fbc-perfbench --workload <sim-zipf-ofb|grid-zipf-landlord|grid-zipf-landlord-obs> \
--seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `OptFileBundle` through `fbc_sim::runner::run_jobs`.
    Sim,
    /// `Landlord` through `run_grid_on_cache`, obs disabled.
    Grid,
    /// [`Kind::Grid`] with an enabled `Obs`.
    GridObs,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Sim, Kind::Grid, Kind::GridObs];

    fn name(self) -> &'static str {
        match self {
            Kind::Sim => "sim-zipf-ofb",
            Kind::Grid => "grid-zipf-landlord",
            Kind::GridObs => "grid-zipf-landlord-obs",
        }
    }

    fn is_grid(self) -> bool {
        self != Kind::Sim
    }

    fn policy(self) -> Box<dyn CachePolicy> {
        match self {
            Kind::Sim => Box::new(OptFileBundle::new()),
            Kind::Grid | Kind::GridObs => Box::new(Landlord::new()),
        }
    }

    fn capacity(self) -> Bytes {
        if self.is_grid() {
            GRID_CACHE
        } else {
            SIM_CACHE
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The paper's standard small-file Zipf stream (§5.1): 1600 files of
/// 1 MiB .. 1% of a 10 GiB cache, 400 distinct bundles of 2–6 files,
/// 10 000 jobs.
fn workload_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        cache_size: SIM_CACHE,
        num_files: 1600,
        max_file_frac: 0.01,
        pool_requests: 400,
        jobs: JOBS,
        files_per_request: (2, 6),
        popularity: Popularity::zipf(),
        seed,
    }
}

/// Seed of stream `k` (`k < RESPONSE_STREAMS`) that benchmark seed `seed`
/// selects; different seeds share no stream.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(RESPONSE_STREAMS as u64)
        .wrapping_add(k as u64)
}

/// Open-loop Poisson arrivals of one stream, in simulated time.
fn poisson_arrivals(workload: &Workload, stream_seed: u64) -> Vec<JobArrival> {
    let process = ArrivalProcess::Poisson {
        rate: ARRIVAL_RATE,
        seed: stream_seed ^ ARRIVAL_SALT,
    };
    schedule_arrivals(&workload.jobs, process)
}

fn grid_config() -> GridConfig {
    GridConfig {
        srm: SrmConfig {
            cache_size: GRID_CACHE,
            max_concurrent_jobs: GRID_SLOTS,
            ..SrmConfig::default()
        },
        // Completion-order response times, for the backlog check.
        full_response_log: true,
        ..GridConfig::default()
    }
}

/// What the program receives for one stream: the generated jobs and, on
/// the grid, their arrival times.
struct Stream {
    workload: Workload,
    arrivals: Vec<JobArrival>,
}

/// Simulated outcome of one stream; equal across every replay of a seed.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Sim(Metrics),
    Grid(GridStats),
}

impl Outcome {
    fn cache(&self) -> &Metrics {
        match self {
            Outcome::Sim(m) => m,
            Outcome::Grid(s) => &s.cache,
        }
    }

    /// Jobs that did not complete.
    fn failed(&self) -> u64 {
        match self {
            Outcome::Sim(m) => m.jobs - m.serviced,
            Outcome::Grid(s) => s.failed + s.rejected,
        }
    }

    fn completed(&self) -> u64 {
        match self {
            Outcome::Sim(m) => m.serviced,
            Outcome::Grid(s) => s.completed,
        }
    }

    /// The suite's outcomes pooled: counters summed, response times merged.
    fn pool(all: &[Outcome]) -> Outcome {
        let mut pooled = all[0].clone();
        for o in &all[1..] {
            match (&mut pooled, o) {
                (Outcome::Sim(p), Outcome::Sim(m)) => p.merge(m),
                (Outcome::Grid(p), Outcome::Grid(s)) => p.merge_shard(s),
                _ => unreachable!("a suite runs one kind"),
            }
        }
        pooled
    }
}

/// Host-side record of one replay of the suite.
struct Rep {
    /// The run-call span of each stream.
    runs: Vec<SpanId>,
    /// Summed over the suite; present on traced replays.
    tally: Option<PolicyTally>,
    /// `(used, capacity, pinned files)` after each stream, where visible.
    cache_end: Vec<(u64, u64, usize)>,
    /// Obs events recorded and dropped, summed over the suite.
    obs_events: (u64, u64),
}

struct Bench {
    kind: Kind,
    seed: u64,
    tracer: Tracer,
    /// Outcomes of the first replay, checked; every later replay must
    /// reproduce them exactly.
    reference: Vec<Outcome>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// One set-up pass: generate every stream, stamp arrivals, and build
    /// the caches, policies and obs sinks the runs start from. Returns the
    /// suite and the `setup` span.
    fn set_up(&mut self) -> (Vec<Stream>, SpanId) {
        let kind = self.kind;
        let t = &mut self.tracer;
        let setup = t.open("setup", None);
        let suite: Vec<Stream> = (0..STREAMS)
            .map(|k| {
                let seed = stream_seed(self.seed, k);
                let workload = t.scope("workload.generate", Some(setup), || {
                    Workload::generate(workload_config(seed))
                });
                let arrivals = if kind.is_grid() {
                    t.scope("workload.arrivals", Some(setup), || {
                        poisson_arrivals(&workload, seed)
                    })
                } else {
                    Vec::new()
                };
                Stream { workload, arrivals }
            })
            .collect();
        t.scope("construct", Some(setup), || {
            for stream in &suite {
                black_box((
                    kind.policy(),
                    CacheState::with_catalog(kind.capacity(), &stream.workload.catalog),
                    obs(kind == Kind::GridObs),
                ));
            }
        });
        t.close(setup);
        (suite, setup)
    }

    /// Replays the suite once, each stream with a fresh policy. `timed`
    /// wraps the policies in [`TimedPolicy`]; `obs_on` gives each run an
    /// enabled sink. The first replay's outcomes are checked against the
    /// inputs, and every later replay (traced or not, obs on or off) must
    /// reproduce them.
    fn replay(
        &mut self,
        suite: &[Stream],
        obs_on: bool,
        timed: bool,
        what: &str,
    ) -> Result<Rep, String> {
        let first = self.reference.is_empty();
        let mut rep = Rep {
            runs: Vec::with_capacity(suite.len()),
            tally: timed.then(PolicyTally::default),
            cache_end: Vec::new(),
            obs_events: (0, 0),
        };
        for (k, stream) in suite.iter().enumerate() {
            let sink = obs(obs_on);
            let (outcome, run) = self.run_stream(stream, &sink, &mut rep)?;
            rep.runs.push(run);
            rep.obs_events.0 += sink.events_recorded() as u64;
            rep.obs_events.1 += sink.events_dropped();
            self.attempted += JOBS as u64;
            self.failed += outcome.failed();
            if first {
                check(&outcome, &stream.workload, &stream.arrivals)
                    .map_err(|e| format!("stream {k}: {e}"))?;
                self.reference.push(outcome);
            } else if outcome != self.reference[k] {
                return Err(format!(
                    "{what} replay of stream {k} diverged from the first replay: {:?}",
                    outcome.cache()
                ));
            }
        }
        Ok(rep)
    }

    /// Runs one stream; returns its outcome and its run-call span.
    fn run_stream(
        &mut self,
        stream: &Stream,
        obs: &Obs,
        rep: &mut Rep,
    ) -> Result<(Outcome, SpanId), String> {
        let policy = self.kind.policy();
        let catalog = &stream.workload.catalog;
        let t = &mut self.tracer;
        if self.kind.is_grid() {
            let mut cache = CacheState::with_catalog(GRID_CACHE, catalog);
            let config = grid_config();
            let run = t.open("grid.run_grid_on_cache", None);
            let stats = match rep.tally.as_mut() {
                Some(tally) => {
                    let mut p = TimedPolicy::new(policy, t, run, false);
                    let stats = run_grid_on_cache(
                        &mut p,
                        catalog,
                        &stream.arrivals,
                        &config,
                        None,
                        obs,
                        &mut cache,
                    );
                    t.close(run);
                    t.extend(std::mem::take(&mut p.spans));
                    tally.add(&p.tally);
                    stats
                }
                None => {
                    let mut p = policy;
                    let stats = run_grid_on_cache(
                        p.as_mut(),
                        catalog,
                        &stream.arrivals,
                        &config,
                        None,
                        obs,
                        &mut cache,
                    );
                    t.close(run);
                    stats
                }
            };
            check_grid_cache(&cache)?;
            rep.cache_end
                .push((cache.used(), cache.capacity(), cache.pinned_len()));
            Ok((Outcome::Grid(stats), run))
        } else {
            let config = RunConfig::new(SIM_CACHE);
            let jobs = &stream.workload.jobs;
            let run = t.open("sim.run_jobs", None);
            let metrics = match rep.tally.as_mut() {
                Some(tally) => {
                    let mut p = TimedPolicy::new(policy, t, run, true);
                    let metrics = run_jobs(&mut p, catalog, jobs, &config);
                    t.close(run);
                    t.extend(std::mem::take(&mut p.spans));
                    tally.add(&p.tally);
                    rep.cache_end.push(p.cache_end);
                    metrics
                }
                None => {
                    let mut p = policy;
                    let metrics = run_jobs(p.as_mut(), catalog, jobs, &config);
                    t.close(run);
                    metrics
                }
            };
            Ok((Outcome::Sim(metrics), run))
        }
    }

    /// Simulated response times for the sim workload, whose run loop has no
    /// clock: its suite and [`STREAMS`] more streams replayed once,
    /// untimed, through the grid engine with `OptFileBundle`, under the grid
    /// workloads' arrivals and SRM, MSS and link settings. Returns the
    /// checked per-stream outcomes.
    fn ofb_grid_outcomes(&mut self, suite: &[Stream]) -> Result<Vec<Outcome>, String> {
        let mut outcomes = Vec::with_capacity(RESPONSE_STREAMS);
        for k in 0..RESPONSE_STREAMS {
            let seed = stream_seed(self.seed, k);
            let generated;
            let workload = match suite.get(k) {
                Some(stream) => &stream.workload,
                None => {
                    generated = Workload::generate(workload_config(seed));
                    &generated
                }
            };
            let catalog = &workload.catalog;
            let arrivals = poisson_arrivals(workload, seed);
            let mut cache = CacheState::with_catalog(GRID_CACHE, catalog);
            let mut policy = OptFileBundle::new();
            let stats = run_grid_on_cache(
                &mut policy,
                catalog,
                &arrivals,
                &grid_config(),
                None,
                &Obs::disabled(),
                &mut cache,
            );
            check_grid_cache(&cache)?;
            let outcome = Outcome::Grid(stats);
            check(&outcome, workload, &arrivals)
                .map_err(|e| format!("OptFileBundle grid stream {k}: {e}"))?;
            self.attempted += JOBS as u64;
            self.failed += outcome.failed();
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Host seconds of a replay's run calls.
    fn run_s(&self, rep: &Rep) -> f64 {
        secs(rep.runs.iter().map(|&r| self.tracer.span(r).ns()).sum())
    }
}

fn obs(enabled: bool) -> Obs {
    if enabled {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5).unwrap_or(0.0)
}

/// Nearest-rank quantile of span durations, in ns (0 when there are none).
fn quantile_ns(mut ns: Vec<u64>, q: f64) -> f64 {
    ns.sort_unstable();
    nearest_rank(&ns, q).unwrap_or(0) as f64
}

/// A grid run must leave its cache consistent and nothing pinned.
fn check_grid_cache(cache: &CacheState) -> Result<(), String> {
    if cache.pinned_len() != 0 {
        return Err(format!(
            "{} files still pinned after the grid run",
            cache.pinned_len()
        ));
    }
    if !cache.check_invariants() {
        return Err("cache invariants broken after the grid run".into());
    }
    Ok(())
}

/// Checks one stream's outcome against facts computed independently from
/// its inputs.
fn check(outcome: &Outcome, workload: &Workload, arrivals: &[JobArrival]) -> Result<(), String> {
    let catalog = &workload.catalog;
    let jobs = &workload.jobs;
    let distinct: BTreeSet<_> = jobs.iter().flat_map(|b| b.iter()).collect();
    // Every distinct file must be fetched at least once.
    let compulsory: Bytes = distinct.iter().map(|&f| catalog.size(f)).sum();
    let m = outcome.cache();
    if m.fetched_bytes < compulsory || m.fetched_bytes > m.requested_bytes {
        return Err(format!(
            "fetched {} B outside [compulsory {compulsory} B, requested {} B]",
            m.fetched_bytes, m.requested_bytes
        ));
    }
    match outcome {
        Outcome::Sim(m) => {
            let requested: Bytes = jobs.iter().map(|b| b.total_size(catalog)).sum();
            if m.jobs != JOBS as u64 || m.serviced != m.jobs || m.requested_bytes != requested {
                return Err(format!(
                    "sim accounting: {} jobs, {} serviced, {} B requested (want {JOBS}, {JOBS}, {requested} B)",
                    m.jobs, m.serviced, m.requested_bytes
                ));
            }
        }
        Outcome::Grid(s) => {
            let arrivals = arrivals.len() as u64;
            if s.completed + s.failed + s.rejected != arrivals {
                return Err(format!(
                    "conservation: {arrivals} arrivals != {} completed + {} failed + {} rejected",
                    s.completed, s.failed, s.rejected
                ));
            }
            if s.cache.serviced != s.completed + s.failed || s.responses.len() != s.completed {
                return Err("grid accounting: serviced and response counts disagree".into());
            }
            let log = s.responses.full_log().ok_or("response log missing")?;
            let (first, second) = log.split_at(log.len() / 2);
            let (a, b) = (median_s(first), median_s(second));
            if a.max(b) > BACKLOG_LIMIT * a.min(b) {
                return Err(format!(
                    "backlog: median response {a:.3} s over the first half of completions, {b:.3} s over the second"
                ));
            }
        }
    }
    Ok(())
}

/// Completions beyond the nearest-rank p99.9.
fn tail_beyond(completed: u64) -> u64 {
    let n = usize::try_from(completed).expect("completions fit in usize");
    nearest_rank_index(TAIL_Q, n).map_or(0, |i| (n - i - 1) as u64)
}

fn median_s(responses: &[SimDuration]) -> f64 {
    let mut v: Vec<u64> = responses.iter().map(|d| d.micros()).collect();
    v.sort_unstable();
    nearest_rank(&v, 0.5).unwrap_or(0) as f64 / 1e6
}

/// Process high-water resident set, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Ordered `(name, value, unit)` triples.
type MetricList = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(
    b: &Bench,
    setups: &[f64],
    plain: &[Rep],
    responses: &GridStats,
    peak_rss_mib: f64,
) -> MetricList {
    let suite_jobs = (STREAMS * JOBS) as f64;
    let jobs_per_s: Vec<f64> = plain.iter().map(|r| suite_jobs / b.run_s(r)).collect();
    let pooled = Outcome::pool(&b.reference);
    let m = pooled.cache();
    let response_s = |q| responses.responses.quantile(q).as_secs_f64();
    vec![
        ("host_jobs_per_s", median(&jobs_per_s), "jobs/s"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        ("byte_miss_ratio", m.byte_miss_ratio(), "ratio"),
        ("request_miss_ratio", m.request_miss_ratio(), "ratio"),
        ("sim_resp_p50_s", response_s(0.5), "s"),
        ("sim_resp_p999_s", response_s(TAIL_Q), "s"),
        (
            "completed_frac",
            pooled.completed() as f64 / suite_jobs,
            "ratio",
        ),
    ]
}

/// Per-layer metrics from the traced replay: host times are the suite's
/// total (set-up times: median over set-ups), counts are the suite's total.
/// A layer the workload does not run reads 0.
fn per_layer(
    b: &Bench,
    setups: &[SpanId],
    plain: &[Rep],
    traced: &Rep,
    obs_off: &[Rep],
) -> MetricList {
    let t = &b.tracer;
    let kind = b.kind;
    let grid = kind.is_grid();
    // Per set-up pass, the total of its `name` children; median over passes.
    let setup_child = |name: &str| -> f64 {
        let v: Vec<f64> = setups
            .iter()
            .map(|&s| secs(t.children(s, name).map(|c| c.ns()).sum()))
            .collect();
        median(&v)
    };
    let busy_s = secs(
        traced
            .runs
            .iter()
            .flat_map(|&r| t.spans_under(r))
            .filter(|s| s.name.starts_with("policy."))
            .map(|s| s.ns())
            .sum(),
    );
    let durations = |name: &str| -> Vec<u64> {
        traced
            .runs
            .iter()
            .flat_map(|&run| t.children(run, name))
            .map(|s| s.ns())
            .collect()
    };
    let run_median = |reps: &[Rep]| median(&reps.iter().map(|r| b.run_s(r)).collect::<Vec<_>>());
    let only = |on: bool, v: f64| if on { v } else { 0.0 };

    let tally = traced.tally.expect("the traced replay carries a tally");
    let ends = &traced.cache_end;
    let occupancy = ends
        .iter()
        .map(|&(used, cap, _)| used as f64 / cap as f64)
        .sum::<f64>()
        / ends.len() as f64;
    let pinned: usize = ends.iter().map(|e| e.2).sum();
    let self_s = secs(traced.runs.iter().map(|&run| t.self_ns(run)).sum());
    let probe_ns = quantile_ns(durations("cache.contains_all"), 0.5) / PROBE_REPEATS as f64;

    // Simulated link load: every fetch holds the link for its latency plus
    // its bytes at link bandwidth.
    let link = LinkConfig::default();
    let (mut attempts, mut fetched, mut makespan) = (0u64, 0u64, 0.0f64);
    for o in &b.reference {
        if let Outcome::Grid(s) = o {
            attempts += s.fetch_attempts;
            fetched += s.cache.fetched_bytes;
            makespan += s.makespan.as_secs_f64();
        }
    }
    let link_busy_s =
        attempts as f64 * link.latency.as_secs_f64() + fetched as f64 / link.bandwidth;
    let suite_jobs = (STREAMS * JOBS) as f64;
    vec![
        ("workload.generate_s", setup_child("workload.generate"), "s"),
        ("workload.arrivals_s", setup_child("workload.arrivals"), "s"),
        ("policy.busy_s", busy_s, "s"),
        ("policy.share", busy_s / b.run_s(traced), "ratio"),
        ("policy.calls", tally.calls as f64, "count"),
        ("policy.batched_jobs", tally.batched_jobs as f64, "count"),
        (
            "policy.hit_ns_p50",
            quantile_ns(durations("policy.handle.hit"), 0.5),
            "ns",
        ),
        (
            "policy.hit_ns_p99",
            quantile_ns(durations("policy.handle.hit"), 0.99),
            "ns",
        ),
        (
            "policy.miss_ns_p50",
            quantile_ns(durations("policy.handle.miss"), 0.5),
            "ns",
        ),
        (
            "policy.miss_ns_p99",
            quantile_ns(durations("policy.handle.miss"), 0.99),
            "ns",
        ),
        ("policy.evicted_files", tally.evicted_files as f64, "count"),
        ("policy.evicted_bytes", tally.evicted_bytes as f64, "B"),
        (
            "policy.evictions_per_miss",
            tally.evicted_files as f64 / tally.misses.max(1) as f64,
            "files/miss",
        ),
        ("cache.contains_all_ns", probe_ns, "ns"),
        ("cache.occupancy_frac", occupancy, "ratio"),
        ("cache.pinned_end", pinned as f64, "count"),
        ("sim.loop_self_s", only(!grid, self_s), "s"),
        ("engine.self_s", only(grid, self_s), "s"),
        (
            "engine.ns_per_job",
            only(grid, self_s * 1e9 / suite_jobs),
            "ns",
        ),
        ("grid.fetch_attempts", attempts as f64, "count"),
        ("grid.fetched_gib", fetched as f64 / GIB as f64, "GiB"),
        (
            "grid.sim_link_util",
            if makespan > 0.0 {
                link_busy_s / makespan
            } else {
                0.0
            },
            "ratio",
        ),
        ("grid.sim_makespan_s", makespan, "s"),
        (
            "obs.overhead_ratio",
            if obs_off.is_empty() {
                0.0
            } else {
                run_median(plain) / run_median(obs_off)
            },
            "ratio",
        ),
        ("obs.events_recorded", plain[0].obs_events.0 as f64, "count"),
        ("obs.events_dropped", plain[0].obs_events.1 as f64, "count"),
        (
            "trace.overhead_ratio",
            b.run_s(traced) / run_median(plain),
            "ratio",
        ),
    ]
}

/// Runs the benchmark; `Err` carries the reason a check failed.
fn bench(args: &Args, b: &mut Bench) -> Result<(MetricList, String), String> {
    // Measured loop. Each iteration sets the suite up afresh and replays it
    // untraced; in trace mode the first replay is followed by a traced one,
    // and on the obs workload every one by an obs-off replay. Set-up owed
    // under SETUP_SHARE is sampled at the start of the next iteration.
    let obs_on = b.kind == Kind::GridObs;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut setup_spans, mut plain, mut traced, mut obs_off) =
        (Vec::new(), Vec::new(), None, Vec::new());
    let mut setup_owed = 0.0;
    let suite = loop {
        let iteration = Instant::now();
        while setup_owed > 0.0 {
            let (_, again) = b.set_up();
            setup_spans.push(again);
            setup_owed -= secs(b.tracer.span(again).ns());
        }
        let (suite, setup) = b.set_up();
        setup_spans.push(setup);
        let rep = b.replay(&suite, obs_on, false, "untraced")?;
        setup_owed = SETUP_SHARE * b.run_s(&rep) - secs(b.tracer.span(setup).ns());
        plain.push(rep);
        if args.trace && traced.is_none() {
            traced = Some(b.replay(&suite, obs_on, true, "traced")?);
        }
        if args.trace && obs_on {
            obs_off.push(b.replay(&suite, false, false, "obs-off")?);
        }
        // Stop once ending now lands nearer the budget than one more
        // iteration would.
        if plain.len() >= MIN_ITERATIONS && start.elapsed() + iteration.elapsed() / 2 >= budget {
            break suite;
        }
    };
    // Before the checking replays below, which are not the workload.
    let peak_rss = peak_rss_mib()?;
    let setups: Vec<f64> = setup_spans
        .iter()
        .map(|&s| secs(b.tracer.span(s).ns()))
        .collect();
    // The obs workload's simulated outcome must equal the obs-off one.
    if obs_on && obs_off.is_empty() {
        obs_off.push(b.replay(&suite, false, false, "obs-off")?);
    }

    let ofb;
    let response_runs = match b.kind {
        Kind::Sim => {
            ofb = b.ofb_grid_outcomes(&suite)?;
            &ofb
        }
        Kind::Grid | Kind::GridObs => &b.reference,
    };
    let Outcome::Grid(responses) = Outcome::pool(response_runs) else {
        unreachable!("response times come from grid runs")
    };
    let completed = responses.completed;
    let beyond = tail_beyond(completed);
    if beyond < MIN_BEYOND_TAIL {
        return Err(format!("only {beyond} completions beyond p99.9"));
    }
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"streams\":{STREAMS},\"jobs_per_stream\":{JOBS},\
\"set_ups\":{},\"untraced_replays\":{},\"traced_replays\":{},\
\"completions\":{completed},\"completions_beyond_p999\":{beyond},\"hw_threads\":{},\
\"replay_s\":[{}],\"setup_s\":[{}]}}",
        b.kind.name(),
        b.seed,
        setup_spans.len(),
        plain.len(),
        usize::from(traced.is_some()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plain
            .iter()
            .map(|r| format!("{:.3}", b.run_s(r)))
            .collect::<Vec<_>>()
            .join(","),
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    let metrics = match &traced {
        Some(traced) => per_layer(b, &setup_spans, &plain, traced, &obs_off),
        None => end_to_end(b, &setups, &plain, &responses, peak_rss),
    };
    Ok((metrics, meta))
}

/// Where a traced run writes its spans: one file per workload under the
/// build directory (`$CARGO_TARGET_DIR`, default `.bench_build`), replaced
/// by the next traced run of that workload.
fn spans_path(kind: Kind) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target)
        .join("perfbench")
        .join(format!("spans-{}.jsonl", kind.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut b = Bench {
        kind: args.kind,
        seed: args.seed,
        tracer: Tracer::new(),
        reference: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let (metrics, meta) = match bench(&args, &mut b) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            let attempted = b.attempted.max(1);
            println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {attempted}, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            eprintln!("error: metric {name} is not finite");
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace {
        let path = spans_path(args.kind);
        if let Err(e) = b.tracer.write_jsonl(&path) {
            eprintln!("error: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("meta {meta}");
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        b.attempted,
        b.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
