//! The discrete-event grid simulation engine — the grid's one event loop.
//!
//! Ties the pieces together: clients submit [`JobArrival`]s, a [`Dispatch`]
//! routes each to an SRM node ([`SrmNode`]) whose replacement policy
//! decides what to evict; missing files are read from [`Storage`] and
//! shipped over the shared [`Link`] (FIFO WAN); after the data arrives the
//! job processes it and completes. Response times, throughput and cache
//! metrics come out.
//!
//! # Topology
//!
//! [`run_grid_topology`] runs any [`Topology`]; [`run_grid_on_cache`] (and
//! the wrappers above it) is its one-node, single-MSS case. Two seams,
//! both closed enums matched inline:
//!
//! - **Storage.** [`Storage::Mss`]: one mass storage system; a job's
//!   misses are one aggregated drive request, and a job that fetched no
//!   bytes is a hit. [`Storage::Replicated`]: one MSS per [`Placement`]
//!   site (each with [`GridConfig::mss`] hardware); every missing file is
//!   read, in `fetched_files` order, from the replica site whose drive
//!   would finish it earliest, the job's fetch completes when its last
//!   file has crossed the link, and a job that fetched no files is a hit.
//! - **Nodes.** One or more SRM nodes, each with its own policy, cache,
//!   FIFO queue and [`SrmConfig::max_concurrent_jobs`] service slots, all
//!   sharing the storage and the link. [`Dispatch`] routes every arrival;
//!   after each event only the node that event touched is polled. With
//!   more than one node, obs traces each routing as a `route` event.
//!
//! # Faults
//!
//! Under a [`FaultPlan`] the engine also models failure: fetches stretched
//! or stranded by outage windows, transient fetch errors, and per-fetch
//! timeouts are retried with exponential backoff (see [`RetryPolicy`]); a
//! job whose retry budget runs out is reported `failed` and its service
//! slot is released, so the simulation always terminates. A replicated
//! fetch attempt re-reads all of the job's missing files and takes one
//! transient draw; it is stranded at the first file no replica can ever
//! deliver. Drive windows apply by drive index within every site.
//!
//! Two modelling simplifications (documented in DESIGN.md): the cache
//! state is updated at *decision* time while the transfer occupies virtual
//! time — i.e. space is reserved for in-flight files, and the job's files
//! are pinned from decision to completion so no concurrent decision can
//! evict them. Consequently a failed fetch does not roll the cache state
//! back; the decision-time bookkeeping stands, consistent with the same
//! simplification on the success path.

use crate::client::JobArrival;
use crate::event::EventQueue;
use crate::faults::{FaultInjector, FaultPlan, FOREVER};
use crate::mss::{MassStorage, MssConfig};
use crate::network::{Link, LinkConfig};
use crate::replica::Placement;
use crate::shard::{ShardBy, ShardMap};
use crate::srm::{pin_bundle, unpin_bundle, RetryPolicy, SrmConfig};
use crate::stats::{GridStats, MultiGridStats};
use crate::time::SimTime;
use fbc_core::bundle::Bundle;
use fbc_core::cache::CacheState;
use fbc_core::catalog::FileCatalog;
use fbc_core::policy::{CachePolicy, RequestOutcome};
use fbc_core::types::FileId;
use fbc_obs::{Field, Obs};
use std::collections::VecDeque;

/// Full configuration of a grid: the per-node SRM, the storage hardware
/// (per site, when replicated) and the shared WAN link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridConfig {
    /// The SRM node.
    pub srm: SrmConfig,
    /// The mass storage system behind it.
    pub mss: MssConfig,
    /// The WAN link between MSS and SRM cache.
    pub link: LinkConfig,
    /// How failed or stalled fetches are retried before a job is failed.
    pub retry: RetryPolicy,
    /// Keep the unbounded per-job response-time log (completion order) in
    /// [`GridStats::responses`]. Off by default: mean/percentiles come
    /// from the bounded accumulator either way, the log is only for
    /// consumers that need every sample.
    pub full_response_log: bool,
}

/// How arriving jobs are routed to SRM nodes.
///
/// Bundle-affinity routing keeps each recurring bundle's files on one node
/// and preserves the request locality bundle-aware caching exploits;
/// load-oblivious round-robin destroys it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Cycle through the nodes in arrival order.
    RoundRobin,
    /// Send to the node with the fewest queued + in-service jobs.
    LeastLoaded,
    /// Hash the canonical bundle to a node: every recurrence of a request
    /// lands on the same cache. This is [`ShardMap`] with
    /// [`ShardBy::Bundle`], so it shares that map's dependence on std's
    /// `DefaultHasher` (see [`crate::shard`]).
    #[default]
    BundleAffinity,
}

impl Dispatch {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Dispatch::RoundRobin => "round-robin",
            Dispatch::LeastLoaded => "least-loaded",
            Dispatch::BundleAffinity => "bundle-affinity",
        }
    }
}

/// Where the grid reads the files its caches miss.
#[derive(Debug, Clone, Copy, Default)]
pub enum Storage<'a> {
    /// One mass storage system; each job's misses are one drive request.
    #[default]
    Mss,
    /// One mass storage system per site of the placement; each missing
    /// file is read from its earliest-finishing replica.
    Replicated(&'a Placement),
}

/// The shape of a grid: its storage and how jobs reach its nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Topology<'a> {
    /// Where misses are read from.
    pub storage: Storage<'a>,
    /// How arrivals are routed (irrelevant with one node).
    pub dispatch: Dispatch,
}

/// One SRM node: its replacement policy and its disk cache. Rejection
/// compares against the cache's own capacity, so a node's cache may be
/// smaller than [`SrmConfig::cache_size`].
pub struct SrmNode<'a> {
    /// The node's replacement policy.
    pub policy: &'a mut dyn CachePolicy,
    /// The node's disk cache.
    pub cache: &'a mut CacheState,
}

impl<'a> SrmNode<'a> {
    /// Pairs `policies[k]` with `caches[k]`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn zip(
        policies: &'a mut [Box<dyn CachePolicy>],
        caches: &'a mut [CacheState],
    ) -> Vec<SrmNode<'a>> {
        assert_eq!(policies.len(), caches.len(), "one policy per node required");
        policies
            .iter_mut()
            .zip(caches)
            .map(|(policy, cache)| SrmNode {
                policy: policy.as_mut(),
                cache,
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    FetchDone(usize),
    /// A fetch attempt failed (timeout, stranded by a permanent outage, or
    /// transient error); the SRM decides between retry and giving up.
    FetchFailed(usize),
    /// Backoff elapsed: issue the next fetch attempt.
    RetryFetch(usize),
    ProcessDone(usize),
}

#[derive(Debug, Clone)]
struct JobState {
    arrival: SimTime,
    fetched_bytes: u64,
    requested_bytes: u64,
    /// Fetch attempts issued so far (including the one in flight).
    attempts: u32,
    /// The node the job was routed to.
    node: u32,
}

/// A node's FIFO service queue and its count of jobs in service.
#[derive(Debug, Default)]
struct Slots {
    queue: VecDeque<usize>,
    in_service: usize,
}

/// The run-time state behind a [`Storage`].
enum Store<'a> {
    Mss(MassStorage),
    Replicated {
        placement: &'a Placement,
        sites: Vec<MassStorage>,
        /// Each job's missing files, kept for its (re-)reads.
        files: Vec<Vec<FileId>>,
    },
}

/// Everything one run mutates, apart from the nodes' policies and caches.
struct Run<'r> {
    catalog: &'r FileCatalog,
    arrivals: &'r [JobArrival],
    config: &'r GridConfig,
    obs: &'r Obs,
    events: EventQueue<Event>,
    store: Store<'r>,
    link: Link,
    faults: Option<FaultInjector>,
    jobs: Vec<JobState>,
    slots: Vec<Slots>,
    stats: MultiGridStats,
    // Scratch for the batched-hit fast path: reused across polls so a busy
    // steady state allocates nothing per event.
    hit_batch: Vec<&'r Bundle>,
    hit_out: Vec<RequestOutcome>,
}

impl<'r> Run<'r> {
    /// Applies `f` to the grid-wide statistics and, with several nodes, to
    /// node `n`'s.
    #[inline]
    fn tally(&mut self, n: usize, f: impl Fn(&mut GridStats)) {
        f(&mut self.stats.overall);
        if let Some(node) = self.stats.per_node.get_mut(n) {
            f(node);
        }
    }

    /// Starts as many of node `n`'s queued jobs as its slots and pins allow.
    fn poll(&mut self, n: usize, node: &mut SrmNode<'_>, now: SimTime) {
        let arrivals = self.arrivals;
        let max = self.config.srm.max_concurrent_jobs;
        while self.slots[n].in_service < max {
            let Some(&i) = self.slots[n].queue.front() else {
                break;
            };
            // Batched fast path: a maximal front run of fully-resident jobs
            // is admitted through one `handle_batch` call. Hits mutate
            // nothing but the request history — no eviction, no fetch — so
            // the `supports` precheck cannot be invalidated mid-run, and
            // deferring the pins to after the batch changes nothing (pins
            // only gate evictions, which hits never attempt). Bit-identical
            // to the per-job loop by the `handle_batch` contract.
            let slots_free = max - self.slots[n].in_service;
            let run_len = self.slots[n]
                .queue
                .iter()
                .take(slots_free)
                .take_while(|&&j| node.cache.contains_all(&arrivals[j].bundle))
                .count();
            if run_len >= 2 {
                let mut batch = std::mem::take(&mut self.hit_batch);
                let mut out = std::mem::take(&mut self.hit_out);
                batch.clear();
                let queued = self.slots[n].queue.iter().take(run_len);
                batch.extend(queued.map(|&j| &arrivals[j].bundle));
                out.clear();
                node.policy
                    .handle_batch(&batch, node.cache, self.catalog, &mut out);
                debug_assert!(node.cache.check_invariants());
                for outcome in out.drain(..).take(run_len) {
                    let j = self.slots[n].queue.pop_front();
                    let j = j.expect("run length bounded by queue");
                    debug_assert!(outcome.hit && outcome.serviced);
                    self.tally(n, |s| s.cache.record(&outcome));
                    self.start(n, j, node.cache, outcome, now);
                }
                self.hit_batch = batch;
                self.hit_out = out;
                continue;
            }
            let outcome = node
                .policy
                .handle(&arrivals[i].bundle, node.cache, self.catalog);
            debug_assert!(node.cache.check_invariants());
            self.tally(n, |s| s.cache.record(&outcome));
            if !outcome.serviced {
                if outcome.requested_bytes > node.cache.capacity() {
                    // Permanently infeasible: reject.
                    self.slots[n].queue.pop_front();
                    self.tally(n, |s| s.rejected += 1);
                    if self.obs.is_enabled() {
                        self.obs.incr("grid.jobs_rejected");
                        self.obs.event("reject", &[("job", Field::u(i as u64))]);
                    }
                    continue;
                }
                // Pinned files of in-service jobs block the space; retry
                // when a job completes. With nothing in service this would
                // deadlock — treat it as a policy bug.
                assert!(
                    self.slots[n].in_service > 0,
                    "policy failed to service a feasible request on an unpinned cache"
                );
                break;
            }
            self.slots[n].queue.pop_front();
            self.start(n, i, node.cache, outcome, now);
        }
    }

    /// Puts serviced job `i` in service on node `n` and issues its fetch.
    fn start(
        &mut self,
        n: usize,
        i: usize,
        cache: &mut CacheState,
        mut outcome: RequestOutcome,
        now: SimTime,
    ) {
        pin_bundle(cache, &self.arrivals[i].bundle);
        self.slots[n].in_service += 1;
        self.jobs[i].fetched_bytes = outcome.fetched_bytes;
        self.jobs[i].requested_bytes = outcome.requested_bytes;
        if let Store::Replicated { files, .. } = &mut self.store {
            files[i] = std::mem::take(&mut outcome.fetched_files);
        }
        self.issue_fetch(i, now);
    }

    /// Issues one fetch attempt for job `i` at `now`, scheduling either
    /// `FetchDone` or `FetchFailed`.
    fn issue_fetch(&mut self, i: usize, now: SimTime) {
        let hit = match &self.store {
            Store::Mss(_) => self.jobs[i].fetched_bytes == 0,
            Store::Replicated { files, .. } => files[i].is_empty(),
        };
        if hit {
            // Pure cache hit: nothing to fetch, nothing that can fail.
            self.events.schedule(now, Event::FetchDone(i));
            return;
        }
        let n = self.jobs[i].node as usize;
        self.jobs[i].attempts += 1;
        self.tally(n, |s| s.fetch_attempts += 1);
        let obs = self.obs;
        if obs.is_enabled() {
            obs.incr("grid.fetch_attempts");
            obs.event(
                "fetch",
                &[
                    ("job", Field::u(i as u64)),
                    ("bytes", Field::u(self.jobs[i].fetched_bytes)),
                    ("attempt", Field::u(self.jobs[i].attempts as u64)),
                ],
            );
        }
        let arrive = self.read(i, now);
        let deadline = self.config.retry.fetch_timeout.map(|t| now + t);
        match arrive {
            Some(done) => {
                if let Some(deadline) = deadline {
                    if done > deadline {
                        // The attempt would finish, but not before the SRM
                        // gives up on it. The drive/link stay occupied (no
                        // cancellation in the MSS protocol); the SRM just
                        // stops waiting.
                        self.tally(n, |s| s.fetch_timeouts += 1);
                        if obs.is_enabled() {
                            obs.incr("grid.fetch_timeouts");
                            obs.event("fetch_timeout", &[("job", Field::u(i as u64))]);
                        }
                        self.events.schedule(deadline, Event::FetchFailed(i));
                        return;
                    }
                }
                let transient = self
                    .faults
                    .as_mut()
                    .is_some_and(|inj| inj.draw_transient_failure());
                if transient {
                    self.tally(n, |s| s.transient_fetch_errors += 1);
                    if obs.is_enabled() {
                        obs.incr("grid.transient_errors");
                        obs.event("transient_fault", &[("job", Field::u(i as u64))]);
                    }
                    self.events.schedule(done, Event::FetchFailed(i));
                } else {
                    self.events.schedule(done, Event::FetchDone(i));
                }
            }
            None => {
                // A permanent outage strands the attempt: it can never
                // complete. With a timeout the SRM notices at the deadline;
                // without one it would wait forever, so fail the attempt
                // immediately — the simulation must terminate either way.
                self.tally(n, |s| s.fetch_timeouts += 1);
                if obs.is_enabled() {
                    obs.incr("grid.fetch_timeouts");
                    obs.event("fetch_stranded", &[("job", Field::u(i as u64))]);
                }
                self.events
                    .schedule(deadline.unwrap_or(now), Event::FetchFailed(i));
            }
        }
    }

    /// Reads job `i`'s missing data through the storage seam and ships it
    /// over the link: returns when it has all arrived, or `None` if it
    /// never will.
    fn read(&mut self, i: usize, now: SimTime) -> Option<SimTime> {
        let faults = self.faults.as_ref();
        let link = &mut self.link;
        match &mut self.store {
            Store::Mss(mss) => {
                let bytes = self.jobs[i].fetched_bytes;
                let read_done = mss.schedule_fetch_with(now, bytes, faults)?;
                link.schedule_transfer_with(read_done, bytes, faults)
            }
            Store::Replicated {
                placement,
                sites,
                files,
            } => files[i].iter().try_fold(SimTime::ZERO, |done, &f| {
                let size = self.catalog.size(f);
                // Greedy replica selection: commit to the site whose
                // earliest-free drive would finish this read first.
                let best = placement
                    .replicas_of(f)
                    .iter()
                    .map(|&s| s as usize)
                    .min_by_key(|&s| sites[s].probe_fetch(now, size, faults).unwrap_or(FOREVER))
                    .unwrap_or_else(|| panic!("file {f} has no replica"));
                let read_done = sites[best].schedule_fetch_with(now, size, faults)?;
                Some(done.max(link.schedule_transfer_with(read_done, size, faults)?))
            }),
        }
    }
}

/// Runs the grid simulation to completion and returns its statistics.
///
/// `arrivals` must be sorted by arrival time (as produced by
/// [`crate::client::schedule_arrivals`]).
pub fn run_grid(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
) -> GridStats {
    run_grid_with_faults(policy, catalog, arrivals, config, None)
}

/// Runs the grid simulation under an optional [`FaultPlan`].
///
/// `run_grid` is this with `plan = None`. A `Some` plan compiles into a
/// [`FaultInjector`]; a zero-fault plan ([`FaultPlan::is_zero_fault`])
/// draws nothing from the plan's generator and produces byte-identical
/// statistics to a `None` run — see the determinism contract in
/// [`crate::faults`].
pub fn run_grid_with_faults(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
) -> GridStats {
    run_grid_observed(policy, catalog, arrivals, config, plan, &Obs::disabled())
}

/// [`run_grid_with_faults`] with an observability sink.
///
/// With an enabled `obs` the engine attaches a clone to the policy,
/// stamps the virtual clock with **simulated microseconds** at every
/// event-loop step, and traces the whole fetch lifecycle — `fetch`,
/// `fetch_timeout`, `transient_fault`, `fetch_stranded`, `retry` — plus
/// job arrival/completion/failure/rejection, under `grid.*` counters.
/// A disabled `obs` makes this identical to [`run_grid_with_faults`].
pub fn run_grid_observed(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> GridStats {
    let mut cache = CacheState::with_catalog(config.srm.cache_size, catalog);
    run_grid_on_cache(policy, catalog, arrivals, config, plan, obs, &mut cache)
}

/// [`run_grid_observed`] on a caller-owned [`CacheState`]: the one-node,
/// single-MSS [`run_grid_topology`].
///
/// The sharded service ([`crate::concurrent`]) runs one instance per
/// shard, each on its own cache (typically `capacity / shards`) —
/// rejection compares against `cache.capacity()`, so a per-shard cache
/// naturally rejects bundles infeasible for its share. With
/// `cache = CacheState::new(srm.cache_size)` this is exactly
/// [`run_grid_observed`].
pub fn run_grid_on_cache(
    policy: &mut dyn CachePolicy,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
    cache: &mut CacheState,
) -> GridStats {
    let node = SrmNode { policy, cache };
    let topology = Topology::default();
    run_grid_topology(&mut [node], topology, catalog, arrivals, config, plan, obs).overall
}

/// Runs a grid of `nodes` over `topology`'s storage and dispatch.
///
/// Every node runs `config.srm` apart from its cache, which it owns; the
/// storage hardware (per site, when replicated), the link, the retry
/// policy and the fault plan are shared. `per_node` in the result is
/// filled only when there is more than one node.
///
/// # Panics
/// Panics if `nodes` is empty.
pub fn run_grid_topology(
    nodes: &mut [SrmNode<'_>],
    topology: Topology<'_>,
    catalog: &FileCatalog,
    arrivals: &[JobArrival],
    config: &GridConfig,
    plan: Option<&FaultPlan>,
    obs: &Obs,
) -> MultiGridStats {
    assert!(!nodes.is_empty(), "need at least one SRM node");
    for node in nodes.iter_mut() {
        if obs.is_enabled() {
            node.policy.attach_obs(obs.clone());
        }
        node.policy
            .prepare_from(&mut arrivals.iter().map(|a| &a.bundle));
    }
    let mut events: EventQueue<Event> = EventQueue::new();
    for (i, a) in arrivals.iter().enumerate() {
        events.schedule(a.at, Event::Arrival(i));
    }
    let store = match topology.storage {
        Storage::Mss => Store::Mss(MassStorage::new(config.mss)),
        Storage::Replicated(placement) => Store::Replicated {
            placement,
            sites: vec![MassStorage::new(config.mss); placement.sites()],
            files: vec![Vec::new(); arrivals.len()],
        },
    };
    let several = nodes.len() > 1;
    let mut stats = MultiGridStats {
        per_node: vec![GridStats::default(); if several { nodes.len() } else { 0 }],
        routed: vec![0; nodes.len()],
        ..MultiGridStats::default()
    };
    if config.full_response_log {
        stats.overall.responses.enable_full_log();
        for s in &mut stats.per_node {
            s.responses.enable_full_log();
        }
    }
    let mut run = Run {
        catalog,
        arrivals,
        config,
        obs,
        events,
        store,
        link: Link::new(config.link),
        faults: plan.map(|p| FaultInjector::new(p, config.mss.drives)),
        jobs: arrivals
            .iter()
            .map(|a| JobState {
                arrival: a.at,
                fetched_bytes: 0,
                requested_bytes: 0,
                attempts: 0,
                node: 0,
            })
            .collect(),
        slots: (0..nodes.len()).map(|_| Slots::default()).collect(),
        stats,
        hit_batch: Vec::new(),
        hit_out: Vec::new(),
    };
    let affinity = ShardMap::new(nodes.len(), ShardBy::Bundle);
    let mut next_round_robin = 0usize;
    let mut last_completion = SimTime::ZERO;

    while let Some((now, event)) = run.events.pop() {
        obs.set_now(now.micros());
        // The node whose queue or service slots this event changed.
        let n = match event {
            Event::Arrival(i) => {
                if obs.is_enabled() {
                    obs.incr("grid.arrivals");
                    obs.event("arrival", &[("job", Field::u(i as u64))]);
                }
                let n = match topology.dispatch {
                    Dispatch::RoundRobin => {
                        let n = next_round_robin;
                        next_round_robin = (n + 1) % nodes.len();
                        n
                    }
                    Dispatch::LeastLoaded => (0..nodes.len())
                        .min_by_key(|&k| run.slots[k].queue.len() + run.slots[k].in_service)
                        .expect("at least one node"),
                    Dispatch::BundleAffinity => affinity.shard_of(&arrivals[i].bundle),
                };
                if several && obs.is_enabled() {
                    obs.event(
                        "route",
                        &[("job", Field::u(i as u64)), ("node", Field::u(n as u64))],
                    );
                }
                run.stats.routed[n] += 1;
                run.jobs[i].node = n as u32;
                run.slots[n].queue.push_back(i);
                n
            }
            Event::FetchDone(i) => {
                let processing = config.srm.processing_time(run.jobs[i].requested_bytes);
                run.events.schedule(now + processing, Event::ProcessDone(i));
                continue; // no new service slot freed
            }
            Event::FetchFailed(i) => {
                let n = run.jobs[i].node as usize;
                let attempts = run.jobs[i].attempts;
                if attempts <= config.retry.max_retries {
                    run.tally(n, |s| s.fetch_retries += 1);
                    let jitter = run
                        .faults
                        .as_mut()
                        .map_or(1.0, |inj| inj.backoff_jitter(config.retry.jitter_frac));
                    let delay = config.retry.backoff(attempts, jitter);
                    if obs.is_enabled() {
                        obs.incr("grid.fetch_retries");
                        obs.event(
                            "retry",
                            &[
                                ("job", Field::u(i as u64)),
                                ("attempt", Field::u(attempts as u64)),
                                ("backoff_us", Field::u(delay.micros())),
                            ],
                        );
                    }
                    run.events.schedule(now + delay, Event::RetryFetch(i));
                    continue; // slot stays held while backing off
                }
                // Retry budget exhausted: give the job up gracefully.
                unpin_bundle(nodes[n].cache, &arrivals[i].bundle);
                run.slots[n].in_service -= 1;
                run.tally(n, |s| s.failed += 1);
                if obs.is_enabled() {
                    obs.incr("grid.jobs_failed");
                    obs.event(
                        "job_failed",
                        &[
                            ("job", Field::u(i as u64)),
                            ("attempts", Field::u(attempts as u64)),
                        ],
                    );
                }
                n // a service slot is now free
            }
            Event::RetryFetch(i) => {
                run.issue_fetch(i, now);
                continue;
            }
            Event::ProcessDone(i) => {
                let n = run.jobs[i].node as usize;
                unpin_bundle(nodes[n].cache, &arrivals[i].bundle);
                run.slots[n].in_service -= 1;
                let response = now.since(run.jobs[i].arrival);
                run.tally(n, |s| {
                    s.completed += 1;
                    s.responses.record(response);
                });
                last_completion = last_completion.max(now);
                if obs.is_enabled() {
                    obs.incr("grid.jobs_completed");
                    obs.observe("grid.response_us", response.micros());
                    obs.event(
                        "job_done",
                        &[
                            ("job", Field::u(i as u64)),
                            ("response_us", Field::u(response.micros())),
                        ],
                    );
                }
                n
            }
        };
        run.poll(n, &mut nodes[n], now);
    }

    let mut stats = run.stats;
    let o = &stats.overall;
    debug_assert_eq!(
        o.completed + o.failed + o.rejected,
        arrivals.len() as u64,
        "every arrival ends completed, failed or rejected"
    );
    debug_assert!(
        nodes.iter().all(|node| node.cache.pinned_len() == 0),
        "every pin is released by the end of the run"
    );
    let makespan = last_completion.since(SimTime::ZERO);
    stats.overall.makespan = makespan;
    for s in &mut stats.per_node {
        s.makespan = makespan;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{schedule_arrivals, ArrivalProcess};
    use crate::time::SimDuration;
    use fbc_core::optfilebundle::OptFileBundle;

    fn quick_config(cache_size: u64) -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size,
                max_concurrent_jobs: 2,
                processing_rate: 1e6,
                processing_overhead: SimDuration::from_millis(10),
            },
            mss: MssConfig {
                drives: 2,
                mount_latency: SimDuration::from_millis(100),
                drive_bandwidth: 10e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(1),
                bandwidth: 100e6,
            },
            retry: RetryPolicy::default(),
            full_response_log: true, // tests below inspect per-job times
        }
    }

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn all_jobs_complete() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 6]);
        let jobs = vec![b(&[0, 1]), b(&[2, 3]), b(&[0, 1]), b(&[4, 5])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(4_000_000));
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.responses.len(), 4);
        assert!(stats.makespan > SimDuration::ZERO);
        assert!(stats.throughput() > 0.0);
        assert_eq!(stats.availability(), 1.0);
    }

    #[test]
    fn hits_complete_faster_than_misses() {
        let catalog = FileCatalog::from_sizes(vec![5_000_000; 2]);
        // Same bundle twice with widely spaced arrivals: second is a hit.
        let jobs = vec![b(&[0, 1]), b(&[0, 1])];
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Uniform {
                gap: SimDuration::from_secs(60),
            },
        );
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(20_000_000));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache.hits, 1);
        // The hit skips MSS entirely.
        let log = stats.responses.full_log().unwrap();
        assert!(log[1] < log[0]);
    }

    #[test]
    fn oversized_jobs_are_rejected_not_deadlocked() {
        let catalog = FileCatalog::from_sizes(vec![10_000_000, 100]);
        let jobs = vec![b(&[0]), b(&[1])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &quick_config(1_000_000));
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn contention_serialises_jobs() {
        // One service slot: jobs must queue even though all arrive at once.
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 4]);
        let jobs = vec![b(&[0]), b(&[1]), b(&[2]), b(&[3])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(10_000_000);
        cfg.srm.max_concurrent_jobs = 1;
        let mut policy = OptFileBundle::new();
        let stats = run_grid(&mut policy, &catalog, &arrivals, &cfg);
        assert_eq!(stats.completed, 4);
        // Later jobs wait: response times strictly increase.
        for w in stats.responses.full_log().unwrap().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let run = || {
            let mut policy = OptFileBundle::new();
            let s = run_grid(&mut policy, &catalog, &arrivals, &quick_config(3_000_000));
            (s.completed, s.makespan, s.responses.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_fault_plan_matches_no_injector_run() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let cfg = quick_config(3_000_000);
        let mut p1 = OptFileBundle::new();
        let plain = run_grid(&mut p1, &catalog, &arrivals, &cfg);
        let mut p2 = OptFileBundle::new();
        let zero =
            run_grid_with_faults(&mut p2, &catalog, &arrivals, &cfg, Some(&FaultPlan::none()));
        assert_eq!(plain, zero);
    }

    #[test]
    fn outage_then_repair_retries_to_success() {
        // Both drives down for the first 60 s and a 10 s fetch timeout: the
        // first attempts strand, back off, and succeed after the repair.
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 2]);
        let jobs = vec![b(&[0]), b(&[1])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(4_000_000);
        cfg.retry = RetryPolicy {
            max_retries: 8,
            base_backoff: SimDuration::from_secs(20),
            max_backoff: SimDuration::from_secs(20),
            jitter_frac: 0.0,
            fetch_timeout: Some(SimDuration::from_secs(10)),
        };
        let plan = FaultPlan::parse("drive=*,0,60").unwrap();
        let mut policy = OptFileBundle::new();
        let stats = run_grid_with_faults(&mut policy, &catalog, &arrivals, &cfg, Some(&plan));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert!(
            stats.fetch_retries > 0,
            "expected retries during the outage"
        );
        assert!(stats.fetch_timeouts > 0);
        assert_eq!(stats.availability(), 1.0);
        // The outage pushes completion past the repair time.
        assert!(stats.makespan >= SimDuration::from_secs(60));
    }

    #[test]
    fn observed_run_matches_plain_and_traces_the_fetch_lifecycle() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..20).map(|i| b(&[i % 8, (i + 1) % 8])).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Poisson {
                rate: 2.0,
                seed: 42,
            },
        );
        let mut cfg = quick_config(3_000_000);
        cfg.retry.max_retries = 4;
        let plan = fbc_grid_faultplan();
        let mut p1 = OptFileBundle::new();
        let plain = run_grid_with_faults(&mut p1, &catalog, &arrivals, &cfg, Some(&plan));

        let obs = fbc_obs::Obs::enabled();
        let mut p2 = OptFileBundle::new();
        let observed = run_grid_observed(&mut p2, &catalog, &arrivals, &cfg, Some(&plan), &obs);
        // Observation never perturbs the simulation.
        assert_eq!(plain, observed);
        // Counters mirror the stats the engine already aggregates.
        assert_eq!(obs.counter("grid.arrivals"), 20);
        assert_eq!(obs.counter("grid.jobs_completed"), plain.completed);
        assert_eq!(obs.counter("grid.fetch_attempts"), plain.fetch_attempts);
        assert_eq!(obs.counter("grid.fetch_retries"), plain.fetch_retries);
        // The trace is stamped with simulated microseconds and replays
        // byte-identically under the same seed.
        let obs2 = fbc_obs::Obs::enabled();
        let mut p3 = OptFileBundle::new();
        run_grid_observed(&mut p3, &catalog, &arrivals, &cfg, Some(&plan), &obs2);
        assert_eq!(obs.jsonl(), obs2.jsonl());
        assert_eq!(obs.render_table(), obs2.render_table());
    }

    fn fbc_grid_faultplan() -> FaultPlan {
        FaultPlan::parse("drive=0,2,10").unwrap()
    }

    #[test]
    fn permanent_blackout_fails_jobs_without_hanging() {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 3]);
        let jobs = vec![b(&[0]), b(&[1]), b(&[2])];
        let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
        let mut cfg = quick_config(4_000_000);
        cfg.retry.max_retries = 2;
        let plan = FaultPlan::preset("blackout").unwrap();
        let mut policy = OptFileBundle::new();
        let stats = run_grid_with_faults(&mut policy, &catalog, &arrivals, &cfg, Some(&plan));
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.availability(), 0.0);
        // Every job used its whole budget: 3 attempts, 2 retries each.
        assert_eq!(stats.fetch_attempts, 9);
        assert_eq!(stats.fetch_retries, 6);
    }

    /// Runs `n` OptFileBundle nodes over `topology`, no faults, obs off.
    fn run_nodes(
        n: usize,
        topology: Topology<'_>,
        catalog: &FileCatalog,
        arrivals: &[JobArrival],
        config: &GridConfig,
    ) -> MultiGridStats {
        let mut policies: Vec<Box<dyn CachePolicy>> = (0..n)
            .map(|_| Box::new(OptFileBundle::new()) as Box<dyn CachePolicy>)
            .collect();
        let mut caches = vec![CacheState::with_catalog(config.srm.cache_size, catalog); n];
        let mut nodes = SrmNode::zip(&mut policies, &mut caches);
        run_grid_topology(
            &mut nodes,
            topology,
            catalog,
            arrivals,
            config,
            None,
            &Obs::disabled(),
        )
    }

    fn replicated(placement: &Placement) -> Topology<'_> {
        Topology {
            storage: Storage::Replicated(placement),
            ..Topology::default()
        }
    }

    fn cluster(dispatch: Dispatch) -> Topology<'static> {
        Topology {
            dispatch,
            ..Topology::default()
        }
    }

    /// One slow single-drive site per replica: drive contention dominates.
    fn replica_config() -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size: 10_000_000,
                max_concurrent_jobs: 2,
                processing_rate: 1e8,
                processing_overhead: SimDuration::from_millis(1),
            },
            mss: MssConfig {
                drives: 1,
                mount_latency: SimDuration::from_secs(1),
                drive_bandwidth: 1e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(1),
                bandwidth: 1e9,
            },
            ..GridConfig::default()
        }
    }

    fn replica_workload() -> (FileCatalog, Vec<JobArrival>) {
        let catalog = FileCatalog::from_sizes(vec![1_000_000; 8]);
        let jobs: Vec<Bundle> = (0..12)
            .map(|i| b(&[(i * 2) % 8, (i * 2 + 1) % 8]))
            .collect();
        (catalog, schedule_arrivals(&jobs, ArrivalProcess::Batch))
    }

    #[test]
    fn all_jobs_complete_with_replication() {
        let (catalog, arrivals) = replica_workload();
        let placement = Placement::full(8, 3);
        let stats = run_nodes(
            1,
            replicated(&placement),
            &catalog,
            &arrivals,
            &replica_config(),
        );
        assert_eq!(stats.overall.completed, 12);
        assert_eq!(stats.overall.rejected, 0);
    }

    #[test]
    fn more_replicas_do_not_hurt_makespan() {
        let (catalog, arrivals) = replica_workload();
        let run = |placement: Placement| {
            run_nodes(
                1,
                replicated(&placement),
                &catalog,
                &arrivals,
                &replica_config(),
            )
            .overall
        };
        // 1 copy on 1 site = fully serialised drives; 3 sites = parallelism.
        let single = run(Placement::full(8, 1));
        let triple = run(Placement::full(8, 3));
        assert!(
            triple.makespan <= single.makespan,
            "3 sites {} > 1 site {}",
            triple.makespan,
            single.makespan
        );
        // Byte accounting is identical — replication changes timing only.
        assert_eq!(triple.cache.fetched_bytes, single.cache.fetched_bytes);
    }

    #[test]
    fn partial_replication_sits_between() {
        let (catalog, arrivals) = replica_workload();
        let run = |placement: Placement| {
            let stats = run_nodes(
                1,
                replicated(&placement),
                &catalog,
                &arrivals,
                &replica_config(),
            );
            stats.overall.makespan
        };
        let one = run(Placement::random(8, 3, 1, 42));
        let full = run(Placement::full(8, 3));
        assert!(
            full <= one,
            "full replication {full} worse than 1-copy {one}"
        );
    }

    #[test]
    fn replicated_runs_are_deterministic() {
        let (catalog, arrivals) = replica_workload();
        let placement = Placement::random(8, 3, 2, 9);
        let run = || {
            run_nodes(
                1,
                replicated(&placement),
                &catalog,
                &arrivals,
                &replica_config(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replicated_outage_retries_per_file_reads_to_success() {
        // Drive 0 of every site is down for the first 30 s: every attempt
        // issued in the outage strands, backs off and re-reads all files.
        let (catalog, arrivals) = replica_workload();
        let placement = Placement::full(8, 2);
        let mut cfg = replica_config();
        cfg.retry = RetryPolicy {
            max_retries: 8,
            base_backoff: SimDuration::from_secs(20),
            max_backoff: SimDuration::from_secs(20),
            jitter_frac: 0.0,
            fetch_timeout: Some(SimDuration::from_secs(10)),
        };
        let plan = FaultPlan::parse("drive=0,0,30").unwrap();
        let mut policy = OptFileBundle::new();
        let mut cache = CacheState::with_catalog(cfg.srm.cache_size, &catalog);
        let node = SrmNode {
            policy: &mut policy,
            cache: &mut cache,
        };
        let stats = run_grid_topology(
            &mut [node],
            replicated(&placement),
            &catalog,
            &arrivals,
            &cfg,
            Some(&plan),
            &Obs::disabled(),
        )
        .overall;
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.failed, 0);
        assert!(stats.fetch_retries > 0);
        assert!(stats.makespan >= SimDuration::from_secs(30));
    }

    fn cluster_config() -> GridConfig {
        GridConfig {
            srm: SrmConfig {
                cache_size: 4_000_000,
                max_concurrent_jobs: 2,
                processing_rate: 1e8,
                processing_overhead: SimDuration::from_millis(10),
            },
            mss: MssConfig {
                drives: 2,
                mount_latency: SimDuration::from_millis(200),
                drive_bandwidth: 50e6,
            },
            link: LinkConfig {
                latency: SimDuration::from_millis(5),
                bandwidth: 200e6,
            },
            ..GridConfig::default()
        }
    }

    /// 8 two-file bundles, each recurring 15 times.
    fn cluster_workload() -> (FileCatalog, Vec<JobArrival>) {
        let catalog = FileCatalog::from_sizes(vec![500_000; 20]);
        let pool: Vec<Bundle> = (0..8).map(|i| b(&[i * 2, i * 2 + 1])).collect();
        let jobs: Vec<Bundle> = (0..120).map(|i| pool[i % pool.len()].clone()).collect();
        let arrivals = schedule_arrivals(
            &jobs,
            ArrivalProcess::Uniform {
                gap: SimDuration::from_millis(50),
            },
        );
        (catalog, arrivals)
    }

    #[test]
    fn all_jobs_complete_across_nodes() {
        let (catalog, arrivals) = cluster_workload();
        for dispatch in [
            Dispatch::RoundRobin,
            Dispatch::LeastLoaded,
            Dispatch::BundleAffinity,
        ] {
            let stats = run_nodes(3, cluster(dispatch), &catalog, &arrivals, &cluster_config());
            assert_eq!(stats.overall.completed, 120, "{dispatch:?}");
            assert_eq!(stats.routed.iter().sum::<u64>(), 120);
            assert_eq!(stats.per_node.len(), 3);
            assert_eq!(stats.per_node.iter().map(|s| s.completed).sum::<u64>(), 120);
        }
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let (catalog, arrivals) = cluster_workload();
        let stats = run_nodes(
            3,
            cluster(Dispatch::RoundRobin),
            &catalog,
            &arrivals,
            &cluster_config(),
        );
        assert_eq!(stats.routed, vec![40, 40, 40]);
        assert!((stats.routing_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_routes_recurrences_to_one_node() {
        let (catalog, arrivals) = cluster_workload();
        let run =
            |dispatch| run_nodes(3, cluster(dispatch), &catalog, &arrivals, &cluster_config());
        // Every one of the 8 pool bundles recurs 15 times on a single node,
        // so affinity's hit count must beat round-robin's.
        let affinity = run(Dispatch::BundleAffinity);
        let rr = run(Dispatch::RoundRobin);
        assert!(
            affinity.overall.cache.hits > rr.overall.cache.hits,
            "affinity {} <= rr {}",
            affinity.overall.cache.hits,
            rr.overall.cache.hits
        );
        // And it is the shard map's bundle hash.
        let map = ShardMap::new(3, ShardBy::Bundle);
        let mut expected = vec![0u64; 3];
        for a in &arrivals {
            expected[map.shard_of(&a.bundle)] += 1;
        }
        assert_eq!(affinity.routed, expected);
    }

    #[test]
    fn single_node_topology_matches_run_grid() {
        let (catalog, arrivals) = cluster_workload();
        let cfg = cluster_config();
        for dispatch in [Dispatch::RoundRobin, Dispatch::LeastLoaded] {
            let one = run_nodes(1, cluster(dispatch), &catalog, &arrivals, &cfg);
            let mut policy = OptFileBundle::new();
            let single = run_grid(&mut policy, &catalog, &arrivals, &cfg);
            assert_eq!(one.overall, single);
            assert!(one.per_node.is_empty());
            assert_eq!(one.routed, vec![120]);
        }
    }

    #[test]
    #[should_panic(expected = "one policy per node")]
    fn policy_count_must_match_nodes() {
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![Box::new(OptFileBundle::new())];
        let mut caches = vec![CacheState::new(1_000); 2];
        let _ = SrmNode::zip(&mut policies, &mut caches);
    }

    #[test]
    #[should_panic(expected = "at least one SRM node")]
    fn a_grid_needs_a_node() {
        let (catalog, arrivals) = cluster_workload();
        let _ = run_nodes(
            0,
            Topology::default(),
            &catalog,
            &arrivals,
            &cluster_config(),
        );
    }
}
