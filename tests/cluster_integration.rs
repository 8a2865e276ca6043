//! Integration tests for the grid topologies — multi-SRM clusters and
//! replicated storage — driven through the public facade's one entry point,
//! `run_grid_topology`.

use file_bundle_cache::grid::client::schedule_arrivals;
use file_bundle_cache::grid::JobArrival;
use file_bundle_cache::prelude::*;

fn workload(seed: u64) -> (FileCatalog, Vec<Bundle>) {
    let w = Workload::generate(WorkloadConfig {
        num_files: 80,
        max_file_frac: 0.02,
        pool_requests: 40,
        jobs: 300,
        files_per_request: (1, 4),
        popularity: Popularity::zipf(),
        seed,
        ..WorkloadConfig::default()
    });
    (w.catalog, w.jobs)
}

fn config(cache_size: u64) -> GridConfig {
    GridConfig {
        srm: SrmConfig {
            cache_size,
            ..SrmConfig::default()
        },
        ..GridConfig::default()
    }
}

/// A trace on a grid configuration, ready to run over any topology.
struct Grid<'a> {
    catalog: &'a FileCatalog,
    arrivals: &'a [JobArrival],
    config: GridConfig,
}

impl Grid<'_> {
    /// Runs `nodes` fresh `kind` policies, each on its own empty cache of
    /// `config.srm.cache_size`, over `topology`.
    fn run(
        &self,
        kind: PolicyKind,
        nodes: usize,
        topology: Topology<'_>,
        plan: Option<&FaultPlan>,
        obs: &Obs,
    ) -> MultiGridStats {
        let mut policies: Vec<Box<dyn CachePolicy>> = (0..nodes).map(|_| kind.build()).collect();
        let size = self.config.srm.cache_size;
        let mut caches = vec![CacheState::with_catalog(size, self.catalog); nodes];
        run_grid_topology(
            &mut SrmNode::zip(&mut policies, &mut caches),
            topology,
            self.catalog,
            self.arrivals,
            &self.config,
            plan,
            obs,
        )
    }
}

fn dispatched(dispatch: Dispatch) -> Topology<'static> {
    Topology {
        dispatch,
        ..Topology::default()
    }
}

fn replicated(placement: &Placement) -> Topology<'_> {
    Topology {
        storage: Storage::Replicated(placement),
        ..Topology::default()
    }
}

#[test]
fn multi_grid_conserves_jobs_across_dispatches() {
    let (catalog, jobs) = workload(1);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 5.0, seed: 2 });
    let grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(GIB),
    };
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let stats = grid.run(
            PolicyKind::OptFileBundle,
            3,
            dispatched(dispatch),
            None,
            &Obs::disabled(),
        );
        assert_eq!(
            stats.overall.completed + stats.overall.rejected,
            jobs.len() as u64,
            "{dispatch:?}"
        );
        assert_eq!(stats.routed.iter().sum::<u64>(), jobs.len() as u64);
        // Per-node stats sum to the overall.
        assert_eq!(
            stats.per_node.iter().map(|s| s.completed).sum::<u64>(),
            stats.overall.completed
        );
        assert_eq!(
            stats
                .per_node
                .iter()
                .map(|s| s.cache.fetched_bytes)
                .sum::<u64>(),
            stats.overall.cache.fetched_bytes
        );
    }
}

#[test]
fn affinity_beats_round_robin_on_hits() {
    let (catalog, jobs) = workload(3);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(GIB / 2),
    };
    let hits = |dispatch: Dispatch| {
        let topology = dispatched(dispatch);
        let stats = grid.run(
            PolicyKind::OptFileBundle,
            4,
            topology,
            None,
            &Obs::disabled(),
        );
        stats.overall.cache.hits
    };
    let rr = hits(Dispatch::RoundRobin);
    let aff = hits(Dispatch::BundleAffinity);
    assert!(aff >= rr, "affinity {aff} < round-robin {rr}");
}

#[test]
fn replication_changes_timing_not_bytes() {
    let (catalog, jobs) = workload(5);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Batch);
    let mut grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(2 * GIB),
    };
    grid.config.srm.max_concurrent_jobs = 1; // sequential: decisions independent of timing
    let stats = |placement: Placement| {
        let topology = replicated(&placement);
        let stats = grid.run(
            PolicyKind::OptFileBundle,
            1,
            topology,
            None,
            &Obs::disabled(),
        );
        stats.overall
    };
    let files = catalog.len();
    let one = stats(Placement::random(files, 4, 1, 11));
    let four = stats(Placement::full(files, 4));
    // With sequential service, the byte accounting is timing-independent.
    assert_eq!(one.cache.fetched_bytes, four.cache.fetched_bytes);
    assert!(four.makespan <= one.makespan);
    assert_eq!(one.completed, four.completed);
}

/// A one-node, single-MSS topology is exactly `run_grid_observed`: same
/// statistics, same rendered report, same JSONL trace — for every online
/// policy, with and without faults, whatever the (irrelevant) dispatch.
#[test]
fn single_node_multi_grid_equals_engine() {
    let (catalog, jobs) = workload(7);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 2.0, seed: 8 });
    let grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(GIB / 2),
    };
    let plans = [
        None,
        FaultPlan::preset("tape-outage"),
        FaultPlan::preset("flaky-wan"),
        Some(FaultPlan::parse("transient=0.05;seed=11").unwrap()),
    ];
    for (k, kind) in PolicyKind::ONLINE.into_iter().enumerate() {
        for plan in &plans {
            let dispatch = [Dispatch::RoundRobin, Dispatch::LeastLoaded][k % 2];
            let obs = Obs::enabled();
            let unified = grid.run(kind, 1, dispatched(dispatch), plan.as_ref(), &obs);
            let engine_obs = Obs::enabled();
            let mut policy = kind.build();
            let engine = run_grid_observed(
                policy.as_mut(),
                &catalog,
                &arrivals,
                &grid.config,
                plan.as_ref(),
                &engine_obs,
            );
            let name = format!("{kind:?}");
            let label = format!("{name} under {plan:?}");
            assert_eq!(unified.overall, engine, "{label}");
            assert_eq!(
                unified.overall.report(&name).as_str(),
                engine.report(&name).as_str(),
                "{label}"
            );
            assert_eq!(obs.jsonl(), engine_obs.jsonl(), "{label}");
            assert_eq!(unified.routed, vec![jobs.len() as u64]);
            assert!(unified.per_node.is_empty());
        }
    }
}

/// Faulted multi-node and replicated grids replay byte-identically from
/// the same seed, and the fault layer really engages on both.
#[test]
fn faulted_topologies_replay_byte_identically() {
    let (catalog, jobs) = workload(9);
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 2.0, seed: 4 });
    let mut grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(GIB / 2),
    };
    grid.config.retry.fetch_timeout = Some(SimDuration::from_secs(120));
    let plan = FaultPlan::parse("drive=1,30,400;transient=0.1;seed=13").unwrap();
    let placement = Placement::random(catalog.len(), 4, 2, 21);
    let cases = [
        ("3-node", 3, dispatched(Dispatch::LeastLoaded)),
        ("4-site", 1, replicated(&placement)),
    ];
    for (name, nodes, topology) in cases {
        let replay = || {
            let obs = Obs::enabled();
            let stats = grid.run(PolicyKind::Landlord, nodes, topology, Some(&plan), &obs);
            (stats, obs.jsonl())
        };
        let (first, trace) = replay();
        let (second, trace2) = replay();
        assert_eq!(first, second, "{name}");
        assert_eq!(trace, trace2, "{name}");
        let o = &first.overall;
        assert!(o.fetch_retries > 0, "{name}: no retries");
        assert_eq!(o.completed + o.failed + o.rejected, jobs.len() as u64);
        // Only a multi-node trace carries routing decisions.
        assert_eq!(trace.contains("\"ev\":\"route\""), nodes > 1, "{name}");
    }
}

/// Under a permanent blackout no fetch can ever succeed: with every job
/// needing fresh files, both topologies fail every job and terminate.
#[test]
fn blackout_fails_every_job_in_every_topology() {
    let catalog = FileCatalog::from_sizes(vec![10_000_000; 90]);
    let jobs: Vec<Bundle> = (0..30u32)
        .map(|j| Bundle::from_raw([3 * j, 3 * j + 1, 3 * j + 2]))
        .collect();
    let arrivals = schedule_arrivals(&jobs, ArrivalProcess::Poisson { rate: 1.0, seed: 3 });
    let mut grid = Grid {
        catalog: &catalog,
        arrivals: &arrivals,
        config: config(GIB),
    };
    grid.config.retry.max_retries = 2;
    let plan = FaultPlan::preset("blackout").unwrap();
    let placement = Placement::full(catalog.len(), 4);
    let cases = [
        ("3-node", 3, dispatched(Dispatch::RoundRobin)),
        ("4-site", 1, replicated(&placement)),
    ];
    for (name, nodes, topology) in cases {
        let obs = Obs::disabled();
        let stats = grid
            .run(PolicyKind::Lru, nodes, topology, Some(&plan), &obs)
            .overall;
        assert_eq!(stats.completed, 0, "{name}");
        assert_eq!(stats.failed, jobs.len() as u64, "{name}");
        assert_eq!(stats.availability(), 0.0, "{name}");
        assert_eq!(stats.fetch_attempts, 3 * jobs.len() as u64, "{name}");
    }
}
