//! Multi-SRM cluster example: jobs dispatched across four SRM nodes that
//! share a replicated mass-storage fabric — the "cluster of machines" SRM
//! deployment the paper's §2 sketches, with the two extensions combined:
//! bundle-affinity dispatch (cache locality) and 2-way file replication
//! (drive-contention relief).
//!
//! ```text
//! cargo run --release --example multi_srm_cluster
//! ```

use file_bundle_cache::prelude::*;

fn main() {
    let workload = Workload::generate(WorkloadConfig {
        num_files: 300,
        max_file_frac: 0.02,
        pool_requests: 150,
        jobs: 2_000,
        files_per_request: (2, 5),
        popularity: Popularity::zipf(),
        seed: 4_242,
        ..WorkloadConfig::default()
    });
    let arrivals = fbc_grid::client::schedule_arrivals(
        &workload.jobs,
        ArrivalProcess::Poisson { rate: 4.0, seed: 1 },
    );
    println!(
        "cluster workload: {} jobs over {} files ({})\n",
        workload.jobs.len(),
        workload.catalog.len(),
        fbc_core::types::format_bytes(workload.catalog.total_bytes()),
    );

    // Part 1: dispatch strategies across a 4-node SRM cluster.
    println!("--- dispatch across 4 SRM nodes (1 GiB cache each) ---");
    let mut table = Table::new([
        "dispatch",
        "byte miss ratio",
        "hit ratio",
        "mean resp (s)",
        "imbalance",
    ]);
    for dispatch in [
        Dispatch::RoundRobin,
        Dispatch::LeastLoaded,
        Dispatch::BundleAffinity,
    ] {
        let config = GridConfig {
            srm: SrmConfig {
                cache_size: GIB,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        let mut policies: Vec<Box<dyn CachePolicy>> = (0..4)
            .map(|_| Box::new(OptFileBundle::new()) as Box<dyn CachePolicy>)
            .collect();
        let mut caches = vec![CacheState::with_catalog(GIB, &workload.catalog); 4];
        let stats = run_grid_topology(
            &mut SrmNode::zip(&mut policies, &mut caches),
            Topology {
                dispatch,
                ..Topology::default()
            },
            &workload.catalog,
            &arrivals,
            &config,
            None,
            &Obs::disabled(),
        );
        table.add_row([
            dispatch.label().to_string(),
            format!("{:.4}", stats.overall.cache.byte_miss_ratio()),
            format!("{:.4}", stats.overall.cache.request_hit_ratio()),
            format!("{:.1}", stats.overall.mean_response().as_secs_f64()),
            format!("{:.2}", stats.routing_imbalance()),
        ]);
    }
    println!("{}", table.to_ascii());

    // Part 2: replica count on a single large SRM.
    println!("--- replication across a 4-site storage fabric (one 4 GiB SRM) ---");
    let mut table = Table::new(["replicas/file", "mean resp (s)", "p95 resp (s)"]);
    for copies in [1usize, 2, 4] {
        let placement = if copies == 4 {
            Placement::full(workload.catalog.len(), 4)
        } else {
            Placement::random(workload.catalog.len(), 4, copies, 99)
        };
        let config = GridConfig {
            srm: SrmConfig {
                cache_size: 4 * GIB,
                ..SrmConfig::default()
            },
            ..GridConfig::default()
        };
        let mut policy = OptFileBundle::new();
        let mut cache = CacheState::with_catalog(4 * GIB, &workload.catalog);
        let node = SrmNode {
            policy: &mut policy,
            cache: &mut cache,
        };
        let topology = Topology {
            storage: Storage::Replicated(&placement),
            ..Topology::default()
        };
        let stats = run_grid_topology(
            &mut [node],
            topology,
            &workload.catalog,
            &arrivals,
            &config,
            None,
            &Obs::disabled(),
        )
        .overall;
        table.add_row([
            copies.to_string(),
            format!("{:.1}", stats.mean_response().as_secs_f64()),
            format!("{:.1}", stats.percentile_response(0.95).as_secs_f64()),
        ]);
    }
    println!("{}", table.to_ascii());
    println!(
        "Affinity dispatch keeps recurring bundles on one node's cache; replication\n\
         spreads tape-drive contention. The two compose: locality saves bytes,\n\
         replication saves time on the bytes that still move."
    );
}
