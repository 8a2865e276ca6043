//! Replicated mass storage: files live on several MSS sites and each fetch
//! chooses a replica — the paper's §1 lists "strategic data replication"
//! among the techniques data-grids rely on.
//!
//! A [`Placement`] says which sites hold each file; the engine's
//! [`crate::engine::Storage::Replicated`] reads each missing file from the
//! replica site that finishes it earliest (drive queues considered), so
//! files stream in parallel across sites.

use fbc_core::types::FileId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Placement of files onto storage sites.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `sites_of[f]` = site indices holding a replica of file `f`.
    sites_of: Vec<Vec<u32>>,
    sites: usize,
}

impl Placement {
    /// Every file on every site (full replication).
    pub fn full(files: usize, sites: usize) -> Self {
        assert!(sites > 0);
        Self {
            sites_of: vec![(0..sites as u32).collect(); files],
            sites,
        }
    }

    /// Each file on `copies` distinct sites chosen uniformly (seeded).
    pub fn random(files: usize, sites: usize, copies: usize, seed: u64) -> Self {
        assert!(sites > 0 && copies >= 1 && copies <= sites);
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<u32> = (0..sites as u32).collect();
        let sites_of = (0..files)
            .map(|_| {
                let mut s = all.clone();
                s.shuffle(&mut rng);
                s.truncate(copies);
                s.sort_unstable();
                s
            })
            .collect();
        Self { sites_of, sites }
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// The sites holding `file`.
    pub fn replicas_of(&self, file: FileId) -> &[u32] {
        &self.sites_of[file.index()]
    }

    /// Mean replica count (diagnostics).
    pub fn mean_copies(&self) -> f64 {
        if self.sites_of.is_empty() {
            return 0.0;
        }
        self.sites_of.iter().map(|s| s.len() as f64).sum::<f64>() / self.sites_of.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_validate() {
        let full = Placement::full(10, 3);
        assert_eq!(full.replicas_of(FileId(5)), &[0, 1, 2]);
        assert_eq!(full.mean_copies(), 3.0);
        let partial = Placement::random(10, 4, 2, 7);
        assert_eq!(partial.mean_copies(), 2.0);
        for f in 0..10u32 {
            let r = partial.replicas_of(FileId(f));
            assert_eq!(r.len(), 2);
            assert!(r.windows(2).all(|w| w[0] < w[1]));
            assert!(r.iter().all(|&s| s < 4));
        }
    }
}
