//! Deterministic request→shard routing for the concurrent SRM service.
//!
//! A [`ShardMap`] is a pure function of the bundle and the shard count —
//! no state, no randomness — so the same trace always routes the same
//! way, which is what makes a sharded run reproducible regardless of how
//! many workers execute the shards. The multi-node engine's
//! [`crate::engine::Dispatch::BundleAffinity`] routes through the same map
//! ([`ShardBy::Bundle`]).
//!
//! Both hash with std's `DefaultHasher`, whose algorithm Rust does not
//! promise to keep stable across releases: a toolchain upgrade may move
//! jobs between shards or nodes and so change committed figures (within
//! one build, routing is always deterministic).

use fbc_core::bundle::Bundle;
use std::hash::{DefaultHasher, Hash, Hasher};

/// What a job is hashed by when routing it to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Hash the bundle's lead (lowest-id) file. Jobs touching the same
    /// lead file land on the same shard, so a hot file's working set
    /// stays together; bundles sharing their lead file never fetch it
    /// twice across shards. The default.
    #[default]
    File,
    /// Hash the whole (canonical, sorted) bundle. Repeats of the same
    /// bundle land together; distinct bundles sharing files may split
    /// across shards and fetch those files independently.
    Bundle,
}

impl ShardBy {
    /// Short label for CLI parsing and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShardBy::File => "file",
            ShardBy::Bundle => "bundle",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "file" => Some(ShardBy::File),
            "bundle" => Some(ShardBy::Bundle),
            _ => None,
        }
    }
}

/// The routing function: `shard_of` maps every bundle to `0..shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    by: ShardBy,
}

impl ShardMap {
    /// A map over `shards` shards (must be ≥ 1).
    pub fn new(shards: usize, by: ShardBy) -> Self {
        assert!(shards >= 1, "at least one shard");
        Self { shards, by }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a bundle is serviced on. Empty bundles go to shard 0.
    pub fn shard_of(&self, bundle: &Bundle) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = DefaultHasher::new();
        match self.by {
            ShardBy::File => match bundle.iter().next() {
                Some(f) => f.hash(&mut h),
                None => return 0,
            },
            ShardBy::Bundle => bundle.hash(&mut h),
        }
        (h.finish() % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ids: &[u32]) -> Bundle {
        Bundle::from_raw(ids.iter().copied())
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let m = ShardMap::new(1, ShardBy::Bundle);
        for ids in [&[0u32][..], &[1, 2, 3], &[]] {
            assert_eq!(m.shard_of(&b(ids)), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for by in [ShardBy::File, ShardBy::Bundle] {
            let m = ShardMap::new(4, by);
            for i in 0..200u32 {
                let bundle = b(&[i, i + 1, i * 7 % 50]);
                let s = m.shard_of(&bundle);
                assert!(s < 4);
                assert_eq!(s, m.shard_of(&bundle), "{by:?} must be pure");
            }
        }
    }

    #[test]
    fn file_mode_groups_by_lead_file() {
        let m = ShardMap::new(8, ShardBy::File);
        // Same lowest file id → same shard, whatever else the bundle holds.
        assert_eq!(m.shard_of(&b(&[3, 9])), m.shard_of(&b(&[3, 40, 41])));
        assert_eq!(m.shard_of(&b(&[3])), m.shard_of(&b(&[3, 9])));
    }

    #[test]
    fn bundle_mode_groups_exact_repeats() {
        let m = ShardMap::new(8, ShardBy::Bundle);
        assert_eq!(m.shard_of(&b(&[1, 2])), m.shard_of(&b(&[2, 1])));
        // Some pair of distinct bundles must land on distinct shards.
        let spread: std::collections::HashSet<usize> =
            (0..64u32).map(|i| m.shard_of(&b(&[i]))).collect();
        assert!(spread.len() > 1, "hashing must actually spread load");
    }

    #[test]
    fn labels_roundtrip() {
        for by in [ShardBy::File, ShardBy::Bundle] {
            assert_eq!(ShardBy::parse(by.label()), Some(by));
        }
        assert_eq!(ShardBy::parse("nope"), None);
    }
}
