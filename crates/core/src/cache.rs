//! Disk-cache state: the set of resident files, with capacity and pinning
//! invariants enforced at every mutation.
//!
//! `CacheState` is policy-agnostic — every replacement policy (OptFileBundle,
//! Landlord, LRU, …) mutates the same structure, so the capacity invariant
//! `used ≤ capacity` is checked in exactly one place. Pinning models the SRM
//! behaviour of holding a job's files while the job is in service (paper §2
//! and the grid substrate); a pinned file cannot be evicted.
//!
//! # Representation (DESIGN.md §15)
//!
//! Residency is *dense and hash-free*: file ids are catalog-assigned dense
//! indices, so membership is a word-packed [`DenseBitSet`] bit test and the
//! per-file record (size, pin count) lives in a slab indexed directly by the
//! raw id. Every hot probe — `contains`, `contains_all`, `missing_bytes`,
//! `insert`, `evict`, `pin` — is O(1) arithmetic with no hashing and no
//! per-operation allocation. Ids at or above
//! [`crate::bitset::SPARSE_ID_FLOOR`] (minted only by
//! sparse catalog registration, e.g. trace replay with external ids) take a
//! compact interning fallback: a hash map assigns them slots in a side
//! table, so huge non-contiguous ids cost a hash probe instead of a
//! gigabyte slab. Pinned files are kept as a sorted `Vec` (for O(pinned)
//! enumeration in ascending order) plus a bitset (for the O(1) pin test on
//! the eviction path) instead of the previous `BTreeSet`.
//!
//! The previous `HashMap`+`BTreeSet` implementation is retained verbatim as
//! [`CacheStateReference`] behind the `reference-kernels` feature and pinned
//! bit-for-bit by the model-based proptest suite
//! (`crates/core/tests/cache_model.rs`) and the workspace differential
//! suites: same results, same errors, same sorted enumerations.
//!
//! Determinism contract: [`CacheState::iter`] and
//! [`CacheState::resident_files`] remain *unspecified order* in the API, but
//! the implementation is deterministic (ascending dense ids, then interned
//! sparse ids in slot order) — strictly more reproducible than the
//! SipHash-randomized order of the reference twin, which is why no committed
//! output could ever have depended on it.

use crate::bitset::{DenseBitSet, SPARSE_ID_FLOOR};
use crate::bundle::Bundle;
use crate::catalog::FileCatalog;
use crate::error::{FbcError, Result};
use crate::types::{Bytes, FileId};
use rustc_hash::FxHashMap;

/// The set of files currently resident in the disk cache.
#[derive(Debug, Clone, Default)]
pub struct CacheState {
    capacity: Bytes,
    used: Bytes,
    /// Dense slab indexed by raw file id; an entry is meaningful iff the
    /// corresponding `resident` bit is set.
    slots: Vec<Resident>,
    /// Word-packed membership bits over dense ids.
    resident: DenseBitSet,
    /// Word-packed `pins > 0` bits over dense ids.
    pinned_bits: DenseBitSet,
    /// Interning fallback for sparse ids (`>= SPARSE_ID_FLOOR`).
    sparse: SparseTable,
    /// All pinned files (dense and sparse), sorted ascending.
    pinned: Vec<FileId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Resident {
    size: Bytes,
    pins: u32,
}

/// Interning table for sparse file ids: a hash map assigns each id a slot
/// in a compact side slab, with freed slots reused. Iteration order is slot
/// order — deterministic for a given operation sequence.
#[derive(Debug, Clone, Default)]
struct SparseTable {
    index: FxHashMap<u32, u32>,
    /// Slot → raw id; meaningful only while `occupied[slot]`.
    ids: Vec<u32>,
    slots: Vec<Resident>,
    occupied: Vec<bool>,
    free: Vec<u32>,
}

impl SparseTable {
    fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    fn contains(&self, raw: u32) -> bool {
        self.index.contains_key(&raw)
    }

    #[inline]
    fn get(&self, raw: u32) -> Option<&Resident> {
        self.index.get(&raw).map(|&s| &self.slots[s as usize])
    }

    #[inline]
    fn get_mut(&mut self, raw: u32) -> Option<&mut Resident> {
        self.index.get(&raw).map(|&s| &mut self.slots[s as usize])
    }

    fn insert(&mut self, raw: u32, r: Resident) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.ids[s as usize] = raw;
                self.slots[s as usize] = r;
                self.occupied[s as usize] = true;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.ids.push(raw);
                self.slots.push(r);
                self.occupied.push(true);
                s
            }
        };
        self.index.insert(raw, slot);
    }

    fn remove(&mut self, raw: u32) -> Option<Resident> {
        let slot = self.index.remove(&raw)?;
        let r = self.slots[slot as usize];
        self.occupied[slot as usize] = false;
        self.free.push(slot);
        Some(r)
    }

    fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.ids
            .iter()
            .zip(&self.slots)
            .zip(&self.occupied)
            .filter(|&(_, &occ)| occ)
            .map(|((&id, r), _)| (FileId(id), r.size))
    }

    fn clear(&mut self) {
        self.index.clear();
        self.ids.clear();
        self.slots.clear();
        self.occupied.clear();
        self.free.clear();
    }
}

impl CacheState {
    /// Creates an empty cache of the given capacity. The dense slab grows
    /// lazily with the largest inserted id; use
    /// [`with_catalog`](Self::with_catalog) to pre-size it and keep the
    /// first fill allocation-free.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Creates an empty cache pre-sized for `catalog`'s dense id universe.
    /// Behaviorally identical to [`new`](Self::new) — sizing only.
    pub fn with_catalog(capacity: Bytes, catalog: &FileCatalog) -> Self {
        let n = catalog.dense_len().min(SPARSE_ID_FLOOR as usize);
        Self {
            capacity,
            slots: vec![Resident::default(); n],
            resident: DenseBitSet::with_capacity(n),
            pinned_bits: DenseBitSet::with_capacity(n),
            ..Self::default()
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    #[inline]
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    #[inline]
    pub fn free(&self) -> Bytes {
        self.capacity - self.used
    }

    /// Number of resident files.
    #[inline]
    pub fn len(&self) -> usize {
        self.resident.len() + self.sparse.len()
    }

    /// Whether no file is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `file` is resident: one bit test for dense ids, a hash
    /// probe only for sparse ones.
    #[inline]
    pub fn contains(&self, file: FileId) -> bool {
        if file.0 < SPARSE_ID_FLOOR {
            self.resident.contains(file.0)
        } else {
            self.sparse.contains(file.0)
        }
    }

    /// Whether every file of `bundle` is resident, tested against the
    /// residency bitset in one pass — the batched hit-check kernel the
    /// engines call per arrival.
    #[inline]
    pub fn contains_all(&self, bundle: &Bundle) -> bool {
        bundle.iter().all(|f| self.contains(f))
    }

    /// Whether every file of `bundle` is resident — i.e. whether the bundle
    /// is a *request-hit* (paper §3). Alias of
    /// [`contains_all`](Self::contains_all).
    #[inline]
    pub fn supports(&self, bundle: &Bundle) -> bool {
        self.contains_all(bundle)
    }

    /// The files of `bundle` that are *not* resident.
    pub fn missing_of(&self, bundle: &Bundle) -> Vec<FileId> {
        bundle.iter().filter(|&f| !self.contains(f)).collect()
    }

    /// Total bytes of `bundle`'s files that are not resident, computed in
    /// one pass over the bundle with no intermediate allocation.
    pub fn missing_bytes(&self, bundle: &Bundle, catalog: &FileCatalog) -> Bytes {
        bundle
            .iter()
            .filter(|&f| !self.contains(f))
            .map(|f| catalog.size(f))
            .sum()
    }

    /// Inserts `file` (size taken from `catalog`).
    ///
    /// Fails with [`FbcError::CapacityExceeded`] if the file does not fit and
    /// with [`FbcError::DuplicateFile`] if it is already resident — policies
    /// are expected to check both conditions, so violations indicate bugs.
    pub fn insert(&mut self, file: FileId, catalog: &FileCatalog) -> Result<()> {
        let size = catalog.try_size(file)?;
        if self.contains(file) {
            return Err(FbcError::DuplicateFile(file));
        }
        if self.used + size > self.capacity {
            return Err(FbcError::CapacityExceeded {
                capacity: self.capacity,
                used: self.used,
                requested: size,
            });
        }
        if file.0 < SPARSE_ID_FLOOR {
            let idx = file.index();
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, Resident::default());
            }
            self.slots[idx] = Resident { size, pins: 0 };
            self.resident.insert(file.0);
        } else {
            self.sparse.insert(file.0, Resident { size, pins: 0 });
        }
        self.used += size;
        Ok(())
    }

    /// Evicts `file`, returning its size.
    ///
    /// Fails if the file is not resident or is pinned.
    pub fn evict(&mut self, file: FileId) -> Result<Bytes> {
        if file.0 < SPARSE_ID_FLOOR {
            if !self.resident.contains(file.0) {
                return Err(FbcError::NotResident(file));
            }
            if self.pinned_bits.contains(file.0) {
                return Err(FbcError::Pinned(file));
            }
            let size = self.slots[file.index()].size;
            self.resident.remove(file.0);
            self.used -= size;
            Ok(size)
        } else {
            match self.sparse.get(file.0) {
                None => Err(FbcError::NotResident(file)),
                Some(r) if r.pins > 0 => Err(FbcError::Pinned(file)),
                Some(_) => {
                    let size = self.sparse.remove(file.0).expect("present").size;
                    self.used -= size;
                    Ok(size)
                }
            }
        }
    }

    /// Pins `file` for the duration of a job's service; pinned files cannot
    /// be evicted. Pins are counted, so overlapping jobs sharing a file each
    /// hold their own pin.
    pub fn pin(&mut self, file: FileId) -> Result<()> {
        let r = if file.0 < SPARSE_ID_FLOOR {
            if !self.resident.contains(file.0) {
                return Err(FbcError::NotResident(file));
            }
            &mut self.slots[file.index()]
        } else {
            match self.sparse.get_mut(file.0) {
                None => return Err(FbcError::NotResident(file)),
                Some(r) => r,
            }
        };
        r.pins += 1;
        if r.pins == 1 {
            if file.0 < SPARSE_ID_FLOOR {
                self.pinned_bits.insert(file.0);
            }
            if let Err(i) = self.pinned.binary_search(&file) {
                self.pinned.insert(i, file);
            }
        }
        Ok(())
    }

    /// Releases one pin on `file`.
    pub fn unpin(&mut self, file: FileId) -> Result<()> {
        let r = if file.0 < SPARSE_ID_FLOOR {
            if !self.resident.contains(file.0) {
                return Err(FbcError::NotResident(file));
            }
            &mut self.slots[file.index()]
        } else {
            match self.sparse.get_mut(file.0) {
                None => return Err(FbcError::NotResident(file)),
                Some(r) => r,
            }
        };
        if r.pins == 0 {
            return Err(FbcError::NotPinned(file));
        }
        r.pins -= 1;
        if r.pins == 0 {
            if file.0 < SPARSE_ID_FLOOR {
                self.pinned_bits.remove(file.0);
            }
            if let Ok(i) = self.pinned.binary_search(&file) {
                self.pinned.remove(i);
            }
        }
        Ok(())
    }

    /// Whether `file` is currently pinned: one bit test for dense ids.
    #[inline]
    pub fn is_pinned(&self, file: FileId) -> bool {
        if file.0 < SPARSE_ID_FLOOR {
            self.pinned_bits.contains(file.0)
        } else {
            self.sparse.get(file.0).is_some_and(|r| r.pins > 0)
        }
    }

    /// Number of currently pinned files.
    #[inline]
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Iterates over the pinned files in ascending id order.
    pub fn pinned_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.pinned.iter().copied()
    }

    /// Iterates over resident `(FileId, size)` pairs in unspecified order.
    /// (The implementation yields ascending dense ids followed by interned
    /// sparse ids in slot order — deterministic, unlike the hash-ordered
    /// reference twin; callers must not rely on either.)
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.resident
            .iter_ones()
            .map(|i| (FileId(i), self.slots[i as usize].size))
            .chain(self.sparse.iter())
    }

    /// All resident file ids (unspecified order).
    pub fn resident_files(&self) -> Vec<FileId> {
        self.iter().map(|(f, _)| f).collect()
    }

    /// Resident file ids sorted ascending — useful for deterministic output.
    pub fn resident_files_sorted(&self) -> Vec<FileId> {
        let mut v = self.resident_files();
        v.sort_unstable();
        v
    }

    /// Empties the cache (files, pins, usage), keeping the capacity and the
    /// slab/bitset allocations warm for reuse.
    pub fn clear(&mut self) {
        self.used = 0;
        self.resident.clear();
        self.pinned_bits.clear();
        self.sparse.clear();
        self.pinned.clear();
    }

    /// Debug invariant: recomputes `used` from scratch and compares.
    /// Intended for tests and `debug_assert!`s in the simulators.
    pub fn check_invariants(&self) -> bool {
        let sum: Bytes = self.iter().map(|(_, s)| s).sum();
        let pins_tracked = self.pinned.iter().all(|&f| {
            self.contains(f)
                && if f.0 < SPARSE_ID_FLOOR {
                    self.slots[f.index()].pins > 0 && self.pinned_bits.contains(f.0)
                } else {
                    self.sparse.get(f.0).is_some_and(|r| r.pins > 0)
                }
        }) && self.iter().filter(|&(f, _)| self.is_pinned(f)).count()
            == self.pinned.len()
            && self.pinned.windows(2).all(|w| w[0] < w[1])
            && self.pinned_bits.len() <= self.pinned.len();
        sum == self.used && self.used <= self.capacity && pins_tracked
    }
}

/// The previous `HashMap`+`BTreeSet` implementation of [`CacheState`],
/// retained verbatim as the reference twin (house pattern): the dense
/// implementation must match it bit-for-bit on every observable — results,
/// errors, sorted enumerations — which the model-based proptest suite
/// (`crates/core/tests/cache_model.rs`) drives with random operation
/// sequences including the sparse-id adversary.
#[cfg(any(test, feature = "reference-kernels"))]
pub struct CacheStateReference {
    capacity: Bytes,
    used: Bytes,
    /// Resident files mapped to `(size, pin_count)`.
    files: std::collections::HashMap<FileId, RefResident>,
    /// Files with `pins > 0`, kept sorted so policies can enumerate the
    /// pinned set in O(pinned) instead of scanning every resident.
    pinned: std::collections::BTreeSet<FileId>,
}

#[cfg(any(test, feature = "reference-kernels"))]
#[derive(Debug, Clone, Copy)]
struct RefResident {
    size: Bytes,
    pins: u32,
}

#[cfg(any(test, feature = "reference-kernels"))]
impl CacheStateReference {
    /// Creates an empty cache of the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            used: 0,
            files: std::collections::HashMap::new(),
            pinned: std::collections::BTreeSet::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> Bytes {
        self.capacity - self.used
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no file is resident.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Whether `file` is resident.
    pub fn contains(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Whether every file of `bundle` is resident.
    pub fn supports(&self, bundle: &Bundle) -> bool {
        bundle.is_subset_of(|f| self.contains(f))
    }

    /// The files of `bundle` that are *not* resident.
    pub fn missing_of(&self, bundle: &Bundle) -> Vec<FileId> {
        bundle.iter().filter(|&f| !self.contains(f)).collect()
    }

    /// Total bytes of `bundle`'s files that are not resident.
    pub fn missing_bytes(&self, bundle: &Bundle, catalog: &FileCatalog) -> Bytes {
        bundle
            .iter()
            .filter(|&f| !self.contains(f))
            .map(|f| catalog.size(f))
            .sum()
    }

    /// Inserts `file` (size taken from `catalog`).
    pub fn insert(&mut self, file: FileId, catalog: &FileCatalog) -> Result<()> {
        let size = catalog.try_size(file)?;
        if self.files.contains_key(&file) {
            return Err(FbcError::DuplicateFile(file));
        }
        if self.used + size > self.capacity {
            return Err(FbcError::CapacityExceeded {
                capacity: self.capacity,
                used: self.used,
                requested: size,
            });
        }
        self.files.insert(file, RefResident { size, pins: 0 });
        self.used += size;
        Ok(())
    }

    /// Evicts `file`, returning its size.
    pub fn evict(&mut self, file: FileId) -> Result<Bytes> {
        match self.files.get(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) if r.pins > 0 => Err(FbcError::Pinned(file)),
            Some(r) => {
                let size = r.size;
                self.files.remove(&file);
                self.used -= size;
                Ok(size)
            }
        }
    }

    /// Pins `file`; pins are counted.
    pub fn pin(&mut self, file: FileId) -> Result<()> {
        match self.files.get_mut(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) => {
                r.pins += 1;
                if r.pins == 1 {
                    self.pinned.insert(file);
                }
                Ok(())
            }
        }
    }

    /// Releases one pin on `file`.
    pub fn unpin(&mut self, file: FileId) -> Result<()> {
        match self.files.get_mut(&file) {
            None => Err(FbcError::NotResident(file)),
            Some(r) if r.pins == 0 => Err(FbcError::NotPinned(file)),
            Some(r) => {
                r.pins -= 1;
                if r.pins == 0 {
                    self.pinned.remove(&file);
                }
                Ok(())
            }
        }
    }

    /// Whether `file` is currently pinned.
    pub fn is_pinned(&self, file: FileId) -> bool {
        self.files.get(&file).is_some_and(|r| r.pins > 0)
    }

    /// Number of currently pinned files.
    pub fn pinned_len(&self) -> usize {
        self.pinned.len()
    }

    /// Iterates over the pinned files in ascending id order.
    pub fn pinned_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.pinned.iter().copied()
    }

    /// Iterates over resident `(FileId, size)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, Bytes)> + '_ {
        self.files.iter().map(|(&f, r)| (f, r.size))
    }

    /// All resident file ids (unspecified order).
    pub fn resident_files(&self) -> Vec<FileId> {
        self.files.keys().copied().collect()
    }

    /// Resident file ids sorted ascending.
    pub fn resident_files_sorted(&self) -> Vec<FileId> {
        let mut v = self.resident_files();
        v.sort_unstable();
        v
    }

    /// Empties the cache, keeping the capacity.
    pub fn clear(&mut self) {
        self.used = 0;
        self.files.clear();
        self.pinned.clear();
    }

    /// Debug invariant: recomputes `used` from scratch and compares.
    pub fn check_invariants(&self) -> bool {
        let sum: Bytes = self.files.values().map(|r| r.size).sum();
        let pins_tracked = self
            .pinned
            .iter()
            .all(|f| self.files.get(f).is_some_and(|r| r.pins > 0))
            && self.files.values().filter(|r| r.pins > 0).count() == self.pinned.len();
        sum == self.used && self.used <= self.capacity && pins_tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> FileCatalog {
        FileCatalog::from_sizes(vec![10, 20, 30, 40])
    }

    #[test]
    fn insert_and_evict_track_usage() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.insert(FileId(2), &c).unwrap();
        assert_eq!(cache.used(), 40);
        assert_eq!(cache.free(), 60);
        assert_eq!(cache.evict(FileId(0)).unwrap(), 10);
        assert_eq!(cache.used(), 30);
        assert!(cache.check_invariants());
    }

    #[test]
    fn capacity_is_enforced() {
        let c = catalog();
        let mut cache = CacheState::new(25);
        cache.insert(FileId(1), &c).unwrap(); // 20
        let err = cache.insert(FileId(0), &c).unwrap_err(); // 10 > 5 free
        assert!(matches!(err, FbcError::CapacityExceeded { .. }));
        assert_eq!(cache.used(), 20);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        assert_eq!(
            cache.insert(FileId(0), &c),
            Err(FbcError::DuplicateFile(FileId(0)))
        );
    }

    #[test]
    fn evict_nonresident_rejected() {
        let mut cache = CacheState::new(100);
        assert_eq!(
            cache.evict(FileId(0)),
            Err(FbcError::NotResident(FileId(0)))
        );
    }

    #[test]
    fn pinned_files_cannot_be_evicted() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(1), &c).unwrap();
        cache.pin(FileId(1)).unwrap();
        assert_eq!(cache.evict(FileId(1)), Err(FbcError::Pinned(FileId(1))));
        cache.unpin(FileId(1)).unwrap();
        assert!(cache.evict(FileId(1)).is_ok());
    }

    #[test]
    fn pins_are_counted() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.unpin(FileId(0)).unwrap();
        assert!(cache.is_pinned(FileId(0)));
        cache.unpin(FileId(0)).unwrap();
        assert!(!cache.is_pinned(FileId(0)));
    }

    #[test]
    fn unpinning_an_unpinned_file_is_an_error() {
        // Regression: unpin used to saturate at zero and report success,
        // silently absorbing an unbalanced release.
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        assert_eq!(cache.unpin(FileId(0)), Err(FbcError::NotPinned(FileId(0))));
        cache.pin(FileId(0)).unwrap();
        cache.unpin(FileId(0)).unwrap();
        assert_eq!(cache.unpin(FileId(0)), Err(FbcError::NotPinned(FileId(0))));
        assert!(!cache.is_pinned(FileId(0)));
        assert!(cache.check_invariants());
        // A sparse (interned) id takes the same path.
        let sparse = FileId(SPARSE_ID_FLOOR + 7);
        let mut c = catalog();
        c.add_file_at(sparse, 1).unwrap();
        cache.insert(sparse, &c).unwrap();
        assert_eq!(cache.unpin(sparse), Err(FbcError::NotPinned(sparse)));
        // The reference twin agrees.
        let mut reference = CacheStateReference::new(100);
        reference.insert(FileId(0), &c).unwrap();
        assert_eq!(
            reference.unpin(FileId(0)),
            Err(FbcError::NotPinned(FileId(0)))
        );
    }

    #[test]
    fn supports_and_missing() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.insert(FileId(1), &c).unwrap();
        let bundle = Bundle::from_raw([0, 1, 2]);
        assert!(!cache.supports(&bundle));
        assert!(!cache.contains_all(&bundle));
        assert_eq!(cache.missing_of(&bundle), vec![FileId(2)]);
        assert_eq!(cache.missing_bytes(&bundle, &c), 30);
        cache.insert(FileId(2), &c).unwrap();
        assert!(cache.supports(&bundle));
        assert!(cache.contains_all(&bundle));
        assert_eq!(cache.missing_bytes(&bundle, &c), 0);
    }

    #[test]
    fn unknown_file_insert_fails_cleanly() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        assert_eq!(
            cache.insert(FileId(99), &c),
            Err(FbcError::UnknownFile(FileId(99)))
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn resident_files_sorted_is_deterministic() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        for i in [2u32, 0, 3] {
            cache.insert(FileId(i), &c).unwrap();
        }
        assert_eq!(
            cache.resident_files_sorted(),
            vec![FileId(0), FileId(2), FileId(3)]
        );
    }

    #[test]
    fn with_catalog_is_behaviorally_identical() {
        let c = catalog();
        let mut a = CacheState::new(100);
        let mut b = CacheState::with_catalog(100, &c);
        for i in [2u32, 0, 3] {
            a.insert(FileId(i), &c).unwrap();
            b.insert(FileId(i), &c).unwrap();
        }
        assert_eq!(a.resident_files_sorted(), b.resident_files_sorted());
        assert_eq!(a.used(), b.used());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        cache.insert(FileId(0), &c).unwrap();
        cache.pin(FileId(0)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used(), 0);
        assert_eq!(cache.pinned_len(), 0);
        assert!(!cache.is_pinned(FileId(0)));
        assert_eq!(cache.capacity(), 100);
        cache.insert(FileId(0), &c).unwrap();
        assert!(!cache.is_pinned(FileId(0)), "pins do not survive clear");
        assert!(cache.check_invariants());
    }

    #[test]
    fn sparse_ids_take_the_interning_fallback() {
        let mut c = catalog();
        let huge = FileId(SPARSE_ID_FLOOR + 1_000_000);
        let max = FileId(u32::MAX);
        c.add_file_at(huge, 7).unwrap();
        c.add_file_at(max, 9).unwrap();
        let mut cache = CacheState::new(100);
        cache.insert(huge, &c).unwrap();
        cache.insert(max, &c).unwrap();
        cache.insert(FileId(0), &c).unwrap();
        assert!(cache.contains(huge) && cache.contains(max));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.used(), 26);
        cache.pin(huge).unwrap();
        assert!(cache.is_pinned(huge));
        assert_eq!(cache.evict(huge), Err(FbcError::Pinned(huge)));
        assert_eq!(
            cache.pinned_files().collect::<Vec<_>>(),
            vec![huge],
            "sparse pins enumerate in ascending order"
        );
        cache.unpin(huge).unwrap();
        assert_eq!(cache.evict(huge).unwrap(), 7);
        assert_eq!(
            cache.resident_files_sorted(),
            vec![FileId(0), max],
            "sorted enumeration spans dense and sparse ids"
        );
        assert!(cache.check_invariants());
    }

    #[test]
    fn iter_is_ascending_over_dense_ids() {
        let c = catalog();
        let mut cache = CacheState::new(100);
        for i in [3u32, 1, 0] {
            cache.insert(FileId(i), &c).unwrap();
        }
        let got: Vec<FileId> = cache.iter().map(|(f, _)| f).collect();
        assert_eq!(got, vec![FileId(0), FileId(1), FileId(3)]);
    }
}
