//! Error types for the core crate.

use crate::types::{Bytes, FileId};
use std::fmt;

/// Errors produced by core data structures and algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FbcError {
    /// Inserting a file would exceed the cache capacity.
    CapacityExceeded {
        /// Capacity of the cache in bytes.
        capacity: Bytes,
        /// Bytes currently resident.
        used: Bytes,
        /// Size of the file whose insertion was attempted.
        requested: Bytes,
    },
    /// A file id was used that the catalog does not know about.
    UnknownFile(FileId),
    /// A file was inserted into a cache it already resides in.
    DuplicateFile(FileId),
    /// A file was evicted that is not resident.
    NotResident(FileId),
    /// A pinned file was evicted.
    Pinned(FileId),
    /// A pin was released on a file that holds none.
    NotPinned(FileId),
    /// A configuration value is invalid (e.g. zero capacity, `k > n`).
    InvalidConfig(String),
}

impl fmt::Display for FbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbcError::CapacityExceeded {
                capacity,
                used,
                requested,
            } => write!(
                f,
                "cache capacity exceeded: capacity={capacity} used={used} requested={requested}"
            ),
            FbcError::UnknownFile(id) => write!(f, "unknown file {id}"),
            FbcError::DuplicateFile(id) => write!(f, "file {id} already resident"),
            FbcError::NotResident(id) => write!(f, "file {id} is not resident"),
            FbcError::Pinned(id) => write!(f, "file {id} is pinned and cannot be evicted"),
            FbcError::NotPinned(id) => write!(f, "file {id} is not pinned"),
            FbcError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for FbcError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FbcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FbcError::CapacityExceeded {
            capacity: 100,
            used: 90,
            requested: 20,
        };
        let msg = e.to_string();
        assert!(msg.contains("capacity=100"));
        assert!(msg.contains("used=90"));
        assert!(msg.contains("requested=20"));

        assert!(FbcError::UnknownFile(FileId(7)).to_string().contains("f7"));
        assert!(FbcError::Pinned(FileId(3)).to_string().contains("pinned"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&FbcError::UnknownFile(FileId(0)));
    }
}
