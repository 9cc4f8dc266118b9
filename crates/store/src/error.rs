//! Typed persistence errors.
//!
//! Every way serialized bytes can be wrong has its own variant, because
//! the recovery path branches on *why* a snapshot or WAL failed: a bad
//! magic or version means the file is not ours (or from another format
//! version) and the previous snapshot should be tried; a truncated or
//! checksum-failing WAL tail means the process died mid-append and the
//! valid prefix is still good. Nothing in this crate panics on corrupted
//! input — that is the corruption-injection test suite's contract.

use std::fmt;
use std::io;

/// Result alias for persistence operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from snapshot/WAL encoding, decoding, and recovery.
#[derive(Debug)]
pub enum Error {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The magic this file should have carried.
        expected: &'static [u8; 8],
        /// What the first bytes actually were (zero-padded when short).
        found: [u8; 8],
    },
    /// The format version is not one this build can read.
    BadVersion {
        /// The version this build writes and reads.
        expected: u32,
        /// The version the file claims.
        found: u32,
    },
    /// The bytes end mid-structure (torn write or truncated file).
    Truncated {
        /// Which structure the reader was decoding when bytes ran out.
        context: &'static str,
    },
    /// The trailing/record checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum recomputed over the bytes read.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
    /// The bytes decoded, but violate a semantic invariant of the model
    /// (e.g. malformed taxonomy parts, or a profile count that does not
    /// match the reassembled community).
    Corrupt(String),
    /// The store directory holds no snapshot file. (When every snapshot
    /// fails to load, recovery returns the newest one's error instead.)
    NoSnapshot,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "store I/O error: {e}"),
            Error::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(*expected),
                String::from_utf8_lossy(found),
            ),
            Error::BadVersion { expected, found } => {
                write!(f, "unsupported format version {found} (this build reads {expected})")
            }
            Error::Truncated { context } => write!(f, "truncated input while reading {context}"),
            Error::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            Error::Corrupt(what) => write!(f, "corrupt model state: {what}"),
            Error::NoSnapshot => write!(f, "no snapshot in the store"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::BadMagic { expected: b"SEMRECSN", found: *b"XXXXXXXX" }
            .to_string()
            .contains("SEMRECSN"));
        assert!(Error::BadVersion { expected: 2, found: 9 }.to_string().contains('9'));
        assert!(Error::Truncated { context: "wal record" }.to_string().contains("wal record"));
        assert!(Error::ChecksumMismatch { computed: 1, stored: 2 }
            .to_string()
            .contains("mismatch"));
        assert!(Error::Corrupt("profile count".into()).to_string().contains("profile count"));
        assert!(Error::NoSnapshot.to_string().contains("snapshot"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: Error = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
