//! The store's typed failure vocabulary.
//!
//! Every way a segment can disappoint a reader is a value here — decode
//! never panics, and consumers map [`StoreError::Corrupt`] to the same
//! untrusted-input handling as a forged recovery image (a
//! `MaliciousResource` verdict or a fresh-state rejoin, never a crash).

/// Why a segment failed structural or chain validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// A record header claims a payload larger than the segment cap —
    /// a prefix-cut crash cannot produce this (the cap is checked
    /// against the *claimed* length, not the bytes present), so it is
    /// tampering or media rot.
    BadLength,
    /// A record's chain digest does not match its bytes. The chain
    /// binds every record to its predecessor and sequence number, so a
    /// flipped bit anywhere surfaces on the very record it touched.
    DigestMismatch,
    /// A record carries the wrong sequence number (splice or replay of
    /// a record from elsewhere in the chain).
    SequenceSkew,
    /// The record's payload is not a well-formed store operation.
    BadOp,
    /// A WAL's anchor record does not bind it to the snapshot beside
    /// it (mixed generations, or a WAL transplanted between stores).
    AnchorMismatch,
    /// A snapshot ends mid-record. Snapshots are published by atomic
    /// rename, so a torn one was never legitimately visible.
    TornSnapshot,
    /// A WAL exists without the snapshot generation it chains from.
    MissingSnapshot,
}

impl CorruptKind {
    /// Stable diagnostic tag (pinned by the fixture corpus).
    pub fn name(self) -> &'static str {
        match self {
            CorruptKind::BadLength => "bad-length",
            CorruptKind::DigestMismatch => "digest-mismatch",
            CorruptKind::SequenceSkew => "sequence-skew",
            CorruptKind::BadOp => "bad-op",
            CorruptKind::AnchorMismatch => "anchor-mismatch",
            CorruptKind::TornSnapshot => "torn-snapshot",
            CorruptKind::MissingSnapshot => "missing-snapshot",
        }
    }
}

/// Everything [`crate::Store`] and [`crate::Backend`] can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The backend's I/O failed (message carries the os-level detail).
    Io(String),
    /// An injected crash point killed the backend; every later
    /// operation on the dead backend reports this.
    Crashed,
    /// A segment failed validation at `offset` bytes in.
    Corrupt {
        /// Segment file name within the store.
        segment: String,
        /// Byte offset of the offending record's header.
        offset: u64,
        /// What exactly failed.
        kind: CorruptKind,
    },
    /// A key, value or tree name exceeds the segment's record cap.
    TooLarge(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store i/o: {msg}"),
            StoreError::Crashed => write!(f, "store backend crashed (injected kill point)"),
            StoreError::Corrupt { segment, offset, kind } => {
                write!(f, "corrupt segment {segment} at byte {offset}: {}", kind.name())
            }
            StoreError::TooLarge(what) => write!(f, "store record too large: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(format!("{}: {e}", e.kind()))
    }
}
