//! Typed failure surfaces of the wire layer.
//!
//! The split mirrors the trust boundary: [`WireError`] classifies *bytes*
//! — everything a hostile peer can put on a socket — and is produced by
//! pure, total decode paths (no I/O, no panics). [`NetError`] wraps the
//! operational failures around them: sockets closing, dial budgets
//! running dry, sessions refusing to build. A `WireError` at a peering
//! door becomes a `Verdict::MaliciousResource` for that peer; a
//! `NetError` degrades a connection, never the process.

use std::fmt;

use gridmine_arm::RuleFormError;
use gridmine_core::SessionError;

/// Why a received byte string is not a protocol frame.
///
/// Every variant is reachable from attacker-controlled input, so decode
/// paths return it instead of panicking — the panic-freedom lints
/// cover the codec modules to keep it that way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with the protocol magic.
    BadMagic,
    /// The header names a protocol version this build does not speak.
    UnsupportedVersion(u16),
    /// The header names a frame kind this build does not know.
    UnknownKind(u8),
    /// The byte string ends before the header's length says it should.
    Truncated,
    /// The trailing checksum does not match the header + payload.
    ChecksumMismatch,
    /// The header's length field exceeds the frame cap (a hostile peer
    /// must not be able to make a receiver allocate gigabytes).
    TooLarge(u32),
    /// The payload decoded structurally but violates a protocol
    /// invariant or is not its value's one byte form (empty consequent,
    /// unsorted items, unreduced threshold, non-UTF-8 text, undecodable
    /// ciphertext bytes, trailing garbage, …).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::TooLarge(n) => write!(f, "frame length {n} exceeds cap"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<RuleFormError> for WireError {
    fn from(e: RuleFormError) -> Self {
        match e {
            RuleFormError::Truncated => WireError::Truncated,
            RuleFormError::NotCanonical(why) => WireError::Malformed(why),
        }
    }
}

/// An operational transport failure (as opposed to hostile bytes).
#[derive(Debug)]
pub enum NetError {
    /// Socket I/O failed.
    Io(std::io::Error),
    /// The peer closed the connection.
    Closed,
    /// Bytes arrived but were not a frame.
    Wire(WireError),
    /// The peering handshake did not complete (wrong session, wrong
    /// role, unexpected first frame).
    Handshake(&'static str),
    /// The session was mis-built: refused by the screen every driver
    /// runs ([`gridmine_core::validate_grid`]), with the same variant.
    Session(SessionError),
    /// The session cannot run as processes: no node binary, a hostile
    /// resource outside the grid, or a node spec that does not encode.
    Setup(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Closed => write!(f, "peer closed the connection"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Handshake(why) => write!(f, "handshake failed: {why}"),
            NetError::Session(e) => write!(f, "session rejected: {e}"),
            NetError::Setup(why) => write!(f, "session rejected: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<SessionError> for NetError {
    fn from(e: SessionError) -> Self {
        NetError::Session(e)
    }
}
