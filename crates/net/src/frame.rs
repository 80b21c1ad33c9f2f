//! Length-delimited framing: magic + version header, byte-count prefix,
//! per-frame checksum.
//!
//! Layout of one frame on the wire:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "GMW\x01"-style tag (`MAGIC`)
//! 4       2     wire protocol version, little-endian (`WIRE_VERSION`)
//! 6       1     frame kind (see `codec::Frame`)
//! 7       1     flags (reserved, must be zero)
//! 8       4     payload length, little-endian
//! 12      len   payload
//! 12+len  8     checksum over header + payload, little-endian
//! ```
//!
//! Every header is screened before its payload is read: a frame of any
//! version but [`WIRE_VERSION`] is refused whatever its kind, so the
//! handshake carries no version of its own.
//!
//! The checksum is a SplitMix64-chained digest — not cryptographic (the
//! authenticated-counter tags inside the payload carry the integrity
//! argument of §5.2); it exists so a half-open socket, a short read or a
//! flipped bit surfaces as a typed [`WireError`] at the framing layer
//! instead of as garbage protocol state three layers up.
//!
//! Every decode path in this module is total: hostile bytes produce a
//! `WireError`, never a panic (the panic-freedom lints cover this
//! file).

// No unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::Read;

use crate::error::{NetError, WireError};

/// Frame magic: `GM` + `W` (wire) + layout revision byte.
pub const MAGIC: [u8; 4] = *b"GMW\x01";

/// Wire protocol version spoken by this build. Bumped on any layout
/// change. Every frame's header carries it and [`parse_header`] refuses
/// any other, so a peer speaking another layout is refused at its first
/// frame, whatever the kind.
pub const WIRE_VERSION: u16 = 4;

/// Header size in bytes (magic + version + kind + flags + length).
pub const HEADER_LEN: usize = 12;

/// Trailing checksum size in bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Maximum payload length a receiver will buffer. Generous for real
/// Paillier counters (a few KiB each), tight enough that a hostile
/// length field cannot balloon allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Digest of a byte string: the workspace's SplitMix64 chain
/// ([`gridmine_store::chain_bytes`]) started from the frame's own
/// length-seeded constant.
pub fn checksum(bytes: &[u8]) -> u64 {
    gridmine_store::chain_bytes(0x243F_6A88_85A3_08D3u64 ^ (bytes.len() as u64), bytes)
}

/// Assembles a full frame byte string from a kind tag and payload.
pub fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    let start = begin(&mut out);
    out.extend_from_slice(payload);
    finish(&mut out, start, kind);
    out
}

/// Starts a frame in place at the end of `out`: reserves its header and
/// returns where the frame begins. The caller appends the payload and
/// calls [`finish`] — a frame written this way is never copied.
pub fn begin(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    // Kind, flags (reserved, zero) and payload length; `finish` fills in
    // the first and the last.
    out.extend_from_slice(&[0; HEADER_LEN - 6]);
    start
}

/// Completes the frame [`begin`] started at `start`: everything appended
/// since is its payload. Patches kind and length into the header and
/// appends the checksum.
pub fn finish(out: &mut Vec<u8>, start: usize, kind: u8) {
    let len = out.len().saturating_sub(start + HEADER_LEN) as u32;
    if let Some(header) = out.get_mut(start..start + HEADER_LEN) {
        if let Some(slot) = header.get_mut(6) {
            *slot = kind;
        }
        if let Some(slot) = header.get_mut(8..) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
    }
    let digest = checksum(out.get(start..).unwrap_or_default());
    out.extend_from_slice(&digest.to_le_bytes());
}

/// A parsed frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Frame kind tag (interpreted by the codec).
    pub kind: u8,
    /// Payload length in bytes.
    pub len: u32,
}

/// Reads little-endian integers out of fixed-size prefixes without
/// indexing (total: `None` on short input).
fn le_u16(b: &[u8]) -> Option<u16> {
    Some(u16::from_le_bytes(b.get(..2)?.try_into().ok()?))
}

fn le_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

fn le_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// Parses and screens a 12-byte header. Total.
pub fn parse_header(header: &[u8]) -> Result<Header, WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if header.get(..4) != Some(MAGIC.as_slice()) {
        return Err(WireError::BadMagic);
    }
    let version = header.get(4..).and_then(le_u16).ok_or(WireError::Truncated)?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = header.get(6).copied().ok_or(WireError::Truncated)?;
    let flags = header.get(7).copied().ok_or(WireError::Truncated)?;
    if flags != 0 {
        return Err(WireError::Malformed("nonzero reserved flags"));
    }
    let len = header.get(8..).and_then(le_u32).ok_or(WireError::Truncated)?;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    Ok(Header { kind, len })
}

/// Splits a full frame byte string into `(kind, payload)` after
/// verifying magic, version, length and checksum. Total.
pub fn open(frame: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let header = parse_header(frame.get(..HEADER_LEN).ok_or(WireError::Truncated)?)?;
    let body_end = HEADER_LEN + header.len as usize;
    let payload = frame.get(HEADER_LEN..body_end).ok_or(WireError::Truncated)?;
    let trailer = frame.get(body_end..).ok_or(WireError::Truncated)?;
    let claimed = le_u64(trailer).ok_or(WireError::Truncated)?;
    if trailer.len() != CHECKSUM_LEN {
        return Err(WireError::Malformed("trailing bytes after checksum"));
    }
    let computed = checksum(frame.get(..body_end).ok_or(WireError::Truncated)?);
    if claimed != computed {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((header.kind, payload))
}

/// The length of the frame `buf` starts with, if it holds all of it and
/// the header screens clean ([`read_frame_bytes`] reports one that fails).
pub(crate) fn complete_len(buf: &[u8]) -> Option<usize> {
    let header = parse_header(buf.get(..HEADER_LEN)?).ok()?;
    let len = HEADER_LEN + header.len as usize + CHECKSUM_LEN;
    (buf.len() >= len).then_some(len)
}

/// Reads one full frame byte string off a stream. Distinguishes a clean
/// EOF at a frame boundary ([`NetError::Closed`]) from a mid-frame cut
/// ([`WireError::Truncated`]); header screens run before the payload is
/// buffered so a hostile length field never allocates.
pub fn read_frame_bytes<R: Read>(r: &mut R) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let Some(buf) = header.get_mut(filled..) else {
            return Err(NetError::Wire(WireError::Truncated));
        };
        match r.read(buf) {
            Ok(0) => {
                return if filled == 0 {
                    Err(NetError::Closed)
                } else {
                    Err(NetError::Wire(WireError::Truncated))
                };
            }
            Ok(n) => filled += n,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let parsed = parse_header(&header)?;
    let rest = parsed.len as usize + CHECKSUM_LEN;
    let mut frame = Vec::with_capacity(HEADER_LEN + rest);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + rest, 0);
    let mut got = 0usize;
    while got < rest {
        let Some(buf) = frame.get_mut(HEADER_LEN + got..) else {
            return Err(NetError::Wire(WireError::Truncated));
        };
        match r.read(buf) {
            Ok(0) => return Err(NetError::Wire(WireError::Truncated)),
            Ok(n) => got += n,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_round_trips() {
        let frame = seal(7, b"hello counters");
        let (kind, payload) = open(&frame).expect("clean frame");
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello counters");
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let frame = seal(3, b"abcdef");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(open(&bad).is_err(), "flip at byte {byte} bit {bit} went unnoticed");
            }
        }
    }

    #[test]
    fn truncations_are_typed_not_panics() {
        let frame = seal(1, &[9u8; 32]);
        for cut in 0..frame.len() {
            let err = open(&frame[..cut]).expect_err("short frame must fail");
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadMagic | WireError::ChecksumMismatch
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn hostile_length_is_capped_before_allocation() {
        let mut frame = seal(1, b"x");
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(open(&frame), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn foreign_magic_and_version_are_refused() {
        let mut frame = seal(1, b"x");
        frame[0] = b'X';
        assert_eq!(open(&frame), Err(WireError::BadMagic));
        let mut frame = seal(1, b"x");
        frame[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(open(&frame), Err(WireError::UnsupportedVersion(99)));
    }

    #[test]
    fn stream_reader_matches_buffer_opener() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&seal(2, b"one"));
        bytes.extend_from_slice(&seal(4, b"two"));
        let mut cursor = std::io::Cursor::new(bytes);
        let a = read_frame_bytes(&mut cursor).expect("first");
        let b = read_frame_bytes(&mut cursor).expect("second");
        assert_eq!(open(&a).expect("a"), (2, &b"one"[..]));
        assert_eq!(open(&b).expect("b"), (4, &b"two"[..]));
        assert!(matches!(read_frame_bytes(&mut cursor), Err(NetError::Closed)));
    }
}
