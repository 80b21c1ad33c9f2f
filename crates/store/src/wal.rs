//! Segment record codec: length-prefixed, digest-chained records.
//!
//! Both segment kinds — snapshots and write-ahead logs — are a flat
//! sequence of records:
//!
//! ```text
//! ┌─────────┬─────────┬────────────┬──────────────┐
//! │ len:u32 │ seq:u64 │ digest:u64 │ payload[len] │   (little endian)
//! └─────────┴─────────┴────────────┴──────────────┘
//! ```
//!
//! `digest = digest_bytes(prev_digest ^ seq, payload)` — a SplitMix64
//! chain, the one digest discipline of the workspace (the recovery
//! journal *is* a WAL of these records), from a genesis constant and a
//! per-(kind, generation) seed so a record can never be spliced between
//! segments, generations or kinds. This is **tamper evidence, not
//! authentication**: it is keyless, and catches corruption and naive
//! tampering; a forger who recomputes the chain is caught downstream by
//! the restore screens (share audits, wellformedness).
//!
//! ## Torn tails vs. corruption
//!
//! The crash model is POSIX append semantics: a write cut by a crash
//! leaves a strict *prefix* of the appended bytes. Under that model a
//! record interrupted mid-write is always *structurally short* — its
//! header or payload extends past end-of-file — so the scanner can
//! discriminate:
//!
//! * record runs past EOF → **torn tail**: a benign crash artifact; the
//!   WAL is truncated back to its last whole record (a snapshot must
//!   never have one — it is published by atomic rename — so there it is
//!   [`CorruptKind::TornSnapshot`]).
//! * record fully present but chain-invalid (digest, sequence, length
//!   cap, or payload shape) → **corruption**: a typed
//!   [`StoreError::Corrupt`], never a truncate-and-continue and never a
//!   panic.

use crate::error::{CorruptKind, StoreError};

/// Fixed bytes before each record's payload.
pub const HEADER: usize = 4 + 8 + 8;

/// Hard cap on one record's payload. Anything larger is refused at
/// write time and read as tampering at decode time.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Domain-separation constant for segment chains.
const GENESIS: u64 = 0x570E_C0DE_1217_6A0A;

/// Which flavor of segment a chain seed belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// Full-tree dump, published by atomic rename, read strictly.
    Snapshot,
    /// Append-only log chained onto the snapshot beside it.
    Wal,
}

/// SplitMix64 finalizer — the workspace's one mixing primitive for
/// digests, frame checksums, session ids and backoff jitter. Not
/// cryptographic.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds `bytes` into `acc`, 8 little-endian bytes at a time (the
/// trailing partial word is zero-padded).
pub fn chain_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word.iter_mut().zip(chunk).for_each(|(w, &b)| *w = b);
        acc = mix64(acc ^ u64::from_le_bytes(word));
    }
    acc
}

/// Chains `bytes` onto `seed` under a length-mixed start value.
pub fn digest_bytes(seed: u64, bytes: &[u8]) -> u64 {
    chain_bytes(mix64(seed ^ bytes.len() as u64), bytes)
}

/// The chain seed for records of one segment.
pub fn seg_seed(kind: SegKind, generation: u64) -> u64 {
    let tag = match kind {
        SegKind::Snapshot => 0x5A0D,
        SegKind::Wal => 0x3A11,
    };
    GENESIS ^ mix64(generation ^ tag)
}

/// One logical store operation, as carried in a record payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// First record of every WAL: binds it to the snapshot (by chain
    /// head) and generation it extends.
    Anchor { snap_head: u64, generation: u64 },
    /// Insert or overwrite `key` in `tree`.
    Put { tree: String, key: Vec<u8>, value: Vec<u8> },
    /// Remove `key` from `tree` (absent keys are a no-op on replay).
    Delete { tree: String, key: Vec<u8> },
}

const OP_ANCHOR: u8 = 0;
const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

impl Op {
    /// Total byte encoding of the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        match self {
            Op::Anchor { snap_head, generation } => {
                out.push(OP_ANCHOR);
                out.extend_from_slice(&snap_head.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Op::Put { tree, key, value } => {
                out.push(OP_PUT);
                push_str(&mut out, tree);
                push_bytes(&mut out, key);
                push_bytes(&mut out, value);
            }
            Op::Delete { tree, key } => {
                out.push(OP_DELETE);
                push_str(&mut out, tree);
                push_bytes(&mut out, key);
            }
        }
        out
    }

    fn encoded_len(&self) -> usize {
        match self {
            Op::Anchor { .. } => 1 + 8 + 8,
            Op::Put { tree, key, value } => 1 + 2 + tree.len() + 4 + key.len() + 4 + value.len(),
            Op::Delete { tree, key } => 1 + 2 + tree.len() + 4 + key.len(),
        }
    }

    /// Total decode: every byte accounted for, nothing trusted.
    pub fn decode(payload: &[u8]) -> Option<Op> {
        let mut r = Cursor { buf: payload, pos: 0 };
        let op = match r.u8()? {
            OP_ANCHOR => Op::Anchor { snap_head: r.u64()?, generation: r.u64()? },
            OP_PUT => Op::Put { tree: r.string()?, key: r.bytes()?, value: r.bytes()? },
            OP_DELETE => Op::Delete { tree: r.string()?, key: r.bytes()? },
            _ => return None,
        };
        if r.pos == payload.len() {
            Some(op)
        } else {
            None
        }
    }
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Bounds-checked little-endian reader (the net codec's `Reader`
/// idiom, scoped to record payloads and the backend framing).
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        let n = u16::from_le_bytes(self.take(2)?.try_into().ok()?) as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        Some(self.take(n)?.to_vec())
    }
}

/// Encodes one record, returning its bytes and the new chain head.
pub fn encode_record(prev: u64, seq: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    let digest = digest_bytes(prev ^ seq, payload);
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(payload);
    (out, digest)
}

/// What scanning a segment yields.
#[derive(Debug)]
pub struct Scan {
    /// Decoded operations, in order.
    pub ops: Vec<Op>,
    /// Chain head after the last whole record.
    pub head: u64,
    /// Next expected sequence number.
    pub next_seq: u64,
    /// Bytes of whole, valid records (the truncation point when torn).
    pub valid_len: u64,
    /// `Some(total_len)` when the segment ends in a torn record.
    pub torn: Option<u64>,
}

fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)?.try_into().ok().map(u32::from_le_bytes)
}

fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..at + 8)?.try_into().ok().map(u64::from_le_bytes)
}

/// Scans one segment, enforcing the chain. `kind` selects torn-tail
/// tolerance: a WAL's torn tail is reported for truncation; a
/// snapshot's is [`CorruptKind::TornSnapshot`].
pub fn scan_segment(
    segment: &str,
    kind: SegKind,
    seed: u64,
    bytes: &[u8],
) -> Result<Scan, StoreError> {
    let corrupt = |offset: u64, k: CorruptKind| StoreError::Corrupt {
        segment: segment.to_string(),
        offset,
        kind: k,
    };
    let mut ops = Vec::new();
    let mut head = seed;
    let mut seq = 0u64;
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return Ok(Scan { ops, head, next_seq: seq, valid_len: pos as u64, torn: None });
        }
        let torn = |ops: Vec<Op>, head: u64, seq: u64| match kind {
            SegKind::Wal => Ok(Scan {
                ops,
                head,
                next_seq: seq,
                valid_len: pos as u64,
                torn: Some(bytes.len() as u64),
            }),
            SegKind::Snapshot => Err(corrupt(pos as u64, CorruptKind::TornSnapshot)),
        };
        // Header truncated by a crash mid-append.
        let Some(len) = le_u32(bytes, pos) else {
            return torn(ops, head, seq);
        };
        let len = len as usize;
        if len > MAX_PAYLOAD {
            // A prefix-cut can shorten a record but never inflate its
            // length field: an over-cap claim is tampering.
            return Err(corrupt(pos as u64, CorruptKind::BadLength));
        }
        let (Some(rec_seq), Some(digest)) = (le_u64(bytes, pos + 4), le_u64(bytes, pos + 12))
        else {
            return torn(ops, head, seq);
        };
        let Some(payload) = bytes.get(pos + HEADER..pos + HEADER + len) else {
            // Payload runs past EOF: the append this record rode in on
            // was cut by a crash.
            return torn(ops, head, seq);
        };
        if rec_seq != seq {
            return Err(corrupt(pos as u64, CorruptKind::SequenceSkew));
        }
        if digest_bytes(head ^ seq, payload) != digest {
            return Err(corrupt(pos as u64, CorruptKind::DigestMismatch));
        }
        let Some(op) = Op::decode(payload) else {
            return Err(corrupt(pos as u64, CorruptKind::BadOp));
        };
        ops.push(op);
        head = digest;
        seq += 1;
        pos += HEADER + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment(seed: u64, n: usize) -> (Vec<u8>, u64) {
        let mut bytes = Vec::new();
        let mut head = seed;
        for i in 0..n {
            let op = Op::Put {
                tree: "t".into(),
                key: format!("k{i}").into_bytes(),
                value: vec![i as u8; 5],
            };
            let (rec, h) = encode_record(head, i as u64, &op.encode());
            bytes.extend_from_slice(&rec);
            head = h;
        }
        (bytes, head)
    }

    #[test]
    fn whole_segment_scans_clean() {
        let seed = seg_seed(SegKind::Wal, 3);
        let (bytes, head) = sample_segment(seed, 7);
        let scan = scan_segment("wal", SegKind::Wal, seed, &bytes).expect("scans");
        assert_eq!(scan.ops.len(), 7);
        assert_eq!(scan.head, head);
        assert_eq!(scan.next_seq, 7);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn every_prefix_cut_is_torn_never_corrupt() {
        let seed = seg_seed(SegKind::Wal, 0);
        let (bytes, _) = sample_segment(seed, 4);
        for cut in 0..bytes.len() {
            let scan = scan_segment("wal", SegKind::Wal, seed, &bytes[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            // Valid prefix survives; cut point decides how many records.
            assert!(scan.valid_len <= cut as u64);
            assert_eq!(scan.torn.is_some(), scan.valid_len != cut as u64);
        }
    }

    #[test]
    fn snapshot_prefix_cut_is_typed_corruption() {
        let seed = seg_seed(SegKind::Snapshot, 1);
        let (bytes, _) = sample_segment(seed, 2);
        let err = scan_segment("snap", SegKind::Snapshot, seed, &bytes[..bytes.len() - 3])
            .expect_err("torn snapshot must not scan");
        assert!(matches!(err, StoreError::Corrupt { kind: CorruptKind::TornSnapshot, .. }));
    }

    #[test]
    fn bit_flip_is_digest_mismatch_with_offset() {
        let seed = seg_seed(SegKind::Wal, 0);
        let (mut bytes, _) = sample_segment(seed, 3);
        let rec_len = bytes.len() / 3;
        let flip_at = rec_len + HEADER + 2; // payload byte of record 1
        bytes[flip_at] ^= 0x40;
        let err = scan_segment("wal", SegKind::Wal, seed, &bytes).expect_err("flip detected");
        assert_eq!(
            err,
            StoreError::Corrupt {
                segment: "wal".into(),
                offset: rec_len as u64,
                kind: CorruptKind::DigestMismatch,
            }
        );
    }

    #[test]
    fn spliced_record_is_sequence_skew() {
        let seed = seg_seed(SegKind::Wal, 0);
        let (bytes, _) = sample_segment(seed, 3);
        let rec_len = bytes.len() / 3;
        // Repeat record 0 after itself: right bytes, wrong position.
        let mut spliced = bytes[..rec_len].to_vec();
        spliced.extend_from_slice(&bytes[..rec_len]);
        let err = scan_segment("wal", SegKind::Wal, seed, &spliced).expect_err("splice detected");
        assert!(matches!(err, StoreError::Corrupt { kind: CorruptKind::SequenceSkew, .. }));
    }

    #[test]
    fn over_cap_length_claim_is_bad_length() {
        let seed = seg_seed(SegKind::Wal, 0);
        let (mut bytes, _) = sample_segment(seed, 1);
        bytes[3] = 0xFF; // length field's top byte: claims ~4 GiB
        let err = scan_segment("wal", SegKind::Wal, seed, &bytes).expect_err("cap enforced");
        assert!(matches!(err, StoreError::Corrupt { kind: CorruptKind::BadLength, .. }));
    }

    #[test]
    fn ops_round_trip_and_reject_trailing_bytes() {
        for op in [
            Op::Anchor { snap_head: 7, generation: 2 },
            Op::Put { tree: "tree".into(), key: b"k".to_vec(), value: vec![0; 9] },
            Op::Delete { tree: "tree".into(), key: b"gone".to_vec() },
        ] {
            let mut enc = op.encode();
            assert_eq!(Op::decode(&enc), Some(op.clone()));
            enc.push(0);
            assert_eq!(Op::decode(&enc), None, "trailing byte accepted for {op:?}");
        }
        assert_eq!(Op::decode(&[]), None);
        assert_eq!(Op::decode(&[9]), None, "unknown op tag accepted");
    }

    #[test]
    fn seeds_are_domain_separated() {
        assert_ne!(seg_seed(SegKind::Snapshot, 0), seg_seed(SegKind::Wal, 0));
        assert_ne!(seg_seed(SegKind::Wal, 0), seg_seed(SegKind::Wal, 1));
    }
}
