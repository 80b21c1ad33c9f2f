//! Crash-restart durability for Secure-Majority-Rule resources.
//!
//! The paper's target grid (§3, §5) loses and regains resources mid-run
//! while malicious participants probe every weakness. A recovering
//! resource needs two pieces:
//!
//! * **The recovery image** ([`RecoveryImage`]): the state a crash loses,
//!   encoded from the resource's live state when one is asked for — at a
//!   crash, a checkpoint or a node's persist. Its volatile mining state
//!   ([`ResourceState`]) is bulk-loaded as named trees into the snapshot
//!   of a [`gridmine_store::Store`] ([`ResourceState::to_store`]), the
//!   controller's audits and a node's tallies are put on top into its
//!   write-ahead log, and the image is that store at rest: its segment
//!   bytes with the chain head pinned, held in memory by the sim and the
//!   in-process drivers, published to a file by a node process.
//! * **Unified retry/deadline policy** ([`RetryPolicy`]): one place for
//!   the previously scattered bounded-SFE-retry budget, heal resend
//!   cadence and the recovery watchdog deadline.
//!
//! The mining state's trees, keyed by the rule's canonical key:
//!
//! | tree     | key      | value                                       |
//! |----------|----------|---------------------------------------------|
//! | `owner`  | (empty)  | the owning resource id                      |
//! | `scan`   | rule key | frontier, sum, count, clock, last sum       |
//! | `output` | rule key | the cached `Output()` answer                |
//!
//! A restore reads the trees back: one [`RuleRecord`] per key in either
//! rule tree, defaults where a tree has nothing.
//!
//! The chain is the store's (see [`gridmine_store::wal`]), so payload
//! tampering, reordering, front truncation and snapshot substitution are
//! [`gridmine_store::Store::open`]'s typed errors. **Back truncation** is
//! what the pin is for: the store repairs a short WAL as the torn tail of
//! a crashed append, but an image is held in memory or published by
//! atomic rename — never appended to — so a short one is never a crash
//! artefact, and a chain that does not end at the pinned head is refused.
//!
//! Restored state is **untrusted input**: the chain is keyless — tamper
//! *evidence*, not authentication. A forger who rewrites the whole image
//! re-chains and re-pins it trivially. The consuming resource therefore
//! re-screens every restored record ([`RuleRecord::is_wellformed`]),
//! re-audits share totals against its accountant, and converts any
//! failure into a `MaliciousResource` verdict — never a panic.

// No panic and no unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

mod policy;

pub use policy::{RecoveryMode, RecoveryPolicy, RetryPolicy};

use std::collections::btree_map::{BTreeMap, Entry};

use gridmine_arm::CandidateRule;
use gridmine_store::wal::HEADER;
use gridmine_store::{Backend, MemBackend, Store, StoreError, Tree};

const OWNER: &str = "owner";
const SCAN: &str = "scan";
const OUTPUT: &str = "output";

/// First bytes of every image: format name and version. Anything else —
/// the JSON images of earlier builds included — is refused.
const MAGIC: &[u8; 8] = b"gmimage\x01";

/// The restorable per-rule mining state: the accountant's cyclic-scan
/// position and oblivious-counter accumulators, plus the cached output-
/// SFE verdict (the resource's majority-vote position) when one exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleRecord {
    pub rule: CandidateRule,
    /// Transactions of the local database already folded into `sum`.
    pub frontier: u64,
    /// Net vote accumulated over the scanned prefix.
    pub sum: i64,
    /// Transactions counted over the scanned prefix.
    pub count: i64,
    /// The accountant's Lamport clock for this rule's counters.
    pub clock: i64,
    /// Last sum reported to the broker (`i64::MIN` = never reported).
    pub last_sum: i64,
    /// Cached output-SFE verdict, when the rule has been decided.
    pub output: Option<bool>,
}

impl RuleRecord {
    /// A rule that entered the working set and has not been scanned.
    fn registered(rule: CandidateRule) -> Self {
        RuleRecord { rule, frontier: 0, sum: 0, count: 0, clock: 1, last_sum: 0, output: None }
    }

    /// The key-free screen applied to every restored record: scan bounds
    /// must fit the local database and the accumulators must be
    /// achievable from `frontier` scanned transactions (each contributes
    /// at most ±1 to `sum` and `count`). The clock starts at 1 and is
    /// sealed into a 32-bit timestamp slot, so it must be a `u32`.
    pub fn is_wellformed(&self, db_len: u64) -> bool {
        self.frontier <= db_len
            && self.sum.unsigned_abs() <= self.frontier
            && self.count.unsigned_abs() <= self.frontier
            && self.clock >= 1
            && u32::try_from(self.clock).is_ok()
    }
}

/// A full snapshot of one resource's volatile mining state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceState {
    /// The owning resource id (restores must match).
    pub resource: u64,
    /// One record per rule, in rule-key order once restored.
    pub records: Vec<RuleRecord>,
}

/// Why a restore was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The bytes are not an image, or a tree holds a key or value no
    /// image writes.
    Codec(&'static str),
    /// [`Store::open`] refused the segments: the typed corruption, with
    /// the segment and the offset of the offending record.
    Store(StoreError),
    /// The verified chain does not end at the pinned head: records were
    /// cut off the back of the image.
    HeadMismatch,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Codec(what) => write!(f, "recovery codec failure: {what}"),
            JournalError::Store(e) => write!(f, "recovery image refused: {e}"),
            JournalError::HeadMismatch => {
                write!(f, "recovery image head mismatch (truncated tail)")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<StoreError> for JournalError {
    fn from(e: StoreError) -> Self {
        JournalError::Store(e)
    }
}

/// A `scan` tree value: the record's five accumulators, big endian.
fn scan_value(r: &RuleRecord) -> Vec<u8> {
    let mut value = Vec::with_capacity(40);
    for word in [r.frontier as i64, r.sum, r.count, r.clock, r.last_sum] {
        value.extend_from_slice(&word.to_be_bytes());
    }
    value
}

/// Overlays one tree's `value` for a rule onto its record.
fn overlay(rec: &mut RuleRecord, tree: &str, value: &[u8]) -> Option<()> {
    match (tree, value) {
        (OUTPUT, [answer @ (0 | 1)]) => rec.output = Some(*answer == 1),
        (SCAN, _) if value.len() == 40 => {
            let mut words =
                value.chunks_exact(8).filter_map(|w| w.try_into().ok().map(i64::from_be_bytes));
            rec.frontier = words.next()? as u64;
            rec.sum = words.next()?;
            rec.count = words.next()?;
            rec.clock = words.next()?;
            rec.last_sum = words.next()?;
        }
        _ => return None,
    }
    Some(())
}

impl ResourceState {
    /// The state as a fresh store whose snapshot holds its trees and
    /// whose WAL is empty, bulk-loaded — each record encoded once — into
    /// the files a `put` per record and a compaction would leave. A
    /// record over the store's cap is the error.
    pub fn to_store(&self) -> Result<Store<MemBackend>, StoreError> {
        // Collected, not inserted one by one: a tree built from a run of
        // entries is sorted once and filled in key order, a later entry
        // for a key replacing an earlier one as a later put would.
        let keyed: Vec<(Vec<u8>, &RuleRecord)> =
            self.records.iter().map(|rec| (rec.rule.key(), rec)).collect();
        let output: Tree = keyed
            .iter()
            .filter_map(|(key, rec)| Some((key.clone(), vec![u8::from(rec.output?)])))
            .collect();
        let scan: Tree = keyed.into_iter().map(|(key, rec)| (key, scan_value(rec))).collect();
        let owner = Tree::from([(Vec::new(), self.resource.to_be_bytes().to_vec())]);
        let trees = [(OWNER, owner), (SCAN, scan), (OUTPUT, output)];
        Store::from_trees(trees.map(|(n, t)| (n.to_string(), t)).into())
    }

    /// Reads a verified store's mining-state trees back into the state
    /// they describe, `None` when it holds none (no `owner` entry); trees
    /// of other names ride along unread.
    pub fn read(store: &Store<MemBackend>) -> Result<Option<ResourceState>, JournalError> {
        let Some(owner) = store.get(OWNER, b"") else { return Ok(None) };
        let resource = owner
            .try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| JournalError::Codec("image names no owner"))?;
        let mut records: BTreeMap<&[u8], RuleRecord> = BTreeMap::new();
        for tree in [SCAN, OUTPUT] {
            for (key, value) in store.scan_tree(tree) {
                let rec = match records.entry(key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let rule = CandidateRule::from_key(key)
                            .ok_or(JournalError::Codec("malformed rule key"))?;
                        e.insert(RuleRecord::registered(rule))
                    }
                };
                overlay(rec, tree, value).ok_or(JournalError::Codec("malformed rule value"))?;
            }
        }
        Ok(Some(ResourceState { resource, records: records.into_values().collect() }))
    }
}

/// Where each whole record of a segment ends (a WAL's first is its
/// anchor): the store's `len, seq, digest, payload` framing, walked by
/// the length fields alone.
fn record_ends(segment: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while let Some(len) = segment.get(at..).and_then(|rest| rest.first_chunk::<4>()) {
        at += HEADER + u32::from_le_bytes(*len) as usize;
        if at > segment.len() {
            break;
        }
        ends.push(at);
    }
    ends
}

/// A store at rest with its chain head pinned beside it: what a driver
/// holds across a crash window and what lands on disk, for warm restart
/// and as a workflow artifact. Everything in it is untrusted until
/// [`RecoveryImage::verify`] has verified it.
#[derive(Clone, Debug, Default)]
pub struct RecoveryImage {
    head: u64,
    files: MemBackend,
}

impl RecoveryImage {
    /// Verifies the image — [`Store::open`] over the segments, then the
    /// pin — and hands back the store it describes.
    pub fn verify(&self) -> Result<Store<MemBackend>, JournalError> {
        let store = Store::open(self.files.clone())?;
        if store.head() != self.head {
            return Err(JournalError::HeadMismatch);
        }
        Ok(store)
    }

    /// Verifies the image and reads its mining state back. Any violation
    /// is an error — the caller converts it into a `MaliciousResource`
    /// verdict.
    pub fn replay(&self) -> Result<ResourceState, JournalError> {
        ResourceState::read(&self.verify()?)?.ok_or(JournalError::Codec("image names no owner"))
    }

    /// The image of a store: its segment files, moved, with its head
    /// pinned.
    pub fn from_store(store: Store<MemBackend>) -> Self {
        RecoveryImage { head: store.head(), files: store.into_backend() }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        self.files.to_bytes_after(&[MAGIC.as_slice(), &self.head.to_be_bytes()].concat())
    }

    /// Unframes an image: linear in its size, nothing verified yet.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let framed = bytes.strip_prefix(MAGIC).and_then(|rest| rest.split_first_chunk::<8>());
        let (head, files) = framed.ok_or(JournalError::Codec("not a recovery image"))?;
        let files = MemBackend::from_bytes(files)
            .ok_or(JournalError::Codec("image framing does not add up"))?;
        Ok(RecoveryImage { head: u64::from_be_bytes(*head), files })
    }

    /// Forge the image in place (attack injection for tests and the
    /// malicious-behaviour suite): flips the last payload byte of the
    /// WAL's middle record, or of the snapshot when the WAL holds only
    /// its anchor. Deterministic.
    pub fn corrupt(&mut self) {
        let names = self.files.list().unwrap_or_default();
        let segment = |prefix: &str| {
            let name = names.iter().find(|n| n.starts_with(prefix))?;
            Some((name, record_ends(self.files.bytes(name)?)))
        };
        let target = match (segment("wal-"), segment("snap-")) {
            (Some((wal, ends)), _) if ends.len() > 1 => {
                ends.get(ends.len() / 2).map(|&end| (wal, end))
            }
            (_, Some((snap, ends))) => ends.last().map(|&end| (snap, end)),
            _ => None,
        };
        if let Some((name, end)) = target {
            if let Some(byte) = self.files.bytes_mut(name).get_mut(end - 1) {
                *byte ^= 0xFF;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AuditImage;
    use crate::sfe::KGate;
    use gridmine_arm::{Item, ItemSet, Ratio, Rule};
    use gridmine_store::CorruptKind;

    fn cand(item: u32) -> CandidateRule {
        CandidateRule { rule: Rule::frequency(ItemSet::of(&[item])), lambda: Ratio::new(1, 2) }
    }

    fn scanned(item: u32, frontier: u64, sum: i64, clock: i64) -> RuleRecord {
        let count = frontier as i64;
        RuleRecord {
            frontier,
            sum,
            count,
            clock,
            last_sum: sum,
            ..RuleRecord::registered(cand(item))
        }
    }

    fn image_of(state: &ResourceState) -> RecoveryImage {
        RecoveryImage::from_store(state.to_store().expect("a state the store takes"))
    }

    /// The image a crash of a resource with one decided rule and four
    /// audited ones leaves: the state in the snapshot, one WAL record per
    /// audit put on top of it.
    fn sample_image() -> RecoveryImage {
        let rec = RuleRecord { output: Some(true), ..scanned(1, 16, 7, 5) };
        let mut store = ResourceState { resource: 3, records: vec![rec] }.to_store().expect("st");
        for item in 1..=4 {
            let audit = AuditImage {
                rule: cand(item),
                clock: i64::from(item),
                output_gate: KGate::new(1),
                send_gates: Vec::new(),
            };
            let (key, value) = audit.to_entry();
            store.put("audits", &key, &value).expect("put");
        }
        RecoveryImage::from_store(store)
    }

    /// The image's WAL segment and the byte range of each of its
    /// records, anchor first.
    fn wal_records(image: &mut RecoveryImage) -> (String, Vec<std::ops::Range<usize>>) {
        let names = image.files.list().expect("list");
        let wal = names.into_iter().find(|n| n.starts_with("wal-")).expect("a WAL segment");
        let ends = record_ends(image.files.bytes(&wal).expect("its bytes"));
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let records = starts.zip(ends.iter().copied()).map(|(a, b)| a..b).collect();
        (wal, records)
    }

    fn corrupt_kind(replayed: Result<ResourceState, JournalError>) -> CorruptKind {
        match replayed {
            Err(JournalError::Store(StoreError::Corrupt { kind, .. })) => kind,
            other => panic!("expected a typed store corruption, got {other:?}"),
        }
    }

    #[test]
    fn an_image_is_byte_identical_to_a_put_per_record_then_a_compaction() {
        let put_then_compact = |state: &ResourceState| {
            let mut store = Store::in_memory().expect("open");
            store.put(OWNER, b"", &state.resource.to_be_bytes()).expect("put");
            for rec in &state.records {
                let key = rec.rule.key();
                store.put(SCAN, &key, &scan_value(rec)).expect("put");
                if let Some(answer) = rec.output {
                    store.put(OUTPUT, &key, &[u8::from(answer)]).expect("put");
                }
            }
            store.compact().expect("compact");
            RecoveryImage::from_store(store).to_bytes()
        };
        let one = vec![RuleRecord { output: Some(true), ..scanned(1, 10, 4, 3) }];
        // About a T5I2 node's working set, registered in no key order,
        // some decided either way and some not at all.
        let many = (0..1500u32)
            .rev()
            .map(|i| {
                let rec = scanned(i, u64::from(i % 40), i64::from(i % 7), i64::from(1 + i % 9));
                RuleRecord { output: (i % 3 != 0).then_some(i % 2 == 0), ..rec }
            })
            .collect();
        // A rule listed twice: the later record's scan state wins, and the
        // output of the last one that has any, as with a put per record.
        let twice = [one.clone(), vec![scanned(2, 8, 1, 2), scanned(1, 12, 5, 4)]].concat();
        for records in [Vec::new(), one, many, twice] {
            let state = ResourceState { resource: 3, records };
            assert_eq!(
                image_of(&state).to_bytes(),
                put_then_compact(&state),
                "{} records",
                state.records.len()
            );
        }
    }

    #[test]
    fn payload_tampering_is_detected() {
        let mut forged = sample_image();
        forged.corrupt();
        assert_eq!(
            corrupt_kind(forged.replay()),
            CorruptKind::DigestMismatch,
            "a flipped WAL byte must break the chain"
        );
        // Every byte of every record is covered, the last one's too.
        let mut image = sample_image();
        let (wal, records) = wal_records(&mut image);
        for at in records.iter().skip(1).flat_map(|r| [r.start + HEADER, r.end - 1]) {
            let mut forged = image.clone();
            forged.files.bytes_mut(&wal)[at] ^= 0x01;
            assert_eq!(corrupt_kind(forged.replay()), CorruptKind::DigestMismatch, "byte {at}");
        }
    }

    #[test]
    fn snapshot_substitution_is_detected() {
        let state = |sum| ResourceState { resource: 3, records: vec![scanned(1, 10, sum, 3)] };
        let mut forged = image_of(&state(4));
        forged.corrupt(); // the WAL holds only its anchor → a snapshot byte flips
        assert_eq!(corrupt_kind(forged.replay()), CorruptKind::DigestMismatch);

        // A whole, valid snapshot of the same generation from another
        // image: its chain verifies, the WAL's anchor does not bind to it.
        let mut image = image_of(&state(4));
        let mut other = image_of(&state(5));
        let names = other.files.list().expect("list");
        let snap = names.iter().find(|n| n.starts_with("snap-")).expect("a snapshot");
        *image.files.bytes_mut(snap) = other.files.bytes(snap).expect("its bytes").to_vec();
        assert_eq!(corrupt_kind(image.replay()), CorruptKind::AnchorMismatch);
    }

    #[test]
    fn reordering_is_detected() {
        let mut image = sample_image();
        let (wal, records) = wal_records(&mut image);
        let bytes = image.files.bytes(&wal).expect("wal").to_vec();
        let swapped = [
            &bytes[..records[2].start],
            &bytes[records[3].clone()],
            &bytes[records[2].clone()],
            &bytes[records[3].end..],
        ]
        .concat();
        *image.files.bytes_mut(&wal) = swapped;
        assert_eq!(
            corrupt_kind(image.replay()),
            CorruptKind::SequenceSkew,
            "swapped records must not verify"
        );
    }

    #[test]
    fn truncation_is_detected_front_and_back() {
        let mut image = sample_image();
        let (wal, records) = wal_records(&mut image);
        assert_eq!(records.len(), 5, "anchor + four audit puts");

        // Front: the first put, or the anchor itself, cut out.
        for cut in [&records[1], &records[0]] {
            let mut front = image.clone();
            front.files.bytes_mut(&wal).drain(cut.clone());
            assert_eq!(
                corrupt_kind(front.replay()),
                CorruptKind::SequenceSkew,
                "front truncation must break the sequence"
            );
        }

        // Back, at a record boundary: every record left verifies and the
        // store sees a clean WAL — only the pinned head knows better.
        let mut back = image.clone();
        back.files.bytes_mut(&wal).truncate(records[4].start);
        assert!(Store::open(back.files.clone()).is_ok(), "the chain alone accepts the cut");
        assert_eq!(back.replay(), Err(JournalError::HeadMismatch));

        // Back, mid-record: what the store repairs as a torn tail.
        let mut torn = image.clone();
        torn.files.bytes_mut(&wal).truncate(records[4].end - 3);
        assert_eq!(torn.replay(), Err(JournalError::HeadMismatch));

        // Back, all the way: the whole WAL gone and recreated on open.
        let mut bare = image.clone();
        bare.files.remove(&wal).expect("remove");
        assert_eq!(bare.replay(), Err(JournalError::HeadMismatch));
    }

    #[test]
    fn image_roundtrips_through_bytes() {
        let image = sample_image();
        let bytes = image.to_bytes();
        let back = RecoveryImage::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.replay().unwrap(), image.replay().unwrap());
    }

    #[test]
    fn garbage_bytes_are_a_codec_error_not_a_panic() {
        for garbage in [
            &b"not json at all"[..],
            &[0xFF, 0xFE],
            &[],
            // What an earlier build published under the same file name.
            br#"{"resource":3,"log":{"snapshot":{"resource":3,"records":[]},"entries":[]}}"#,
            // The right magic, then a frame that claims more than is there.
            b"gmimage\x01\0\0\0\0\0\0\0\0\x03\0wal\xFF\xFF\xFF\xFF",
        ] {
            assert!(
                matches!(RecoveryImage::from_bytes(garbage), Err(JournalError::Codec(_))),
                "{garbage:?}"
            );
        }
        // Whole frames, no segments: opens as an empty store, which no
        // pin of a real image matches.
        let empty = RecoveryImage::from_bytes(b"gmimage\x01\0\0\0\0\0\0\0\0").expect("unframes");
        assert_eq!(empty.replay(), Err(JournalError::HeadMismatch));
        assert_eq!(RecoveryImage::default().replay(), Err(JournalError::HeadMismatch));
    }

    #[test]
    fn trees_no_image_writes_are_a_codec_error() {
        let replay_of = |tree: &str, key: &[u8], value: &[u8]| {
            let mut store = Store::in_memory().expect("open");
            store.put(OWNER, b"", &3u64.to_be_bytes()).expect("put");
            store.put(tree, key, value).expect("put");
            RecoveryImage::from_store(store).replay()
        };
        let key = cand(1).key();
        let scan = scan_value(&scanned(1, 10, 4, 3));
        assert!(replay_of(SCAN, &key, &scan).is_ok());
        assert!(replay_of("audits", b"anything", b"a driver's own tree is not ours").is_ok());
        // A rule one tree names and the other does not takes defaults.
        let decided = RuleRecord { output: Some(true), ..RuleRecord::registered(cand(1)) };
        assert_eq!(replay_of(OUTPUT, &key, &[1]).map(|s| s.records), Ok(vec![decided]));
        for (tree, key, value) in [
            (SCAN, &key[..], &[0u8; 39][..]),
            (SCAN, &key[1..], &scan),
            (SCAN, &[], &scan),
            (OUTPUT, &key, &[2]),
            (OUTPUT, &key, &[]),
            (OUTPUT, &key[1..], &[1]),
        ] {
            assert!(
                matches!(replay_of(tree, key, value), Err(JournalError::Codec(_))),
                "{tree} {key:?} {value:?}"
            );
        }
        let mut store = Store::in_memory().expect("open");
        store.put(SCAN, &key, &scan).expect("put");
        assert_eq!(
            RecoveryImage::from_store(store).replay(),
            Err(JournalError::Codec("image names no owner"))
        );
    }

    #[test]
    fn a_state_the_store_refuses_is_an_error_not_a_panic() {
        // A rule whose key alone is over the store's 16 MiB record cap.
        let giant = CandidateRule::new(
            Rule::frequency(ItemSet::from_items((0..(1 << 22) + 1).map(Item))),
            Ratio::new(1, 2),
        );
        let state = ResourceState { resource: 3, records: vec![RuleRecord::registered(giant)] };
        assert!(matches!(state.to_store(), Err(StoreError::TooLarge(_))));
    }

    #[test]
    fn wellformedness_screen_bounds_the_accumulators() {
        let ok = RuleRecord {
            rule: cand(1),
            frontier: 10,
            sum: -3,
            count: 10,
            clock: 2,
            last_sum: -3,
            output: None,
        };
        assert!(ok.is_wellformed(40));
        assert!(!ok.is_wellformed(5), "frontier beyond the database");
        let inflated = RuleRecord { sum: 11, ..ok.clone() };
        assert!(!inflated.is_wellformed(40), "sum unreachable from frontier");
        let dead_clock = RuleRecord { clock: 0, ..ok.clone() };
        assert!(!dead_clock.is_wellformed(40), "clock below genesis");
        let last_tick = RuleRecord { clock: i64::from(u32::MAX), ..ok.clone() };
        assert!(last_tick.is_wellformed(40));
        let spent_clock = RuleRecord { clock: 1 << 32, ..ok };
        assert!(!spent_clock.is_wellformed(40), "clock no timestamp slot seals");
    }
}
