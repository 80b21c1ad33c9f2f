//! The recovery log — a resource's restorable mining state as named
//! trees in a [`gridmine_store::Store`] — and the image it travels as.
//!
//! Layout: a [`RecoveryLog`] owns an in-memory store. A checkpoint
//! writes the authoritative [`ResourceState`] and compacts it into the
//! store's snapshot; from then on every state delta is one blind `put`
//! into the store's write-ahead log, keyed by the rule's canonical key:
//!
//! | tree     | key      | value                                       |
//! |----------|----------|---------------------------------------------|
//! | `owner`  | (empty)  | the owning resource id                      |
//! | `rules`  | rule key | (empty) — the rule entered the working set  |
//! | `scan`   | rule key | frontier, sum, count, clock, last sum       |
//! | `output` | rule key | the cached `Output()` answer                |
//!
//! Deltas carry absolute post-state, so the store's own replay — later
//! puts overwrite earlier ones — is the fold, and a restore reads the
//! trees back: one [`RuleRecord`] per key in any of the three rule
//! trees, defaults where a tree has nothing.
//!
//! A [`RecoveryImage`] is that store at rest: its snapshot and WAL
//! segment bytes with the chain head pinned beside them. The chain is
//! the store's (see [`gridmine_store::wal`]), so payload tampering,
//! reordering, front truncation and snapshot substitution are
//! [`gridmine_store::Store::open`]'s typed errors. **Back truncation**
//! is what the pin is for: the store repairs a short WAL as the torn
//! tail of a crashed append, but an image is held in memory or published
//! by atomic rename — never appended to — so a short one is never a
//! crash artefact, and a chain that does not end at the pinned head is
//! refused.
//!
//! The chain is keyless — tamper *evidence*, not authentication. A
//! forger who rewrites the whole image can re-chain and re-pin it; that
//! attack is caught downstream by the resource's semantic screens
//! (wellformedness bounds, share re-audit) and answered with a
//! `MaliciousResource` verdict.

use std::collections::btree_map::{BTreeMap, Entry};

use gridmine_arm::{CandidateRule, Item, ItemSet, Ratio, Rule};
use gridmine_store::wal::HEADER;
use gridmine_store::{Backend, MemBackend, Store, StoreError};

const OWNER: &str = "owner";
const RULES: &str = "rules";
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
    /// The bytes are not an image, or a tree holds a key or value no log
    /// writes.
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

/// The canonical store key of a candidate rule: big-endian words
/// `|X| X… |Y| Y… λₙ λ_d`. The two counts delimit the sides, so distinct
/// rules never share a key, and a tree scan visits rules in one fixed
/// order.
fn rule_key(cand: &CandidateRule) -> Vec<u8> {
    let (x, y) = (cand.rule.antecedent.items(), cand.rule.consequent.items());
    let mut key = Vec::with_capacity(4 * (4 + x.len() + y.len()));
    for side in [x, y] {
        key.extend_from_slice(&(side.len() as u32).to_be_bytes());
        for Item(i) in side {
            key.extend_from_slice(&i.to_be_bytes());
        }
    }
    key.extend_from_slice(&cand.lambda.num().to_be_bytes());
    key.extend_from_slice(&cand.lambda.den().to_be_bytes());
    key
}

/// Total inverse of [`rule_key`]. Only the canonical key of a rule that
/// [`Rule::new`] and [`Ratio::new`] would build decodes — ascending
/// items, a non-empty consequent, disjoint sides, a reduced threshold —
/// so their panicking invariants hold by construction.
fn rule_of_key(key: &[u8]) -> Option<CandidateRule> {
    if !key.len().is_multiple_of(4) {
        return None;
    }
    let mut words = key.chunks_exact(4).filter_map(|w| w.try_into().ok().map(u32::from_be_bytes));
    let mut side = || {
        let n = words.next()? as usize;
        let items: Vec<Item> = words.by_ref().take(n).map(Item).collect();
        let ascending = items.iter().zip(items.iter().skip(1)).all(|(a, b)| a < b);
        (items.len() == n && ascending).then(|| ItemSet::from_items(items))
    };
    let (antecedent, consequent) = (side()?, side()?);
    let (num, den) = (words.next()?, words.next()?);
    if words.next().is_some() || consequent.is_empty() || !antecedent.is_disjoint(&consequent) {
        return None;
    }
    let lambda = (den > 0).then(|| Ratio::new(num, den))?;
    ((lambda.num(), lambda.den()) == (num, den))
        .then(|| CandidateRule::new(Rule::new(antecedent, consequent), lambda))
}

/// A `scan` tree value: the record's five accumulators, big endian.
fn scan_value(r: &RuleRecord) -> Vec<u8> {
    [r.frontier as i64, r.sum, r.count, r.clock, r.last_sum]
        .iter()
        .flat_map(|w| w.to_be_bytes())
        .collect()
}

/// Overlays one tree's `value` for a rule onto its record.
fn overlay(rec: &mut RuleRecord, tree: &str, value: &[u8]) -> Option<()> {
    match (tree, value) {
        (RULES, []) => {}
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

/// Reads the log's trees back into the state they describe.
fn state_of(store: &Store<MemBackend>) -> Result<ResourceState, JournalError> {
    let resource = store
        .get(OWNER, b"")
        .and_then(|v| v.try_into().ok())
        .map(u64::from_be_bytes)
        .ok_or(JournalError::Codec("image names no owner"))?;
    let mut records: BTreeMap<&[u8], RuleRecord> = BTreeMap::new();
    for tree in [RULES, SCAN, OUTPUT] {
        for (key, value) in store.scan_tree(tree) {
            let rec = match records.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let rule = rule_of_key(key).ok_or(JournalError::Codec("malformed rule key"))?;
                    e.insert(RuleRecord::registered(rule))
                }
            };
            overlay(rec, tree, value).ok_or(JournalError::Codec("malformed rule value"))?;
        }
    }
    Ok(ResourceState { resource, records: records.into_values().collect() })
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

/// A resource's live recovery log: the last checkpoint as the store's
/// snapshot, every delta since as one record of its WAL.
#[derive(Debug)]
pub struct RecoveryLog {
    /// `Err` once the store has refused a write (a record over its
    /// cap): the log is behind its resource from then on, so it stops
    /// taking deltas and its image is one no restore accepts.
    store: Result<Store<MemBackend>, StoreError>,
}

impl RecoveryLog {
    /// Checkpoint: a fresh log whose snapshot is `state` and whose WAL
    /// is empty (callers snapshot *current* state, so every earlier
    /// delta is subsumed).
    pub fn baseline(state: &ResourceState) -> Self {
        let store = Store::in_memory().and_then(|mut store| {
            store.put(OWNER, b"", &state.resource.to_be_bytes())?;
            for rec in &state.records {
                let key = rule_key(&rec.rule);
                store.put(SCAN, &key, &scan_value(rec))?;
                if let Some(answer) = rec.output {
                    store.put(OUTPUT, &key, &[u8::from(answer)])?;
                }
            }
            store.compact()?;
            Ok(store)
        });
        RecoveryLog { store }
    }

    /// One blind put: O(1), nothing read back.
    fn put(&mut self, tree: &str, rule: &CandidateRule, value: &[u8]) {
        if let Ok(store) = &mut self.store {
            if let Err(e) = store.put(tree, &rule_key(rule), value) {
                self.store = Err(e);
            }
        }
    }

    /// Delta: a candidate rule entered the working set.
    pub fn rule_registered(&mut self, rule: &CandidateRule) {
        self.put(RULES, rule, &[]);
    }

    /// Delta: the cyclic scan advanced; `rec` carries the post-scan
    /// accumulators (its `output` is not part of this delta).
    pub fn scan_advanced(&mut self, rec: &RuleRecord) {
        self.put(SCAN, &rec.rule, &scan_value(rec));
    }

    /// Delta: the output SFE decided `rule`.
    pub fn output_cached(&mut self, rule: &CandidateRule, answer: bool) {
        self.put(OUTPUT, rule, &[u8::from(answer)]);
    }

    /// Deltas since the last checkpoint: the store's WAL records.
    pub fn len(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.wal_records() as usize)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The log at rest, as a crash would leave it.
    pub fn image(&self) -> RecoveryImage {
        self.store.as_ref().map(RecoveryImage::of).unwrap_or_default()
    }

    /// The state a restore from this log would yield, verified from its
    /// segment bytes exactly as a successor would ([`RecoveryImage::replay`]).
    pub fn replay(&self) -> Result<ResourceState, JournalError> {
        self.image().replay().map(|(state, _)| state)
    }
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
    /// The image of a live store: its segment files, head pinned.
    pub fn of(store: &Store<MemBackend>) -> Self {
        RecoveryImage { head: store.head(), files: store.backend().clone() }
    }

    /// Verifies the image — [`Store::open`] over the segments, then the
    /// pin — and hands back the store it describes.
    pub fn verify(&self) -> Result<Store<MemBackend>, JournalError> {
        let store = Store::open(self.files.clone())?;
        if store.head() != self.head {
            return Err(JournalError::HeadMismatch);
        }
        Ok(store)
    }

    /// Verifies the image and reads the recovery log's trees back: the
    /// state to restore, and how many deltas were replayed on top of the
    /// checkpoint to reach it. Any violation is an error — the caller
    /// converts it into a `MaliciousResource` verdict.
    pub fn replay(&self) -> Result<(ResourceState, u64), JournalError> {
        let store = self.verify()?;
        Ok((state_of(&store)?, store.wal_records()))
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        [MAGIC.as_slice(), &self.head.to_be_bytes(), &self.files.to_bytes()].concat()
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
    /// WAL's middle delta, or of the snapshot when the WAL holds only
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

    /// Spill to a file (the CI artifact, and a node's warm-restart
    /// state). Published atomically — sibling tmp, fsync, rename — so a
    /// crash mid-write leaves the previous image or the new one, never a
    /// torn file. Returns the path written.
    pub fn write_to<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> std::io::Result<std::path::PathBuf> {
        gridmine_store::atomic_write_file(path, &self.to_bytes())
    }

    pub fn read_from<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sample_log() -> RecoveryLog {
        let mut log = RecoveryLog::baseline(&ResourceState { resource: 3, records: Vec::new() });
        log.rule_registered(&cand(1));
        log.scan_advanced(&scanned(1, 10, 4, 3));
        log.output_cached(&cand(1), true);
        log.scan_advanced(&scanned(1, 16, 7, 5));
        log
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

    fn corrupt_kind(replayed: Result<(ResourceState, u64), JournalError>) -> CorruptKind {
        match replayed {
            Err(JournalError::Store(StoreError::Corrupt { kind, .. })) => kind,
            other => panic!("expected a typed store corruption, got {other:?}"),
        }
    }

    #[test]
    fn replay_folds_deltas_over_the_snapshot() {
        let log = sample_log();
        assert_eq!(log.len(), 4, "one WAL record per delta");
        let state = log.replay().expect("intact log replays");
        assert_eq!(state.resource, 3);
        assert_eq!(state.records.len(), 1);
        let rec = &state.records[0];
        assert_eq!((rec.frontier, rec.sum, rec.count, rec.clock), (16, 7, 16, 5));
        assert_eq!(rec.output, Some(true));
        assert!(rec.is_wellformed(40));
        assert_eq!(log.image().replay().expect("replays").1, 4, "entries = WAL records");
    }

    #[test]
    fn a_registered_rule_restores_with_defaults_and_never_resets_a_scanned_one() {
        let mut log = sample_log();
        log.rule_registered(&cand(2));
        log.rule_registered(&cand(1));
        let state = log.replay().expect("replays");
        assert_eq!(
            state.records,
            [scanned(1, 16, 7, 5), RuleRecord::registered(cand(2))].map(|r| if r.rule == cand(1) {
                RuleRecord { output: Some(true), ..r }
            } else {
                r
            })
        );
    }

    #[test]
    fn rebaseline_truncates_but_preserves_state() {
        let state = sample_log().replay().unwrap();
        let log = RecoveryLog::baseline(&state);
        assert!(log.is_empty());
        assert_eq!(log.replay().unwrap(), state);
    }

    #[test]
    fn payload_tampering_is_detected() {
        let mut forged = sample_log().image();
        forged.corrupt();
        assert_eq!(
            corrupt_kind(forged.replay()),
            CorruptKind::DigestMismatch,
            "a flipped WAL byte must break the chain"
        );
        // Every byte of every record is covered, the last one's too.
        let mut image = sample_log().image();
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
        let mut forged = RecoveryLog::baseline(&state(4)).image();
        forged.corrupt(); // the WAL holds only its anchor → a snapshot byte flips
        assert_eq!(corrupt_kind(forged.replay()), CorruptKind::DigestMismatch);

        // A whole, valid snapshot of the same generation from another
        // log: its chain verifies, the WAL's anchor does not bind to it.
        let mut image = RecoveryLog::baseline(&state(4)).image();
        let mut other = RecoveryLog::baseline(&state(5)).image();
        let names = other.files.list().expect("list");
        let snap = names.iter().find(|n| n.starts_with("snap-")).expect("a snapshot");
        *image.files.bytes_mut(snap) = other.files.bytes(snap).expect("its bytes").to_vec();
        assert_eq!(corrupt_kind(image.replay()), CorruptKind::AnchorMismatch);
    }

    #[test]
    fn reordering_is_detected() {
        let mut image = sample_log().image();
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
        let mut image = sample_log().image();
        let (wal, records) = wal_records(&mut image);
        assert_eq!(records.len(), 5, "anchor + four deltas");

        // Front: the first delta, or the anchor itself, cut out.
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
    fn image_roundtrips_through_bytes_and_files() {
        let image = sample_log().image();
        let bytes = image.to_bytes();
        let back = RecoveryImage::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.replay().unwrap(), image.replay().unwrap());

        let path = std::env::temp_dir().join("gridmine_recovery_image_test.image");
        image.write_to(&path).expect("writes");
        let from_disk = RecoveryImage::read_from(&path).expect("reads");
        assert_eq!(from_disk.to_bytes(), bytes);
        let _ = std::fs::remove_file(&path);
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
        // pin of a real log matches.
        let empty = RecoveryImage::from_bytes(b"gmimage\x01\0\0\0\0\0\0\0\0").expect("unframes");
        assert_eq!(empty.replay(), Err(JournalError::HeadMismatch));
        assert_eq!(RecoveryImage::default().replay(), Err(JournalError::HeadMismatch));
    }

    #[test]
    fn trees_no_log_writes_are_a_codec_error() {
        let replay_of = |tree: &str, key: &[u8], value: &[u8]| {
            let mut store = Store::in_memory().expect("open");
            store.put(OWNER, b"", &3u64.to_be_bytes()).expect("put");
            store.put(tree, key, value).expect("put");
            RecoveryImage::of(&store).replay()
        };
        let key = rule_key(&cand(1));
        assert!(replay_of(SCAN, &key, &scan_value(&scanned(1, 10, 4, 3))).is_ok());
        assert!(replay_of("audits", b"anything", b"a driver's own tree is not ours").is_ok());
        for (tree, key, value) in [
            (SCAN, &key[..], &[0u8; 39][..]),
            (OUTPUT, &key, &[2]),
            (OUTPUT, &key, &[]),
            (RULES, &key, &[0]),
            (RULES, &key[1..], &[]),
            (RULES, &[], &[]),
        ] {
            assert!(
                matches!(replay_of(tree, key, value), Err(JournalError::Codec(_))),
                "{tree} {key:?} {value:?}"
            );
        }
        let mut store = Store::in_memory().expect("open");
        store.put(RULES, &key, &[]).expect("put");
        assert_eq!(
            RecoveryImage::of(&store).replay(),
            Err(JournalError::Codec("image names no owner"))
        );
    }

    #[test]
    fn rule_keys_are_injective_and_only_canonical_keys_decode() {
        let rule = |x: &[u32], y: &[u32], num, den| {
            CandidateRule::new(Rule::new(ItemSet::of(x), ItemSet::of(y)), Ratio::new(num, den))
        };
        // The same items split differently between the sides, the same
        // rule under different thresholds, and item ids that read as
        // counts: all distinct rules, all distinct keys.
        let rules = [
            rule(&[], &[1, 2, 3], 1, 2),
            rule(&[1], &[2, 3], 1, 2),
            rule(&[1, 2], &[3], 1, 2),
            rule(&[2], &[1, 3], 1, 2),
            rule(&[1, 2], &[3], 1, 3),
            rule(&[1, 2], &[3], 2, 3),
            rule(&[], &[1], 1, 2),
            rule(&[1], &[2], 1, 2),
            rule(&[], &[1, 2], 1, 2),
            rule(&[], &[2], 0, 1),
        ];
        let keys: std::collections::BTreeSet<Vec<u8>> = rules.iter().map(rule_key).collect();
        assert_eq!(keys.len(), rules.len(), "two rules share a key");
        for r in &rules {
            assert_eq!(rule_of_key(&rule_key(r)).as_ref(), Some(r));
        }

        // Keys `Rule::new` or `Ratio::new` would panic on, or that are a
        // second spelling of a rule, do not decode.
        let words = |w: &[u32]| w.iter().flat_map(|x| x.to_be_bytes()).collect::<Vec<u8>>();
        for (bad, why) in [
            (words(&[0, 0, 1, 2]), "empty consequent"),
            (words(&[1, 7, 1, 7, 1, 2]), "overlapping sides"),
            (words(&[0, 2, 5, 4, 1, 2]), "descending items"),
            (words(&[0, 2, 4, 4, 1, 2]), "repeated item"),
            (words(&[0, 1, 4, 1, 0]), "zero denominator"),
            (words(&[0, 1, 4, 2, 4]), "unreduced threshold"),
            (words(&[0, 1, 4, 1, 2, 9]), "trailing word"),
            (words(&[0, u32::MAX, 4, 1, 2]), "count past the end"),
            (words(&[0, 1, 4, 1]), "short"),
            (vec![0, 0, 0], "not whole words"),
        ] {
            assert_eq!(rule_of_key(&bad), None, "{why}");
        }
    }

    #[test]
    fn a_refused_write_voids_the_log_instead_of_panicking() {
        // A rule whose key alone is over the store's 16 MiB record cap.
        let giant = CandidateRule::new(
            Rule::frequency(ItemSet::from_items((0..(1 << 22) + 1).map(Item))),
            Ratio::new(1, 2),
        );
        let mut log = sample_log();
        log.rule_registered(&giant);
        assert!(matches!(log.store, Err(StoreError::TooLarge(_))));
        // It takes no more deltas and no restore accepts what is left.
        log.rule_registered(&cand(2));
        assert_eq!(log.len(), 0);
        assert_eq!(log.replay(), Err(JournalError::HeadMismatch));
        let refused = RecoveryLog::baseline(&ResourceState {
            resource: 3,
            records: vec![RuleRecord::registered(giant)],
        });
        assert!(refused.replay().is_err());
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
