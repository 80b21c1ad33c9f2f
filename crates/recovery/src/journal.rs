//! The checkpoint snapshot, the append-only journal, and the chained
//! integrity digest that makes log surgery detectable.
//!
//! Layout: a [`RecoveryLog`] is one snapshot ([`ResourceState`], taken at
//! the last checkpoint) plus a journal of [`JournalEntry`] deltas sealed
//! in order. Every sealed entry carries `digest = H(prev, seq, payload)`
//! where `prev` is the previous entry's digest (the snapshot digest for
//! entry 0) and `payload` is the entry's canonical JSON encoding. The
//! log additionally pins the chain head, so:
//!
//! * **payload tampering** breaks that entry's digest;
//! * **reordering** breaks the chain at the first swapped entry;
//! * **truncation** (front or back) breaks the sequence or the pinned
//!   head;
//! * **snapshot substitution** breaks the snapshot digest, which doubles
//!   as the chain's genesis value.
//!
//! The digest is keyless (SplitMix64 chaining, the workspace's standard
//! mixing primitive) — it is tamper *evidence*, not authentication. A
//! forger who rewrites the entire log can re-chain it; that attack is
//! caught downstream by the resource's semantic screens (wellformedness
//! bounds, share re-audit) and answered with a `MaliciousResource`
//! verdict.

use gridmine_arm::CandidateRule;
use gridmine_store::digest_bytes;

/// Domain-separation seed for snapshot digests (chain genesis).
const GENESIS: u64 = 0x6A0A_1217_0C4E_C0DE;

/// The restorable per-rule mining state: the accountant's cyclic-scan
/// position and oblivious-counter accumulators, plus the cached output-
/// SFE verdict (the resource's majority-vote position) when one exists.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResourceState {
    /// The owning resource id (restores must match).
    pub resource: u64,
    pub records: Vec<RuleRecord>,
}

/// One state delta. Deltas carry absolute post-state (not diffs), so a
/// replay is a fold of upserts and needs no arithmetic.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JournalEntry {
    /// A candidate rule entered the working set.
    RuleRegistered { rule: CandidateRule },
    /// The cyclic scan advanced; fields are the post-scan accumulators.
    ScanAdvanced {
        rule: CandidateRule,
        frontier: u64,
        sum: i64,
        count: i64,
        clock: i64,
        last_sum: i64,
    },
    /// The output SFE decided this rule.
    OutputCached { rule: CandidateRule, answer: bool },
}

impl JournalEntry {
    fn rule(&self) -> &CandidateRule {
        match self {
            JournalEntry::RuleRegistered { rule }
            | JournalEntry::ScanAdvanced { rule, .. }
            | JournalEntry::OutputCached { rule, .. } => rule,
        }
    }
}

/// A journal entry sealed into the digest chain.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
struct SealedEntry {
    seq: u64,
    entry: JournalEntry,
    digest: u64,
}

/// Why a restore was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The snapshot no longer matches its pinned digest.
    SnapshotDigestMismatch,
    /// An entry's digest does not extend the chain (tamper/reorder).
    ChainDigestMismatch { seq: u64 },
    /// Entry sequence numbers are not `0, 1, 2, …` (truncation/reorder).
    SequenceGap { expected: u64, found: u64 },
    /// The chain's final digest does not match the pinned head
    /// (tail truncation).
    HeadMismatch,
    /// The log (or an image) failed to encode/decode.
    Codec(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::SnapshotDigestMismatch => write!(f, "snapshot digest mismatch"),
            JournalError::ChainDigestMismatch { seq } => {
                write!(f, "journal digest mismatch at entry {seq}")
            }
            JournalError::SequenceGap { expected, found } => {
                write!(f, "journal sequence gap: expected {expected}, found {found}")
            }
            JournalError::HeadMismatch => write!(f, "journal head mismatch (truncated tail)"),
            JournalError::Codec(detail) => write!(f, "recovery codec failure: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Snapshot + sealed journal; the unit of crash durability.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryLog {
    snapshot: ResourceState,
    snapshot_digest: u64,
    entries: Vec<SealedEntry>,
    head: u64,
}

fn state_digest(state: &ResourceState) -> Result<u64, JournalError> {
    let json = serde_json::to_string(state).map_err(|e| JournalError::Codec(e.to_string()))?;
    Ok(digest_bytes(GENESIS, json.as_bytes()))
}

fn chain_digest(prev: u64, seq: u64, entry: &JournalEntry) -> Result<u64, JournalError> {
    let json = serde_json::to_string(entry).map_err(|e| JournalError::Codec(e.to_string()))?;
    Ok(digest_bytes(prev ^ seq, json.as_bytes()))
}

impl RecoveryLog {
    /// Start a log whose baseline is `state` (an empty journal).
    pub fn baseline(state: ResourceState) -> Self {
        // gridlint: allow(panic-freedom) -- serde_json serialization of an own, map-free struct is infallible; an Err here is a build defect, not wire input
        let snapshot_digest = state_digest(&state).expect("snapshot state encodes");
        RecoveryLog { snapshot: state, snapshot_digest, entries: Vec::new(), head: snapshot_digest }
    }

    /// Checkpoint: replace the snapshot with `state` and truncate the
    /// journal (write-ahead semantics: callers snapshot *current* state,
    /// so the dropped entries are all subsumed).
    pub fn rebaseline(&mut self, state: ResourceState) {
        *self = RecoveryLog::baseline(state);
    }

    /// Append one delta, sealing it into the digest chain.
    pub fn append(&mut self, entry: JournalEntry) {
        let seq = self.entries.len() as u64;
        // gridlint: allow(panic-freedom) -- serde_json serialization of an own, map-free enum is infallible; an Err here is a build defect, not wire input
        let digest = chain_digest(self.head, seq, &entry).expect("journal entry encodes");
        self.entries.push(SealedEntry { seq, entry, digest });
        self.head = digest;
    }

    /// Journal length (entries since the last checkpoint).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verify the digest chain and fold the journal over the snapshot,
    /// yielding the state to restore. Any integrity violation is an
    /// error — the caller converts it into a `MaliciousResource` verdict.
    pub fn replay(&self) -> Result<ResourceState, JournalError> {
        if state_digest(&self.snapshot)? != self.snapshot_digest {
            return Err(JournalError::SnapshotDigestMismatch);
        }
        let mut head = self.snapshot_digest;
        for (i, sealed) in self.entries.iter().enumerate() {
            let expected = i as u64;
            if sealed.seq != expected {
                return Err(JournalError::SequenceGap { expected, found: sealed.seq });
            }
            if chain_digest(head, sealed.seq, &sealed.entry)? != sealed.digest {
                return Err(JournalError::ChainDigestMismatch { seq: sealed.seq });
            }
            head = sealed.digest;
        }
        if head != self.head {
            return Err(JournalError::HeadMismatch);
        }

        let mut state = self.snapshot.clone();
        for sealed in &self.entries {
            let rule = sealed.entry.rule();
            if !state.records.iter().any(|r| &r.rule == rule) {
                state.records.push(RuleRecord {
                    rule: rule.clone(),
                    frontier: 0,
                    sum: 0,
                    count: 0,
                    clock: 1,
                    last_sum: 0,
                    output: None,
                });
            }
            let Some(rec) = state.records.iter_mut().find(|r| &r.rule == rule) else {
                continue; // unreachable: the record was just ensured above
            };
            match &sealed.entry {
                JournalEntry::RuleRegistered { .. } => {}
                JournalEntry::ScanAdvanced { frontier, sum, count, clock, last_sum, .. } => {
                    rec.frontier = *frontier;
                    rec.sum = *sum;
                    rec.count = *count;
                    rec.clock = *clock;
                    rec.last_sum = *last_sum;
                }
                JournalEntry::OutputCached { answer, .. } => {
                    rec.output = Some(*answer);
                }
            }
        }
        Ok(state)
    }

    /// Forge the log in place (attack injection for tests and the
    /// malicious-behaviour suite): corrupts a mid-journal digest, or the
    /// snapshot digest when the journal is empty. Deterministic.
    pub fn corrupt(&mut self) {
        let mid = self.entries.len().saturating_sub(1) / 2;
        match self.entries.get_mut(mid) {
            Some(sealed) => sealed.digest ^= 0xDEAD,
            None => self.snapshot_digest ^= 0xDEAD,
        }
    }
}

/// The spillable form of a [`RecoveryLog`]: what the threaded driver
/// holds in a `Vec<u8>` across the crash window, and what lands on disk
/// as a workflow artifact.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryImage {
    pub resource: u64,
    pub log: RecoveryLog,
}

impl RecoveryImage {
    pub fn to_bytes(&self) -> Vec<u8> {
        // gridlint: allow(panic-freedom) -- serde_json serialization of an own, map-free struct is infallible; an Err here is a build defect, not wire input
        serde_json::to_string(self).expect("recovery image encodes").into_bytes()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JournalError::Codec(e.to_string()))?;
        serde_json::from_str(text).map_err(|e| JournalError::Codec(e.to_string()))
    }

    /// Spill to a file (pretty-stable JSON; used for the CI artifact
    /// and for warm-restart state). Published atomically — sibling tmp,
    /// fsync, rename — so a crash mid-write leaves the previous image
    /// or the new one, never a torn file. Returns the path written.
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
    use gridmine_arm::{ItemSet, Ratio, Rule};

    fn cand(item: u32) -> CandidateRule {
        CandidateRule { rule: Rule::frequency(ItemSet::of(&[item])), lambda: Ratio::new(1, 2) }
    }

    fn sample_log() -> RecoveryLog {
        let mut log = RecoveryLog::baseline(ResourceState { resource: 3, records: Vec::new() });
        log.append(JournalEntry::RuleRegistered { rule: cand(1) });
        log.append(JournalEntry::ScanAdvanced {
            rule: cand(1),
            frontier: 10,
            sum: 4,
            count: 10,
            clock: 3,
            last_sum: 4,
        });
        log.append(JournalEntry::OutputCached { rule: cand(1), answer: true });
        log.append(JournalEntry::ScanAdvanced {
            rule: cand(1),
            frontier: 16,
            sum: 7,
            count: 16,
            clock: 5,
            last_sum: 7,
        });
        log
    }

    #[test]
    fn replay_folds_deltas_over_the_snapshot() {
        let state = sample_log().replay().expect("intact log replays");
        assert_eq!(state.resource, 3);
        assert_eq!(state.records.len(), 1);
        let rec = &state.records[0];
        assert_eq!((rec.frontier, rec.sum, rec.count, rec.clock), (16, 7, 16, 5));
        assert_eq!(rec.output, Some(true));
        assert!(rec.is_wellformed(40));
    }

    #[test]
    fn rebaseline_truncates_but_preserves_state() {
        let mut log = sample_log();
        let state = log.replay().unwrap();
        log.rebaseline(state.clone());
        assert!(log.is_empty());
        assert_eq!(log.replay().unwrap(), state);
    }

    #[test]
    fn payload_tampering_is_detected() {
        let mut log = sample_log();
        log.corrupt();
        assert!(
            matches!(log.replay(), Err(JournalError::ChainDigestMismatch { .. })),
            "forged digest must break the chain"
        );
    }

    #[test]
    fn snapshot_substitution_is_detected() {
        let mut log = RecoveryLog::baseline(ResourceState { resource: 3, records: Vec::new() });
        log.corrupt(); // empty journal → snapshot digest corrupted
        assert_eq!(log.replay(), Err(JournalError::SnapshotDigestMismatch));
    }

    #[test]
    fn reordering_is_detected() {
        let mut log = sample_log();
        log.entries.swap(1, 2);
        assert!(log.replay().is_err(), "swapped entries must not verify");
    }

    #[test]
    fn truncation_is_detected_front_and_back() {
        let mut front = sample_log();
        front.entries.remove(0);
        assert!(
            matches!(front.replay(), Err(JournalError::SequenceGap { .. })),
            "front truncation must break the sequence"
        );

        let mut back = sample_log();
        back.entries.pop();
        assert_eq!(back.replay(), Err(JournalError::HeadMismatch));
    }

    #[test]
    fn image_roundtrips_through_bytes_and_files() {
        let image = RecoveryImage { resource: 3, log: sample_log() };
        let bytes = image.to_bytes();
        let back = RecoveryImage::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, image);
        assert_eq!(back.log.replay().unwrap(), image.log.replay().unwrap());

        let path = std::env::temp_dir().join("gridmine_recovery_image_test.json");
        image.write_to(&path).expect("writes");
        let from_disk = RecoveryImage::read_from(&path).expect("reads");
        assert_eq!(from_disk, image);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_bytes_are_a_codec_error_not_a_panic() {
        assert!(matches!(
            RecoveryImage::from_bytes(b"not json at all"),
            Err(JournalError::Codec(_))
        ));
        assert!(matches!(RecoveryImage::from_bytes(&[0xFF, 0xFE]), Err(JournalError::Codec(_))));
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
