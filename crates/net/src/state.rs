//! What a node process leaves behind for its successor: **one** image
//! per resource, `{u}.image` under the session's state directory.
//!
//! The file is a [`RecoveryImage`] — a store at rest, chain head pinned.
//! Its trees are the resource's recovery log (warm mode only; see
//! `gridmine_recovery`) plus two of the node's own, each holding one
//! entry keyed by the tick of the persist that wrote it:
//!
//! * `audits` — the controller's exported audit state, which an
//!   in-process driver never loses but a killed process does;
//! * `tallies` — the protocol tallies of this resource's whole life, so
//!   a successor's report covers its predecessors.
//!
//! One image, one [`gridmine_store::atomic_write_file`]: a successor (and the hub, for a
//! resource that died without a report) sees checkpoint *N* or *N − 1*,
//! never scan state from one and audits from the other.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gridmine_core::{AuditImage, RoundMachine, Tallies};
use gridmine_paillier::HomCipher;
use gridmine_recovery::RecoveryImage;
use gridmine_store::{MemBackend, Store};

const AUDITS: &str = "audits";
const TALLIES: &str = "tallies";

/// Resource `u`'s state file under `dir`.
pub fn path(dir: impl AsRef<Path>, u: usize) -> PathBuf {
    dir.as_ref().join(format!("{u}.image"))
}

/// The node's own trees of a state file.
#[derive(Debug)]
pub struct NodeState {
    /// Tick of the persist that published the file.
    pub tick: u64,
    /// Tallies of the resource's life up to then.
    pub tallies: Tallies,
    /// The controller's audit state at that tick.
    pub audits: Vec<AuditImage>,
}

impl NodeState {
    /// Verifies a state file (chain and pin) and reads the node's trees.
    /// Bytes from disk are untrusted: a file that does not verify, lacks
    /// a tree, or whose trees were written at different ticks is an
    /// error for the caller's rejection path, never a default.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let image = RecoveryImage::from_bytes(bytes).map_err(|e| e.to_string())?;
        let store = image.verify().map_err(|e| e.to_string())?;
        let (tick, tallies) = entry(&store, TALLIES)?;
        let (audits_tick, audits) = entry(&store, AUDITS)?;
        if audits_tick != tick {
            return Err(format!("tallies of tick {tick} beside audits of tick {audits_tick}"));
        }
        Ok(NodeState { tick, tallies, audits })
    }
}

/// The single `tick → JSON value` entry of one of the node's trees.
fn entry<T: serde::de::DeserializeOwned>(
    store: &Store<MemBackend>,
    tree: &str,
) -> Result<(u64, T), String> {
    let mut entries = store.scan_tree(tree);
    let (Some((key, value)), None) = (entries.next(), entries.next()) else {
        return Err(format!("state file holds {} `{tree}` entries", store.tree_len(tree)));
    };
    let tick = key.try_into().map(u64::from_be_bytes).map_err(|_| format!("bad `{tree}` key"))?;
    let json = std::str::from_utf8(value).map_err(|e| format!("`{tree}`: {e}"))?;
    Ok((tick, serde_json::from_str(json).map_err(|e| format!("`{tree}`: {e}"))?))
}

/// Publishes everything a future incarnation of `machine`'s resource
/// needs — its recovery log as it stands (warm mode only), controller
/// audits, total tallies — as one image, atomically (sibling tmp +
/// fsync + rename), so a kill mid-write leaves the previous checkpoint
/// intact, never a torn or mixed one. The error is returned so the
/// caller can surface it: a failed persist degrades recovery fidelity,
/// not the run, but it must not be silent.
pub(crate) fn publish<C: HomCipher>(
    path: &Path,
    machine: &RoundMachine<C>,
    tick: u64,
) -> std::io::Result<()> {
    fn bad(e: impl std::fmt::Display) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
    let r = machine.resource();
    let mut store = match r.recovery_image() {
        Some(image) => image.verify().map_err(bad)?,
        None => Store::in_memory().map_err(bad)?,
    };
    let key = tick.to_be_bytes();
    let audits = serde_json::to_string(&r.export_controller_audits()).map_err(bad)?;
    store.put(AUDITS, &key, audits.as_bytes()).map_err(bad)?;
    let tallies = serde_json::to_string(&machine.tallies()).map_err(bad)?;
    store.put(TALLIES, &key, tallies.as_bytes()).map_err(bad)?;
    RecoveryImage::of(&store).write_to(path)?;
    Ok(())
}

/// Warm restart: re-imports what the previous incarnation published at
/// `path`. No file means it never got to publish and there is nothing
/// to restore. A file is recovered input: one that does not verify, or
/// lacks a tree of the node's, takes the resource's own rejection path
/// — a verdict against itself — instead of quietly starting a cold
/// controller. Audits land before the journal replay (the controller
/// screens replayed traffic against its Lamport traces and send gates).
pub(crate) fn resume<C: HomCipher>(path: &Path, machine: &mut RoundMachine<C>) {
    let t0 = Instant::now();
    let mut image = std::fs::read(path).ok();
    if let Some(bytes) = &image {
        let seated = match NodeState::decode(bytes) {
            Ok(state) => {
                machine.carry(state.tallies);
                machine.resource_mut().import_controller_audits(state.audits)
            }
            Err(e) => machine.resource_mut().reject_recovery(format!("unreadable state file: {e}")),
        };
        if !seated {
            image = None;
        }
    }
    machine.restore(image.as_deref(), || t0.elapsed().as_nanos());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{Database, Item, Ratio, Transaction};
    use gridmine_core::{
        GridKeys, RecoveryMode, RecoveryPolicy, RoundSchedule, Scan, SecureResource, Verdict,
    };
    use gridmine_majority::CandidateGenerator;
    use gridmine_paillier::MockCipher;
    use gridmine_topology::FaultPlan;

    const WARM: RecoveryMode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT);

    /// Resource 1 of a two-resource path, as a node process builds it.
    fn machine(mode: RecoveryMode) -> RoundMachine<MockCipher> {
        let keys = GridKeys::<MockCipher>::mock(5);
        let generator = CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let db = Database::from_transactions((0..8).map(|i| Transaction::of(i, &[1, 2])).collect());
        let items = [Item(1), Item(2)];
        let resource = SecureResource::new(1, &keys, vec![0], db, 1, generator, &items, 7);
        let schedule = RoundSchedule::of(&FaultPlan::none(), 1, vec![0], mode);
        RoundMachine::new(resource, schedule, gridmine_obs::null())
    }

    /// A machine that has scanned through tick 5's checkpoint, and the
    /// file it published there.
    fn published(mode: RecoveryMode, name: &str) -> (RoundMachine<MockCipher>, PathBuf) {
        let mut m = machine(mode);
        for tick in 1..=5 {
            assert!(matches!(m.scan(tick), Scan::Send { .. }));
        }
        let dir =
            std::env::temp_dir().join(format!("gridmine-state-{}-{name}", std::process::id()));
        let file = path(dir, 1);
        publish(&file, &m, 5).expect("publish");
        (m, file)
    }

    fn clean(file: &Path) {
        let _ = std::fs::remove_dir_all(file.parent().expect("its directory"));
    }

    fn resumed(mode: RecoveryMode, file: &Path) -> RoundMachine<MockCipher> {
        let mut m = machine(mode);
        resume(file, &mut m);
        m
    }

    #[test]
    fn a_published_file_carries_one_checkpoint_and_resumes_its_successor() {
        let (m, file) = published(WARM, "warm");
        let state = NodeState::decode(&std::fs::read(&file).expect("read")).expect("decodes");
        assert_eq!((state.tick, state.tallies), (5, m.tallies()));
        assert_eq!(m.tallies().checkpoints, 1);

        let successor = resumed(WARM, &file);
        let report = successor.report();
        assert_eq!((report.verdict, report.degraded), (None, None));
        assert_eq!(report.tallies.checkpoints, 1, "the predecessor's life is carried");
        assert_eq!((report.tallies.replays, report.tallies.rejected), (1, 0));
        assert_eq!(successor.resource().candidate_count(), m.resource().candidate_count());
        clean(&file);
    }

    #[test]
    fn cold_mode_publishes_audits_and_tallies_without_a_scan_tree() {
        let (m, file) = published(RecoveryMode::ColdRestart, "cold");
        let bytes = std::fs::read(&file).expect("read");
        assert_eq!(NodeState::decode(&bytes).expect("decodes").tallies, m.tallies());
        let image = RecoveryImage::from_bytes(&bytes).expect("unframes");
        assert!(image.replay().is_err(), "no recovery log rode along");

        let successor = resumed(RecoveryMode::ColdRestart, &file);
        assert_eq!(successor.report().verdict, None);
        assert_eq!(successor.tallies(), m.tallies());
        // The same file under a warm policy lacks the trees it should
        // have: refused, not restored as an empty working set.
        let warm = resumed(WARM, &file).report();
        assert_eq!(warm.verdict, Some(Verdict::MaliciousResource(1)));
        assert_eq!((warm.tallies.replays, warm.tallies.rejected), (0, 1));
        clean(&file);
    }

    #[test]
    fn a_damaged_file_is_rejected_and_an_absent_one_is_nothing_to_restore() {
        let (_, file) = published(WARM, "damaged");
        let whole = std::fs::read(&file).expect("read");
        let strip = |tree: &str| {
            let mut store =
                RecoveryImage::from_bytes(&whole).and_then(|i| i.verify()).expect("verifies");
            store.delete(tree, &5u64.to_be_bytes()).expect("delete");
            RecoveryImage::of(&store).to_bytes()
        };
        let restamp = {
            let mut store =
                RecoveryImage::from_bytes(&whole).and_then(|i| i.verify()).expect("verifies");
            store.delete(AUDITS, &5u64.to_be_bytes()).expect("delete");
            store.put(AUDITS, &4u64.to_be_bytes(), b"[]").expect("put");
            RecoveryImage::of(&store).to_bytes()
        };
        let mut damaged = vec![
            ("cut short", whole[..whole.len() - 7].to_vec()),
            ("cut to nothing", Vec::new()),
            ("without audits", strip(AUDITS)),
            ("without tallies", strip(TALLIES)),
            ("audits of another tick", restamp),
            ("an earlier build's JSON", br#"{"resource":1,"log":{"entries":[]}}"#.to_vec()),
        ];
        for at in (0..whole.len()).step_by(53) {
            let mut flipped = whole.clone();
            flipped[at] ^= 0x10;
            damaged.push(("bit-flipped", flipped));
        }
        for (what, bytes) in damaged {
            std::fs::write(&file, &bytes).expect("sabotage");
            let report = resumed(WARM, &file).report();
            assert_eq!(report.verdict, Some(Verdict::MaliciousResource(1)), "{what}");
            assert_eq!((report.tallies.replays, report.tallies.rejected), (0, 1), "{what}");
        }

        std::fs::remove_file(&file).expect("remove");
        let report = resumed(WARM, &file).report();
        assert_eq!((report.verdict, report.degraded), (None, None));
        assert_eq!(report.tallies, machine(WARM).tallies(), "a fresh resource, nothing carried");
        clean(&file);
    }
}
