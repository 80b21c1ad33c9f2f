//! What a node process leaves behind for its successor: **one** image
//! per resource, `{u}.image` under the session's state directory.
//!
//! The file is the image a crash leaves in every driver
//! ([`SecureResource::crash_wipe`](gridmine_core::SecureResource::crash_wipe),
//! or [`SecureResource::recovery_store`](gridmine_core::SecureResource::recovery_store)
//! at a checkpoint): a [`RecoveryImage`], a store at rest with its chain
//! head pinned, holding the resource's recovery log (warm mode only) and
//! its controller's audits. The node adds one tree of its own, binary
//! like the rest: `tallies`, the protocol tallies of this resource's
//! whole life, so a successor's report covers its predecessors — their
//! one byte form ([`Tallies::to_bytes`], what a `Report` frame carries
//! too) under the tick of the persist that wrote the file.
//!
//! A persist copies the live store instead of re-reading it, appends the
//! tallies to the copy's WAL and publishes the lot with one
//! [`gridmine_store::atomic_write_file`]: a successor (and the hub, for a
//! resource that died without a report) sees checkpoint *N* or *N − 1*,
//! never scan state from one and audits from the other. The reader
//! verifies: [`NodeState::decode`] checks chain and pin before it reads
//! a tree, and the restore door screens the rest.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gridmine_core::{RoundMachine, Tallies};
use gridmine_paillier::HomCipher;
use gridmine_recovery::RecoveryImage;

const TALLIES: &str = "tallies";

/// Resource `u`'s state file under `dir`.
pub fn path(dir: impl AsRef<Path>, u: usize) -> PathBuf {
    dir.as_ref().join(format!("{u}.image"))
}

/// The node's own tree of a state file.
#[derive(Debug)]
pub struct NodeState {
    /// Tick of the persist that published the file.
    pub tick: u64,
    /// Tallies of the resource's life up to then.
    pub tallies: Tallies,
}

impl NodeState {
    /// Verifies a state file (chain and pin) and reads the node's tree.
    /// Bytes from disk are untrusted: a file that does not verify, lacks
    /// the tree, or holds an entry no persist writes is an error for the
    /// caller's rejection path, never a default.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let image = RecoveryImage::from_bytes(bytes).map_err(|e| e.to_string())?;
        let store = image.verify().map_err(|e| e.to_string())?;
        let mut entries = store.scan_tree(TALLIES);
        let (Some((key, value)), None) = (entries.next(), entries.next()) else {
            return Err(format!("state file holds {} `tallies` entries", store.tree_len(TALLIES)));
        };
        let tick = key.try_into().map(u64::from_be_bytes).map_err(|_| "bad `tallies` key")?;
        let tallies = Tallies::from_bytes(value).ok_or("malformed `tallies` value")?;
        Ok(NodeState { tick, tallies })
    }
}

/// Publishes everything a future incarnation of `machine`'s resource
/// needs — the image a crash at `tick` would leave plus the total
/// tallies — atomically (sibling tmp + fsync + rename), so a kill
/// mid-write leaves the previous checkpoint intact, never a torn or
/// mixed one. The image is `crash_image`, what a crash at `tick` left,
/// verified into a store; else a copy of the live one. The error is
/// returned so the caller can surface it: a failed persist degrades
/// recovery fidelity, not the run, but it must not be silent.
pub(crate) fn publish<C: HomCipher>(
    path: &Path,
    machine: &RoundMachine<C>,
    tick: u64,
    crash_image: Option<&[u8]>,
) -> std::io::Result<()> {
    fn bad(e: impl std::fmt::Display) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
    let store = match crash_image {
        Some(bytes) => RecoveryImage::from_bytes(bytes).and_then(|i| i.verify()),
        None => machine.resource().recovery_store(),
    };
    let mut store = store.map_err(bad)?;
    store.put(TALLIES, &tick.to_be_bytes(), &machine.tallies().to_bytes()).map_err(bad)?;
    gridmine_store::atomic_write_file(path, &RecoveryImage::from_store(store).to_bytes())?;
    Ok(())
}

/// Warm restart: restores from what the previous incarnation published
/// at `path`, through the resource's one restore door. No file means it
/// never got to publish and there is nothing to restore. A file is
/// recovered input: one whose tallies do not read takes the resource's
/// own rejection path — a verdict against itself — instead of quietly
/// starting a cold controller.
pub(crate) fn resume<C: HomCipher>(path: &Path, machine: &mut RoundMachine<C>) {
    let t0 = Instant::now();
    let mut image = std::fs::read(path).ok();
    if let Some(bytes) = &image {
        match NodeState::decode(bytes) {
            Ok(state) => machine.carry(state.tallies),
            Err(e) => {
                machine.resource_mut().reject_recovery(format!("unreadable state file: {e}"));
                image = None;
            }
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
    use gridmine_store::{MemBackend, Store};
    use gridmine_topology::FaultPlan;

    const WARM: RecoveryMode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT);
    /// The image tree the controller's audits travel in.
    const AUDITS: &str = "audits";

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

    /// A machine that has run its rounds through tick 5's checkpoint —
    /// its controller has audited its rules by then — and the file it
    /// published there.
    fn published(mode: RecoveryMode, name: &str) -> (RoundMachine<MockCipher>, PathBuf) {
        let mut m = machine(mode);
        for tick in 1..=5 {
            assert!(matches!(m.scan(tick), Scan::Send { .. }));
            m.candidates();
        }
        let dir =
            std::env::temp_dir().join(format!("gridmine-state-{}-{name}", std::process::id()));
        let file = path(dir, 1);
        publish(&file, &m, 5, None).expect("publish");
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

    /// A machine's controller audits by rule key: a successor files its
    /// rules under ids of its own.
    fn audits(m: &RoundMachine<MockCipher>) -> Vec<gridmine_core::AuditImage> {
        let mut audits = m.resource().export_controller_audits();
        audits.sort_by_key(|img| img.rule.key());
        audits
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
        assert!(!audits(&m).is_empty());
        assert_eq!(audits(&successor), audits(&m), "every audit comes back");
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
        assert!(!audits(&m).is_empty());
        assert_eq!(audits(&successor), audits(&m), "the audits are what a cold restart keeps");
        // The same file under a warm policy lacks the trees it should
        // have: refused, not restored as an empty working set.
        let warm = resumed(WARM, &file).report();
        assert_eq!(warm.verdict, Some(Verdict::MaliciousResource(1)));
        assert_eq!((warm.tallies.replays, warm.tallies.rejected), (0, 1));
        clean(&file);
    }

    #[test]
    fn a_damaged_file_is_rejected_and_an_absent_one_is_nothing_to_restore() {
        let (m, file) = published(WARM, "damaged");
        let whole = std::fs::read(&file).expect("read");
        let edited = |edit: &dyn Fn(&mut Store<MemBackend>)| {
            let mut store =
                RecoveryImage::from_bytes(&whole).and_then(|i| i.verify()).expect("verifies");
            edit(&mut store);
            RecoveryImage::of(&store).to_bytes()
        };
        let clear = |store: &mut Store<MemBackend>, tree: &str| {
            let keys: Vec<Vec<u8>> = store.scan_tree(tree).map(|(key, _)| key.to_vec()).collect();
            for key in keys {
                store.delete(tree, &key).expect("delete");
            }
        };
        let strip = |tree: &str| edited(&|store| clear(store, tree));
        // The first audited rule's entry, rewritten by `edit`.
        let reaudit = |edit: &dyn Fn(&mut Vec<u8>, &mut Vec<u8>)| {
            edited(&|store| {
                let (key, value) = store.scan_tree(AUDITS).next().expect("an audited rule");
                let (mut key, mut value) = (key.to_vec(), value.to_vec());
                store.delete(AUDITS, &key).expect("delete");
                edit(&mut key, &mut value);
                store.put(AUDITS, &key, &value).expect("put");
            })
        };
        // What PR 18's build published: JSON audits and tallies, each
        // under the tick.
        let pr18 = edited(&|store| {
            clear(store, AUDITS);
            clear(store, TALLIES);
            let audits = serde_json::to_string(&m.resource().export_controller_audits());
            let tallies = serde_json::to_string(&m.tallies());
            let tick = 5u64.to_be_bytes();
            store.put(AUDITS, &tick, audits.expect("json").as_bytes()).expect("put");
            store.put(TALLIES, &tick, tallies.expect("json").as_bytes()).expect("put");
        });
        // The output gate's fields sit after the clock word: `k`, then
        // the mode byte.
        let mut damaged = vec![
            ("cut short", whole[..whole.len() - 7].to_vec()),
            ("cut to nothing", Vec::new()),
            ("without tallies", strip(TALLIES)),
            ("an audits value cut short", reaudit(&|_, value| value.truncate(value.len() - 1))),
            ("one trailing byte", reaudit(&|_, value| value.push(0))),
            ("a gate with k = 0", reaudit(&|_, value| value[8..16].fill(0))),
            ("mode byte 2", reaudit(&|_, value| value[16] = 2)),
            ("a non-canonical audits key", reaudit(&|key, _| key.extend([0; 4]))),
            ("a state file of PR 18's build", pr18),
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
