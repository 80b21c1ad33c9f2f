//! Multi-process e2e: real `gridmine-node` OS processes over loopback
//! TCP, driven by [`NetSession`], pinned against the threaded driver.
//!
//! These tests spawn 3+ child processes (the `gridmine-node` binary
//! cargo builds for this crate), so they exercise the full stack: spec
//! files, handshake, framed codec, chaos proxy, phase barriers,
//! crash-wipe persistence, warm restart and the codec-door quarantine.

use gridmine_arm::{correct_rules, AprioriConfig, Database, Ratio, Transaction};
use gridmine_core::{
    DegradeReason, MineConfig, MineSession, RecoveryMode, RecoveryPolicy, ResourceStatus, Verdict,
};
use gridmine_net::{NetError, NetSession};
use gridmine_obs::{Event, EventKind, MemoryRecorder, SharedRecorder};
use gridmine_paillier::MockCipher;
use gridmine_topology::{FaultPlan, Tree};

const NODE_BIN: &str = env!("CARGO_BIN_EXE_gridmine-node");

/// Identical-distribution partitions (the threaded-faults idiom): any
/// subset of resources mines the same ruleset, so convergence targets
/// stay meaningful even when some resources drop out.
fn partition(u: u64) -> Database {
    Database::from_transactions(
        (0..40)
            .map(|j| {
                let id = u * 40 + j;
                if j % 4 == 0 {
                    Transaction::of(id, &[3])
                } else {
                    Transaction::of(id, &[1, 2])
                }
            })
            .collect(),
    )
}

fn dbs(n: usize) -> Vec<Database> {
    (0..n as u64).map(partition).collect()
}

fn cfg(rounds: usize) -> MineConfig {
    let mut cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
    cfg.rounds = rounds;
    cfg
}

/// The schedule-independent skeleton of a run's counter traffic: the set
/// of distinct `(from, to, rule)` triples that sent at least one fresh
/// (non-resend) counter. *How many* sends a triple needed depends on
/// receipt interleaving within a phase; *which* triples communicate is
/// fixed by the data and topology, so this set is seed-stable across
/// drivers.
fn send_skeleton(mem: &MemoryRecorder) -> std::collections::BTreeSet<(u64, u64, String)> {
    mem.snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::CounterSent { from, to, rule, resend: false, .. } => {
                Some((*from, *to, rule.clone()))
            }
            _ => None,
        })
        .collect()
}

/// Pins a run's message tally to schedule-independent invariants: the
/// tally must equal the `CounterSent` event count exactly; fresh
/// (non-resend) sends must cover every skeleton triple at least once;
/// and every fresh send beyond the first per triple must be *caused* —
/// an aggregate only changes via a receipt at the sender, and one
/// receipt triggers at most one send per neighbor, so no schedule can
/// produce more than `skeleton + max_deg × received` fresh sends.
/// Receipts, in turn, can never exceed deliveries.
fn assert_message_bounds(mem: &MemoryRecorder, messages: u64, max_deg: u64, label: &str) {
    let total = mem.count_of(EventKind::CounterSent) as u64;
    assert_eq!(messages, total, "{label}: tally must equal the CounterSent event count");
    let resent = mem
        .snapshot()
        .iter()
        .filter(|e| matches!(e, Event::CounterSent { resend: true, .. }))
        .count() as u64;
    let fresh = total - resent;
    let skeleton = send_skeleton(mem).len() as u64;
    let received = mem.count_of(EventKind::CounterReceived) as u64;
    assert!(received <= total, "{label}: {received} receipts from only {total} sends");
    assert!(
        skeleton <= fresh && fresh <= skeleton + max_deg * received,
        "{label}: {fresh} fresh sends outside [{skeleton}, {skeleton} + {max_deg} × {received}]"
    );
}

#[test]
fn three_process_grid_matches_the_threaded_driver() {
    let n = 3;
    let rounds = 6;
    let net_mem = MemoryRecorder::shared();
    let net = NetSession::<MockCipher>::new(cfg(rounds))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recorder(net_mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    let thr_mem = MemoryRecorder::shared();
    let thr = MineSession::new(cfg(rounds))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recorder(thr_mem.clone() as SharedRecorder)
        .run_threaded();

    assert_eq!(net.solutions, thr.solutions, "solutions diverged from the threaded driver");
    assert_eq!(net.verdicts, thr.verdicts);
    assert_eq!(net.statuses, thr.statuses);
    assert_eq!(net.chaos, thr.chaos, "chaos reports diverged");
    // Raw `messages` counts are schedule-sensitive (duplicate-send
    // suppression can merge two updates into one send, depending on
    // receipt interleaving within a phase — inherently racy across OS
    // processes), so the drivers are pinned on what the schedule cannot
    // move instead: the distinct (from, to, rule) send skeleton, and
    // each run's tally staying inside its skeleton-derived bounds.
    assert_eq!(
        send_skeleton(&net_mem),
        send_skeleton(&thr_mem),
        "the counter-traffic skeleton diverged from the threaded driver"
    );
    assert_message_bounds(&net_mem, net.messages, 2, "net");
    assert_message_bounds(&thr_mem, thr.messages, 2, "threaded");
    let truth = correct_rules(
        &Database::union_of(dbs(n).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for (u, sol) in net.solutions.iter().enumerate() {
        assert_eq!(sol, &truth, "resource {u} did not converge to the Apriori truth");
    }
}

#[test]
fn an_unobserved_session_mines_exactly_what_an_observed_one_does() {
    // Nodes ship events only to a live recorder. Whether anyone watches
    // must not change what is mined — only whether events cross the wire.
    let n = 3;
    let session = || {
        NetSession::<MockCipher>::new(cfg(6))
            .with_topology(Tree::path(n))
            .with_databases(dbs(n))
            .with_node_binary(NODE_BIN)
    };
    let mem = MemoryRecorder::shared();
    let seen =
        session().with_recorder(mem.clone() as SharedRecorder).try_run().expect("observed session");
    let unseen = session().try_run().expect("unobserved session");

    assert_eq!(unseen.solutions, seen.solutions);
    assert_eq!(unseen.verdicts, seen.verdicts);
    assert_eq!(unseen.statuses, seen.statuses);
    assert_eq!(unseen.chaos, seen.chaos);
    // The watched run's node events did arrive, and add up.
    assert_eq!(mem.count_of(EventKind::CounterSent) as u64, seen.messages);
    assert!(seen.messages > 0 && unseen.messages > 0);
}

#[test]
fn crash_and_warm_restart_match_the_threaded_driver() {
    // Resource 2 crashes at tick 2 and warm-restarts at tick 4 — in the
    // net run that is a real process exiting and a fresh process
    // restoring from the persisted recovery image.
    let n = 5;
    let rounds = 12;
    let plan = FaultPlan::new(7).with_crash(2, 2, Some(4));
    let mode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT);

    let mem = MemoryRecorder::shared();
    let net = NetSession::<MockCipher>::new(cfg(rounds))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_faults(plan.clone())
        .with_recovery(mode)
        .with_recorder(mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    let thr = MineSession::new(cfg(rounds))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_faults(plan)
        .with_recovery(mode)
        .run_threaded();

    assert_eq!(net.solutions, thr.solutions, "solutions diverged from the threaded driver");
    assert_eq!(net.verdicts, thr.verdicts);
    assert_eq!(net.statuses, thr.statuses);
    // Raw `messages` is not compared across drivers: under rejoin
    // healing the count is schedule-sensitive (consequent sends depend
    // on receipt interleaving), and even two threaded runs disagree by
    // a few. The tally is pinned to its own event stream instead —
    // exact CounterSent parity plus skeleton-derived bounds on the
    // fresh (non-resend) sends.
    assert_message_bounds(&mem, net.messages, 2, "net crash/restart");
    assert_eq!(net.chaos, thr.chaos, "chaos reports diverged");
    assert_eq!(net.chaos.replays, 1, "exactly one journal replay: {:?}", net.chaos);
    assert!(net.chaos.checkpoints > 0);
    assert!(net.statuses.iter().all(ResourceStatus::is_ok), "{:?}", net.statuses);

    // Per-event observability counts must equal the protocol tallies —
    // the events crossed process boundaries as Obs frames and still add
    // up (the obs-parity invariant, network edition).
    assert_eq!(mem.count_of(EventKind::ResourceCrashed) as u64, net.chaos.faults.crashes);
    assert_eq!(mem.count_of(EventKind::ResourceRecovered) as u64, net.chaos.faults.recoveries);
    assert_eq!(mem.count_of(EventKind::CheckpointTaken) as u64, net.chaos.checkpoints);
    assert_eq!(mem.count_of(EventKind::JournalReplayed) as u64, net.chaos.replays);
    assert_eq!(mem.count_of(EventKind::RecoveryRejected) as u64, net.chaos.rejected);
    assert_eq!(mem.count_of(EventKind::MessageDropped) as u64, net.chaos.faults.dropped);
    assert_eq!(mem.count_of(EventKind::RoundAdvanced), rounds);
    assert_eq!(mem.count_of(EventKind::PeerConnected), n);
    assert_eq!(mem.count_of(EventKind::PeerReconnected), 1, "one warm restart rejoined");

    // Export the trace for the CI artifact: one JSON line per event.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/gridmine-obs");
    std::fs::create_dir_all(dir).expect("obs dir");
    let lines: Vec<String> = mem.snapshot().iter().map(Event::to_json).collect();
    std::fs::write(format!("{dir}/net_crash_restart.jsonl"), lines.join("\n") + "\n")
        .expect("obs trace");
}

#[test]
fn hard_process_kill_is_survived_with_a_warm_restart() {
    // The hub SIGKILLs resource 1's process at tick 6 — no goodbye, no
    // crash-time persist; the successor has only the tick-5 checkpoint
    // (one image: scan state, controller audits, tallies) on disk — and
    // respawns it at tick 8.
    // The session must complete without a panic and the rejoined
    // resource must converge with everyone else. (The kill lands after
    // a checkpoint on purpose: a kill before the first checkpoint
    // leaves nothing to warm-restart from.)
    let n = 4;
    let truth = correct_rules(
        &Database::union_of(dbs(n).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    let outcome = NetSession::<MockCipher>::new(cfg(12))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT))
        .with_process_kill(1, 6, Some(8))
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert!(outcome.statuses.iter().all(ResourceStatus::is_ok), "{:?}", outcome.statuses);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    assert_eq!(outcome.chaos.faults.crashes, 1);
    assert_eq!(outcome.chaos.faults.recoveries, 1);
    for (u, sol) in outcome.solutions.iter().enumerate() {
        assert_eq!(sol, &truth, "resource {u} did not converge after the process kill");
    }
}

#[test]
fn hostile_bytes_draw_a_verdict_and_quarantine_not_a_panic() {
    // Resource 2 handshakes cleanly, then feeds the hub garbage. The
    // codec door must convert that into a MaliciousResource verdict and
    // a quarantine; the survivors keep mining.
    let n = 3;
    let mem = MemoryRecorder::shared();
    let outcome = NetSession::<MockCipher>::new(cfg(6))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_hostile(2)
        .with_recorder(mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert!(
        outcome.verdicts.contains(&Verdict::MaliciousResource(2)),
        "codec door must issue a verdict: {:?}",
        outcome.verdicts
    );
    assert_eq!(outcome.statuses[2], ResourceStatus::Degraded(DegradeReason::Disconnected));
    assert!(outcome.statuses[0].is_ok() && outcome.statuses[1].is_ok(), "{:?}", outcome.statuses);
    assert!(mem.count_of(EventKind::FrameRejected) >= 1, "the bad bytes must be accounted");
    assert_eq!(mem.count_of(EventKind::ResourceQuarantined), 1);
    // The survivors still converge on their joint truth (identical
    // partition distributions, so the target ruleset is unchanged).
    let truth = correct_rules(
        &Database::union_of(dbs(2).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    for u in 0..2 {
        assert_eq!(&outcome.solutions[u], &truth, "survivor {u} diverged");
    }
}

#[test]
fn sessions_without_a_binary_or_with_a_bad_plan_or_k_are_refused() {
    let err = NetSession::<MockCipher>::new(cfg(6))
        .with_databases(dbs(2))
        .try_run()
        .expect_err("binary is mandatory");
    assert!(format!("{err}").contains("binary"), "{err}");

    // A bad plan is refused by the screen every driver runs, with the
    // variant the threaded driver returns for the same plan.
    let plan = FaultPlan::new(1).with_crash(7, 2, None);
    let err = NetSession::<MockCipher>::new(cfg(6))
        .with_databases(dbs(2))
        .with_node_binary(NODE_BIN)
        .with_faults(plan.clone())
        .try_run()
        .expect_err("fault target out of range");
    let threaded = MineSession::new(cfg(6))
        .with_databases(dbs(2))
        .with_faults(plan)
        .try_run_threaded()
        .expect_err("fault target out of range");
    assert!(matches!(&err, NetError::Session(e) if *e == threaded), "{err} vs {threaded}");

    // So is a privacy parameter below 1, before any node is spawned: the
    // binary named here does not exist, so a spawn would fail otherwise.
    let err = NetSession::<MockCipher>::new(cfg(6).with_k(0))
        .with_databases(dbs(2))
        .with_node_binary(format!("{NODE_BIN}.missing"))
        .try_run()
        .expect_err("k below 1");
    let threaded = MineSession::new(cfg(6).with_k(0))
        .with_databases(dbs(2))
        .try_run_threaded()
        .expect_err("k below 1");
    assert!(matches!(&err, NetError::Session(e) if *e == threaded), "{err} vs {threaded}");
}

#[test]
fn a_failed_checkpoint_persist_is_reported_and_survived() {
    // A directory squats on resource 1's state file, so publishing it
    // (rename over a directory) fails at every checkpoint. That degrades
    // recovery fidelity, not the run — but it must be said: as an event
    // when the session is observed, on the node's stderr always (visible
    // under `--nocapture`).
    let n = 3;
    let state_dir =
        std::env::temp_dir().join(format!("gridmine-persistfail-{:08x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(state_dir.join("1.image")).expect("squatter");
    let mem = MemoryRecorder::shared();
    let outcome = NetSession::<MockCipher>::new(cfg(6))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT))
        .with_state_dir(&state_dir)
        .with_recorder(mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert!(outcome.statuses.iter().all(ResourceStatus::is_ok), "{:?}", outcome.statuses);
    assert!(outcome.chaos.checkpoints > 0);
    let failed: Vec<u64> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::CheckpointPersistFailed { resource, .. } => Some(*resource),
            _ => None,
        })
        .collect();
    assert!(!failed.is_empty() && failed.iter().all(|&u| u == 1), "{failed:?}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn sigkill_mid_checkpoint_write_never_tears_persisted_state() {
    // Resource 1 is SIGKILLed *inside* tick 10's Scan phase — while it
    // is persisting its second checkpoint (checkpoint_every = 5, so the
    // tick-5 state is already on disk and the tick-10 persist is what
    // the kill races). Whatever instant the signal lands, the atomic
    // tmp + fsync + rename discipline must leave each state file whole:
    // the successor warm-restarts from the tick-5 or the tick-10
    // checkpoint, never from a torn one — and never from scan state of
    // one beside audits of the other, since a checkpoint is one file.
    // The state dir is external so it survives the session for a
    // byte-level audit.
    let n = 4;
    let state_dir =
        std::env::temp_dir().join(format!("gridmine-midwrite-{:08x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let truth = correct_rules(
        &Database::union_of(dbs(n).iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    let mem = MemoryRecorder::shared();
    let outcome = NetSession::<MockCipher>::new(cfg(16))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT))
        .with_process_kill_mid_write(1, 10, Some(12))
        .with_state_dir(&state_dir)
        .with_recorder(mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    // The race is only the one described if the victim had its tick-10
    // `PhaseStart` when the signal landed: the hub flushes its coalesced
    // stream to the victim before the kill and names the kill by whether
    // that worked.
    let kills: Vec<String> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::PeerDisconnected { resource: 1, reason } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(kills, ["killed mid-write"], "the PhaseStart was on the wire before the SIGKILL");
    assert!(outcome.statuses.iter().all(ResourceStatus::is_ok), "{:?}", outcome.statuses);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    assert_eq!(outcome.chaos.faults.crashes, 1);
    assert_eq!(outcome.chaos.faults.recoveries, 1);
    for (u, sol) in outcome.solutions.iter().enumerate() {
        assert_eq!(sol, &truth, "resource {u} did not converge after the mid-write kill");
    }

    // Byte-level audit: the directory holds one published file per
    // resource and nothing else (`.tmp` siblings are legal debris of an
    // interrupted publish). Each must verify whole — chain, head pin,
    // scan trees — and its audits and tallies must carry one tick, a
    // checkpoint's: nobody crash-persisted in this session.
    let mut audited = Vec::new();
    for entry in std::fs::read_dir(&state_dir).expect("state dir survives the session") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        if name.ends_with(".tmp") {
            continue;
        }
        let bytes = std::fs::read(&path).expect("state file");
        let state = gridmine_net::NodeState::decode(&bytes)
            .unwrap_or_else(|e| panic!("torn or mixed state file {name}: {e}"));
        assert!(
            state.tick > 0 && state.tick.is_multiple_of(5),
            "{name} persisted at tick {}",
            state.tick
        );
        assert!(state.tallies.checkpoints > 0, "{name}: {:?}", state.tallies);
        let scan = gridmine_core::recovery::RecoveryImage::from_bytes(&bytes)
            .and_then(|image| image.replay())
            .unwrap_or_else(|e| panic!("torn image {name}: {e}"));
        assert_eq!(format!("{}.image", scan.resource), name, "an image under another's name");
        audited.push(name);
    }
    audited.sort();
    assert_eq!(audited, ["0.image", "1.image", "2.image", "3.image"]);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_state_file_from_an_earlier_build_is_refused_on_restart() {
    // The session's state directory was left by a build that published
    // three JSON files per resource. Resource 1 is SIGKILLed at tick 2,
    // before its first checkpoint (every 5) could replace any of them,
    // so its successor finds `1.image` as that build wrote it. There is
    // one image format and no reader for another: the successor takes
    // the rejection path — a verdict against itself, out of the protocol
    // — rather than start a cold controller as if nothing had been there.
    let n = 3;
    let state_dir =
        std::env::temp_dir().join(format!("gridmine-oldstate-{:08x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("state dir");
    let old_image = br#"{"resource":1,"log":{"snapshot":{"resource":1,"records":[]},"snapshot_digest":1,"entries":[],"head":1}}"#;
    std::fs::write(state_dir.join("1.image"), old_image).expect("old image");
    std::fs::write(state_dir.join("1.audits"), b"[]").expect("old audits");
    std::fs::write(state_dir.join("1.tallies"), b"{}").expect("old tallies");
    let mem = MemoryRecorder::shared();
    let outcome = NetSession::<MockCipher>::new(cfg(6))
        .with_topology(Tree::path(n))
        .with_databases(dbs(n))
        .with_recovery(RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT))
        .with_process_kill(1, 2, Some(3))
        .with_state_dir(&state_dir)
        .with_recorder(mem.clone() as SharedRecorder)
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert_eq!(outcome.verdicts, [Verdict::MaliciousResource(1)]);
    assert_eq!((outcome.chaos.rejected, outcome.chaos.replays), (1, 0), "{:?}", outcome.chaos);
    assert_eq!(mem.count_of(EventKind::RecoveryRejected), 1);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// ROADMAP item 1's input: `net_ckpt_t5i2`'s four partitions, a
/// checkpoint every round, and resource 1 down at tick 2 and back at
/// tick 3 from its tick-1 checkpoint. The config, the databases, the
/// recovery mode and the centralized truth.
fn t5i2_kill_input() -> (MineConfig, Vec<Database>, RecoveryMode, gridmine_arm::RuleSet) {
    use gridmine_quest::QuestParams;
    let seed = 42;
    let quest = QuestParams::t5i2()
        .with_transactions(2000)
        .with_items(60)
        .with_patterns(25)
        .with_seed(seed);
    let global = gridmine_quest::generate(&quest);
    let (min_freq, min_conf) = (Ratio::from_f64(0.05), Ratio::from_f64(0.5));
    let truth = correct_rules(&global, &AprioriConfig::new(min_freq, min_conf));
    let mut cfg = MineConfig::new(min_freq, min_conf);
    cfg.rounds = 6;
    cfg.seed = seed;
    let mode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT.with_checkpoint_every(1));
    (cfg, gridmine_quest::partition(&global, 4, seed ^ 7), mode, truth)
}

/// What a recovered grid must reach: every resource at the centralized
/// truth and no verdict on an honest grid. The per-resource rule counts
/// and verdicts are printed first, so a `--nocapture` run records where
/// the grid ended.
fn assert_converged(
    driver: &str,
    outcome: &gridmine_core::MiningOutcome,
    truth: &gridmine_arm::RuleSet,
) {
    let sizes: Vec<usize> = outcome.solutions.iter().map(|s| s.len()).collect();
    println!(
        "{driver}: truth {} rules; resources hold {sizes:?}; verdicts {:?}; replays {}, rejected {}",
        truth.len(),
        outcome.verdicts,
        outcome.chaos.replays,
        outcome.chaos.rejected
    );
    for (u, sol) in outcome.solutions.iter().enumerate() {
        assert_eq!(sol, truth, "{driver}: resource {u} did not converge after the kill");
    }
    assert!(outcome.verdicts.is_empty(), "{driver}: {:?}", outcome.verdicts);
}

#[test]
fn a_killed_node_converges_on_the_t5i2_input() {
    // gridbench finding 7: resource 1's process SIGKILLed at tick 2 and
    // warm-restarted at tick 3 from its tick-1 checkpoint. One replay,
    // nothing rejected, and every resource ends at the truth.
    let (cfg, dbs, mode, truth) = t5i2_kill_input();
    let outcome = NetSession::<MockCipher>::new(cfg)
        .with_databases(dbs)
        .with_recovery(mode)
        .with_process_kill(1, 2, Some(3))
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert_converged("net", &outcome, &truth);
}

#[test]
fn a_killed_node_is_not_blamed_on_the_t5i2_input() {
    // The same kill, held to the north star's "never mis-blame an honest
    // resource". The successor restores from its tick-1 checkpoint, so
    // its clocks are older than what its neighbors audited since; the
    // rejoin restarts each of its edges at both ends, and nobody holds
    // the predecessor's timestamps against it.
    let (cfg, dbs, mode, _) = t5i2_kill_input();
    let outcome = NetSession::<MockCipher>::new(cfg)
        .with_databases(dbs)
        .with_recovery(mode)
        .with_process_kill(1, 2, Some(3))
        .with_node_binary(NODE_BIN)
        .try_run()
        .expect("net session");
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    assert!(outcome.statuses.iter().all(ResourceStatus::is_ok), "{:?}", outcome.statuses);
    assert_eq!((outcome.chaos.replays, outcome.chaos.rejected), (1, 0), "{:?}", outcome.chaos);
}

#[test]
fn a_crashed_thread_converges_on_the_t5i2_input() {
    // The same kill through the threaded driver: the `FaultPlan` crash
    // the net session's kill is scheduled as.
    assert_converged("threaded", &t5i2_crash().run_threaded(), &t5i2_kill_input().3);
}

/// The net session's kill as the `FaultPlan` crash it is scheduled as,
/// on the in-process builder.
fn t5i2_crash() -> MineSession<MockCipher> {
    let (cfg, dbs, mode, _) = t5i2_kill_input();
    MineSession::new(cfg)
        .with_databases(dbs)
        .with_faults(FaultPlan::none().with_crash(1, 2, Some(3)))
        .with_recovery(mode)
}

#[test]
fn a_crashed_resource_converges_on_the_t5i2_input_synchronously() {
    // The same crash on one thread: every delivery in one order, fixed by
    // the seed, so whatever this run ends in it ends in every time.
    assert_converged("sync", &t5i2_crash().run(), &t5i2_kill_input().3);
}

#[test]
fn the_t5i2_crash_replays_event_for_event_on_one_thread() {
    // ROADMAP item 1's repro without the OS in it: two synchronous runs
    // of the crash mail the same counters, fire the same faults and end
    // with the same rules, so a fix can be checked against one history.
    let run = || {
        let mem = MemoryRecorder::shared();
        let outcome = t5i2_crash().with_recorder(mem.clone() as SharedRecorder).run();
        (outcome, mem.snapshot())
    };
    let ((first, events), (second, replayed)) = (run(), run());
    assert_eq!((first.chaos.replays, first.chaos.rejected), (1, 0), "{:?}", first.chaos);
    assert!(events.len() > 10_000, "too few events to tell runs apart: {}", events.len());
    assert_eq!(events, replayed);
    assert_eq!(first.solutions, second.solutions);
    assert_eq!(first.verdicts, second.verdicts);
}
