//! Delivery-order pin. Within a pass, each sender times and buckets its
//! own messages, and the scheduler appends the buckets to the in-flight
//! queue in ascending sender order: that is the order a receiver reads
//! same-tick messages from different senders in. The wheel-vs-tick suite
//! cannot see a change of that order, because both of its schedules share
//! the pass bodies, so this suite pins two seeded 50-resource runs to
//! literal outcomes: a clean grid with growing databases, and the same
//! grid under lossy, duplicating, jittered links with one crash and a
//! rejoin. A merge that appends senders in descending order moves both
//! runs' numbers, and leaving out the per-edge FIFO clock moves the
//! faulty run's. A third run arms checkpoint recovery, a crash with a
//! rejoin and a mute controller on a small retry budget, so where the
//! simulator arms recovery and the budget is pinned too.

use gridmine_arm::{Database, Ratio};
use gridmine_core::attack::ControllerBehavior;
use gridmine_core::{RecoveryMode, RecoveryPolicy};
use gridmine_paillier::MockCipher;
use gridmine_quest::QuestParams;
use gridmine_sim::{split_growth, SimConfig, SimSession, Simulation};
use gridmine_topology::faults::{EdgeFaults, FaultPlan};

const N: usize = 50;
const STEPS: u64 = 30;

/// A Barabási–Albert grid of `N` resources over a small T5I2 input, a
/// fifth of each partition held back as its growth stream.
fn grid(plan: Option<FaultPlan>, mode: RecoveryMode) -> Simulation<MockCipher> {
    let quest = QuestParams::t5i2().with_transactions(1_000).with_items(8).with_patterns(4);
    let global: Database = gridmine_quest::generate(&quest.with_seed(42));
    let mut cfg = SimConfig::small().with_resources(N).with_k(4).with_seed(0x51D);
    cfg.scan_budget = 20;
    cfg.growth_per_step = 2;
    cfg.min_freq = Ratio::from_f64(0.3);
    cfg.obfuscate = false;
    let mut session = SimSession::new(cfg)
        .with_workload(split_growth(&global, N, 0.2, 0xF00D))
        .with_items(&global.item_domain())
        .with_recovery(mode)
        .with_steps(STEPS);
    if let Some(plan) = plan {
        session = session.with_faults(plan);
    }
    session.build()
}

/// FNV-1a, 64 bits: a stable digest of a long canonical text.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The outcome of a run: message and byte totals, a digest of every
/// resource's sorted solution, the verdicts and the chaos report.
fn outcome(sim: &mut Simulation<MockCipher>) -> (u64, u64, u64, String, String) {
    sim.run_event_driven(STEPS);
    sim.refresh_outputs();
    let solutions: Vec<Vec<String>> = sim
        .solutions()
        .iter()
        .map(|s| {
            let mut rules: Vec<String> = s.iter().map(|r| format!("{r:?}")).collect();
            rules.sort();
            rules
        })
        .collect();
    let chaos = serde_json::to_string(&sim.chaos_report()).expect("report serializes");
    (
        sim.total_msgs,
        sim.total_bytes,
        fnv(&format!("{solutions:?}")),
        format!("{:?}", sim.verdicts),
        chaos,
    )
}

#[test]
fn a_clean_growing_grid_keeps_its_pinned_outcome() {
    let got = outcome(&mut grid(None, RecoveryMode::ColdRestart));
    assert_eq!(
        got,
        (
            181_251,
            376_750_848,
            5_398_954_439_073_897_565,
            "[]".to_owned(),
            r#"{"faults":{"dropped":0,"duplicated":0,"delayed":0,"crashes":0,"recoveries":0,"departures":0},"retries":0,"degraded":[],"convergence_delay":0,"resends":0,"checkpoints":0,"replays":0,"rejected":0,"exhausted":0}"#.to_owned(),
        )
    );
}

#[test]
fn a_faulty_grid_with_a_crash_and_a_rejoin_keeps_its_pinned_outcome() {
    let plan = FaultPlan::new(0xFA17)
        .with_default_edge(EdgeFaults { drop: 0.1, duplicate: 0.1, jitter: 2 })
        .with_crash(7, 12, Some(20));
    let got = outcome(&mut grid(Some(plan), RecoveryMode::ColdRestart));
    assert_eq!(
        got,
        (
            153_588,
            351_193_088,
            12_056_089_537_640_756_587,
            "[]".to_owned(),
            r#"{"faults":{"dropped":15199,"duplicated":14022,"delayed":92203,"crashes":1,"recoveries":1,"departures":0},"retries":0,"degraded":[],"convergence_delay":30,"resends":19867,"checkpoints":0,"replays":0,"rejected":0,"exhausted":0}"#.to_owned(),
        )
    );
}

#[test]
fn an_armed_grid_with_a_rejoin_and_a_mute_controller_keeps_its_pinned_outcome() {
    let plan = FaultPlan::new(0xA12D).with_crash(7, 12, Some(20));
    let mode = RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT.with_checkpoint_every(3));
    let mut sim = grid(Some(plan), mode);
    sim.resource_mut(6).controller_behavior = ControllerBehavior::Mute;
    sim.resource_mut(6).set_retry_budget(8);
    let got = outcome(&mut sim);
    assert_eq!(
        got,
        (
            226_062,
            471_721_984,
            1_260_083_899_825_613_731,
            "[]".to_owned(),
            r#"{"faults":{"dropped":0,"duplicated":0,"delayed":0,"crashes":1,"recoveries":1,"departures":0},"retries":8,"degraded":[6],"convergence_delay":18,"resends":3455,"checkpoints":487,"replays":1,"rejected":0,"exhausted":1}"#.to_owned(),
        )
    );
}
