//! Wheel-vs-tick differential suite: the event-driven scheduler
//! (`run_event_driven`) and the dense schedule (`run`) fire the same pass
//! bodies, so what this suite pins is what the wheel adds — which
//! resources a pass visits, which timestamps it fires at, and the
//! same-timestamp agenda. Both must reach byte-identical solutions,
//! verdicts and `ChaosReport` tallies under the same seed — across clean
//! runs, lossy links, crashes with every recovery mode, departures, the
//! §5.2 attack gallery, membership changes and a mute controller — plus
//! an obs-parity check that event counts still equal protocol tallies
//! under the wheel.

use gridmine_arm::{Database, Item, Ratio, Transaction};
use gridmine_core::attack::{BrokerBehavior, ControllerBehavior};
use gridmine_core::{RecoveryMode, RecoveryPolicy, Verdict};
use gridmine_obs::{EventKind, MemoryRecorder};
use gridmine_paillier::MockCipher;
use gridmine_sim::{GrowthPlan, SimConfig, SimSession, Simulation};
use gridmine_topology::faults::{EdgeFaults, FaultPlan};
use proptest::prelude::*;

const N: usize = 8;

fn dbs() -> Vec<Database> {
    (0..N as u64)
        .map(|u| {
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
        })
        .collect()
}

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small().with_resources(N).with_k(1).with_seed(seed);
    cfg.growth_per_step = 0;
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);
    cfg
}

fn build(seed: u64, plan: Option<FaultPlan>, mode: RecoveryMode) -> Simulation<MockCipher> {
    let mut session = SimSession::new(cfg(seed))
        .with_databases(dbs())
        .with_items(&[Item(1), Item(2), Item(3)])
        .with_recovery(mode)
        .with_steps(400);
    if let Some(plan) = plan {
        session = session.with_faults(plan);
    }
    session.build()
}

/// The full observable outcome of a run, serialized: interim solutions,
/// verdicts, message/byte totals and the chaos report.
fn fingerprint(sim: &mut Simulation<MockCipher>) -> String {
    sim.refresh_outputs();
    // RuleSet is hash-backed, so its iteration order is not canonical;
    // sort each solution's rules before comparing.
    let solutions: Vec<Vec<String>> = sim
        .solutions()
        .iter()
        .map(|s| {
            let mut rules: Vec<String> = s.iter().map(|r| format!("{r:?}")).collect();
            rules.sort();
            rules
        })
        .collect();
    let verdicts = format!("{:?}", sim.verdicts);
    let statuses = format!("{:?}", sim.statuses());
    let chaos = serde_json::to_string(&sim.chaos_report()).expect("report serializes");
    format!(
        "solutions={solutions:?}\nverdicts={verdicts}\nstatuses={statuses}\n\
         msgs={} bytes={}\nchaos={chaos}",
        sim.total_msgs, sim.total_bytes
    )
}

/// Drives one sim with the tick loop and an identically-built sim with
/// the wheel, asserting identical fingerprints.
fn assert_equivalent(
    label: &str,
    steps: u64,
    plan: Option<FaultPlan>,
    mode: RecoveryMode,
    seed: u64,
) {
    let mut tick = build(seed, plan.clone(), mode);
    tick.run(steps);
    let mut wheel = build(seed, plan, mode);
    wheel.run_event_driven(steps);
    assert_eq!(tick.step_no(), wheel.step_no(), "{label}: clocks agree");
    assert_eq!(fingerprint(&mut tick), fingerprint(&mut wheel), "{label}: outcomes diverge");
}

#[test]
fn clean_run_is_equivalent() {
    assert_equivalent("clean", 60, None, RecoveryMode::Disabled, 2);
}

#[test]
fn growth_run_is_equivalent() {
    let mut c = cfg(7);
    c.growth_per_step = 3;
    let global =
        Database::from_transactions(
            (0..480)
                .map(|i| {
                    if i % 4 == 0 {
                        Transaction::of(i, &[3])
                    } else {
                        Transaction::of(i, &[1, 2])
                    }
                })
                .collect(),
        );
    let build = || SimSession::new(c).with_global(&global, 0.3).with_steps(80).build();
    let mut tick = build();
    tick.run(80);
    let mut wheel = build();
    wheel.run_event_driven(80);
    assert_eq!(fingerprint(&mut tick), fingerprint(&mut wheel), "growth run diverges");
}

#[test]
fn lossy_duplicating_jittery_links_are_equivalent() {
    let plan = FaultPlan::new(0xFA57).with_default_edge(EdgeFaults {
        drop: 0.2,
        duplicate: 0.15,
        jitter: 3,
    });
    assert_equivalent("lossy links", 80, Some(plan), RecoveryMode::Disabled, 3);
}

#[test]
fn crash_without_recovery_is_equivalent() {
    let plan =
        FaultPlan::new(0xC4A5).with_default_edge(EdgeFaults::dropping(0.1)).with_crash(5, 20, None);
    assert_equivalent("crash, legacy mode", 60, Some(plan), RecoveryMode::Disabled, 2);
}

#[test]
fn crash_recover_cold_restart_is_equivalent() {
    let plan = FaultPlan::new(0xBEE).with_crash(3, 12, Some(30));
    assert_equivalent("cold restart", 90, Some(plan), RecoveryMode::ColdRestart, 5);
}

#[test]
fn crash_recover_checkpoint_restore_is_equivalent() {
    let plan = FaultPlan::new(0x0DD).with_crash(4, 15, Some(35));
    assert_equivalent(
        "checkpoint restore",
        90,
        Some(plan),
        RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT),
        5,
    );
}

#[test]
fn departure_is_equivalent() {
    let plan =
        FaultPlan::new(0xDEAD).with_default_edge(EdgeFaults::dropping(0.05)).with_departure(6, 18);
    assert_equivalent("departure", 70, Some(plan), RecoveryMode::Disabled, 4);
}

#[test]
fn resuming_the_wheel_mid_run_is_equivalent() {
    // The sampling harnesses alternate run / refresh_outputs; the wheel
    // must survive external mutation between run calls.
    let plan = FaultPlan::new(0xFA57).with_default_edge(EdgeFaults::dropping(0.1));
    let mut tick = build(2, Some(plan.clone()), RecoveryMode::Disabled);
    for _ in 0..6 {
        tick.run(10);
        tick.refresh_outputs();
    }
    let mut wheel = build(2, Some(plan), RecoveryMode::Disabled);
    for _ in 0..6 {
        wheel.run_event_driven(10);
        wheel.refresh_outputs();
    }
    assert_eq!(fingerprint(&mut tick), fingerprint(&mut wheel), "chunked run diverges");
}

#[test]
fn obs_parity_holds_under_the_wheel() {
    let plan = FaultPlan::new(2 ^ 0xFA57)
        .with_default_edge(EdgeFaults { drop: 0.15, duplicate: 0.1, jitter: 2 })
        .with_crash(5, 20, Some(40));
    let observe = |event_driven: bool| {
        let rec = MemoryRecorder::shared();
        let mut sim = SimSession::new(cfg(2))
            .with_databases(dbs())
            .with_items(&[Item(1), Item(2), Item(3)])
            .with_faults(plan.clone())
            .with_recovery(RecoveryMode::ColdRestart)
            .with_steps(60)
            .build();
        sim.set_recorder(rec.clone());
        if event_driven {
            sim.run_event_driven(60);
        } else {
            sim.run(60);
        }
        sim.refresh_outputs();
        (rec, sim.chaos_report())
    };
    let (tick_rec, _) = observe(false);
    let (rec, report) = observe(true);

    // The wheel emits exactly the event stream the tick loop does, kind
    // by kind.
    for kind in EventKind::ALL {
        assert_eq!(
            rec.count_of(kind),
            tick_rec.count_of(kind),
            "event count diverges for {kind:?}"
        );
    }
    // Idle-skipped timestamps still get their round markers.
    assert_eq!(rec.count_of(EventKind::RoundAdvanced), 60, "one marker per step");
    // Per-event counts equal protocol tallies, as under the tick loop.
    assert_eq!(rec.count_of(EventKind::MessageDropped) as u64, report.faults.dropped);
    assert_eq!(rec.count_of(EventKind::MessageDuplicated) as u64, report.faults.duplicated);
    assert_eq!(rec.count_of(EventKind::MessageDelayed) as u64, report.faults.delayed);
    assert_eq!(rec.count_of(EventKind::ResourceCrashed) as u64, report.faults.crashes);
    assert_eq!(rec.count_of(EventKind::ResourceRecovered) as u64, report.faults.recoveries);
    assert!(rec.count_of(EventKind::CounterSent) > 0, "protocol traffic was logged");
}

/// One of the two schedules: `Simulation::run` or
/// `Simulation::run_event_driven`.
type Advance = fn(&mut Simulation<MockCipher>, u64);

/// Plays `scenario` once under each schedule — membership changes and
/// external surgery included, at the same steps — asserts identical
/// fingerprints, and hands back the wheel's run for the scenario's own
/// asserts.
fn differential(
    label: &str,
    scenario: impl Fn(Advance) -> Simulation<MockCipher>,
) -> Simulation<MockCipher> {
    let mut tick = scenario(Simulation::run);
    let mut wheel = scenario(Simulation::run_event_driven);
    assert_eq!(tick.step_no(), wheel.step_no(), "{label}: clocks agree");
    assert_eq!(fingerprint(&mut tick), fingerprint(&mut wheel), "{label}: outcomes diverge");
    wheel
}

#[test]
fn attack_gallery_is_equivalent_and_blames_the_right_party() {
    const CULPRIT: usize = 3;
    type Attack = fn(usize) -> BrokerBehavior;
    type Blame = fn(usize) -> Option<Verdict>;
    // Forged values and mis-counts blame the broker itself; a replay
    // blames the resource whose timestamp regressed (Algorithm 3).
    let broker: Blame = |_| Some(Verdict::MaliciousBroker(CULPRIT));
    let gallery: [(&str, Attack, Blame); 5] = [
        ("honest", |_| BrokerBehavior::Honest, |_| None),
        ("arbitrary value", |_| BrokerBehavior::ArbitraryValue, broker),
        ("double count", BrokerBehavior::DoubleCount, broker),
        ("omit neighbor", BrokerBehavior::OmitNeighbor, broker),
        ("replay", BrokerBehavior::Replay, |victim| Some(Verdict::MaliciousResource(victim))),
    ];
    // Corrupted before the first step (the wheel bootstraps around the
    // attacker) and mid-run (the attacker appears on an armed wheel).
    for corrupt_at in [0u64, 7] {
        for (name, attack, blamed) in gallery {
            let label = format!("{name}, corrupted at step {corrupt_at}");
            let wheel = differential(&label, |advance| {
                let mut sim = build(2, None, RecoveryMode::Disabled);
                sim.broadcast_verdicts = true;
                advance(&mut sim, corrupt_at);
                let victim = sim.overlay().neighbors(CULPRIT).next().expect("has a neighbor");
                sim.corrupt_broker(CULPRIT, attack(victim));
                advance(&mut sim, 40);
                sim
            });
            let victim = wheel.overlay().neighbors(CULPRIT).next().expect("has a neighbor");
            let verdicts: Vec<Verdict> = wheel.verdicts.iter().map(|&(_, v)| v).collect();
            let expected: Vec<Verdict> = blamed(victim).into_iter().collect();
            assert_eq!(verdicts, expected, "{label}: wrong blame");
        }
    }
}

#[test]
fn join_then_leave_is_equivalent() {
    let wheel = differential("join then leave", |advance| {
        let mut sim = build(4, None, RecoveryMode::Disabled);
        advance(&mut sim, 15);
        let newcomer = sim.join_resource(
            0,
            GrowthPlan::fixed(Database::from_transactions(
                (0..300).map(|j| Transaction::of(9_000 + j, &[3])).collect(),
            )),
        );
        advance(&mut sim, 30);
        sim.leave_resource(newcomer);
        advance(&mut sim, 30);
        sim
    });
    assert_eq!(wheel.current_size(), N, "the newcomer came and went");
    assert!(wheel.is_departed(N));
    assert!(wheel.verdicts.is_empty(), "membership changes are honest: {:?}", wheel.verdicts);
}

#[test]
fn mute_controller_with_a_bounded_retry_budget_is_equivalent() {
    // The `chaos_grid` part-2 setup: drops everywhere, a crash, and a
    // controller that answers nothing — its broker spends the budget,
    // the resource degrades, and the sweep routes around it.
    let wheel = differential("mute controller", |advance| {
        let plan = FaultPlan::new(0xFA57)
            .with_default_edge(EdgeFaults::dropping(0.15))
            .with_crash(5, 20, None);
        let mut sim = build(2, Some(plan), RecoveryMode::Disabled);
        sim.resource_mut(6).controller_behavior = ControllerBehavior::Mute;
        sim.resource_mut(6).set_retry_budget(8);
        advance(&mut sim, 60);
        sim
    });
    let report = wheel.chaos_report();
    assert!(report.retries > 0, "the mute controller cost retries: {report:?}");
    assert_eq!(report.degraded, vec![5, 6], "the crashed and the muted resource degrade");
    assert!(wheel.is_departed(6), "the muted resource was routed around");
    assert!(wheel.verdicts.is_empty(), "refusing service is not a forgery: {:?}", wheel.verdicts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault plans — drops, duplication, jitter, a crash (with or
    /// without recovery) or a departure — never separate the two drivers.
    #[test]
    fn random_fault_plans_are_equivalent(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..30,
        dup_pct in 0u32..20,
        jitter in 0u64..3,
        onset in 5u64..30,
        outage in 0u64..40,
        mode_sel in 0u8..3,
        depart_sel in 0u8..2,
    ) {
        let depart = depart_sel == 1;
        let victim = (seed % N as u64) as usize;
        let mut plan = FaultPlan::new(seed ^ 0x11CE).with_default_edge(EdgeFaults {
            drop: f64::from(drop_pct) / 100.0,
            duplicate: f64::from(dup_pct) / 100.0,
            jitter,
        });
        plan = if depart {
            plan.with_departure(victim, onset)
        } else {
            let recover = (outage > 0).then_some(onset + outage);
            plan.with_crash(victim, onset, recover)
        };
        let mode = match mode_sel {
            0 => RecoveryMode::Disabled,
            1 => RecoveryMode::ColdRestart,
            _ => RecoveryMode::Checkpoint(RecoveryPolicy::DEFAULT),
        };

        let mut tick = build(seed, Some(plan.clone()), mode);
        tick.run(80);
        let mut wheel = build(seed, Some(plan), mode);
        wheel.run_event_driven(80);
        prop_assert_eq!(fingerprint(&mut tick), fingerprint(&mut wheel));
    }
}
