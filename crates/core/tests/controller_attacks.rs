//! Malicious controllers (§3's attack model lets them "do whatever they
//! please"): the paper's claim is that they can harm *validity*, never
//! privacy — a controller already holds the decryption key, so there is
//! nothing privacy-relevant left for it to steal; what it can do is lie.
//!
//! These tests check the blast radius: an output-inverting controller
//! corrupts only its own resource's interim solution, and a mute one only
//! stalls its own resource.

use gridmine_arm::{correct_rules, AprioriConfig, Database, Item, Ratio, Transaction};
use gridmine_core::attack::ControllerBehavior;
use gridmine_core::resource::wire_grid;
use gridmine_core::{run_synchronous, GridKeys, MiningOutcome, RecoveryMode, SecureResource};
use gridmine_paillier::MockCipher;
use gridmine_topology::FaultPlan;

/// Six rounds of the synchronous driver. Its per-edge FIFO delivery is
/// what the protocol's replay detection (timestamp traces) assumes, like
/// any Lamport-clock scheme.
fn drive(resources: Vec<SecureResource<MockCipher>>) -> MiningOutcome {
    run_synchronous(
        resources,
        6,
        FaultPlan::none(),
        gridmine_obs::null(),
        RecoveryMode::ColdRestart,
    )
    .expect("quiesces")
}

fn grid(n: usize) -> (Vec<SecureResource<MockCipher>>, gridmine_arm::RuleSet) {
    let keys = GridKeys::mock(4);
    let generator = gridmine_core::CandidateGenerator::new(Ratio::new(1, 2), Ratio::new(1, 2));
    let items = vec![Item(1), Item(2), Item(3)];
    let dbs: Vec<Database> = (0..n as u64)
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
        .collect();
    let truth = correct_rules(
        &Database::union_of(dbs.iter()),
        &AprioriConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)),
    );
    let mut rs: Vec<SecureResource<MockCipher>> = dbs
        .into_iter()
        .enumerate()
        .map(|(u, db)| {
            let mut neighbors = Vec::new();
            if u > 0 {
                neighbors.push(u - 1);
            }
            if u + 1 < n {
                neighbors.push(u + 1);
            }
            SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, u as u64)
        })
        .collect();
    wire_grid(&mut rs);
    (rs, truth)
}

#[test]
fn inverting_controller_harms_only_its_own_resource() {
    let (mut rs, truth) = grid(5);
    rs[2].controller_behavior = ControllerBehavior::InvertOutputs;
    let outcome = drive(rs);

    // The victim's interim is inverted garbage…
    let victim = &outcome.solutions[2];
    assert!(
        gridmine_arm::recall(victim, &truth) < 0.5,
        "inverted outputs should wreck the local interim, got {:?}",
        victim.sorted()
    );
    // …while every honest resource still converges exactly.
    for (u, sol) in outcome.solutions.iter().enumerate().filter(|&(u, _)| u != 2) {
        assert_eq!(sol, &truth, "honest resource {u} was affected by a lying controller elsewhere");
    }
    assert!(outcome.verdicts.is_empty());
}

#[test]
fn mute_controller_stalls_only_its_own_resource() {
    let (mut rs, truth) = grid(5);
    rs[2].controller_behavior = ControllerBehavior::Mute;
    let outcome = drive(rs);

    // The mute resource's outputs never refresh: its interim stays empty.
    assert!(outcome.solutions[2].is_empty(), "mute controller must leave the cache untouched");
    // Honest resources still converge — the broker of resource 2 keeps
    // relaying (its *send* SFE still runs; Mute models an output-silent
    // controller, the denial-of-service that §3 allows).
    for (u, sol) in outcome.solutions.iter().enumerate().filter(|&(u, _)| u != 2) {
        assert_eq!(sol, &truth, "honest resource {u} stalled");
    }
}
#[test]
fn honest_baseline_converges() {
    let (rs, truth) = grid(5);
    let outcome = drive(rs);
    for (u, sol) in outcome.solutions.iter().enumerate() {
        assert_eq!(sol, &truth, "resource {u} diverged (verdicts {:?})", outcome.verdicts);
    }
}
