//! Attack gallery: every malicious-broker behaviour of §5.2, injected
//! into a live grid, and the verdict the protocol reaches.
//!
//! * forging counter values → the authentication tag fails → the local
//!   broker is blamed;
//! * counting a neighbor twice / never → the share field ≠ 1 → the local
//!   broker is blamed;
//! * replaying a neighbor's stale counters → a timestamp regresses below
//!   the controller's trace → the replayed resource is blamed (the paper's
//!   Algorithm 3 blame assignment).
//!
//! ```text
//! cargo run --release --example malicious_detection
//! ```

use gridmine::prelude::*;
use gridmine::sim::workload::GrowthPlan;

fn scenario(
    name: &str,
    expect_detection: bool,
    make_behavior: impl Fn(&Simulation<MockCipher>) -> (usize, BrokerBehavior),
) {
    let n = 10;
    let dbs: Vec<Database> = (0..n as u64)
        .map(|u| {
            Database::from_transactions(
                (0..60)
                    .map(|j| {
                        let id = u * 60 + j;
                        if j % 3 == 0 {
                            Transaction::of(id, &[2, 3])
                        } else {
                            Transaction::of(id, &[1, 2])
                        }
                    })
                    .collect(),
            )
        })
        .collect();

    let mut cfg = SimConfig::small().with_resources(n).with_k(2).with_seed(33);
    cfg.growth_per_step = 0;
    cfg.min_freq = Ratio::new(1, 2);
    let keys = GridKeys::mock(9);
    let plans: Vec<GrowthPlan> = dbs.into_iter().map(GrowthPlan::fixed).collect();
    let items: Vec<Item> = vec![Item(1), Item(2), Item(3)];
    let mut sim: Simulation<MockCipher> = Simulation::new(cfg, &keys, plans, &items);
    sim.broadcast_verdicts = true;

    let (culprit, behavior) = make_behavior(&sim);
    sim.corrupt_broker(culprit, behavior);

    for _ in 0..40 {
        sim.run_event_driven(1);
        if !sim.verdicts.is_empty() {
            break;
        }
    }

    match (sim.verdicts.first(), expect_detection) {
        (Some(&(step, v)), true) => println!("{name:<28} → detected at step {step}: {v}"),
        (None, false) => println!("{name:<28} → no verdict raised (as expected)"),
        (Some(&(step, v)), false) => {
            panic!("{name}: false positive at step {step}: {v}")
        }
        (None, true) => panic!("{name}: attack went undetected"),
    }
}

fn main() {
    println!("injecting one malicious broker into a 10-resource grid per scenario:\n");

    scenario("honest grid (control)", false, |_| (3, BrokerBehavior::Honest));
    scenario("arbitrary counter values", true, |_| (3, BrokerBehavior::ArbitraryValue));
    scenario("double-counting a neighbor", true, |sim| {
        let victim = sim.overlay().neighbors(3).next().expect("has a neighbor");
        (3, BrokerBehavior::DoubleCount(victim))
    });
    scenario("omitting a neighbor", true, |sim| {
        let victim = sim.overlay().neighbors(3).next().expect("has a neighbor");
        (3, BrokerBehavior::OmitNeighbor(victim))
    });
    scenario("replaying stale counters", true, |sim| {
        let victim = sim.overlay().neighbors(3).next().expect("has a neighbor");
        (3, BrokerBehavior::Replay(victim))
    });

    println!(
        "\n(replay blames the resource whose timestamp regressed, per Algorithm 3's\n\
         blame assignment; all other attacks blame the malicious broker itself)"
    );
}
