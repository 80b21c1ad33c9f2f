//! Mining outcome/config types shared by every driver.
//!
//! The library's front door is [`crate::session::MineSession`]: one
//! builder covering the synchronous driver, the threaded driver and
//! fault injection, with observability via `gridmine-obs` recorders.
//! The multi-process TCP backend in `gridmine-net` returns the same
//! [`MiningOutcome`]; every driver builds it with
//! [`crate::round::assemble`].

use gridmine_arm::{Ratio, RuleSet};
use gridmine_obs::MetricsSnapshot;

use crate::chaos::{ChaosReport, ResourceStatus};
use crate::controller::Verdict;

/// Outcome of a mining run, under any driver.
#[derive(Debug)]
pub struct MiningOutcome {
    /// Interim solution per resource (indexed by tree node id).
    pub solutions: Vec<RuleSet>,
    /// Verdicts raised during the run (empty on honest grids).
    pub verdicts: Vec<Verdict>,
    /// Total protocol messages exchanged.
    pub messages: u64,
    /// Terminal status per resource (all `Ok` on fault-free runs).
    pub statuses: Vec<ResourceStatus>,
    /// What the fault layer did to the run (clean on fault-free runs).
    pub chaos: ChaosReport,
    /// Event-derived metrics (all-zero unless a recorder was attached
    /// via [`crate::session::MineSession::with_recorder`]).
    pub metrics: MetricsSnapshot,
}

impl MiningOutcome {
    /// Interim solutions of the resources that finished healthy, with
    /// their ids — what a fault-tolerant consumer should read.
    pub fn surviving_solutions(&self) -> impl Iterator<Item = (usize, &RuleSet)> + '_ {
        self.solutions
            .iter()
            .enumerate()
            .filter(|&(u, _)| self.statuses.get(u).is_none_or(|s| s.is_ok()))
    }
}

/// Configuration of a mining run, under any driver.
#[derive(Clone, Copy, Debug)]
pub struct MineConfig {
    /// Frequency threshold.
    pub min_freq: Ratio,
    /// Confidence threshold.
    pub min_conf: Ratio,
    /// The privacy parameter k.
    pub k: i64,
    /// Rounds of (scan → quiescence → candidate generation → quiescence).
    pub rounds: usize,
    /// Master seed.
    pub seed: u64,
}

impl MineConfig {
    /// A config with the given thresholds, k = 1 (exact convergence) and
    /// six rounds.
    pub fn new(min_freq: Ratio, min_conf: Ratio) -> Self {
        MineConfig { min_freq, min_conf, k: 1, rounds: 6, seed: 0x417E }
    }

    /// Overrides k.
    pub fn with_k(mut self, k: i64) -> Self {
        self.k = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::GridKeys;
    use crate::resource::{wire_grid, SecureResource, WireMsg};
    use crate::session::MineSession;
    use gridmine_arm::{correct_rules, AprioriConfig, Database, Transaction};
    use gridmine_majority::CandidateGenerator;
    use gridmine_paillier::MockCipher;
    use gridmine_topology::Tree;
    use std::collections::VecDeque;

    fn dbs() -> Vec<Database> {
        (0..4u64)
            .map(|u| {
                Database::from_transactions(
                    (0..30)
                        .map(|j| {
                            let id = u * 30 + j;
                            if j % 3 == 0 {
                                Transaction::of(id, &[2, 3])
                            } else {
                                Transaction::of(id, &[1, 2])
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn one_call_mining_matches_centralized() {
        let keys = GridKeys::<MockCipher>::mock(2);
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let truth = correct_rules(
            &Database::union_of(dbs().iter()),
            &AprioriConfig::new(cfg.min_freq, cfg.min_conf),
        );
        let outcome =
            MineSession::over(cfg, keys).with_topology(Tree::path(4)).with_databases(dbs()).run();
        assert!(outcome.verdicts.is_empty());
        assert!(outcome.messages > 0);
        for (u, sol) in outcome.solutions.iter().enumerate() {
            assert_eq!(sol, &truth, "resource {u}");
        }
    }

    #[test]
    fn one_call_mining_over_star_topology() {
        let keys = GridKeys::<MockCipher>::mock(4);
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(3, 4));
        let outcome =
            MineSession::over(cfg, keys).with_topology(Tree::star(4)).with_databases(dbs()).run();
        let truth = correct_rules(
            &Database::union_of(dbs().iter()),
            &AprioriConfig::new(cfg.min_freq, cfg.min_conf),
        );
        for sol in &outcome.solutions {
            assert_eq!(sol, &truth);
        }
    }

    #[test]
    fn verdicts_surface_through_the_outcome() {
        let keys = GridKeys::<MockCipher>::mock(6);
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        // `MineSession` builds honest grids only: build the resources by
        // hand, corrupt one broker, and deliver to quiescence directly.
        let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
        let items = vec![gridmine_arm::Item(1), gridmine_arm::Item(2), gridmine_arm::Item(3)];
        let tree = Tree::path(4);
        let mut resources: Vec<SecureResource<MockCipher>> = dbs()
            .into_iter()
            .enumerate()
            .map(|(u, db)| {
                let neighbors: Vec<usize> = tree.neighbors(u).collect();
                SecureResource::new(u, &keys, neighbors, db, 1, generator, &items, u as u64)
            })
            .collect();
        wire_grid(&mut resources);
        resources[1].set_broker_behavior(crate::attack::BrokerBehavior::DoubleCount(0));
        let mut queue: VecDeque<WireMsg<MockCipher>> = VecDeque::new();
        for r in resources.iter_mut() {
            queue.extend(r.step(usize::MAX));
        }
        while let Some(msg) = queue.pop_front() {
            let to = msg.to;
            queue.extend(resources[to].on_receive(&msg));
        }
        assert_eq!(resources[1].verdict(), Some(Verdict::MaliciousBroker(1)));
    }
}
