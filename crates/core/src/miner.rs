//! Mining outcome/config types shared by every driver.
//!
//! The library's front door is [`crate::session::MineSession`]: one
//! builder covering the synchronous driver, the threaded driver and
//! fault injection under either, with observability via `gridmine-obs`
//! recorders.
//! The multi-process TCP backend in `gridmine-net` returns the same
//! [`MiningOutcome`]; every driver builds it with
//! [`crate::round::assemble`].
//!
//! Every driver also mints its resources here: [`MineConfig::resource`]
//! is the one recipe for resource `u` of a grid, over the voted
//! [`item_domain`].

// No panic on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::disallowed_macros))]

use gridmine_arm::{Database, Item, Ratio, RuleSet, Transaction};
use gridmine_obs::MetricsSnapshot;
use gridmine_paillier::HomCipher;

use crate::candidates::CandidateGenerator;
use crate::chaos::{ChaosReport, ResourceStatus};
use crate::controller::Verdict;
use crate::counter::CounterLayout;
use crate::keyring::GridKeys;
use crate::resource::SecureResource;
use crate::session::SessionError;

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

    /// Sanity check: a privacy parameter below 1 is a
    /// [`SessionError::InvalidConfig`] naming `k`.
    pub fn validate(&self) -> Result<(), SessionError> {
        if self.k < 1 {
            return Err(SessionError::InvalidConfig { field: "k", need: "must be at least 1" });
        }
        Ok(())
    }

    /// Mints resource `u` of this session's grid (§4: its partition,
    /// its neighbours, λ, γ and k) — the one recipe every driver builds
    /// its resources by. `neighbors(v)` lists the neighbours of any node
    /// `v`: `u`'s own give its layout, each neighbour's give the counter
    /// layout `u` expects from it. The resource's private randomness is
    /// seeded from the session seed mixed with `u`, so every driver mints
    /// the same grid. Shares still have to be exchanged
    /// ([`crate::resource::wire_grid`], or the wire).
    pub fn resource<C: HomCipher>(
        &self,
        u: usize,
        keys: &GridKeys<C>,
        neighbors: impl Fn(usize) -> Vec<usize>,
        db: Database,
        items: &[Item],
    ) -> SecureResource<C> {
        let mine = neighbors(u);
        let mut r = SecureResource::new(
            u,
            keys,
            mine.clone(),
            db,
            self.k,
            CandidateGenerator::new(self.min_freq, self.min_conf),
            items,
            self.seed ^ (u as u64).wrapping_mul(0x9E37_79B9),
        );
        for v in mine {
            r.set_neighbor_layout(v, CounterLayout::new(v, neighbors(v)));
        }
        r
    }
}

/// The voted item domain: every item of `txs`, sorted and deduplicated
/// (in deployment each resource knows the global item catalog).
pub fn item_domain<'a>(txs: impl IntoIterator<Item = &'a Transaction>) -> Vec<Item> {
    let mut items: Vec<Item> = txs.into_iter().flat_map(|t| t.items().iter().copied()).collect();
    items.sort_unstable();
    items.dedup();
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::run_synchronous;
    use crate::keyring::GridKeys;
    use crate::recovery::RecoveryMode;
    use crate::resource::{wire_grid, SecureResource};
    use crate::session::MineSession;
    use gridmine_arm::{correct_rules, AprioriConfig, Database, Transaction};
    use gridmine_paillier::MockCipher;
    use gridmine_topology::{FaultPlan, Tree};

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
        // hand, corrupt one broker, and hand them to the driver.
        let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
        let items = vec![Item(1), Item(2), Item(3)];
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
        let outcome = run_synchronous(
            resources,
            1,
            FaultPlan::none(),
            gridmine_obs::null(),
            RecoveryMode::ColdRestart,
        )
        .expect("quiesces");
        assert_eq!(outcome.verdicts, [Verdict::MaliciousBroker(1)]);
    }
}
