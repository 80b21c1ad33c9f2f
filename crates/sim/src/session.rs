//! [`SimSession`]: the simulator's front door, mirroring
//! `MineSession`/`NetSession`.
//!
//! One builder for every simulator entry point — seed, workload, fault
//! plan, recovery policy and recorder are all `with_*` overrides — that
//! returns the same [`MiningOutcome`] shape as the threaded and net
//! drivers, so cross-driver pinning tests compare one type instead of
//! three.
//!
//! ```
//! use gridmine_arm::{Database, Transaction};
//! use gridmine_sim::{SimConfig, SimSession};
//!
//! let global = Database::from_transactions(
//!     (0..200).map(|i| Transaction::of(i, &[1, 2])).collect(),
//! );
//! let outcome = SimSession::new(SimConfig::small().with_resources(6))
//!     .with_global(&global, 0.2)
//!     .with_steps(30)
//!     .run();
//! assert_eq!(outcome.solutions.len(), 6);
//! assert!(outcome.verdicts.is_empty());
//! ```
//!
//! Runs are driven by the event scheduler ([`Simulation::run_event_driven`]),
//! so a mostly-idle grid costs what its active resources cost — the dense
//! schedule ([`Simulation::run`]) survives only as the differential oracle.

use std::sync::Arc;

use gridmine_arm::{correct_rules, Database, Item, RuleSet};
use gridmine_core::{GridKeys, MiningOutcome, RecoveryMode, SessionCipher, SessionError};
use gridmine_obs::{FanoutRecorder, Metrics, SharedRecorder};
use gridmine_paillier::{HomCipher, MockCipher};
use gridmine_topology::faults::FaultPlan;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::{GlobalMetrics, ObsSummary, Sample};
use crate::workload::{split_growth, GrowthPlan};

/// What a validated builder decomposes into: the armed simulation, the
/// recorder it reports through, and the shadow metrics tally (present
/// only when a recorder is attached).
type SimParts<C> = (Simulation<C>, SharedRecorder, Option<Arc<Metrics>>);

/// Builder for one simulated grid run. See the module docs for the
/// default stack; [`SimSession::run`] yields a [`MiningOutcome`],
/// [`SimSession::convergence`] the Figure-2 sampling harness, and
/// [`SimSession::build`] a raw [`Simulation`] for step-level control.
pub struct SimSession<C: HomCipher + 'static> {
    cfg: SimConfig,
    keys: GridKeys<C>,
    plans: Vec<GrowthPlan>,
    items: Option<Vec<Item>>,
    plan: Option<FaultPlan>,
    mode: RecoveryMode,
    rec: SharedRecorder,
    steps: u64,
}

impl SimSession<MockCipher> {
    /// A session over the plaintext mock cipher (swap with
    /// [`SimSession::with_cipher`] or [`SimSession::with_keys`]).
    pub fn new(cfg: SimConfig) -> Self {
        SimSession::over(cfg, GridKeys::mock(cfg.seed))
    }
}

impl<C: HomCipher + 'static> SimSession<C>
where
    C::Ct: Send + Sync,
{
    /// A session over explicit key material.
    pub fn over(cfg: SimConfig, keys: GridKeys<C>) -> Self {
        SimSession {
            cfg,
            keys,
            plans: Vec::new(),
            items: None,
            plan: None,
            mode: RecoveryMode::Disabled,
            rec: gridmine_obs::null(),
            steps: 60,
        }
    }

    /// Switches the cipher, generating default key material for it from
    /// the session seed. Workload, faults, recovery and recorder carry
    /// over.
    pub fn with_cipher<D: SessionCipher>(self) -> SimSession<D>
    where
        D::Ct: Send + Sync,
    {
        SimSession {
            cfg: self.cfg,
            keys: D::session_keys(self.cfg.seed),
            plans: self.plans,
            items: self.items,
            plan: self.plan,
            mode: self.mode,
            rec: self.rec,
            steps: self.steps,
        }
    }

    /// Replaces the key material (and with it, possibly, the cipher).
    pub fn with_keys<D: HomCipher + 'static>(self, keys: GridKeys<D>) -> SimSession<D>
    where
        D::Ct: Send + Sync,
    {
        SimSession {
            cfg: self.cfg,
            keys,
            plans: self.plans,
            items: self.items,
            plan: self.plan,
            mode: self.mode,
            rec: self.rec,
            steps: self.steps,
        }
    }

    /// Sets the workload to static local databases, one per resource (no
    /// growth streams).
    pub fn with_databases(mut self, dbs: Vec<Database>) -> Self {
        self.plans = dbs.into_iter().map(GrowthPlan::fixed).collect();
        self
    }

    /// Sets the workload by partitioning `global` across the grid, with
    /// `growth_fraction` of each partition arriving during the run — the
    /// Figure-2 regime. The voted item domain is the global database's.
    pub fn with_global(mut self, global: &Database, growth_fraction: f64) -> Self {
        self.plans =
            split_growth(global, self.cfg.n_resources, growth_fraction, self.cfg.seed ^ 0xF00D);
        self.items = Some(global.item_domain());
        self
    }

    /// Sets the workload to explicit per-resource growth plans.
    pub fn with_workload(mut self, plans: Vec<GrowthPlan>) -> Self {
        self.plans = plans;
        self
    }

    /// Restricts the voted item domain (default: the union of every
    /// workload database and growth stream).
    pub fn with_items(mut self, items: &[Item]) -> Self {
        self.items = Some(items.to_vec());
        self
    }

    /// Arms a fault plan; the run's [`MiningOutcome::chaos`] then carries
    /// real tallies.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Selects crash-recovery semantics (see [`RecoveryMode`]).
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an observability recorder. Protocol events flow to it,
    /// and a metrics tally is armed so [`MiningOutcome::metrics`] (and
    /// [`GlobalMetrics::obs`] from [`SimSession::convergence`]) carry a
    /// real snapshot.
    pub fn with_recorder(mut self, rec: SharedRecorder) -> Self {
        self.rec = rec;
        self
    }

    /// Sets the run horizon in simulated steps (default 60). Fault
    /// schedules are validated against this horizon.
    pub fn with_steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Build-time sanity screen: workload/grid agreement plus every
    /// fault-plan entry in range and inside the horizon — the same typed
    /// [`SessionError`] vocabulary `MineSession::try_run*` uses.
    fn validate(&self) -> Result<(), SessionError> {
        if self.plans.is_empty() {
            return Err(SessionError::NoDatabases);
        }
        if self.plans.len() != self.cfg.n_resources {
            return Err(SessionError::TopologyMismatch {
                databases: self.plans.len(),
                nodes: self.cfg.n_resources,
            });
        }
        if let Some(plan) = &self.plan {
            plan.validate_within(self.cfg.n_resources, self.steps)
                .map_err(|e| SessionError::from_schedule(e, self.steps as usize))?;
        }
        Ok(())
    }

    /// The voted item domain: explicit override, else the union over
    /// every initial database and growth stream.
    fn item_domain(&self) -> Vec<Item> {
        if let Some(items) = &self.items {
            return items.clone();
        }
        let mut items: Vec<Item> = self
            .plans
            .iter()
            .flat_map(|p| {
                p.initial
                    .item_domain()
                    .into_iter()
                    .chain(p.stream.iter().flat_map(|t| t.items().iter().copied()))
            })
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// The effective recorder plus the metrics tally that shadows it.
    /// With the default `NullRecorder` both stay off so the run pays
    /// nothing.
    fn arm_recorder(&self) -> (Option<SharedRecorder>, Option<Arc<Metrics>>) {
        if self.rec.enabled() {
            let tally = Metrics::shared();
            let fan: SharedRecorder =
                Arc::new(FanoutRecorder::new(vec![self.rec.clone(), tally.clone()]));
            (Some(fan), Some(tally))
        } else {
            (None, None)
        }
    }

    /// Validates and builds the simulation with faults, recovery and
    /// recorder armed, without running it — step-level control for tests
    /// and harnesses. Returns the shadow metrics tally when a recorder
    /// is attached.
    fn into_parts(self) -> Result<SimParts<C>, SessionError> {
        self.validate()?;
        let items = self.item_domain();
        let (fan, tally) = self.arm_recorder();
        let mut sim = Simulation::new(self.cfg, &self.keys, self.plans, &items);
        if let Some(fan) = fan {
            sim.set_recorder(fan);
        }
        if let Some(plan) = self.plan {
            sim.inject_faults(plan);
        }
        sim.set_recovery(self.mode);
        Ok((sim, self.rec, tally))
    }

    /// [`SimSession::build`] with validation as a typed error instead of
    /// a panic.
    pub fn try_build(self) -> Result<Simulation<C>, SessionError> {
        let (sim, _, _) = self.into_parts()?;
        Ok(sim)
    }

    /// Builds the configured [`Simulation`] without running it.
    ///
    /// # Panics
    /// Panics if the session fails validation ([`SimSession::try_build`]
    /// returns the [`SessionError`] instead).
    pub fn build(self) -> Simulation<C> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the event-driven simulation for the configured horizon and
    /// returns the same [`MiningOutcome`] shape as the threaded and net
    /// drivers.
    ///
    /// # Panics
    /// Panics if the session fails validation ([`SimSession::try_run`]
    /// returns the [`SessionError`] instead).
    pub fn run(self) -> MiningOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimSession::run`] with validation as a typed error.
    pub fn try_run(self) -> Result<MiningOutcome, SessionError> {
        let steps = self.steps;
        let (mut sim, user_rec, tally) = self.into_parts()?;
        sim.run_event_driven(steps);
        sim.refresh_outputs();
        let outcome = MiningOutcome {
            solutions: sim.solutions(),
            verdicts: sim.verdicts.iter().map(|&(_, v)| v).collect(),
            messages: sim.total_msgs,
            statuses: sim.statuses(),
            chaos: sim.chaos_report(),
            metrics: tally.map(|t| t.snapshot()).unwrap_or_default(),
        };
        user_rec.flush();
        Ok(outcome)
    }

    /// The Figure-2 sampling harness: runs the configured horizon in
    /// `sample_every`-step chunks, sampling recall/precision against the
    /// *current* ground truth after each chunk.
    ///
    /// # Panics
    /// Panics if the session fails validation
    /// ([`SimSession::try_convergence`] returns the error instead).
    pub fn convergence(self, sample_every: u64) -> GlobalMetrics {
        self.try_convergence(sample_every).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimSession::convergence`] with validation as a typed error.
    pub fn try_convergence(self, sample_every: u64) -> Result<GlobalMetrics, SessionError> {
        let max_steps = self.steps;
        let (mut sim, user_rec, tally) = self.into_parts()?;
        let mut metrics = GlobalMetrics::default();
        let mut truth_cache: Option<(usize, RuleSet)> = None;
        let mut steps = 0;
        while steps < max_steps {
            let chunk = sample_every.clamp(1, max_steps - steps);
            sim.run_event_driven(chunk);
            steps += chunk;
            sim.refresh_outputs();
            let db = sim.current_global_db();
            // Ground truth is the dominant cost of sampling; recompute
            // only when the database grew by more than 2% since the last
            // Apriori run (the rule set moves slowly under uniform
            // growth).
            let truth = match &truth_cache {
                Some((len, t)) if db.len() < len + len / 50 => t.clone(),
                _ => {
                    let t = correct_rules(&db, &sim.apriori_cfg());
                    truth_cache = Some((db.len(), t.clone()));
                    t
                }
            };
            let (recall, precision) = sim.global_recall_precision(&truth);
            metrics.push(Sample {
                step: sim.step_no(),
                scans: sim.scans_completed(),
                recall,
                precision,
                msgs: sim.total_msgs,
            });
        }
        if sim.fault_plan().is_some() {
            metrics.chaos = Some(sim.chaos_report());
        }
        if let Some(tally) = tally {
            metrics.obs = Some(ObsSummary::from(&tally.snapshot()));
        }
        user_rec.flush();
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::Transaction;
    use gridmine_topology::faults::{EdgeFaults, ResourceFault};

    fn tiny_global() -> Database {
        Database::from_transactions(
            (0..300)
                .map(|i| {
                    if i % 5 == 0 {
                        Transaction::of(i, &[3])
                    } else {
                        Transaction::of(i, &[1, 2])
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn session_runs_and_returns_outcome_shape() {
        let cfg = SimConfig::small().with_resources(6).with_k(1);
        let outcome = SimSession::new(cfg).with_global(&tiny_global(), 0.0).with_steps(40).run();
        assert_eq!(outcome.solutions.len(), 6);
        assert_eq!(outcome.statuses.len(), 6);
        assert!(outcome.statuses.iter().all(|s| s.is_ok()));
        assert!(outcome.messages > 0);
        assert!(outcome.verdicts.is_empty());
        assert!(outcome.chaos.is_clean());
    }

    #[test]
    fn session_rejects_missing_workload() {
        let cfg = SimConfig::small().with_resources(4);
        let err = SimSession::new(cfg).try_run().unwrap_err();
        assert_eq!(err, SessionError::NoDatabases);
    }

    #[test]
    fn session_rejects_workload_grid_mismatch() {
        let cfg = SimConfig::small().with_resources(4);
        let err =
            SimSession::new(cfg).with_databases(vec![tiny_global(); 3]).try_run().unwrap_err();
        assert_eq!(err, SessionError::TopologyMismatch { databases: 3, nodes: 4 });
    }

    #[test]
    fn session_rejects_fault_beyond_horizon() {
        let cfg = SimConfig::small().with_resources(4);
        let plan = FaultPlan::new(cfg.seed).with_crash(2, 100, None);
        let err = SimSession::new(cfg)
            .with_databases(vec![tiny_global(); 4])
            .with_steps(50)
            .with_faults(plan)
            .try_run()
            .unwrap_err();
        assert_eq!(err, SessionError::FaultTickOutOfRange { resource: 2, tick: 100, rounds: 50 });
    }

    #[test]
    fn session_rejects_out_of_range_fault_resource() {
        let cfg = SimConfig::small().with_resources(4);
        let plan = FaultPlan::new(cfg.seed).with_crash(9, 5, None);
        let err = SimSession::new(cfg)
            .with_databases(vec![tiny_global(); 4])
            .with_faults(plan)
            .try_run()
            .unwrap_err();
        assert_eq!(err, SessionError::FaultResourceOutOfRange { resource: 9, capacity: 4 });
    }

    #[test]
    fn faulty_session_reports_chaos() {
        let cfg = SimConfig::small().with_resources(6).with_k(1).with_seed(0xC0FE);
        let plan = FaultPlan::new(cfg.seed)
            .with_default_edge(EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 2 })
            .with_crash(2, 8, Some(20));
        let outcome = SimSession::new(cfg)
            .with_global(&tiny_global(), 0.1)
            .with_steps(40)
            .with_faults(plan)
            .run();
        let chaos = outcome.chaos;
        assert!(!chaos.is_clean());
        assert_eq!(chaos.faults.crashes, 1);
        assert_eq!(chaos.faults.recoveries, 1);
    }

    #[test]
    fn convergence_matches_runner_shim() {
        let mut cfg = SimConfig::small().with_resources(6).with_k(1);
        cfg.growth_per_step = 4;
        cfg.min_freq = gridmine_arm::Ratio::new(1, 2);
        let m = SimSession::new(cfg).with_global(&tiny_global(), 0.3).with_steps(60).convergence(5);
        assert!(m.final_recall() > 0.9, "final recall {}", m.final_recall());
        let _ = ResourceFault::Depart { at: 1 }; // keep import exercised
    }
}
