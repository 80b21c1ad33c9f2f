//! [`SimSession`]: the simulator's front door, mirroring
//! `MineSession`/`NetSession`.
//!
//! The one way to build a [`Simulation`]: seed, workload, fault plan,
//! recovery policy and recorder are all `with_*` overrides, fixed when
//! the simulation is built — a built simulation takes none of them
//! afterwards. A run returns the same [`MiningOutcome`] shape as the
//! threaded and net drivers, so cross-driver pinning tests compare one
//! type instead of three. Its resources come from core's recipe too
//! (`MineConfig::resource`), each under its own `RoundMachine`, and its
//! default item domain is core's [`item_domain`] over every initial
//! database and growth stream.
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

use gridmine_arm::{correct_rules, Database, Item, RuleSet};
use gridmine_core::session::arm_recorder;
use gridmine_core::{
    item_domain, validate_grid, GridKeys, MiningOutcome, RecoveryMode, SessionCipher, SessionError,
};
use gridmine_obs::SharedRecorder;
use gridmine_paillier::{HomCipher, MockCipher};
use gridmine_topology::faults::FaultPlan;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::{GlobalMetrics, Sample};
use crate::workload::{split_growth, GrowthPlan};

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
            mode: RecoveryMode::default(),
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
    /// and [`SimSession::run`] arms a metrics tally beside it so
    /// [`MiningOutcome::metrics`] carries a real snapshot.
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

    /// Build-time sanity screen: the configuration's own
    /// ([`SimConfig::validate`]), then core's [`validate_grid`], with the
    /// horizon in simulated steps.
    fn validate(&self) -> Result<(), SessionError> {
        self.cfg.validate()?;
        let quiet = FaultPlan::none();
        let plan = self.plan.as_ref().unwrap_or(&quiet);
        validate_grid(self.plans.len(), self.cfg.n_resources, plan, self.steps)
    }

    /// The voted item domain: explicit override, else the union over
    /// every initial database and growth stream.
    fn item_domain(&self) -> Vec<Item> {
        if let Some(items) = &self.items {
            return items.clone();
        }
        item_domain(
            self.plans.iter().flat_map(|p| p.initial.transactions().iter().chain(&p.stream)),
        )
    }

    /// Validates and builds the simulation over the fault plan, the
    /// recovery mode and `rec`, without running it.
    fn arm(self, rec: SharedRecorder) -> Result<Simulation<C>, SessionError> {
        self.validate()?;
        let items = self.item_domain();
        Ok(Simulation::new(self.cfg, &self.keys, self.plans, &items, self.plan, self.mode, rec))
    }

    /// [`SimSession::build`] with validation as a typed error instead of
    /// a panic.
    pub fn try_build(self) -> Result<Simulation<C>, SessionError> {
        let rec = self.rec.clone();
        self.arm(rec)
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
        let user_rec = self.rec.clone();
        let (fan, tally) = arm_recorder(&user_rec);
        let mut sim = self.arm(fan)?;
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
        let user_rec = self.rec.clone();
        let mut sim = self.arm(user_rec.clone())?;
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
            // only when the database moved by 2% or more either way
            // since the last Apriori run (the rule set moves slowly under
            // uniform growth, but a crash for good or a departure takes a
            // resource's data out at once).
            let truth = match &truth_cache {
                Some((len, t)) if db.len().abs_diff(*len) < len / 50 => t.clone(),
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
    fn a_config_no_run_can_be_built_on_is_an_error_at_every_entry_point() {
        let good = SimConfig::small().with_resources(2);
        let mut bad = [good.with_resources(0), good.with_k(0), good, good];
        bad[2].scan_budget = 0;
        bad[3].candidate_every = 0;
        for (cfg, field) in
            bad.into_iter().zip(["n_resources", "k", "scan_budget", "candidate_every"])
        {
            let want = SessionError::InvalidConfig { field, need: "must be at least 1" };
            // A database per resource, so that only the field is wrong.
            let session = || SimSession::new(cfg).with_databases(vec![tiny_global(); 2]);
            let outcomes = std::panic::catch_unwind(|| {
                [
                    session().try_build().err(),
                    session().try_run().err(),
                    session().try_convergence(5).err(),
                ]
            });
            let outcomes = outcomes.unwrap_or_else(|_| panic!("`{field}` panicked a try_* entry"));
            assert_eq!(outcomes, [Some(want.clone()), Some(want.clone()), Some(want)], "{field}");
        }
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
    fn session_rejects_link_rates_outside_zero_one() {
        let cfg = SimConfig::small().with_resources(4);
        let nan_duplicate = EdgeFaults { duplicate: f64::NAN, ..EdgeFaults::default() };
        let plans = [
            (
                FaultPlan::new(cfg.seed).with_default_edge(EdgeFaults::dropping(1.5)),
                SessionError::FaultRateOutOfRange { edge: None, field: "drop" },
            ),
            (
                FaultPlan::new(cfg.seed).with_edge(1, 0, nan_duplicate),
                SessionError::FaultRateOutOfRange { edge: Some((0, 1)), field: "duplicate" },
            ),
        ];
        for (plan, want) in plans {
            let built = SimSession::new(cfg)
                .with_databases(vec![tiny_global(); 4])
                .with_faults(plan)
                .try_build();
            assert_eq!(built.err(), Some(want));
        }
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
    fn convergence_rescores_after_the_database_shrinks() {
        // Item 3 lives on resource 3 alone; its crash for good takes the
        // rules over item 3 out of the truth.
        let dbs: Vec<Database> = (0..4u64)
            .map(|u| {
                let items: &[u32] = if u == 3 { &[3] } else { &[1, 2] };
                Database::from_transactions(
                    (0..40).map(|j| Transaction::of(u * 40 + j, items)).collect(),
                )
            })
            .collect();
        let mut cfg = SimConfig::small().with_resources(4).with_k(1);
        cfg.min_freq = gridmine_arm::Ratio::new(1, 5);
        let session = || {
            SimSession::new(cfg)
                .with_databases(dbs.clone())
                .with_faults(FaultPlan::new(cfg.seed).with_crash(3, 12, None))
                .with_steps(40)
        };
        let sampled = *session().convergence(4).samples.last().expect("sampled");
        let mut sim = session().build();
        for _ in 0..10 {
            sim.run_event_driven(4);
            sim.refresh_outputs();
        }
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        assert_eq!((sampled.recall, sampled.precision), sim.global_recall_precision(&truth));
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
