//! [`MineSession`]: the one builder that drives every mining mode.
//!
//! One builder for the synchronous driver, the threaded driver (one OS
//! thread per resource) and threads + fault injection:
//!
//! ```
//! use gridmine_arm::{Database, Ratio, Transaction};
//! use gridmine_core::{MineConfig, MineSession};
//!
//! let dbs: Vec<Database> = (0..3u64)
//!     .map(|u| Database::from_transactions(
//!         (0..10).map(|j| Transaction::of(u * 10 + j, &[1, 2])).collect(),
//!     ))
//!     .collect();
//! let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
//! let outcome = MineSession::new(cfg).with_databases(dbs).run();
//! assert!(outcome.verdicts.is_empty());
//! ```
//!
//! The `gridmine-net` crate adds a third, multi-process backend that
//! drives the same resources over loopback TCP; all three run the
//! per-round policy in [`crate::round`]. A session defaults to the
//! plaintext [`MockCipher`], a path topology over the databases, no
//! faults and the zero-cost `NullRecorder`; every default has a `with_*`
//! override.
//! Attaching a real recorder also arms the [`Metrics`] registry, whose
//! snapshot lands in [`MiningOutcome::metrics`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use gridmine_arm::{Database, Item};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{emit, Event, FanoutRecorder, Metrics, SharedRecorder};
use gridmine_paillier::{HomCipher, MockCipher, PaillierCtx};
use gridmine_recovery::RecoveryMode;
use gridmine_topology::faults::{FaultPlan, FaultStats};
use gridmine_topology::Tree;

use crate::keyring::GridKeys;
use crate::miner::{MineConfig, MiningOutcome};
use crate::resource::{wire_grid, SecureResource, WireMsg};
use crate::round::{assemble, RoundMachine, RoundSchedule, Scan, Seat};
use crate::threaded::run_threaded_full;

/// Why a [`MineSession`] refused to run. The `try_run*` entry points
/// return it; the panicking `run*` shims format it into their panic
/// message (preserving the legacy texts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// No databases were supplied.
    NoDatabases,
    /// The database count does not match the topology's node count.
    TopologyMismatch {
        /// Databases supplied.
        databases: usize,
        /// Nodes in the communication tree.
        nodes: usize,
    },
    /// The fault plan schedules an outage for a resource id the grid
    /// does not have.
    FaultResourceOutOfRange {
        /// The out-of-range resource id.
        resource: usize,
        /// Resources actually in the grid.
        capacity: usize,
    },
    /// The fault plan schedules an outage at a tick the run never
    /// reaches — the fault could silently not fire, so it is refused.
    FaultTickOutOfRange {
        /// The resource whose fault is mis-scheduled.
        resource: usize,
        /// The scheduled onset tick.
        tick: u64,
        /// Rounds the session will run.
        rounds: usize,
    },
    /// A per-link fault override names an endpoint outside the grid.
    FaultEdgeOutOfRange {
        /// The offending (normalized) edge.
        edge: (usize, usize),
        /// Resources actually in the grid.
        capacity: usize,
    },
    /// A non-quiet fault plan was armed on the synchronous driver.
    FaultsRequireThreadedDriver,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoDatabases => write!(f, "a session needs at least one database"),
            SessionError::TopologyMismatch { databases, nodes } => {
                write!(f, "one database per tree node: got {databases} databases for {nodes} nodes")
            }
            SessionError::FaultResourceOutOfRange { resource, capacity } => write!(
                f,
                "fault plan targets resource {resource}, but the grid has {capacity} resources"
            ),
            SessionError::FaultTickOutOfRange { resource, tick, rounds } => write!(
                f,
                "fault on resource {resource} is scheduled at tick {tick}, but the run lasts \
                 only {rounds} rounds"
            ),
            SessionError::FaultEdgeOutOfRange { edge: (u, v), capacity } => write!(
                f,
                "fault plan overrides edge {u}\u{2013}{v}, outside the grid's {capacity} resources"
            ),
            SessionError::FaultsRequireThreadedDriver => write!(
                f,
                "the synchronous driver injects no faults; use run_threaded() for fault plans"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// Maps a topology-level [`ScheduleError`] onto the session-error
    /// vocabulary, so every driver (sync, threaded, sim, net) rejects the
    /// same malformed fault plan with the same variant. `rounds` is the
    /// run horizon the schedule was validated against.
    ///
    /// [`ScheduleError`]: gridmine_topology::faults::ScheduleError
    pub fn from_schedule(e: gridmine_topology::faults::ScheduleError, rounds: usize) -> Self {
        use gridmine_topology::faults::ScheduleError;
        match e {
            ScheduleError::ResourceOutOfRange { resource, capacity } => {
                SessionError::FaultResourceOutOfRange { resource, capacity }
            }
            ScheduleError::OnsetBeyondHorizon { resource, at, .. }
            | ScheduleError::RecoveryNotAfterOnset { resource, at, .. } => {
                SessionError::FaultTickOutOfRange { resource, tick: at, rounds }
            }
            ScheduleError::EdgeOutOfRange { edge, capacity } => {
                SessionError::FaultEdgeOutOfRange { edge, capacity }
            }
        }
    }
}

/// Default Paillier modulus size (bits) when a session selects the real
/// cipher without supplying key material.
pub const DEFAULT_PAILLIER_BITS: u64 = 512;

/// A cipher a [`MineSession`] can generate default key material for.
pub trait SessionCipher: HomCipher + 'static {
    /// Grid-wide key material derived from the session seed.
    fn session_keys(seed: u64) -> GridKeys<Self>;
}

impl SessionCipher for MockCipher {
    fn session_keys(seed: u64) -> GridKeys<Self> {
        GridKeys::mock(seed)
    }
}

impl SessionCipher for PaillierCtx {
    fn session_keys(seed: u64) -> GridKeys<Self> {
        // gridlint: allow(taint-flow) -- the session builder is the key provisioner: it generates GridKeys once, hands them to the resources it constructs, and never opens a ciphertext itself
        GridKeys::paillier(DEFAULT_PAILLIER_BITS, seed)
    }
}

/// The effective recorder for a run plus the metrics registry that
/// shadows it, so the outcome carries a real snapshot. With a disabled
/// recorder both stay off and the run pays nothing.
pub fn arm_recorder(rec: &SharedRecorder) -> (SharedRecorder, Option<Arc<Metrics>>) {
    if rec.enabled() {
        let metrics = Metrics::shared();
        let fan: SharedRecorder = Arc::new(FanoutRecorder::new(vec![rec.clone(), metrics.clone()]));
        (fan, Some(metrics))
    } else {
        (gridmine_obs::null(), None)
    }
}

/// Builder for one Secure-Majority-Rule mining run. See the module docs
/// for the default stack and [`MineSession::run`] /
/// [`MineSession::run_threaded`] for the two execution modes.
pub struct MineSession<C: HomCipher + 'static> {
    cfg: MineConfig,
    keys: GridKeys<C>,
    tree: Option<Tree>,
    dbs: Vec<Database>,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
}

impl MineSession<MockCipher> {
    /// A session over the plaintext mock cipher (swap with
    /// [`MineSession::with_cipher`] or [`MineSession::with_keys`]).
    pub fn new(cfg: MineConfig) -> Self {
        MineSession::over(cfg, GridKeys::mock(cfg.seed))
    }
}

impl<C: HomCipher + 'static> MineSession<C> {
    /// A session over explicit key material.
    pub fn over(cfg: MineConfig, keys: GridKeys<C>) -> Self {
        MineSession {
            cfg,
            keys,
            tree: None,
            dbs: Vec::new(),
            plan: FaultPlan::none(),
            rec: gridmine_obs::null(),
            mode: RecoveryMode::Disabled,
        }
    }

    /// Switches the cipher, generating default key material for it from
    /// the session seed (`GridKeys::paillier(512, seed)` for
    /// [`PaillierCtx`]). Topology, databases, faults and recorder carry
    /// over.
    pub fn with_cipher<D: SessionCipher>(self) -> MineSession<D> {
        MineSession {
            cfg: self.cfg,
            keys: D::session_keys(self.cfg.seed),
            tree: self.tree,
            dbs: self.dbs,
            plan: self.plan,
            rec: self.rec,
            mode: self.mode,
        }
    }

    /// Replaces the key material (and with it, possibly, the cipher).
    pub fn with_keys<D: HomCipher + 'static>(self, keys: GridKeys<D>) -> MineSession<D> {
        MineSession {
            cfg: self.cfg,
            keys,
            tree: self.tree,
            dbs: self.dbs,
            plan: self.plan,
            rec: self.rec,
            mode: self.mode,
        }
    }

    /// Sets the communication tree (default: a path over the databases).
    pub fn with_topology(mut self, tree: Tree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Sets the database partitions, one per tree node.
    pub fn with_databases(mut self, dbs: Vec<Database>) -> Self {
        self.dbs = dbs;
        self
    }

    /// Arms a fault plan (honored by [`MineSession::run_threaded`];
    /// the synchronous [`MineSession::run`] refuses non-quiet plans).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches an observability recorder. Protocol events flow to it
    /// from every resource, and the [`Metrics`] registry is armed so
    /// [`MiningOutcome::metrics`] carries a real snapshot.
    pub fn with_recorder(mut self, rec: SharedRecorder) -> Self {
        self.rec = rec;
        self
    }

    /// Selects how [`MineSession::run_threaded`] treats a scheduled
    /// crash-and-recover: keep state (legacy default), wipe it and rejoin
    /// cold, or wipe it and restore from a validated checkpoint + journal
    /// (see [`RecoveryMode`]).
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Build-time sanity screen: topology/database agreement plus every
    /// fault-plan entry in range. Run by the `try_run*` entry points
    /// before any thread is spawned or key material is touched.
    fn validate(&self, threaded: bool) -> Result<(), SessionError> {
        if self.dbs.is_empty() {
            return Err(SessionError::NoDatabases);
        }
        let capacity = self.tree.as_ref().map_or(self.dbs.len(), Tree::capacity);
        if self.dbs.len() != capacity {
            return Err(SessionError::TopologyMismatch {
                databases: self.dbs.len(),
                nodes: capacity,
            });
        }
        if !threaded && !self.plan.is_quiet() {
            return Err(SessionError::FaultsRequireThreadedDriver);
        }
        self.plan
            .validate_within(capacity, self.cfg.rounds as u64)
            .map_err(|e| SessionError::from_schedule(e, self.cfg.rounds))
    }

    /// Builds the wired resource grid.
    pub(crate) fn build(&self, rec: &SharedRecorder) -> Vec<SecureResource<C>> {
        let tree = match &self.tree {
            Some(t) => t.clone(),
            None => Tree::path(self.dbs.len()),
        };
        assert_eq!(self.dbs.len(), tree.capacity(), "one database per tree node");
        assert!(!self.dbs.is_empty(), "a session needs at least one database");
        let cfg = self.cfg;
        let keys = self.keys.clone().with_recorder(rec);
        let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
        let mut items: Vec<Item> = self.dbs.iter().flat_map(|d| d.item_domain()).collect();
        items.sort_unstable();
        items.dedup();

        let mut resources: Vec<SecureResource<C>> = self
            .dbs
            .iter()
            .cloned()
            .enumerate()
            .map(|(u, db)| {
                let neighbors: Vec<usize> = tree.neighbors(u).collect();
                SecureResource::new(
                    u,
                    &keys,
                    neighbors,
                    db,
                    cfg.k,
                    generator,
                    &items,
                    cfg.seed ^ (u as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();
        wire_grid(&mut resources);
        resources
    }

    /// Runs the synchronous driver: rounds of scan → FIFO delivery to
    /// quiescence → candidate generation → delivery, halting early on
    /// any verdict.
    ///
    /// # Panics
    /// Panics if a non-quiet fault plan is armed (the synchronous driver
    /// has no fault model — use [`MineSession::run_threaded`]) or if the
    /// session fails validation ([`MineSession::try_run`] returns these
    /// as [`SessionError`] instead).
    pub fn run(self) -> MiningOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MineSession::run`] with build-time validation as a typed error
    /// instead of a panic.
    pub fn try_run(self) -> Result<MiningOutcome, SessionError> {
        self.validate(false)?;
        let (rec, metrics) = arm_recorder(&self.rec);
        let rounds = self.cfg.rounds;
        // The plan is quiet (validated above) and the synchronous driver
        // has no crash model, so every machine runs the quiet schedule.
        let mut machines: Vec<RoundMachine<C>> = self
            .build(&rec)
            .into_iter()
            .map(|r| {
                let neighbors = r.layout().neighbors.to_vec();
                let schedule =
                    RoundSchedule::of(&self.plan, r.id(), neighbors, RecoveryMode::Disabled);
                RoundMachine::new(r, schedule, rec.clone())
            })
            .collect();

        let deliver = |machines: &mut Vec<RoundMachine<C>>, queue: &mut VecDeque<WireMsg<C>>| {
            let mut hops = 0u64;
            while let Some(msg) = queue.pop_front() {
                hops += 1;
                assert!(hops < 10_000_000, "secure mining failed to quiesce");
                queue.extend(machines[msg.to].receive(&msg));
            }
        };

        for round in 0..rounds {
            let tick = round as u64;
            emit(&rec, || Event::RoundAdvanced { tick });
            let mut queue: VecDeque<WireMsg<C>> = VecDeque::new();
            for m in machines.iter_mut() {
                if let Scan::Send { msgs, .. } = m.scan(tick) {
                    queue.extend(msgs);
                }
            }
            deliver(&mut machines, &mut queue);

            for m in machines.iter_mut() {
                queue.extend(m.candidates());
            }
            deliver(&mut machines, &mut queue);

            if machines.iter().any(|m| m.resource().verdict().is_some()) {
                break;
            }
        }
        let seats: Vec<Seat> = machines
            .iter_mut()
            .map(|m| {
                m.finish(rounds);
                m.report().into()
            })
            .collect();
        let mut outcome = assemble(&self.plan, rounds, seats, FaultStats::default(), &rec);
        if let Some(m) = metrics {
            outcome.metrics = m.snapshot();
        }
        rec.flush();
        Ok(outcome)
    }

    /// Runs the threaded driver — one OS thread per resource, channel
    /// links, the armed fault plan injected (plan ticks = protocol
    /// rounds) and the armed [`RecoveryMode`] governing crash-recovery.
    ///
    /// # Panics
    /// Panics if the session fails validation
    /// ([`MineSession::try_run_threaded`] returns these as
    /// [`SessionError`] instead).
    pub fn run_threaded(self) -> MiningOutcome {
        self.try_run_threaded().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MineSession::run_threaded`] with build-time validation as a
    /// typed error instead of a panic.
    pub fn try_run_threaded(self) -> Result<MiningOutcome, SessionError> {
        self.validate(true)?;
        let (rec, metrics) = arm_recorder(&self.rec);
        let resources = self.build(&rec);
        let mut outcome =
            run_threaded_full(resources, self.cfg.rounds, self.plan, rec.clone(), self.mode);
        if let Some(m) = metrics {
            outcome.metrics = m.snapshot();
        }
        rec.flush();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{Ratio, Transaction};
    use gridmine_obs::{EventKind, MemoryRecorder};

    fn dbs(n: u64) -> Vec<Database> {
        (0..n)
            .map(|u| {
                Database::from_transactions(
                    (0..20)
                        .map(|j| {
                            let id = u * 20 + j;
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

    #[test]
    fn explicit_keys_match_the_seed_derived_default() {
        // `MineSession::new` derives keys from the config seed;
        // `MineSession::over` takes them explicitly. Same seed, same run —
        // the invariant the removed `mine_secure` shim used to pin.
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let keys = GridKeys::mock(cfg.seed);
        let explicit =
            MineSession::over(cfg, keys).with_topology(Tree::path(4)).with_databases(dbs(4)).run();
        let derived =
            MineSession::new(cfg).with_topology(Tree::path(4)).with_databases(dbs(4)).run();
        assert_eq!(explicit.solutions, derived.solutions);
        assert_eq!(explicit.messages, derived.messages);
        assert_eq!(explicit.verdicts, derived.verdicts);
    }

    #[test]
    fn default_topology_is_a_path() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let explicit =
            MineSession::new(cfg).with_topology(Tree::path(3)).with_databases(dbs(3)).run();
        let implicit = MineSession::new(cfg).with_databases(dbs(3)).run();
        assert_eq!(explicit.solutions, implicit.solutions);
    }

    #[test]
    fn recorder_arms_metrics_snapshot() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let mem = MemoryRecorder::shared();
        let outcome = MineSession::new(cfg).with_databases(dbs(3)).with_recorder(mem.clone()).run();
        assert!(!outcome.metrics.is_zero(), "an armed recorder must fill metrics");
        assert_eq!(
            outcome.metrics.msgs_sent(),
            outcome.messages,
            "CounterSent tally must equal the outcome's message count"
        );
        assert_eq!(
            mem.count_of(EventKind::CounterSent) as u64,
            outcome.messages,
            "the user recorder sees the same events as the metrics registry"
        );
        assert!(outcome.metrics.bytes_on_wire > 0);
        assert_eq!(outcome.metrics.of(EventKind::RoundAdvanced), cfg.rounds as u64);
    }

    #[test]
    fn null_recorder_leaves_metrics_zero() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let outcome = MineSession::new(cfg).with_databases(dbs(3)).run();
        assert!(outcome.metrics.is_zero());
    }

    #[test]
    #[should_panic(expected = "synchronous driver injects no faults")]
    fn sync_run_refuses_fault_plans() {
        use gridmine_topology::faults::EdgeFaults;
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(1).with_default_edge(EdgeFaults::dropping(0.5));
        let _ = MineSession::new(cfg).with_databases(dbs(3)).with_faults(plan).run();
    }

    #[test]
    fn threaded_session_with_recorder_matches_outcome_counts() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let mem = MemoryRecorder::shared();
        let outcome =
            MineSession::new(cfg).with_databases(dbs(4)).with_recorder(mem.clone()).run_threaded();
        assert!(outcome.verdicts.is_empty());
        assert_eq!(mem.count_of(EventKind::CounterSent) as u64, outcome.messages);
        assert_eq!(outcome.metrics.msgs_sent(), outcome.messages);
    }
}
