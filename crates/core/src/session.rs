//! [`MineSession`]: the one builder that drives every mining mode.
//!
//! One builder for the synchronous driver and the threaded driver (one
//! OS thread per resource), either of them under a fault plan:
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
//! Both run the same in-process round ([`crate::inproc`]). The
//! `gridmine-net` crate adds a third, multi-process backend that drives
//! the same resources over loopback TCP; all three run the per-round
//! policy in [`crate::round`]. A session defaults to the
//! plaintext [`MockCipher`], a path topology over the databases
//! ([`session_tree`]), no faults and the zero-cost `NullRecorder`; every
//! default has a `with_*` override. Its grid is minted resource by
//! resource with [`MineConfig::resource`] over the voted
//! [`item_domain`] — the recipe the net node and the simulator mint
//! theirs by.
//! Attaching a real recorder also arms the [`Metrics`] registry, whose
//! snapshot lands in [`MiningOutcome::metrics`].

use std::fmt;
use std::sync::Arc;

use gridmine_arm::Database;
use gridmine_obs::{FanoutRecorder, Metrics, SharedRecorder};
use gridmine_paillier::{HomCipher, MockCipher, PaillierCtx};
use gridmine_topology::faults::FaultPlan;
use gridmine_topology::Tree;

use crate::inproc::run_synchronous;
use crate::keyring::GridKeys;
use crate::miner::{item_domain, MineConfig, MiningOutcome};
use crate::recovery::RecoveryMode;
use crate::resource::{wire_grid, SecureResource};
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
    /// A link's fault rate is not a probability in `[0, 1]` (NaN
    /// included).
    FaultRateOutOfRange {
        /// The (normalized) edge of the override, or `None` for the
        /// plan's default edge.
        edge: Option<(usize, usize)>,
        /// `"drop"` or `"duplicate"`.
        field: &'static str,
    },
    /// A configuration field holds a value no run can be built on.
    InvalidConfig {
        /// The field, by its name in the configuration.
        field: &'static str,
        /// What it must be instead.
        need: &'static str,
    },
    /// A phase of the synchronous driver was still delivering counters
    /// when its hop budget ran out: the grid did not quiesce.
    NoQuiescence {
        /// The round the phase belongs to.
        round: usize,
        /// `"scan"` or `"candidates"`.
        phase: &'static str,
        /// Deliveries made before the driver gave up.
        hops: u64,
    },
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
            SessionError::FaultRateOutOfRange { edge: None, field } => {
                write!(f, "fault plan's default {field} rate is not a probability in [0, 1]")
            }
            SessionError::FaultRateOutOfRange { edge: Some((u, v)), field } => write!(
                f,
                "fault plan's {field} rate on edge {u}\u{2013}{v} is not a probability in [0, 1]"
            ),
            SessionError::InvalidConfig { field, need } => {
                write!(f, "configuration field `{field}` {need}")
            }
            SessionError::NoQuiescence { round, phase, hops } => write!(
                f,
                "the {phase} phase of round {round} did not quiesce within {hops} deliveries"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// Maps a topology-level [`ScheduleError`] onto the session-error
    /// vocabulary. `rounds` is the run horizon the schedule was validated
    /// against.
    ///
    /// [`ScheduleError`]: gridmine_topology::faults::ScheduleError
    fn from_schedule(e: gridmine_topology::faults::ScheduleError, rounds: usize) -> Self {
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
            ScheduleError::RateOutOfRange { edge, field } => {
                SessionError::FaultRateOutOfRange { edge, field }
            }
        }
    }
}

/// The screen every driver (sync, threaded, sim, net) runs before it
/// builds anything, so all of them refuse a mis-built session with the
/// same variant: at least one database, one per topology node, and every
/// fault-plan entry naming a resource or edge of the grid with an onset
/// before `horizon`, the run's length in rounds (or simulated steps).
pub fn validate_grid(
    databases: usize,
    nodes: usize,
    plan: &FaultPlan,
    horizon: u64,
) -> Result<(), SessionError> {
    if databases == 0 {
        return Err(SessionError::NoDatabases);
    }
    if databases != nodes {
        return Err(SessionError::TopologyMismatch { databases, nodes });
    }
    plan.validate_within(nodes, horizon)
        .map_err(|e| SessionError::from_schedule(e, horizon as usize))
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

/// The tree a session mines over: the one it was given, else a path over
/// its `n` partitions.
pub fn session_tree(tree: Option<&Tree>, n: usize) -> Tree {
    tree.cloned().unwrap_or_else(|| Tree::path(n))
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
            mode: RecoveryMode::default(),
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

    /// Arms a fault plan, honoured by both drivers (plan ticks are
    /// protocol rounds).
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

    /// Selects how either driver brings back a crashed resource, whose
    /// volatile state every crash wipes: rejoin cold (the default), or
    /// restore from a validated recovery image (see
    /// [`RecoveryMode`]).
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builds the wired resource grid, every resource minted by
    /// [`MineConfig::resource`].
    pub(crate) fn build(&self, rec: &SharedRecorder) -> Vec<SecureResource<C>> {
        let tree = session_tree(self.tree.as_ref(), self.dbs.len());
        assert_eq!(self.dbs.len(), tree.capacity(), "one database per tree node");
        assert!(!self.dbs.is_empty(), "a session needs at least one database");
        let keys = self.keys.clone().with_recorder(rec);
        let items = item_domain(self.dbs.iter().flat_map(Database::transactions));
        let mut resources: Vec<SecureResource<C>> = (0..self.dbs.len())
            .map(|u| {
                let db = self.dbs[u].clone();
                self.cfg.resource(u, &keys, |v| tree.neighbors(v).collect(), db, &items)
            })
            .collect();
        wire_grid(&mut resources);
        resources
    }

    /// Runs the synchronous driver ([`run_synchronous`]): one thread,
    /// every counter delivered oldest first, the armed fault plan and
    /// [`RecoveryMode`] applied, so a seeded run replays message for
    /// message.
    ///
    /// # Panics
    /// Panics if the session fails validation or a phase does not
    /// quiesce ([`MineSession::try_run`] returns these as
    /// [`SessionError`] instead).
    pub fn run(self) -> MiningOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MineSession::run`] with build-time validation and quiescence
    /// failure as a typed error instead of a panic.
    pub fn try_run(self) -> Result<MiningOutcome, SessionError> {
        self.execute(run_synchronous)
    }

    /// Runs the threaded driver ([`run_threaded_full`]) — one OS thread
    /// per resource, channel links, the same fault plan and
    /// [`RecoveryMode`], in whatever interleaving the OS produces.
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
        self.execute(|r, n, p, rec, m| Ok(run_threaded_full(r, n, p, rec, m)))
    }

    /// Screens the session ([`MineConfig::validate`], then
    /// [`validate_grid`]) before any thread is spawned or key material is
    /// touched, then builds the grid and runs `driver` over it.
    fn execute(self, driver: Driver<C>) -> Result<MiningOutcome, SessionError> {
        self.cfg.validate()?;
        let nodes = self.tree.as_ref().map_or(self.dbs.len(), Tree::capacity);
        validate_grid(self.dbs.len(), nodes, &self.plan, self.cfg.rounds as u64)?;
        let (rec, metrics) = arm_recorder(&self.rec);
        let resources = self.build(&rec);
        let mut outcome = driver(resources, self.cfg.rounds, self.plan, rec.clone(), self.mode)?;
        if let Some(m) = metrics {
            outcome.metrics = m.snapshot();
        }
        rec.flush();
        Ok(outcome)
    }
}

/// The shape both in-process drivers share.
type Driver<C> = fn(
    Vec<SecureResource<C>>,
    usize,
    FaultPlan,
    SharedRecorder,
    RecoveryMode,
) -> Result<MiningOutcome, SessionError>;

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
    fn a_privacy_parameter_below_one_is_refused_by_both_drivers() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2)).with_k(0);
        let want = SessionError::InvalidConfig { field: "k", need: "must be at least 1" };
        let session = || MineSession::new(cfg).with_databases(dbs(3));
        assert_eq!(session().try_run().err(), Some(want.clone()));
        assert_eq!(session().try_run_threaded().err(), Some(want));
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
    fn sync_run_honours_fault_plans_and_replays_them() {
        use gridmine_topology::faults::EdgeFaults;
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(1)
            .with_default_edge(EdgeFaults { drop: 0.2, duplicate: 0.1, jitter: 1 })
            .with_crash(2, 2, Some(4));
        let run = || {
            let mem = MemoryRecorder::shared();
            let outcome = MineSession::new(cfg)
                .with_databases(dbs(4))
                .with_faults(plan.clone())
                .with_recovery(RecoveryMode::Checkpoint(crate::recovery::RecoveryPolicy::DEFAULT))
                .with_recorder(mem.clone())
                .run();
            (outcome, mem.snapshot())
        };
        let (outcome, events) = run();
        let f = outcome.chaos.faults;
        assert!(f.dropped > 0 && f.duplicated > 0 && f.delayed > 0, "{f:?}");
        assert_eq!((f.crashes, f.recoveries, outcome.chaos.replays), (1, 1, 1));
        assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
        let count = |k: EventKind| events.iter().filter(|e| e.kind() == k).count() as u64;
        assert_eq!(count(EventKind::MessageDropped), f.dropped);
        assert_eq!(count(EventKind::CounterSent), outcome.messages);
        // One thread, one order: the same seed replays event for event.
        let (again, replayed) = run();
        assert_eq!(replayed, events);
        assert_eq!(again.chaos, outcome.chaos);
        assert_eq!(again.solutions, outcome.solutions);
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
