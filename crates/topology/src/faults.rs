//! Deterministic fault injection for the communication overlay.
//!
//! The paper assumes "an underlying mechanism maintains a communication
//! tree" (§3) — this module is that mechanism's adversary: it perturbs
//! the links (message drop, duplication, delay jitter) and the resources
//! (crash, recover, depart) under a seeded, fully reproducible plan, so
//! the protocol's fault tolerance can be exercised and regression-tested.
//!
//! * [`FaultPlan`] — the schedule: per-edge fault rates plus per-resource
//!   outage windows, all derived from one seed;
//! * [`FaultyLink`] — the transport wrapper: every send is passed through
//!   [`FaultyLink::on_send`], which returns a [`Delivery`] verdict
//!   (dropped / delivered `copies` times / delayed by `extra_delay`);
//! * [`FaultStats`] — counts of the faults actually injected, for the
//!   drivers' chaos reports.
//!
//! Determinism: every per-message decision is a pure function of
//! `(seed, from, to, sequence number on that directed edge)`. Two runs
//! that put the same message sequence on each edge therefore inject
//! byte-identical faults — the discrete-event simulator does, which is
//! what makes chaos runs replayable from a single seed. Time is measured
//! in abstract ticks: simulation steps in `gridmine-sim`, protocol rounds
//! in `gridmine-core`'s threaded driver.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;

/// Why a fault schedule was refused. Produced by the `try_with_*`
/// event-time constructors and by [`FaultPlan::validate_within`]; the
/// drivers map these onto their own session-error types so every driver
/// rejects the same malformed plans with the same shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule names a resource id the grid does not have.
    ResourceOutOfRange {
        /// The out-of-range resource id.
        resource: NodeId,
        /// Resources actually in the grid.
        capacity: usize,
    },
    /// The outage's onset lies at or beyond the run horizon — it could
    /// silently never fire, so it is refused instead of dropped.
    OnsetBeyondHorizon {
        /// The resource whose fault is mis-scheduled.
        resource: NodeId,
        /// The scheduled onset event time.
        at: u64,
        /// The run horizon (exclusive).
        horizon: u64,
    },
    /// A crash's recovery event is not strictly after its onset.
    RecoveryNotAfterOnset {
        /// The resource whose crash is mis-scheduled.
        resource: NodeId,
        /// The scheduled onset event time.
        at: u64,
        /// The scheduled recovery event time.
        recover: u64,
    },
    /// A per-link override names an endpoint outside the grid.
    EdgeOutOfRange {
        /// The offending (normalized) edge.
        edge: (NodeId, NodeId),
        /// Resources actually in the grid.
        capacity: usize,
    },
    /// A link's fault rate is not a probability in `[0, 1]` (NaN
    /// included).
    RateOutOfRange {
        /// The (normalized) edge of the override, or `None` for the
        /// default edge.
        edge: Option<(NodeId, NodeId)>,
        /// `"drop"` or `"duplicate"`.
        field: &'static str,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScheduleError::ResourceOutOfRange { resource, capacity } => write!(
                f,
                "fault plan targets resource {resource}, but the grid has {capacity} resources"
            ),
            ScheduleError::OnsetBeyondHorizon { resource, at, horizon } => write!(
                f,
                "fault on resource {resource} is scheduled at event time {at}, beyond the run \
                 horizon {horizon}"
            ),
            ScheduleError::RecoveryNotAfterOnset { resource, at, recover } => write!(
                f,
                "resource {resource} crashes at {at} but recovers at {recover}; recovery must \
                 follow the crash"
            ),
            ScheduleError::EdgeOutOfRange { edge: (u, v), capacity } => write!(
                f,
                "fault plan overrides edge {u}\u{2013}{v}, outside the grid's {capacity} resources"
            ),
            ScheduleError::RateOutOfRange { edge: None, field } => {
                write!(f, "the default edge's {field} rate is not a probability in [0, 1]")
            }
            ScheduleError::RateOutOfRange { edge: Some((u, v)), field } => {
                write!(f, "edge {u}\u{2013}{v}'s {field} rate is not a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// What a scheduled [`FaultEvent`] does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultEventKind {
    /// The resource goes down (crash onset or departure).
    Outage,
    /// The resource comes back as a fresh leaf.
    Recovery,
}

/// One resource outage or recovery as a first-class timer event, for
/// event-driven drivers that schedule fault firings instead of polling
/// [`FaultPlan::outages_at`] every tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Event time the fault fires at.
    pub at: u64,
    /// Outage or recovery.
    pub kind: FaultEventKind,
    /// The resource affected.
    pub resource: NodeId,
}

/// Fault rates of one (undirected) link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EdgeFaults {
    /// Probability a message on this link is silently dropped.
    pub drop: f64,
    /// Probability a delivered message is duplicated (delivered twice).
    pub duplicate: f64,
    /// Maximum extra delivery delay, in ticks; each message gets a
    /// uniform draw from `0..=jitter` on top of the link's base delay.
    pub jitter: u64,
}

impl EdgeFaults {
    /// A link that only drops, with probability `p`.
    pub fn dropping(p: f64) -> Self {
        EdgeFaults { drop: p, ..Self::default() }
    }

    /// True when this link injects no faults at all.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.jitter == 0
    }

    /// The first rate that is not a probability in `[0, 1]` (a NaN
    /// fails the range test too), by its field name.
    fn bad_rate(&self) -> Option<&'static str> {
        [("drop", self.drop), ("duplicate", self.duplicate)]
            .into_iter()
            .find(|(_, rate)| !(0.0..=1.0).contains(rate))
            .map(|(field, _)| field)
    }
}

/// A scheduled outage of one resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceFault {
    /// Crash at tick `at`; if `recover` is `Some(t)`, the resource comes
    /// back (as a fresh leaf) at tick `t`.
    Crash {
        /// Tick the outage starts at.
        at: u64,
        /// Tick the resource recovers at, if ever.
        recover: Option<u64>,
    },
    /// Permanent departure at tick `at`.
    Depart {
        /// Tick the departure happens at.
        at: u64,
    },
}

impl ResourceFault {
    /// Tick the outage begins.
    pub fn onset(&self) -> u64 {
        match *self {
            ResourceFault::Crash { at, .. } | ResourceFault::Depart { at } => at,
        }
    }

    /// True while the resource is out at tick `t`.
    pub fn down_at(&self, t: u64) -> bool {
        match *self {
            ResourceFault::Crash { at, recover } => t >= at && recover.is_none_or(|r| t < r),
            ResourceFault::Depart { at } => t >= at,
        }
    }
}

/// Counts of the faults a [`FaultyLink`] (and the drivers' schedule
/// handling) actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages given nonzero extra delay.
    pub delayed: u64,
    /// Crash events fired.
    pub crashes: u64,
    /// Recovery events fired.
    pub recoveries: u64,
    /// Departure events fired.
    pub departures: u64,
}

impl FaultStats {
    /// Component-wise sum (aggregating per-thread link stats).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.departures += other.departures;
    }

    /// Total fault events of any kind.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.delayed
            + self.crashes
            + self.recoveries
            + self.departures
    }
}

/// A seeded, deterministic fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_edge: EdgeFaults,
    edges: BTreeMap<(NodeId, NodeId), EdgeFaults>,
    resources: BTreeMap<NodeId, ResourceFault>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Self::default() }
    }

    /// The fault-free plan — what drivers use when no chaos is requested.
    pub fn none() -> Self {
        Self::default()
    }

    /// The seed all per-message decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies `faults` to every link without an explicit override. Its
    /// rates are screened by [`FaultPlan::validate_within`].
    pub fn with_default_edge(mut self, faults: EdgeFaults) -> Self {
        self.default_edge = faults;
        self
    }

    /// Overrides the fault rates of the link `u – v` (symmetric). The
    /// endpoints and rates are screened by [`FaultPlan::validate_within`].
    pub fn with_edge(mut self, u: NodeId, v: NodeId, faults: EdgeFaults) -> Self {
        self.edges.insert((u.min(v), u.max(v)), faults);
        self
    }

    /// Schedules resource `u` to crash at tick `at`, recovering at
    /// `recover` if given.
    ///
    /// Compatibility constructor for the tick-indexed schedule form; ticks
    /// and event times share the same abstract clock, so this is
    /// [`FaultPlan::try_with_crash`] with the misordered-recovery case as
    /// a panic instead of a typed error.
    pub fn with_crash(self, u: NodeId, at: u64, recover: Option<u64>) -> Self {
        self.try_with_crash(u, at, recover).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules resource `u` to crash at event time `at`, recovering at
    /// `recover` if given; a recovery not strictly after the onset is a
    /// typed [`ScheduleError`].
    pub fn try_with_crash(
        mut self,
        u: NodeId,
        at: u64,
        recover: Option<u64>,
    ) -> Result<Self, ScheduleError> {
        if let Some(r) = recover {
            if r <= at {
                return Err(ScheduleError::RecoveryNotAfterOnset { resource: u, at, recover: r });
            }
        }
        self.resources.insert(u, ResourceFault::Crash { at, recover });
        Ok(self)
    }

    /// Schedules resource `u` to depart permanently at tick `at`.
    ///
    /// Compatibility constructor for the tick-indexed schedule form; see
    /// [`FaultPlan::try_with_departure`].
    pub fn with_departure(self, u: NodeId, at: u64) -> Self {
        self.try_with_departure(u, at).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules resource `u` to depart permanently at event time `at`.
    pub fn try_with_departure(mut self, u: NodeId, at: u64) -> Result<Self, ScheduleError> {
        self.resources.insert(u, ResourceFault::Depart { at });
        Ok(self)
    }

    /// Fault rates in effect on the link `u – v`.
    pub fn edge(&self, u: NodeId, v: NodeId) -> EdgeFaults {
        self.edges.get(&(u.min(v), u.max(v))).copied().unwrap_or(self.default_edge)
    }

    /// The outage scheduled for resource `u`, if any.
    pub fn fault_of(&self, u: NodeId) -> Option<ResourceFault> {
        self.resources.get(&u).copied()
    }

    /// True while resource `u` is scheduled to be out at tick `t`.
    pub fn down(&self, u: NodeId, t: u64) -> bool {
        self.fault_of(u).is_some_and(|f| f.down_at(t))
    }

    /// Resources whose outage starts exactly at tick `t`, ascending.
    pub fn outages_at(&self, t: u64) -> Vec<NodeId> {
        self.resources.iter().filter(|(_, f)| f.onset() == t).map(|(&u, _)| u).collect()
    }

    /// Resources whose recovery fires exactly at tick `t`, ascending.
    pub fn recoveries_at(&self, t: u64) -> Vec<NodeId> {
        self.resources
            .iter()
            .filter(|(_, f)| matches!(f, ResourceFault::Crash { recover: Some(r), .. } if *r == t))
            .map(|(&u, _)| u)
            .collect()
    }

    /// Every scheduled resource outage, ascending by resource id (for
    /// build-time plan validation in the drivers).
    pub fn resource_faults(&self) -> impl Iterator<Item = (NodeId, ResourceFault)> + '_ {
        self.resources.iter().map(|(&u, &f)| (u, f))
    }

    /// The whole resource schedule flattened into discrete
    /// [`FaultEvent`]s, sorted by `(at, kind, resource)` — the event-time
    /// form an event-driven driver feeds straight into its event queue
    /// instead of polling every tick.
    pub fn schedule_events(&self) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = Vec::new();
        for (&u, f) in &self.resources {
            events.push(FaultEvent { at: f.onset(), kind: FaultEventKind::Outage, resource: u });
            if let ResourceFault::Crash { recover: Some(r), .. } = *f {
                events.push(FaultEvent { at: r, kind: FaultEventKind::Recovery, resource: u });
            }
        }
        events.sort_unstable();
        events
    }

    /// Build-time schedule screen: every resource fault in range with an
    /// onset inside the run horizon (events at or past `horizon` could
    /// silently never fire), every edge override naming endpoints the
    /// grid actually has, and every link rate — the default edge's and
    /// each override's — a probability. Checks resources ascending by
    /// id, then the default edge, then overrides ascending by edge — so
    /// the first error reported is stable across drivers.
    pub fn validate_within(&self, capacity: usize, horizon: u64) -> Result<(), ScheduleError> {
        for (u, fault) in self.resource_faults() {
            if u >= capacity {
                return Err(ScheduleError::ResourceOutOfRange { resource: u, capacity });
            }
            if fault.onset() >= horizon {
                return Err(ScheduleError::OnsetBeyondHorizon {
                    resource: u,
                    at: fault.onset(),
                    horizon,
                });
            }
        }
        if let Some(field) = self.default_edge.bad_rate() {
            return Err(ScheduleError::RateOutOfRange { edge: None, field });
        }
        for ((u, v), faults) in self.edge_overrides() {
            if u >= capacity || v >= capacity {
                return Err(ScheduleError::EdgeOutOfRange { edge: (u, v), capacity });
            }
            if let Some(field) = faults.bad_rate() {
                return Err(ScheduleError::RateOutOfRange { edge: Some((u, v)), field });
            }
        }
        Ok(())
    }

    /// Every per-link override, ascending by (normalized) edge.
    pub fn edge_overrides(&self) -> impl Iterator<Item = ((NodeId, NodeId), EdgeFaults)> + '_ {
        self.edges.iter().map(|(&e, &f)| (e, f))
    }

    /// True when any link (default or override) injects message faults.
    pub fn has_edge_faults(&self) -> bool {
        !self.default_edge.is_clean() || self.edges.values().any(|f| !f.is_clean())
    }

    /// Tick of the earliest possible fault: 0 when link faults are active
    /// (they can strike the first message), else the earliest scheduled
    /// outage; `None` for a quiet plan. Drivers use this to report the
    /// convergence-delay window.
    pub fn onset(&self) -> Option<u64> {
        if self.has_edge_faults() {
            return Some(0);
        }
        self.resources.values().map(|f| f.onset()).min()
    }
}

/// A delivery verdict for one message: how many copies to deliver and how
/// much extra delay to add. `copies == 0` means the message was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Copies to deliver (0 = dropped, 2 = duplicated).
    pub copies: u32,
    /// Extra delay, in ticks, on top of the link's base delay.
    pub extra_delay: u64,
}

impl Delivery {
    /// The clean verdict: one copy, no extra delay.
    pub fn clean() -> Self {
        Delivery { copies: 1, extra_delay: 0 }
    }

    /// The dropped verdict.
    pub fn dropped() -> Self {
        Delivery { copies: 0, extra_delay: 0 }
    }

    /// True when the message was dropped.
    pub fn is_dropped(&self) -> bool {
        self.copies == 0
    }
}

/// SplitMix64 finalizer — the per-message decision hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from 53 high bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The transport wrapper: stateful per-edge message counters over a
/// [`FaultPlan`], producing deterministic [`Delivery`] verdicts.
///
/// Decisions are per *directed* edge, keyed by the running message count
/// on that edge — so a driver in which each sender owns its out-edges
/// (one thread per resource) needs no cross-thread coordination to stay
/// deterministic per edge.
#[derive(Clone, Debug)]
pub struct FaultyLink {
    plan: FaultPlan,
    seq: BTreeMap<(NodeId, NodeId), u64>,
    stats: FaultStats,
}

impl FaultyLink {
    /// Wraps a plan with fresh per-edge counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyLink { plan, seq: BTreeMap::new(), stats: FaultStats::default() }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Mutable stats access, for drivers recording schedule events
    /// (crashes, recoveries, departures) alongside the link faults.
    pub fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// Decides the fate of the next message from `from` to `to`.
    pub fn on_send(&mut self, from: NodeId, to: NodeId) -> Delivery {
        let faults = self.plan.edge(from, to);
        if faults.is_clean() {
            return Delivery::clean();
        }
        let seq = self.seq.entry((from, to)).or_insert(0);
        *seq += 1;
        let base = mix(self
            .plan
            .seed
            .wrapping_add(mix(((from as u64) << 32) | to as u64))
            .wrapping_add(*seq));
        if unit_f64(mix(base ^ 0xD609)) < faults.drop {
            self.stats.dropped += 1;
            return Delivery::dropped();
        }
        let copies = if unit_f64(mix(base ^ 0xD0B1)) < faults.duplicate {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let extra_delay = if faults.jitter > 0 {
            let d = mix(base ^ 0x1A77) % (faults.jitter + 1);
            if d > 0 {
                self.stats.delayed += 1;
            }
            d
        } else {
            0
        };
        Delivery { copies, extra_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_delivers_everything_clean() {
        let mut link = FaultyLink::new(FaultPlan::none());
        for i in 0..100 {
            assert_eq!(link.on_send(0, i % 5), Delivery::clean());
        }
        assert_eq!(link.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(42).with_default_edge(EdgeFaults {
            drop: 0.3,
            duplicate: 0.2,
            jitter: 4,
        });
        let mut a = FaultyLink::new(plan.clone());
        let mut b = FaultyLink::new(plan);
        let va: Vec<Delivery> = (0..200).map(|i| a.on_send(i % 7, (i + 1) % 7)).collect();
        let vb: Vec<Delivery> = (0..200).map(|i| b.on_send(i % 7, (i + 1) % 7)).collect();
        assert_eq!(va, vb);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "faults must actually fire at these rates");
    }

    #[test]
    fn different_seeds_diverge() {
        let f = EdgeFaults { drop: 0.5, ..EdgeFaults::default() };
        let mut a = FaultyLink::new(FaultPlan::new(1).with_default_edge(f));
        let mut b = FaultyLink::new(FaultPlan::new(2).with_default_edge(f));
        let va: Vec<Delivery> = (0..64).map(|_| a.on_send(0, 1)).collect();
        let vb: Vec<Delivery> = (0..64).map(|_| b.on_send(0, 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let plan = FaultPlan::new(7).with_default_edge(EdgeFaults::dropping(0.25));
        let mut link = FaultyLink::new(plan);
        let n = 4000;
        let dropped = (0..n).filter(|_| link.on_send(0, 1).is_dropped()).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn edge_overrides_beat_the_default() {
        let plan = FaultPlan::new(3).with_default_edge(EdgeFaults::dropping(1.0)).with_edge(
            2,
            1,
            EdgeFaults::default(),
        );
        let mut link = FaultyLink::new(plan);
        assert!(link.on_send(0, 1).is_dropped());
        // The (1,2) link is overridden clean — in both directions.
        assert_eq!(link.on_send(1, 2), Delivery::clean());
        assert_eq!(link.on_send(2, 1), Delivery::clean());
    }

    #[test]
    fn outage_windows() {
        let plan = FaultPlan::new(0).with_crash(3, 10, Some(20)).with_departure(5, 15);
        assert!(!plan.down(3, 9));
        assert!(plan.down(3, 10));
        assert!(plan.down(3, 19));
        assert!(!plan.down(3, 20));
        assert!(plan.down(5, 15));
        assert!(plan.down(5, 1_000_000));
        assert!(!plan.down(4, 12));
        assert_eq!(plan.outages_at(10), vec![3]);
        assert_eq!(plan.outages_at(15), vec![5]);
        assert_eq!(plan.recoveries_at(20), vec![3]);
        assert_eq!(plan.onset(), Some(10));
    }

    #[test]
    fn onset_of_link_faults_is_zero() {
        let plan =
            FaultPlan::new(0).with_default_edge(EdgeFaults::dropping(0.1)).with_crash(1, 50, None);
        assert_eq!(plan.onset(), Some(0));
        assert_eq!(FaultPlan::none().onset(), None);
    }

    #[test]
    fn schedule_events_flatten_sorted() {
        let plan = FaultPlan::new(0)
            .with_crash(3, 10, Some(20))
            .with_departure(5, 15)
            .with_crash(7, 10, None);
        assert_eq!(
            plan.schedule_events(),
            vec![
                FaultEvent { at: 10, kind: FaultEventKind::Outage, resource: 3 },
                FaultEvent { at: 10, kind: FaultEventKind::Outage, resource: 7 },
                FaultEvent { at: 15, kind: FaultEventKind::Outage, resource: 5 },
                FaultEvent { at: 20, kind: FaultEventKind::Recovery, resource: 3 },
            ]
        );
        assert!(FaultPlan::none().schedule_events().is_empty());
    }

    #[test]
    fn event_time_constructors_reject_bad_schedules() {
        let err = FaultPlan::new(0).try_with_crash(2, 10, Some(10)).unwrap_err();
        assert_eq!(err, ScheduleError::RecoveryNotAfterOnset { resource: 2, at: 10, recover: 10 });
        let plan = FaultPlan::new(0).try_with_crash(2, 10, Some(11)).unwrap();
        assert_eq!(plan.fault_of(2), Some(ResourceFault::Crash { at: 10, recover: Some(11) }));
    }

    #[test]
    fn validate_within_screens_range_and_horizon() {
        let ok = FaultPlan::new(0).with_crash(1, 5, Some(9)).with_edge(0, 2, EdgeFaults::default());
        assert_eq!(ok.validate_within(3, 60), Ok(()));
        assert_eq!(
            ok.validate_within(2, 60),
            Err(ScheduleError::EdgeOutOfRange { edge: (0, 2), capacity: 2 })
        );
        assert_eq!(
            FaultPlan::new(0).with_departure(9, 5).validate_within(3, 60),
            Err(ScheduleError::ResourceOutOfRange { resource: 9, capacity: 3 })
        );
        assert_eq!(
            FaultPlan::new(0).with_crash(1, 60, None).validate_within(3, 60),
            Err(ScheduleError::OnsetBeyondHorizon { resource: 1, at: 60, horizon: 60 })
        );
    }

    #[test]
    fn validate_within_screens_every_link_rate() {
        let rate = |drop, duplicate| EdgeFaults { drop, duplicate, jitter: 0 };
        let valid = |plan: FaultPlan| plan.validate_within(3, 60);
        assert_eq!(valid(FaultPlan::new(0).with_default_edge(rate(1.0, 0.0))), Ok(()));
        assert_eq!(
            valid(FaultPlan::new(0).with_default_edge(rate(1.5, 0.0))),
            Err(ScheduleError::RateOutOfRange { edge: None, field: "drop" })
        );
        assert_eq!(
            valid(FaultPlan::new(0).with_default_edge(rate(0.1, f64::NAN))),
            Err(ScheduleError::RateOutOfRange { edge: None, field: "duplicate" })
        );
        assert_eq!(
            valid(FaultPlan::new(0).with_edge(2, 1, rate(-0.1, 0.0))),
            Err(ScheduleError::RateOutOfRange { edge: Some((1, 2)), field: "drop" })
        );
        let second_bad = FaultPlan::new(0).with_edge(0, 1, rate(0.0, 0.5));
        assert_eq!(
            valid(second_bad.with_edge(1, 2, rate(0.0, 2.0))),
            Err(ScheduleError::RateOutOfRange { edge: Some((1, 2)), field: "duplicate" })
        );
    }

    #[test]
    fn jitter_delays_without_dropping() {
        let plan =
            FaultPlan::new(11).with_default_edge(EdgeFaults { jitter: 5, ..EdgeFaults::default() });
        let mut link = FaultyLink::new(plan);
        let mut seen_delay = false;
        for _ in 0..100 {
            let d = link.on_send(0, 1);
            assert_eq!(d.copies, 1);
            assert!(d.extra_delay <= 5);
            seen_delay |= d.extra_delay > 0;
        }
        assert!(seen_delay, "jitter must actually fire");
        assert!(link.stats().delayed > 0);
        assert_eq!(link.stats().dropped, 0);
    }
}
