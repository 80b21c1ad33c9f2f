//! The session hub: spawns one `gridmine-node` process per resource,
//! supervises them over loopback TCP and hands their reports to core's
//! [`assemble`].
//!
//! [`NetSession`] is the networked sibling of `MineSession`: same
//! builder shape, same validation, same outcome — but every resource is
//! an OS **process** peered over real sockets. The hub is a star relay:
//! all counter traffic crosses it, so one seeded [`ChaosProxy`] makes
//! every per-edge fault decision, and the codec door turns hostile bytes
//! into a [`Verdict::MaliciousResource`] + quarantine instead of a panic
//! anywhere. What a node does at each tick is `gridmine_core::round`'s
//! (each spec carries its [`RoundSchedule`]); this file owns spawn and
//! respawn, the relay, kills and deadlines.
//!
//! Phase barriers are message barriers: the hub opens a phase with
//! `PhaseStart`, every participant answers `PhaseSent`, and in-flight
//! counters are tracked with `Processed` acks — a phase is over when the
//! check-ins are complete and the pending counter is zero.
//!
//! Every hub↔node stream is coalesced ([`FrameWriter`] out, a buffered
//! reader in): `send_to` only queues, and the hub **flushes before it
//! blocks**. The flush points are `next_msg` (the one place the hub
//! waits for peer traffic — all queues go out when its channel runs
//! empty), `wait_child` (before reaping a process) and the mid-write
//! kill (the victim's `PhaseStart` is on the wire before the SIGKILL).
//! Order per connection is untouched, so the barrier argument stands: a
//! node's consequent counters still precede its `Processed` ack, and a
//! forwarded counter stays in `pending` until its ack, which cannot
//! exist before the counter was flushed. Reader threads on both sides
//! drain into unbounded channels whatever the main loops are doing, so
//! two peers flushing at each other cannot fill a socket and deadlock.
//!
//! Crash-survival is process-level. Soft crashes come from the
//! [`FaultPlan`] (the node wipes, persists its recovery image and
//! exits); hard kills come from [`NetSession::with_process_kill`] (the
//! hub SIGKILLs the child mid-session, no goodbye). Either way the hub
//! respawns a successor at the recovery tick, which warm-restarts from
//! the persisted image and has its neighbor shares re-delivered before
//! the round's scan opens.

use std::collections::BTreeSet;
use std::io::BufReader;
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use gridmine_arm::Database;
use gridmine_core::session::arm_recorder;
use gridmine_core::{
    assemble, ChaosProxy, DegradeReason, MineConfig, MiningOutcome, RecoveryMode, ResourceReport,
    RoundSchedule, Seat, SessionCipher, Tallies, Verdict, WireMsg,
};
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::{MockCipher, PaillierCtx};
use gridmine_topology::faults::ResourceFault;
use gridmine_topology::{FaultPlan, Tree};

use crate::codec::{Frame, NodeReport, Phase};
use crate::error::{NetError, WireError};
use crate::spec::NodeSpec;
use crate::state::{self, NodeState};
use crate::transport::{self, FrameWriter, HelloInfo, STREAM_BUF};

/// A cipher the networked backend can name in a [`NodeSpec`] so the
/// spawned process rebuilds the same key material from the session seed.
pub trait NetCipher: SessionCipher {
    /// Spec-file tag (`"mock"` / `"paillier"`).
    const TAG: &'static str;
}

impl NetCipher for MockCipher {
    const TAG: &'static str = "mock";
}

impl NetCipher for PaillierCtx {
    const TAG: &'static str = "paillier";
}

/// How long the hub waits for the full fleet (or a respawned process)
/// to dial in and finish the handshake.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// How long one phase may take before stragglers are degraded — the
/// supervision backstop that keeps a wedged process from hanging the
/// session forever.
const PHASE_DEADLINE: Duration = Duration::from_secs(120);

/// How long the hub waits for final reports after `Finish`.
const FINISH_DEADLINE: Duration = Duration::from_secs(60);

/// Builder for one real-socket mining session. Mirrors `MineSession`;
/// see the module docs for what changes when resources are processes.
pub struct NetSession<C: NetCipher> {
    cfg: MineConfig,
    tree: Option<Tree>,
    dbs: Vec<Database>,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
    binary: Option<PathBuf>,
    hostile: Vec<usize>,
    kills: Vec<(usize, u64, Option<u64>)>,
    mid_kills: Vec<(usize, u64, Option<u64>)>,
    state_dir: Option<PathBuf>,
    _cipher: PhantomData<C>,
}

impl<C: NetCipher> NetSession<C> {
    /// A session with the given mining config over a path topology.
    pub fn new(cfg: MineConfig) -> Self {
        NetSession {
            cfg,
            tree: None,
            dbs: Vec::new(),
            plan: FaultPlan::none(),
            rec: gridmine_obs::null(),
            mode: RecoveryMode::Disabled,
            binary: None,
            hostile: Vec::new(),
            kills: Vec::new(),
            mid_kills: Vec::new(),
            state_dir: None,
            _cipher: PhantomData,
        }
    }

    /// Selects the grid topology (default: a path over the partitions).
    pub fn with_topology(mut self, tree: Tree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Sets the database partitions, one per resource.
    pub fn with_databases(mut self, dbs: Vec<Database>) -> Self {
        self.dbs = dbs;
        self
    }

    /// Installs a fault plan; edge faults run through the hub's chaos
    /// proxy, resource crashes become real process exits.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches an event recorder (node events are forwarded over the
    /// wire and re-recorded hub-side, so one recorder sees the session).
    pub fn with_recorder(mut self, rec: SharedRecorder) -> Self {
        self.rec = rec;
        self
    }

    /// Selects the recovery mode shipped to every node.
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Path of the `gridmine-node` binary to spawn (tests pass
    /// `env!("CARGO_BIN_EXE_gridmine-node")`).
    pub fn with_node_binary(mut self, path: impl Into<PathBuf>) -> Self {
        self.binary = Some(path.into());
        self
    }

    /// Marks resource `u` Byzantine at the byte level: after a clean
    /// handshake it feeds the hub garbage instead of frames.
    pub fn with_hostile(mut self, u: usize) -> Self {
        self.hostile.push(u);
        self
    }

    /// Persists node state (one `{u}.image` per resource, see
    /// [`crate::state`]) under `dir` instead of the session's
    /// auto-removed scratch directory. The directory outlives the
    /// session, so callers can audit what a killed process actually left
    /// on disk — or hand the same directory to a later session for a
    /// cross-session warm restart. There is one image format and no
    /// reader for older ones: a `{u}.image` written by an earlier build
    /// (a JSON document beside separate audits and tallies files) is
    /// refused like any other undecodable image — the restarting
    /// resource blames itself — so start such a session on an empty
    /// directory.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Schedules a **hard** kill: the hub SIGKILLs resource `u`'s
    /// process at tick `at` (no goodbye, no final persist beyond its
    /// last checkpoint) and, when `recover` is set, warm-restarts a
    /// successor at that tick.
    pub fn with_process_kill(mut self, u: usize, at: u64, recover: Option<u64>) -> Self {
        self.kills.push((u, at, recover));
        self
    }

    /// Like [`NetSession::with_process_kill`], but the SIGKILL is fired
    /// *inside* tick `at`'s Scan phase, right after the node received
    /// its `PhaseStart` — racing whatever the node is doing at that
    /// moment. Aimed at a checkpoint tick, the kill can land mid-way
    /// through the node's state persist: the torn-write case the atomic
    /// tmp + fsync + rename discipline must survive.
    pub fn with_process_kill_mid_write(mut self, u: usize, at: u64, recover: Option<u64>) -> Self {
        self.mid_kills.push((u, at, recover));
        self
    }

    /// Runs the session, panicking on configuration errors — same
    /// contract as `MineSession::run_threaded`.
    pub fn run(self) -> MiningOutcome {
        match self.try_run() {
            Ok(outcome) => outcome,
            // gridlint: allow(panic-freedom) -- documented panicking wrapper over try_run, mirroring MineSession::run
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the session, surfacing configuration and spawn errors as
    /// typed values. Protocol-level faults never error: they degrade
    /// resources and are reported in the outcome, like every driver.
    pub fn try_run(self) -> Result<MiningOutcome, NetError> {
        let mut plan = self.plan.clone();
        for &(u, at, recover) in self.kills.iter().chain(&self.mid_kills) {
            plan = plan.with_crash(u, at, recover);
        }
        self.validate(&plan)?;
        let (rec, metrics) = arm_recorder(&self.rec);

        let n = self.dbs.len();
        let tree = match &self.tree {
            Some(t) => t.clone(),
            None => Tree::path(n),
        };
        let adjacency: Vec<Vec<usize>> =
            (0..tree.capacity()).map(|u| tree.neighbors(u).collect()).collect();
        let mut items: Vec<u32> =
            self.dbs.iter().flat_map(|db| db.item_domain().into_iter().map(|i| i.0)).collect();
        items.sort_unstable();
        items.dedup();

        let session = session_id(self.cfg.seed);
        let work_dir = std::env::temp_dir().join(format!("gridmine-net-{session:016x}"));
        let state_dir = match &self.state_dir {
            Some(dir) => dir.clone(),
            None => work_dir.join("state"),
        };
        std::fs::create_dir_all(&work_dir)?;
        std::fs::create_dir_all(&state_dir)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let hub_addr = listener.local_addr()?.to_string();

        let specs: Vec<NodeSpec> = (0..n)
            .map(|u| NodeSpec {
                session,
                resource: u,
                cipher: C::TAG.into(),
                seed: self.cfg.seed,
                min_freq: (self.cfg.min_freq.num(), self.cfg.min_freq.den()),
                min_conf: (self.cfg.min_conf.num(), self.cfg.min_conf.den()),
                k: self.cfg.k,
                rounds: self.cfg.rounds,
                adjacency: adjacency.clone(),
                items: items.clone(),
                db: self.dbs[u].clone(),
                schedule: RoundSchedule::of(&plan, u, adjacency[u].clone(), self.mode),
                resume_tick: None,
                hub: hub_addr.clone(),
                state_dir: state_dir.to_string_lossy().into_owned(),
                hostile: self.hostile.contains(&u),
                observed: rec.enabled(),
            })
            .collect();

        let (tx, rx) = unbounded();
        let mut hub = HubRun::<C> {
            n,
            rounds: self.cfg.rounds,
            plan: plan.clone(),
            rec: rec.clone(),
            specs,
            binary: self.binary.clone().unwrap_or_default(),
            work_dir: work_dir.clone(),
            state_dir,
            session,
            listener,
            proxy: ChaosProxy::new(plan),
            peers: (0..n).map(|_| PeerSlot::default()).collect(),
            pending: 0,
            pending_to: vec![0; n],
            reports: (0..n).map(|_| None).collect(),
            degraded: vec![None; n],
            door_verdicts: vec![None; n],
            relay: Vec::new(),
            kills: self.kills.iter().map(|&(u, at, _)| (u, at)).collect(),
            mid_kills: self.mid_kills.iter().map(|&(u, at, _)| (u, at)).collect(),
            tx,
            rx,
            _cipher: PhantomData,
        };
        let run = hub.execute();
        let mut outcome = hub.assemble();
        hub.cleanup();
        run?;

        if let Some(m) = metrics {
            outcome.metrics = m.snapshot();
        }
        rec.flush();
        Ok(outcome)
    }

    /// `MineSession`'s validation plus the net-specific conditions: a
    /// node binary is mandatory and crash faults need a wiping recovery
    /// mode (process state cannot outlive a process that keeps it only
    /// in memory).
    fn validate(&self, plan: &FaultPlan) -> Result<(), NetError> {
        if self.dbs.is_empty() {
            return Err(NetError::Session("a session needs at least one database".into()));
        }
        let capacity = self.tree.as_ref().map_or(self.dbs.len(), Tree::capacity);
        if capacity != self.dbs.len() {
            return Err(NetError::Session(format!(
                "topology capacity {capacity} does not match {} database partitions",
                self.dbs.len()
            )));
        }
        if self.binary.is_none() {
            return Err(NetError::Session(
                "no gridmine-node binary configured (NetSession::with_node_binary)".into(),
            ));
        }
        plan.validate_within(capacity, self.cfg.rounds as u64)
            .map_err(|e| NetError::Session(format!("{e} (capacity {capacity})")))?;
        let crashes = plan.resource_faults().any(|(_, f)| matches!(f, ResourceFault::Crash { .. }));
        if crashes && !self.mode.wipes() {
            return Err(NetError::Session(
                "process crashes require a wiping recovery mode (cold or checkpoint)".into(),
            ));
        }
        if let Some(&u) = self.hostile.iter().find(|&&u| u >= capacity) {
            return Err(NetError::Session(format!(
                "hostile resource {u} outside capacity {capacity}"
            )));
        }
        Ok(())
    }
}

/// Session ids mix the seed with the hub's pid and a counter so a stale
/// node process from an earlier run can never handshake into a new
/// session, while staying free of wall-clock entropy.
fn session_id(seed: u64) -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = COUNTER.fetch_add(1, Ordering::Relaxed);
    gridmine_store::mix64(seed ^ (u64::from(std::process::id()) << 32) ^ nonce)
}

/// What a peer's reader thread reports back to the hub loop.
enum PeerMsg<C: SessionCipher> {
    Frame(Frame<C>),
    /// Bytes that are not a valid frame — the codec door tripped.
    Bad(WireError),
    Closed,
}

/// Hub-side state for one node process.
#[derive(Default)]
struct PeerSlot {
    /// The coalesced write half; `None` once the stream broke or the
    /// peer was retired.
    writer: Option<FrameWriter<TcpStream>>,
    child: Option<Child>,
    /// Incremented on every (re)spawn; events from a previous
    /// incarnation's reader thread are discarded by epoch.
    epoch: u64,
    alive: bool,
    quarantined: bool,
}

struct HubRun<C: NetCipher> {
    n: usize,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
    specs: Vec<NodeSpec>,
    binary: PathBuf,
    work_dir: PathBuf,
    state_dir: PathBuf,
    session: u64,
    listener: TcpListener,
    proxy: ChaosProxy<WireMsg<C>>,
    peers: Vec<PeerSlot>,
    /// Counters and shares forwarded but not yet `Processed`-acked.
    pending: u64,
    pending_to: Vec<u64>,
    reports: Vec<Option<NodeReport>>,
    degraded: Vec<Option<DegradeReason>>,
    door_verdicts: Vec<Option<Verdict>>,
    /// Scratch for the copies the chaos proxy releases per relayed
    /// counter (reused, so the relay path does not allocate).
    relay: Vec<WireMsg<C>>,
    /// Hub-driven hard kills as `(resource, tick)`.
    kills: Vec<(usize, u64)>,
    /// Hard kills fired inside the tick's Scan phase (racing the
    /// victim's checkpoint persist) as `(resource, tick)`.
    mid_kills: Vec<(usize, u64)>,
    tx: Sender<(usize, u64, PeerMsg<C>)>,
    rx: Receiver<(usize, u64, PeerMsg<C>)>,
    _cipher: PhantomData<C>,
}

impl<C: NetCipher> HubRun<C> {
    fn execute(&mut self) -> Result<(), NetError> {
        for u in 0..self.n {
            self.spawn_child(u, None)?;
        }
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let mut peered = 0usize;
        while peered < self.n {
            let (hello, stream) = self.accept_one(deadline)?;
            let u = hello.resource as usize;
            if u >= self.n || self.peers[u].alive {
                continue;
            }
            self.register_peer(u, stream, &hello)?;
            peered += 1;
        }

        // Wiring: the networked `wire_grid` — every resource mails its
        // encrypted counter share to every neighbor before round 0.
        self.phase(0, Phase::Wiring);

        for round in 0..self.rounds {
            let tick = round as u64;
            emit(&self.rec, || Event::RoundAdvanced { tick });
            let due: Vec<usize> =
                self.kills.iter().filter(|&&(_, at)| at == tick).map(|&(u, _)| u).collect();
            for u in due {
                if self.peers[u].alive && !self.peers[u].quarantined {
                    emit(&self.rec, || Event::PeerDisconnected {
                        resource: u as u64,
                        reason: "killed".into(),
                    });
                    self.kill_peer(u);
                }
            }
            for u in self.plan.recoveries_at(tick) {
                self.respawn(u, tick)?;
            }
            self.flush_held(tick);
            self.phase(tick, Phase::Scan);
            self.phase(tick, Phase::Candidate);
        }

        // Finish: survivors refresh outputs and report.
        let rounds_tick = self.rounds as u64;
        let mut waiting: BTreeSet<usize> = BTreeSet::new();
        for v in 0..self.n {
            if self.peers[v].alive && !self.peers[v].quarantined && !self.plan.down(v, rounds_tick)
            {
                self.send_to(v, &Frame::Finish);
                waiting.insert(v);
            }
        }
        let deadline = Instant::now() + FINISH_DEADLINE;
        loop {
            waiting.retain(|&v| {
                self.reports[v].is_none() && self.peers[v].alive && !self.peers[v].quarantined
            });
            if waiting.is_empty() {
                break;
            }
            match self.next_msg() {
                Ok((u, epoch, m)) => {
                    let mut none = BTreeSet::new();
                    self.dispatch(u, epoch, m, rounds_tick, false, &mut none);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        let stragglers: Vec<usize> = waiting.iter().copied().collect();
                        for v in stragglers {
                            emit(&self.rec, || Event::PeerDisconnected {
                                resource: v as u64,
                                reason: "finish deadline".into(),
                            });
                            self.degraded[v].get_or_insert(DegradeReason::Disconnected);
                            self.kill_peer(v);
                        }
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        Ok(())
    }

    /// Hands core's [`assemble`] one seat per resource: its report (a
    /// resource that died without one contributes its persisted
    /// tallies), the door verdict and what supervision saw.
    fn assemble(&mut self) -> MiningOutcome {
        let seats = (0..self.n)
            .map(|u| {
                let report = self.reports[u].take().map(|r| ResourceReport {
                    solutions: r.solutions.into_iter().collect(),
                    verdict: r.verdict,
                    degraded: r.degraded,
                    tallies: r.tallies,
                });
                let fallback =
                    if report.is_none() { self.disk_tallies(u) } else { Tallies::default() };
                Seat {
                    report,
                    door_verdict: self.door_verdicts[u],
                    degraded: self.degraded[u],
                    fallback,
                }
            })
            .collect();
        assemble(&self.plan, self.rounds, seats, self.proxy.stats(), &self.rec)
    }

    /// Reaps every child and removes the session's scratch directory.
    fn cleanup(&mut self) {
        for u in 0..self.n {
            self.peers[u].writer = None;
            if let Some(child) = self.peers[u].child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }

    /// Writes resource `u`'s spec (resume variant when `resume` is set)
    /// and spawns its process.
    fn spawn_child(&mut self, u: usize, resume: Option<u64>) -> Result<(), NetError> {
        let mut spec = self.specs[u].clone();
        let path = match resume {
            Some(rt) => {
                spec.resume_tick = Some(rt);
                self.work_dir.join(format!("{u}.respawn.{rt}.json"))
            }
            None => {
                // Hard-killed processes get no outage of their own: the
                // hub pulls the trigger from outside.
                if self.kills.iter().chain(&self.mid_kills).any(|&(k, _)| k == u) {
                    spec.schedule = spec.schedule.without_own_fault();
                }
                self.work_dir.join(format!("{u}.spec.json"))
            }
        };
        let json = serde_json::to_string(&spec)
            .map_err(|e| NetError::Session(format!("spec encode: {e}")))?;
        // Atomic spec drop: the child must never parse a torn file if the
        // hub crashes (or is killed by chaos) mid-write.
        gridmine_store::atomic_write_file(&path, json.as_bytes())?;
        let child = Command::new(&self.binary)
            .arg(&path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        self.peers[u].child = Some(child);
        Ok(())
    }

    /// Accepts one connection and runs the server handshake; strays
    /// (wrong version / role / session) are dropped and the accept loop
    /// keeps going until the deadline.
    fn accept_one(&mut self, deadline: Instant) -> Result<(HelloInfo, TcpStream), NetError> {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                    match transport::server_handshake::<C>(&mut stream, self.session) {
                        Ok(hello) => {
                            stream.set_read_timeout(None)?;
                            return Ok((hello, stream));
                        }
                        Err(_) => continue,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Handshake("fleet did not peer before the deadline"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Registers a peered stream: bumps the epoch, starts the reader
    /// thread, emits the connect / reconnect event.
    fn register_peer(
        &mut self,
        u: usize,
        stream: TcpStream,
        hello: &HelloInfo,
    ) -> Result<(), NetError> {
        // Anything still outstanding belongs to a previous incarnation.
        self.forgive(u);
        let writer = stream.try_clone()?;
        let slot = &mut self.peers[u];
        slot.epoch += 1;
        slot.writer = Some(FrameWriter::new(writer));
        slot.alive = true;
        slot.quarantined = false;
        let epoch = slot.epoch;
        let tx = self.tx.clone();
        let mut reader = BufReader::with_capacity(STREAM_BUF, stream);
        std::thread::spawn(move || loop {
            match transport::recv_frame::<C, _>(&mut reader) {
                Ok(f) => {
                    if tx.send((u, epoch, PeerMsg::Frame(f))).is_err() {
                        break;
                    }
                }
                Err(NetError::Wire(e)) => {
                    let _ = tx.send((u, epoch, PeerMsg::Bad(e)));
                    break;
                }
                Err(_) => {
                    let _ = tx.send((u, epoch, PeerMsg::Closed));
                    break;
                }
            }
        });
        let session = self.session;
        if hello.resumed {
            emit(&self.rec, || Event::PeerReconnected {
                resource: u as u64,
                attempts: u64::from(hello.attempts),
            });
        } else {
            emit(&self.rec, || Event::PeerConnected { resource: u as u64, session });
        }
        Ok(())
    }

    /// Respawns a recovered resource and re-delivers its neighbor shares
    /// (its own shares are re-derived deterministically from the seed;
    /// what neighbors had mailed it died with the old process), draining
    /// the share traffic to quiescence before the round's scan opens.
    fn respawn(&mut self, u: usize, tick: u64) -> Result<(), NetError> {
        // The crash-tick barrier deliberately does not wait for the
        // crasher: it gets its Scan trigger, persists its recovery
        // state, and exits on its own time. Reap it here so that final
        // persist is ordered before the successor's restore — `wait`
        // is the happens-before edge; anything else is a race against
        // the predecessor's fsyncs.
        self.wait_child(u);
        self.spawn_child(u, Some(tick))?;
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let (hello, stream) = loop {
            let (h, s) = self.accept_one(deadline)?;
            if h.resource as usize == u {
                break (h, s);
            }
        };
        self.register_peer(u, stream, &hello)?;
        let nbrs = self.specs[u].adjacency[u].clone();
        for v in nbrs {
            if self.peers[v].alive
                && !self.peers[v].quarantined
                && !self.plan.down(v, tick)
                && self.send_to(v, &Frame::ShareResend { to: u as u32 })
            {
                self.pending += 1;
                self.pending_to[v] += 1;
            }
        }
        let mut none = BTreeSet::new();
        self.pump(tick, true, &mut none, Instant::now() + PHASE_DEADLINE);
        Ok(())
    }

    /// Releases the chaos proxy's parked traffic — except for edges
    /// whose sender is down this tick, which stay parked (a down sender
    /// flushes nothing under any driver).
    fn flush_held(&mut self, tick: u64) {
        for (from, to, m) in self.proxy.flush() {
            if !self.peers[from].alive || self.peers[from].quarantined || self.plan.down(from, tick)
            {
                self.proxy.park(from, to, m);
            } else {
                self.deliver_counter(m, tick);
            }
        }
    }

    /// Opens one phase and pumps until its barrier closes: every
    /// participant checked in with `PhaseSent` and the pending counter
    /// drained to zero.
    fn phase(&mut self, tick: u64, phase: Phase) {
        let mut waiting: BTreeSet<usize> = BTreeSet::new();
        for v in 0..self.n {
            if !self.peers[v].alive || self.peers[v].quarantined {
                continue;
            }
            let up = matches!(phase, Phase::Wiring) || !self.plan.down(v, tick);
            // The tick's own crasher / departer still gets the Scan
            // trigger — wiping and the goodbye report ride on it — but
            // is not waited for.
            if up || matches!(phase, Phase::Scan) {
                self.send_to(v, &Frame::PhaseStart { tick, phase });
            }
            if up {
                waiting.insert(v);
            }
        }
        // Mid-write kills: the victim has its `PhaseStart` (and, on a
        // checkpoint tick, is persisting state right now) when the
        // SIGKILL lands — the hardest torn-write case the atomic
        // persist discipline must survive.
        if matches!(phase, Phase::Scan) {
            let due: Vec<usize> =
                self.mid_kills.iter().filter(|&&(_, at)| at == tick).map(|&(u, _)| u).collect();
            for u in due {
                if self.peers[u].alive && !self.peers[u].quarantined {
                    // The point of this kill is to land *after* the
                    // victim has its `PhaseStart`: put it on the wire
                    // first, and say so if that failed.
                    let reason =
                        if self.flush_to(u) { "killed mid-write" } else { "killed unstarted" };
                    emit(&self.rec, || Event::PeerDisconnected {
                        resource: u as u64,
                        reason: reason.into(),
                    });
                    self.kill_peer(u);
                    waiting.remove(&u);
                }
            }
        }
        let wiring = matches!(phase, Phase::Wiring);
        self.pump(tick, wiring, &mut waiting, Instant::now() + PHASE_DEADLINE);
    }

    /// The next peer message, **flushing before it blocks**: while
    /// messages are waiting nothing is written; once the channel is
    /// empty every peer's pending frames go out, and only then does the
    /// hub wait. Everything `phase`, `respawn` and the finish loop queue
    /// reaches its peer through here.
    fn next_msg(&mut self) -> Result<(usize, u64, PeerMsg<C>), RecvTimeoutError> {
        match self.rx.try_recv() {
            Ok(msg) => Ok(msg),
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {
                self.flush_all();
                self.rx.recv_timeout(Duration::from_millis(25))
            }
        }
    }

    /// The hub's event loop body: dispatches peer traffic until
    /// `waiting` empties and no forwarded message is unacked. On
    /// deadline overrun the stragglers are degraded and the session
    /// moves on — supervision never hangs the run.
    fn pump(&mut self, tick: u64, wiring: bool, waiting: &mut BTreeSet<usize>, deadline: Instant) {
        loop {
            waiting.retain(|&v| self.peers[v].alive && !self.peers[v].quarantined);
            if waiting.is_empty() && self.pending == 0 {
                return;
            }
            match self.next_msg() {
                Ok((u, epoch, m)) => self.dispatch(u, epoch, m, tick, wiring, waiting),
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        let stragglers: Vec<usize> = waiting.iter().copied().collect();
                        for v in stragglers {
                            emit(&self.rec, || Event::PeerDisconnected {
                                resource: v as u64,
                                reason: "phase deadline".into(),
                            });
                            self.degraded[v].get_or_insert(DegradeReason::Disconnected);
                            self.kill_peer(v);
                        }
                        waiting.clear();
                        for v in 0..self.n {
                            self.forgive(v);
                        }
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn dispatch(
        &mut self,
        u: usize,
        epoch: u64,
        msg: PeerMsg<C>,
        tick: u64,
        wiring: bool,
        waiting: &mut BTreeSet<usize>,
    ) {
        if u >= self.n || epoch != self.peers[u].epoch {
            return;
        }
        match msg {
            PeerMsg::Bad(e) => self.quarantine(u, e, tick),
            PeerMsg::Closed => self.on_closed(u, tick),
            PeerMsg::Frame(f) => {
                if self.peers[u].quarantined {
                    return;
                }
                match f {
                    Frame::PhaseSent { .. } => {
                        waiting.remove(&u);
                    }
                    Frame::Processed => self.ack(u),
                    Frame::Counter(m) => {
                        if m.from != u {
                            self.quarantine(
                                u,
                                WireError::Malformed("counter with forged sender id"),
                                tick,
                            );
                        } else {
                            let mut now = std::mem::take(&mut self.relay);
                            self.proxy.route(m.from, m.to, m, &self.rec, |c| now.push(c));
                            for c in now.drain(..) {
                                self.deliver_counter(c, tick);
                            }
                            self.relay = now;
                        }
                    }
                    Frame::Share { from, to, ct } => {
                        if from as usize != u {
                            self.quarantine(
                                u,
                                WireError::Malformed("share with forged sender id"),
                                tick,
                            );
                        } else {
                            self.forward_share(from, to, ct, tick, wiring);
                        }
                    }
                    Frame::Obs { line } if self.rec.enabled() => {
                        if let Some(e) = Event::from_json(&line) {
                            self.rec.record(&e);
                        }
                    }
                    Frame::Heartbeat { nonce } => {
                        self.send_to(u, &Frame::HeartbeatAck { nonce });
                    }
                    Frame::Report(r) if r.resource as usize == u => {
                        self.reports[u] = Some(r);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Forwards one (possibly duplicated) counter copy to its recipient.
    /// Chaos was already applied by the proxy; recipients that are down,
    /// dead or quarantined silently absorb the message.
    fn deliver_counter(&mut self, m: WireMsg<C>, tick: u64) {
        let to = m.to;
        if to >= self.n
            || !self.peers[to].alive
            || self.peers[to].quarantined
            || self.plan.down(to, tick)
        {
            return;
        }
        if self.send_to(to, &Frame::Counter(m)) {
            self.pending += 1;
            self.pending_to[to] += 1;
        }
    }

    /// Shares are wiring traffic: forwarded un-chaosed (the in-process
    /// drivers wire the grid before the fault layer arms too).
    fn forward_share(&mut self, from: u32, to: u32, ct: C::Ct, tick: u64, wiring: bool) {
        let v = to as usize;
        if v >= self.n
            || !self.peers[v].alive
            || self.peers[v].quarantined
            || (!wiring && self.plan.down(v, tick))
        {
            return;
        }
        if self.send_to(v, &Frame::Share { from, to, ct }) {
            self.pending += 1;
            self.pending_to[v] += 1;
        }
    }

    fn ack(&mut self, u: usize) {
        if self.pending_to[u] > 0 {
            self.pending_to[u] -= 1;
            self.pending -= 1;
        }
    }

    /// Drops all unacked traffic charged to `u` (its process is gone;
    /// nothing will ever ack it).
    fn forgive(&mut self, u: usize) {
        self.pending -= self.pending_to[u];
        self.pending_to[u] = 0;
    }

    /// Runs `op` on `u`'s writer. False when `u` has no working stream;
    /// a stream that fails is dropped (the reader thread will surface
    /// the close — just stop writing into a broken pipe).
    fn on_writer(
        &mut self,
        u: usize,
        op: impl FnOnce(&mut FrameWriter<TcpStream>) -> Result<(), NetError>,
    ) -> bool {
        let Some(w) = self.peers[u].writer.as_mut() else {
            return false;
        };
        let ok = op(w).is_ok();
        if !ok {
            self.peers[u].writer = None;
        }
        ok
    }

    /// Queues `f` on `u`'s stream; it goes out with the next flush.
    fn send_to(&mut self, u: usize, f: &Frame<C>) -> bool {
        self.on_writer(u, |w| w.queue(f))
    }

    /// Puts everything queued for `u` on the wire.
    fn flush_to(&mut self, u: usize) -> bool {
        self.on_writer(u, FrameWriter::flush)
    }

    fn flush_all(&mut self) {
        for u in 0..self.n {
            self.flush_to(u);
        }
    }

    /// Reaps `u`'s process. Blocking on a peer, so flush first: nothing
    /// a process still has to read before it exits may be left pending.
    fn wait_child(&mut self, u: usize) {
        self.flush_all();
        if let Some(child) = self.peers[u].child.as_mut() {
            let _ = child.wait();
        }
    }

    /// The codec door: a peer whose bytes do not decode is treated as
    /// `Verdict::MaliciousResource`, quarantined and its process killed.
    /// This is the network edition of the controller's wellformedness
    /// screen — hostile input degrades the peer, never panics the hub.
    fn quarantine(&mut self, u: usize, err: WireError, tick: u64) {
        if self.peers[u].quarantined {
            return;
        }
        emit(&self.rec, || Event::FrameRejected { from: u as u64, reason: err.to_string() });
        self.door_verdicts[u] = Some(Verdict::MaliciousResource(u));
        emit(&self.rec, || Event::ResourceQuarantined { resource: u as u64, tick });
        emit(&self.rec, || Event::PeerDisconnected {
            resource: u as u64,
            reason: "quarantined".into(),
        });
        self.degraded[u].get_or_insert(DegradeReason::Disconnected);
        self.peers[u].quarantined = true;
        self.kill_peer(u);
    }

    fn kill_peer(&mut self, u: usize) {
        self.peers[u].alive = false;
        self.peers[u].writer = None;
        // The hub initiated this death, so whatever the dying stream
        // still surfaces (a half-written frame reads as Truncated) is
        // noise, not malice: retire the epoch so the reader's remaining
        // messages are discarded at dispatch.
        self.peers[u].epoch += 1;
        if let Some(child) = self.peers[u].child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.forgive(u);
    }

    /// A peer's stream closed. Expected when its fault schedule says so
    /// or its report is already in; anything else is a supervision
    /// failure and degrades the resource.
    fn on_closed(&mut self, u: usize, tick: u64) {
        if !self.peers[u].alive {
            return;
        }
        self.peers[u].alive = false;
        self.peers[u].writer = None;
        self.wait_child(u);
        self.forgive(u);
        let scheduled = match self.plan.fault_of(u) {
            Some(ResourceFault::Crash { at, .. }) | Some(ResourceFault::Depart { at }) => {
                at <= tick
            }
            None => false,
        };
        if !scheduled && self.reports[u].is_none() {
            emit(&self.rec, || Event::PeerDisconnected {
                resource: u as u64,
                reason: "connection lost".into(),
            });
            self.degraded[u].get_or_insert(DegradeReason::Disconnected);
        }
    }

    /// Tallies persisted by a resource that died without reporting
    /// (crash-wipe persist or last checkpoint); zeros if none survive.
    fn disk_tallies(&self, u: usize) -> Tallies {
        std::fs::read(state::path(&self.state_dir, u))
            .ok()
            .and_then(|bytes| NodeState::decode(&bytes).ok())
            .map(|state| state.tallies)
            .unwrap_or_default()
    }
}
