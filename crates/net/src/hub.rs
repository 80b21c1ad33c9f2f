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
//! counters are tracked with counted `Processed { n }` acks — a phase is
//! over when the check-ins are complete and the pending count is zero.
//!
//! The relay is verbatim: a reader thread decodes every frame in full —
//! the codec door, which takes only a frame's one canonical byte form —
//! and hands the loop one batch per read, a counter or share as its ids
//! and its sender's bytes, which the loop forwards unchanged once the
//! sender id checks out. What an addressee reads is therefore exactly
//! what the hub would have encoded.
//!
//! Every hub↔node stream is coalesced ([`FrameWriter`] out, a buffered
//! reader in): `send_to` and `forward` only queue, and the hub **flushes
//! before it blocks** — in `next_msg` once the batch in hand and the
//! channel are both empty, in `wait_child` before reaping a process, and
//! before the mid-write kill (the victim's `PhaseStart` is on the wire
//! before the SIGKILL). Order per connection is untouched, so the
//! barrier argument stands: a node acks what it handled right before it
//! flushes, behind every counter that work gave rise to, and a forwarded
//! counter stays in `pending` until an ack covers it, which cannot exist
//! before the counter was flushed. Reader threads on both sides drain
//! into unbounded `std::sync::mpsc` channels whatever the main loops are
//! doing, so two peers flushing at each other cannot fill a socket and
//! deadlock. A node's one reader thread hanging up reads as
//! `Disconnected` once its channel is empty; the hub keeps a sender of
//! its own, so its channel never disconnects.
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
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use gridmine_arm::Database;
use gridmine_core::session::{arm_recorder, session_tree};
use gridmine_core::{
    assemble, item_domain, validate_grid, ChaosProxy, DegradeReason, MineConfig, MiningOutcome,
    RecoveryMode, ResourceReport, RoundSchedule, Seat, SessionCipher, Tallies, Verdict,
};
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::{MockCipher, PaillierCtx};
use gridmine_topology::{FaultPlan, Tree};

use crate::codec::{self, Frame, NodeReport, Phase};
use crate::error::{NetError, WireError};
use crate::spec::NodeSpec;
use crate::state::{self, NodeState};
use crate::transport::{self, FrameWriter, HelloInfo, Inbox, STREAM_BUF};

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
            mode: RecoveryMode::default(),
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
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper over try_run, as MineSession::run"
    )]
    pub fn run(self) -> MiningOutcome {
        match self.try_run() {
            Ok(outcome) => outcome,
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
        let tree = session_tree(self.tree.as_ref(), n);
        let adjacency: Vec<Vec<usize>> =
            (0..tree.capacity()).map(|u| tree.neighbors(u).collect()).collect();
        let items: Vec<u32> = item_domain(self.dbs.iter().flat_map(Database::transactions))
            .iter()
            .map(|i| i.0)
            .collect();

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
                schedule: RoundSchedule::of(&plan, u, self.mode),
                resume_tick: None,
                hub: hub_addr.clone(),
                state_dir: state_dir.to_string_lossy().into_owned(),
                hostile: self.hostile.contains(&u),
                observed: rec.enabled(),
            })
            .collect();

        let (tx, rx) = channel();
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
            inbox: Inbox::new(rx),
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

    /// The screens every in-process driver runs ([`MineConfig::validate`],
    /// [`validate_grid`]) plus the net-specific conditions: a node binary
    /// is mandatory and every hostile resource is inside the grid.
    fn validate(&self, plan: &FaultPlan) -> Result<(), NetError> {
        self.cfg.validate()?;
        let capacity = self.tree.as_ref().map_or(self.dbs.len(), Tree::capacity);
        validate_grid(self.dbs.len(), capacity, plan, self.cfg.rounds as u64)?;
        if self.binary.is_none() {
            return Err(NetError::Setup(
                "no gridmine-node binary configured (NetSession::with_node_binary)".into(),
            ));
        }
        if let Some(&u) = self.hostile.iter().find(|&&u| u >= capacity) {
            return Err(NetError::Setup(format!(
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
    /// A counter (or, `share`, a share) that passed the door, as sent.
    Relay {
        share: bool,
        from: usize,
        to: usize,
        bytes: Vec<u8>,
    },
    /// Bytes that are not a valid frame — the codec door tripped.
    Bad(WireError),
    Closed,
}

/// The codec door: a full decode; a counter or share keeps its ids.
fn at_door<C: SessionCipher>(bytes: Vec<u8>) -> PeerMsg<C> {
    match codec::decode::<C>(&bytes) {
        Ok(Frame::Counter(m)) => PeerMsg::Relay { share: false, from: m.from, to: m.to, bytes },
        Ok(Frame::Share { from, to, .. }) => {
            PeerMsg::Relay { share: true, from: from as usize, to: to as usize, bytes }
        }
        Ok(f) => PeerMsg::Frame(f),
        Err(e) => PeerMsg::Bad(e),
    }
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
    proxy: ChaosProxy<Vec<u8>>,
    peers: Vec<PeerSlot>,
    /// Counters and shares forwarded but not yet `Processed`-acked.
    pending: u64,
    pending_to: Vec<u64>,
    reports: Vec<Option<NodeReport>>,
    degraded: Vec<Option<DegradeReason>>,
    door_verdicts: Vec<Option<Verdict>>,
    /// Scratch for the copies the chaos proxy releases per relayed
    /// counter (reused, so the relay path does not allocate).
    relay: Vec<Vec<u8>>,
    /// Hub-driven hard kills as `(resource, tick)`.
    kills: Vec<(usize, u64)>,
    /// Hard kills fired inside the tick's Scan phase (racing the
    /// victim's checkpoint persist) as `(resource, tick)`.
    mid_kills: Vec<(usize, u64)>,
    /// One batch of `(peer, epoch, message)` per reader-thread read.
    tx: Sender<Vec<Inbound<C>>>,
    inbox: Inbox<Inbound<C>>,
}

type Inbound<C> = (usize, u64, PeerMsg<C>);

impl<C: NetCipher> HubRun<C> {
    #[expect(clippy::disallowed_methods, reason = "a transport deadline: it ends a wait only")]
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
            .map_err(|e| NetError::Setup(format!("spec encode: {e}")))?;
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
    /// (wrong version or session) are dropped and the accept loop
    /// keeps going until the deadline.
    #[expect(clippy::disallowed_methods, reason = "a transport deadline: it ends a wait only")]
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
            let batch: Vec<Inbound<C>> = match transport::recv_batch(&mut reader) {
                Ok(frames) => frames.into_iter().map(|b| (u, epoch, at_door::<C>(b))).collect(),
                Err(NetError::Wire(e)) => vec![(u, epoch, PeerMsg::Bad(e))],
                Err(_) => vec![(u, epoch, PeerMsg::Closed)],
            };
            let last = batch.iter().any(|(.., m)| matches!(m, PeerMsg::Bad(_) | PeerMsg::Closed));
            if tx.send(batch).is_err() || last {
                break;
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
    #[expect(clippy::disallowed_methods, reason = "a transport deadline: it ends a wait only")]
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
                self.forward(to, &m, tick, false);
            }
        }
    }

    /// Opens one phase and pumps until its barrier closes: every
    /// participant checked in with `PhaseSent` and the pending counter
    /// drained to zero.
    #[expect(clippy::disallowed_methods, reason = "a transport deadline: it ends a wait only")]
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
    /// messages are waiting nothing is written; once the batch in hand
    /// and the channel are both empty every peer's pending frames go
    /// out, and only then does the hub wait. Everything `phase`,
    /// `respawn` and the finish loop queue reaches its peer through here.
    fn next_msg(&mut self) -> Result<Inbound<C>, RecvTimeoutError> {
        if let Some(msg) = self.inbox.ready() {
            return Ok(msg);
        }
        self.flush_all();
        self.inbox.wait(Duration::from_millis(25))
    }

    /// The hub's event loop body: dispatches peer traffic until
    /// `waiting` empties and no forwarded message is unacked. On
    /// deadline overrun the stragglers are degraded and the session
    /// moves on — supervision never hangs the run.
    #[expect(clippy::disallowed_methods, reason = "a transport deadline: it ends a wait only")]
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
            _ if self.peers[u].quarantined => {}
            PeerMsg::Relay { share, from, .. } if from != u => {
                let why = if share {
                    "share with forged sender id"
                } else {
                    "counter with forged sender id"
                };
                self.quarantine(u, WireError::Malformed(why), tick);
            }
            // Shares are wiring traffic: forwarded un-chaosed (the
            // in-process drivers wire the grid before the fault layer
            // arms too).
            PeerMsg::Relay { share: true, to, bytes, .. } => self.forward(to, &bytes, tick, wiring),
            PeerMsg::Relay { share: false, from, to, bytes } => {
                let mut now = std::mem::take(&mut self.relay);
                self.proxy.route(from, to, bytes, &self.rec, |c| now.push(c));
                for c in now.drain(..) {
                    self.forward(to, &c, tick, false);
                }
                self.relay = now;
            }
            PeerMsg::Frame(Frame::PhaseSent { .. }) => {
                waiting.remove(&u);
            }
            PeerMsg::Frame(Frame::Processed { n }) => self.ack(u, n),
            PeerMsg::Frame(Frame::Obs { line }) if self.rec.enabled() => {
                if let Some(e) = Event::from_json(&line) {
                    self.rec.record(&e);
                }
            }
            PeerMsg::Frame(Frame::Heartbeat { nonce }) => {
                self.send_to(u, &Frame::HeartbeatAck { nonce });
            }
            PeerMsg::Frame(Frame::Report(r)) if r.resource as usize == u => {
                self.reports[u] = Some(r);
            }
            PeerMsg::Frame(_) => {}
        }
    }

    /// Queues a door-checked frame for `to` as its sender wrote it. A
    /// recipient dead, quarantined or (outside wiring) down absorbs it.
    fn forward(&mut self, to: usize, bytes: &[u8], tick: u64, wiring: bool) {
        if to >= self.n
            || !self.peers[to].alive
            || self.peers[to].quarantined
            || (!wiring && self.plan.down(to, tick))
        {
            return;
        }
        if self.on_writer(to, |w| w.relay(bytes)) {
            self.pending += 1;
            self.pending_to[to] += 1;
        }
    }

    /// `u` acked `n` frames; an ack beyond what `u` owes stops at zero.
    fn ack(&mut self, u: usize, n: u32) {
        let n = u64::from(n).min(self.pending_to[u]);
        self.pending_to[u] -= n;
        self.pending -= n;
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
        if !self.plan.down(u, tick) && self.reports[u].is_none() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
    use gridmine_core::{BrokerMsg, CounterLayout, GridKeys, SecureCounter};
    use std::io::{Read, Write};
    use std::net::Shutdown;

    /// A hub over `n` peers with no process behind any of them: each is
    /// alive at epoch 1, without a stream until a test registers one.
    fn hub(n: usize) -> HubRun<MockCipher> {
        let (tx, rx) = channel();
        let unused = std::env::temp_dir().join("gridmine-hub-unit-test-unused");
        HubRun {
            n,
            rounds: 1,
            plan: FaultPlan::none(),
            rec: gridmine_obs::null(),
            specs: Vec::new(),
            binary: PathBuf::new(),
            work_dir: unused.clone(),
            state_dir: unused,
            session: 1,
            listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
            proxy: ChaosProxy::new(FaultPlan::none()),
            peers: (0..n)
                .map(|_| PeerSlot { epoch: 1, alive: true, ..PeerSlot::default() })
                .collect(),
            pending: 0,
            pending_to: vec![0; n],
            reports: (0..n).map(|_| None).collect(),
            degraded: vec![None; n],
            door_verdicts: vec![None; n],
            relay: Vec::new(),
            kills: Vec::new(),
            mid_kills: Vec::new(),
            tx,
            inbox: Inbox::new(rx),
        }
    }

    fn frame(u: usize, f: Frame<MockCipher>) -> Inbound<MockCipher> {
        (u, 1, PeerMsg::Frame(f))
    }

    #[test]
    fn an_ack_beyond_the_debt_stops_at_zero_and_leaves_other_peers_owing() {
        let mut hub = hub(3);
        hub.pending_to = vec![2, 5, 1];
        hub.pending = 8;
        hub.ack(0, 7);
        assert_eq!((hub.pending_to.as_slice(), hub.pending), ([0, 5, 1].as_slice(), 6));
        hub.ack(1, 3);
        assert_eq!((hub.pending_to.as_slice(), hub.pending), ([0, 2, 1].as_slice(), 3));
        hub.ack(0, u32::MAX);
        assert_eq!((hub.pending_to.as_slice(), hub.pending), ([0, 2, 1].as_slice(), 3));
    }

    #[test]
    fn a_phase_sent_ahead_of_the_acks_it_covers_does_not_close_the_phase() {
        let mut hub = hub(2);
        hub.pending_to = vec![0, 3];
        hub.pending = 3;
        let sent = Frame::PhaseSent { tick: 0, phase: Phase::Scan, sent: 3 };
        hub.tx.send(vec![frame(1, sent), frame(1, Frame::Processed { n: 2 })]).expect("send");
        hub.tx.send(vec![frame(1, Frame::Processed { n: 1 })]).expect("send");
        // Queued behind the last ack: what the closed barrier leaves unread.
        hub.tx.send(vec![frame(0, Frame::Heartbeat { nonce: 9 })]).expect("send");
        let mut waiting = BTreeSet::from([1]);
        hub.pump(0, false, &mut waiting, Instant::now() + PHASE_DEADLINE);
        assert_eq!(hub.pending, 0, "the barrier closed before every ack was in");
        let next = hub.next_msg().expect("the frame behind the barrier");
        assert!(matches!(next, (0, 1, PeerMsg::Frame(Frame::Heartbeat { nonce: 9 }))));
    }

    #[test]
    fn a_close_after_the_rejoin_is_not_the_scheduled_crash() {
        let mut hub = hub(2);
        hub.plan = FaultPlan::none().with_crash(1, 2, Some(3));
        hub.on_closed(1, 2);
        assert_eq!(hub.degraded[1], None, "the scheduled crash closes its stream");
        hub.peers[1].alive = true;
        hub.on_closed(1, 5);
        assert_eq!(hub.degraded[1], Some(DegradeReason::Disconnected));
    }

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dialer = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        (dialer.join().expect("join"), accepted)
    }

    /// A counter from 0 to 1 as the codec encodes it.
    fn counter_bytes() -> Vec<u8> {
        let keys = GridKeys::<MockCipher>::mock(9);
        let layout = CounterLayout::new(0, vec![1]);
        let counter = SecureCounter::seal_local(
            &keys.enc,
            &keys.tags.key(layout.arity()),
            &layout,
            5,
            9,
            1,
            7,
            3,
        );
        let rule = Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2, 3]));
        let cand = CandidateRule::new(rule, Ratio::new(1, 2));
        codec::encode(&Frame::Counter(BrokerMsg { from: 0, to: 1, cand, counter }))
    }

    #[test]
    fn counters_cross_as_written_and_one_that_fails_the_door_is_never_forwarded() {
        let mut hub = hub(2);
        let (mut sender, hub_end0) = loopback_pair();
        let (mut addressee, hub_end1) = loopback_pair();
        let hub_writes_to_1 = hub_end1.try_clone().expect("clone");
        let hello = |resource| HelloInfo { resource, resumed: false, attempts: 1 };
        hub.register_peer(0, hub_end0, &hello(0)).expect("peer 0");
        hub.register_peer(1, hub_end1, &hello(1)).expect("peer 1");

        let good = counter_bytes();
        assert!(codec::decode::<MockCipher>(&good).is_ok());
        // The same counter as a sender could write it without being
        // canonical — its consequent items [2, 3] swapped — and resealed:
        // the checksum holds, and it names the same rule, but it is a
        // second spelling of the frame, which the door refuses.
        let (kind, payload) = crate::frame::open(&good).expect("own frame");
        let mut p = payload.to_vec();
        // Payload: from, to, antecedent [1], consequent count 2, [2, 3].
        p[20..28].rotate_left(4);
        let bad = crate::frame::seal(kind, &p);
        assert!(matches!(codec::decode::<MockCipher>(&bad), Err(WireError::Malformed(_))));
        sender.write_all(&[good.as_slice(), &bad].concat()).expect("write");

        let want = good.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0; want];
            addressee.read_exact(&mut got).expect("the good counter");
            transport::send_frame(&mut addressee, &Frame::<MockCipher>::Processed { n: 1 })
                .expect("ack");
            let mut rest = Vec::new();
            addressee.read_to_end(&mut rest).expect("read to the hub's shutdown");
            (got, rest)
        });
        let mut waiting = BTreeSet::from([0]);
        hub.pump(0, false, &mut waiting, Instant::now() + PHASE_DEADLINE);
        assert_eq!(hub.door_verdicts[0], Some(Verdict::MaliciousResource(0)));
        assert!(hub.peers[0].quarantined && hub.pending == 0);
        hub_writes_to_1.shutdown(Shutdown::Write).expect("shutdown");
        let (got, rest) = reader.join().expect("addressee");
        assert_eq!(got, good, "the counter crossed as its sender wrote it");
        assert!(rest.is_empty(), "{} more bytes reached the addressee", rest.len());
    }
}
