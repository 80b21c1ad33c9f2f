//! One resource as one OS process.
//!
//! `run` hosts a single [`RoundMachine`] (accountant + broker +
//! controller under core's per-round policy) and peers with the hub over
//! loopback TCP: the hub's `PhaseStart` frames stand in for barriers,
//! `Processed` acks for the in-flight counter. The resource is minted by
//! core's [`MineConfig::resource`], as in every driver; what it does at
//! each tick is `gridmine_core::round`'s. This file owns the socket, the
//! frames, the exit codes, the heartbeat and when [`crate::state`] runs.
//!
//! The stream to the hub is coalesced ([`FrameWriter`]): everything one
//! inbound frame gives rise to — consequent counters, events — is queued
//! in order, and the main loop **flushes before it blocks**: only when
//! the batch its reader handed over and the channel are both empty, and
//! at its single exit. Each flush leads with one `Processed { n }` for
//! the routed frames handled since the last, behind all they gave rise
//! to, so a goodbye report, a crash's last events or a final ack are on
//! the wire before the process ends, whatever the exit code.
//!
//! Events follow the session's recorder: when the hub has one
//! (`spec.observed`) the machine and keys record into a buffer that is
//! forwarded as `Frame::Obs`; when it has none they run on the null
//! recorder and no event is formatted, framed or sent.
//!
//! A crash loses what it loses in every driver and leaves the same image
//! (recovery log, controller audits); here the process also ends: at a
//! scheduled crash tick the node publishes that image under `state_dir`,
//! with its tallies, and **exits**. The hub respawns a process at the
//! recovery tick, which restores through the same door (`resume_tick`).

use std::io::{BufReader, Write};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gridmine_arm::{Item, Ratio};
use gridmine_core::{MineConfig, RoundMachine, Scan, WireMsg};
use gridmine_obs::{Event, Recorder, SharedRecorder};
use gridmine_paillier::HomCipher;

use crate::codec::{self, Frame, NodeReport, Phase};
use crate::error::NetError;
use crate::hub::NetCipher;
use crate::spec::NodeSpec;
use crate::state;
use crate::transport::{self, FrameWriter, Inbox, HEARTBEAT_EVERY, STREAM_BUF};

/// Exit code of a scheduled crash (process-level `crash_wipe`). The hub
/// treats it as an expected death, not a supervision failure.
pub const EXIT_CRASHED: i32 = 13;

/// Exit code when the hub goes silent for longer than the orphan
/// deadline — the node assumes the session died and stops.
pub const EXIT_ORPHANED: i32 = 3;

/// Exit code for transport/internal failures.
pub const EXIT_FAILED: i32 = 4;

/// A node declares the hub dead after this much silence.
const ORPHAN_DEADLINE: Duration = Duration::from_secs(20);

/// A recorder buffering event JSON lines for batched forwarding to the
/// hub (`Frame::Obs`). Lock poisoning is tolerated: observability must
/// never take the protocol down.
#[derive(Default)]
struct BufRecorder {
    lines: Mutex<Vec<String>>,
}

impl BufRecorder {
    fn drain(&self) -> Vec<String> {
        match self.lines.lock() {
            Ok(mut l) => std::mem::take(&mut *l),
            Err(_) => Vec::new(),
        }
    }
}

impl Recorder for BufRecorder {
    fn record(&self, event: &Event) {
        if let Ok(mut l) = self.lines.lock() {
            l.push(event.to_json());
        }
    }
}

/// Entry point of the `gridmine-node` process: returns the exit code.
pub fn run<C: NetCipher>(spec: &NodeSpec) -> i32 {
    match try_run::<C>(spec) {
        Ok(code) => code,
        Err(_) => EXIT_FAILED,
    }
}

struct Node<'a, C: HomCipher> {
    spec: &'a NodeSpec,
    machine: RoundMachine<C>,
    /// The event buffer behind the machine's recorder; `None` when the
    /// session is unobserved and the machine runs on the null recorder.
    rec_buf: Option<Arc<BufRecorder>>,
    /// Counters, shares and share resends handled since the last ack.
    handled: u32,
}

/// The recorder a node's machine and keys run on, with the buffer to
/// forward from: a live one only when the hub's session has a recorder
/// to receive the events.
fn node_recorder(observed: bool) -> (SharedRecorder, Option<Arc<BufRecorder>>) {
    if observed {
        let buf = Arc::new(BufRecorder::default());
        (buf.clone(), Some(buf))
    } else {
        (gridmine_obs::null(), None)
    }
}

impl<'a, C: NetCipher> Node<'a, C> {
    /// The resource `spec` describes, fresh: not restored, not peered —
    /// minted by core's [`MineConfig::resource`], like every driver's.
    fn new(spec: &'a NodeSpec) -> Self {
        let (rec, rec_buf) = node_recorder(spec.observed);
        let keys = C::session_keys(spec.seed).with_recorder(&rec);
        let cfg = MineConfig {
            min_freq: Ratio::new(spec.min_freq.0, spec.min_freq.1),
            min_conf: Ratio::new(spec.min_conf.0, spec.min_conf.1),
            k: spec.k,
            rounds: spec.rounds,
            seed: spec.seed,
        };
        let neighbors = |v| spec.adjacency.get(v).cloned().unwrap_or_default();
        let items: Vec<Item> = spec.items.iter().map(|&i| Item(i)).collect();
        let resource = cfg.resource(spec.resource, &keys, neighbors, spec.db.clone(), &items);
        let machine = RoundMachine::new(resource, spec.schedule.clone(), rec);
        Node { spec, machine, rec_buf, handled: 0 }
    }

    /// Publishes the state file as of `tick`, with the image a crash
    /// left when there is one (see [`state::publish`]). A failure is
    /// never silent: the reason goes to stderr (inherited from the hub),
    /// and on an observed session also out as an
    /// [`Event::CheckpointPersistFailed`] with the next `queue_obs`.
    fn persist_or_report(&self, tick: u64, crash_image: Option<&[u8]>) {
        let path = state::path(&self.spec.state_dir, self.spec.resource);
        if let Err(e) = state::publish(&path, &self.machine, tick, crash_image) {
            let resource = self.spec.resource;
            eprintln!("gridmine-node {resource}: checkpoint persist failed: {e}");
            if let Some(buf) = &self.rec_buf {
                buf.record(&Event::CheckpointPersistFailed {
                    resource: resource as u64,
                    reason: e.to_string(),
                });
            }
        }
    }

    fn queue_obs<W: Write>(&self, out: &mut FrameWriter<W>) -> Result<(), NetError> {
        let Some(buf) = &self.rec_buf else {
            return Ok(());
        };
        for line in buf.drain() {
            out.queue::<C>(&Frame::Obs { line })?;
        }
        Ok(())
    }

    /// Queues `outs` and the buffered events, and returns the count for
    /// the caller's `PhaseSent`.
    fn queue_counters<W: Write>(
        &self,
        out: &mut FrameWriter<W>,
        outs: Vec<WireMsg<C>>,
    ) -> Result<u32, NetError> {
        let n = outs.len() as u32;
        for m in outs {
            out.queue(&Frame::Counter(m))?;
        }
        self.queue_obs(out)?;
        Ok(n)
    }

    /// The machine's report in wire form.
    fn report(&self) -> Frame<C> {
        let r = self.machine.report();
        Frame::Report(NodeReport {
            resource: self.spec.resource as u32,
            solutions: r.solutions.sorted().into_iter().cloned().collect(),
            verdict: r.verdict,
            degraded: r.degraded,
            tallies: r.tallies,
        })
    }

    /// Flush before you block or exit, led by the ack for every routed
    /// frame handled since the last.
    fn flush<W: Write>(&mut self, out: &mut FrameWriter<W>) -> Result<(), NetError> {
        if self.handled > 0 {
            out.queue::<C>(&Frame::Processed { n: std::mem::take(&mut self.handled) })?;
        }
        out.flush()
    }

    /// Handles one frame from the hub; `Some(code)` ends the process.
    fn handle<W: Write>(
        &mut self,
        frame: Frame<C>,
        out: &mut FrameWriter<W>,
    ) -> Result<Option<i32>, NetError> {
        let spec = self.spec;
        let u = spec.resource;
        match frame {
            Frame::PhaseStart { tick, phase: Phase::Wiring } => {
                let mut sent = 0u32;
                for &v in spec.adjacency.get(u).into_iter().flatten() {
                    let ct = self.machine.resource().share_for_neighbor(v);
                    out.queue::<C>(&Frame::Share { from: u as u32, to: v as u32, ct })?;
                    sent += 1;
                }
                self.queue_obs(out)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Wiring, sent })?;
            }
            Frame::Share { from, to, ct } => {
                if to as usize == u {
                    self.machine.resource_mut().store_share_from(from as usize, ct);
                }
                self.handled += 1;
            }
            Frame::ShareResend { to } => {
                let ct = self.machine.resource().share_for_neighbor(to as usize);
                out.queue::<C>(&Frame::Share { from: u as u32, to, ct })?;
                self.handled += 1;
            }
            Frame::PhaseStart { tick, phase: Phase::Scan } => {
                let outs = match self.machine.scan(tick) {
                    // The hub sees the process exit; a successor may be
                    // respawned at the recovery tick.
                    Scan::Crash(image) => {
                        self.persist_or_report(tick, Some(&image));
                        self.queue_obs(out)?;
                        return Ok(Some(EXIT_CRASHED));
                    }
                    Scan::Depart => {
                        self.queue_obs(out)?;
                        out.queue(&self.report())?;
                        return Ok(Some(0));
                    }
                    Scan::Down => Vec::new(),
                    Scan::Send { msgs, checkpointed } => {
                        // A checkpoint is only worth its name if it
                        // survives a process kill.
                        if checkpointed {
                            self.persist_or_report(tick, None);
                        }
                        msgs
                    }
                };
                let sent = self.queue_counters(out, outs)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Scan, sent })?;
            }
            Frame::PhaseStart { tick, phase: Phase::Candidate } => {
                let outs = self.machine.candidates();
                let sent = self.queue_counters(out, outs)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Candidate, sent })?;
            }
            Frame::Counter(msg) => {
                // Consequent sends are queued *before* the ack that
                // covers this counter, so the hub's pending count can
                // never read zero while traffic is still being produced
                // (per-connection FIFO: queue order is wire order).
                let outs = self.machine.receive(&msg);
                self.queue_counters(out, outs)?;
                self.handled += 1;
            }
            Frame::Finish => {
                self.machine.finish(spec.rounds);
                self.queue_obs(out)?;
                out.queue(&self.report())?;
                return Ok(Some(0));
            }
            // A heartbeat ack needs nothing; anything else from the hub
            // is a protocol bug, not an attack surface (the hub is
            // trusted); ignore it.
            _ => {}
        }
        Ok(None)
    }
}

fn try_run<C: NetCipher>(spec: &NodeSpec) -> Result<i32, NetError> {
    let u = spec.resource;
    let mut node = Node::<C>::new(spec);
    let resumed = spec.resume_tick.is_some();
    if resumed {
        state::resume(&state::path(&spec.state_dir, u), &mut node.machine);
    }

    // Peer with the hub: capped-backoff dial + versioned handshake.
    let (stream, attempts) = transport::dial(&spec.hub, &spec.schedule.mode().retry())?;
    let mut reader = stream;
    let mut writer = reader.try_clone()?;
    transport::client_handshake::<C>(&mut reader, spec.session, u as u32, resumed, attempts)?;

    if spec.hostile {
        // The Byzantine fixture: after a clean handshake, feed the hub
        // bytes that are not frames. The hub's codec door must convert
        // this into a MaliciousResource verdict + quarantine.
        writer.write_all(&[0xA5; 64])?;
        writer.flush()?;
        std::thread::sleep(Duration::from_millis(500));
        return Ok(0);
    }

    // Blocking reader thread, one send per read; the main loop paces
    // itself on the channel so a read timeout can never split a frame.
    let (tx, rx) = channel::<Vec<Result<Frame<C>, NetError>>>();
    let mut reader = BufReader::with_capacity(STREAM_BUF, reader);
    std::thread::spawn(move || loop {
        let batch: Vec<_> = match transport::recv_batch(&mut reader) {
            Ok(frames) => frames.iter().map(|b| Ok(codec::decode::<C>(b)?)).collect(),
            Err(e) => vec![Err(e)],
        };
        let last = batch.iter().any(Result::is_err);
        if tx.send(batch).is_err() || last {
            break;
        }
    });

    let mut inbox = Inbox::new(rx);
    let mut out = FrameWriter::new(writer);
    let mut last_heard = Instant::now();
    let mut nonce = 0u64;
    let code = loop {
        // Flush before you block: while frames are waiting nothing is
        // written; what they gave rise to goes out in one piece, acked.
        let next = match inbox.ready() {
            Some(msg) => Ok(msg),
            None => {
                node.flush(&mut out)?;
                inbox.wait(HEARTBEAT_EVERY)
            }
        };
        let frame = match next {
            Ok(Ok(f)) => f,
            Ok(Err(NetError::Closed)) => break 0,
            Ok(Err(_)) => break EXIT_FAILED,
            Err(RecvTimeoutError::Timeout) => {
                if last_heard.elapsed() > ORPHAN_DEADLINE {
                    break EXIT_ORPHANED;
                }
                nonce += 1;
                out.queue::<C>(&Frame::Heartbeat { nonce })?;
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break 0,
        };
        last_heard = Instant::now();
        if let Some(code) = node.handle(frame, &mut out)? {
            break code;
        }
    };
    // Flush before you exit: the one way out of the loop, so no goodbye
    // report, last event or ack is left pending behind an exit code.
    node.flush(&mut out)?;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{Database, Transaction};
    use gridmine_core::{RecoveryMode, RoundSchedule};
    use gridmine_paillier::MockCipher;
    use gridmine_topology::FaultPlan;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Resource `u` of a path `0 - 1 - 2`, each holding the same mix of
    /// transactions.
    fn spec(u: usize) -> NodeSpec {
        let adjacency = vec![vec![1], vec![0, 2], vec![1]];
        let db = (0..40u64)
            .map(|j| Transaction::of(u as u64 * 40 + j, if j % 4 == 0 { &[3] } else { &[1, 2] }))
            .collect();
        NodeSpec {
            session: 1,
            resource: u,
            cipher: "mock".into(),
            seed: 5,
            min_freq: (1, 2),
            min_conf: (1, 2),
            k: 1,
            rounds: 4,
            schedule: RoundSchedule::of(
                &FaultPlan::none(),
                u,
                adjacency[u].clone(),
                RecoveryMode::Disabled,
            ),
            adjacency,
            items: vec![1, 2, 3],
            db: Database::from_transactions(db),
            resume_tick: None,
            hub: String::new(),
            state_dir: String::new(),
            hostile: false,
            observed: false,
        }
    }

    /// A sink the test reads while a `FrameWriter` owns it.
    #[derive(Clone, Default)]
    struct Sink(Rc<RefCell<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_node_acks_once_per_flush_behind_everything_its_counters_gave_rise_to() {
        let specs: Vec<NodeSpec> = (0..3).map(spec).collect();
        let mut nodes: Vec<Node<MockCipher>> = specs.iter().map(Node::new).collect();
        // Wiring, as the hub relays it.
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let ct = nodes[u].machine.resource().share_for_neighbor(v);
            nodes[v].machine.resource_mut().store_share_from(u, ct);
        }
        // Resource 1 scans first; its sends go elsewhere. Then it is fed
        // what resource 0's scan mails it, all between two flushes.
        let Scan::Send { .. } = nodes[1].machine.scan(0) else { panic!("resource 1 is up") };
        let Scan::Send { msgs, .. } = nodes[0].machine.scan(0) else { panic!("resource 0 is up") };
        let k = msgs.len();
        assert!(k > 1 && msgs.iter().all(|m| m.to == 1), "{k} counters");
        let sink = Sink::default();
        let mut out = FrameWriter::new(sink.clone());
        for m in msgs {
            assert_eq!(nodes[1].handle(Frame::Counter(m), &mut out).expect("handled"), None);
        }
        nodes[1].flush(&mut out).expect("flush");

        let bytes = sink.0.borrow().clone();
        let mut wire = std::io::Cursor::new(bytes.as_slice());
        let mut written = Vec::new();
        while (wire.position() as usize) < bytes.len() {
            let frame = crate::frame::read_frame_bytes(&mut wire).expect("whole frames");
            written.push(codec::decode::<MockCipher>(&frame).expect("own frame"));
        }
        let acks: Vec<u32> = written
            .iter()
            .filter_map(|f| match f {
                Frame::Processed { n } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(acks, [k as u32], "one ack for the k counters");
        assert!(matches!(written.last(), Some(Frame::Processed { .. })), "the ack comes last");
        let consequent = written.iter().filter(|f| matches!(f, Frame::Counter(_))).count();
        assert!(consequent > 0, "resource 1 passed what it learned on to resource 2");

        // A flush with nothing handled since acks nothing.
        nodes[1].flush(&mut out).expect("flush");
        assert_eq!(sink.0.borrow().len(), bytes.len());
    }

    #[test]
    fn events_are_buffered_only_for_an_observed_session() {
        let (rec, buf) = node_recorder(false);
        assert!(!rec.enabled(), "an unobserved node runs on the null recorder");
        assert!(buf.is_none(), "and has nothing to forward");

        let (rec, buf) = node_recorder(true);
        assert!(rec.enabled());
        rec.record(&Event::RoundAdvanced { tick: 3 });
        let lines = buf.expect("an observed node forwards its buffer").drain();
        assert_eq!(lines, [Event::RoundAdvanced { tick: 3 }.to_json()]);
    }
}
