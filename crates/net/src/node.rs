//! One resource as one OS process.
//!
//! `run` hosts a single [`RoundMachine`] (accountant + broker +
//! controller under core's per-round policy) and peers with the hub over
//! loopback TCP: the hub's `PhaseStart` frames stand in for barriers,
//! `Processed` acks for the in-flight counter. What the resource does at
//! each tick is `gridmine_core::round`'s; this file owns the socket, the
//! frames, the exit codes, the heartbeat and when [`crate::state`] runs.
//!
//! The stream to the hub is coalesced ([`FrameWriter`]): everything one
//! inbound frame gives rise to — consequent counters, events, the
//! `Processed` ack — is queued in order, and the main loop **flushes
//! before it blocks**: it takes the next inbound frame without waiting
//! while there is one, and flushes only when the channel is empty, right
//! before `recv_timeout`. The other flush point is the loop's single
//! exit, so a goodbye report, a crash's last events or a final ack are
//! on the wire before the process ends, whatever the exit code.
//!
//! Events follow the session's recorder: when the hub has one
//! (`spec.observed`) the machine and keys record into a buffer that is
//! forwarded as `Frame::Obs`; when it has none they run on the null
//! recorder and no event is formatted, framed or sent.
//!
//! Crash-survival is process-level: at a scheduled crash tick the node
//! (its state already wiped by the machine) publishes one image under
//! `state_dir` — recovery log, controller audits, protocol tallies — and
//! **exits**. The hub respawns a fresh process at the recovery tick,
//! which warm-restarts from that file (`resume_tick` in its spec).

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, RecvTimeoutError, TryRecvError};
use gridmine_arm::{Item, Ratio};
use gridmine_core::{CounterLayout, RoundMachine, Scan, SecureResource, WireMsg};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{Event, Recorder, SharedRecorder};
use gridmine_paillier::HomCipher;

use crate::codec::{Frame, NodeReport, Phase};
use crate::error::NetError;
use crate::hub::NetCipher;
use crate::spec::NodeSpec;
use crate::state;
use crate::transport::{self, FrameWriter, HEARTBEAT_EVERY, STREAM_BUF};

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

impl<C: NetCipher> Node<'_, C> {
    /// Publishes the state file as of `tick`. A failure is never silent:
    /// the reason goes to stderr (inherited from the hub), and on an
    /// observed session also out as an
    /// [`Event::CheckpointPersistFailed`] with the next `queue_obs`.
    fn persist_or_report(&self, tick: u64) {
        let path = state::path(&self.spec.state_dir, self.spec.resource);
        if let Err(e) = state::publish(&path, &self.machine, tick) {
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

    fn queue_obs(&self, out: &mut FrameWriter<TcpStream>) -> Result<(), NetError> {
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
    fn queue_counters(
        &self,
        out: &mut FrameWriter<TcpStream>,
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
}

fn try_run<C: NetCipher>(spec: &NodeSpec) -> Result<i32, NetError> {
    let u = spec.resource;
    let (rec, rec_buf) = node_recorder(spec.observed);
    let keys = C::session_keys(spec.seed).with_recorder(&rec);
    let generator = CandidateGenerator::new(
        Ratio::new(spec.min_freq.0, spec.min_freq.1),
        Ratio::new(spec.min_conf.0, spec.min_conf.1),
    );
    let items: Vec<Item> = spec.items.iter().map(|&i| Item(i)).collect();
    let neighbors: Vec<usize> = spec.adjacency.get(u).cloned().unwrap_or_default();
    let seed = spec.seed ^ (u as u64).wrapping_mul(0x9E37_79B9);
    let mut resource = SecureResource::new(
        u,
        &keys,
        neighbors.clone(),
        spec.db.clone(),
        spec.k,
        generator,
        &items,
        seed,
    );
    for &v in &neighbors {
        let vn = spec.adjacency.get(v).cloned().unwrap_or_default();
        resource.set_neighbor_layout(v, CounterLayout::new(v, vn));
    }
    let machine = RoundMachine::new(resource, spec.schedule.clone(), rec);
    let mut node = Node { spec, machine, rec_buf };

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

    // Blocking reader thread; the main loop paces itself on the channel
    // so a read timeout can never split a frame mid-stream.
    let (tx, rx) = unbounded::<Result<Frame<C>, NetError>>();
    let mut reader = BufReader::with_capacity(STREAM_BUF, reader);
    std::thread::spawn(move || loop {
        let msg = transport::recv_frame::<C, _>(&mut reader);
        let stop = msg.is_err();
        if tx.send(msg).is_err() || stop {
            break;
        }
    });

    let mut out = FrameWriter::new(writer);
    let mut last_heard = Instant::now();
    let mut nonce = 0u64;
    let code = loop {
        // Flush before you block: while frames are waiting nothing is
        // written; what they gave rise to goes out in one piece once
        // the channel runs dry.
        let next = match rx.try_recv() {
            Ok(msg) => Ok(msg),
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {
                out.flush()?;
                rx.recv_timeout(HEARTBEAT_EVERY)
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

        match frame {
            Frame::PhaseStart { tick, phase: Phase::Wiring } => {
                let mut sent = 0u32;
                for &v in &neighbors {
                    let ct = node.machine.resource().share_for_neighbor(v);
                    out.queue::<C>(&Frame::Share { from: u as u32, to: v as u32, ct })?;
                    sent += 1;
                }
                node.queue_obs(&mut out)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Wiring, sent })?;
            }
            Frame::Share { from, to, ct } => {
                if to as usize == u {
                    node.machine.resource_mut().store_share_from(from as usize, ct);
                }
                out.queue::<C>(&Frame::Processed)?;
            }
            Frame::ShareResend { to } => {
                let ct = node.machine.resource().share_for_neighbor(to as usize);
                out.queue::<C>(&Frame::Share { from: u as u32, to, ct })?;
                out.queue::<C>(&Frame::Processed)?;
            }
            Frame::PhaseStart { tick, phase: Phase::Scan } => {
                let outs = match node.machine.scan(tick) {
                    // The hub sees the process exit; a successor may be
                    // respawned at the recovery tick.
                    Scan::Crash => {
                        node.persist_or_report(tick);
                        node.queue_obs(&mut out)?;
                        break EXIT_CRASHED;
                    }
                    Scan::Depart => {
                        node.queue_obs(&mut out)?;
                        out.queue(&node.report())?;
                        break 0;
                    }
                    Scan::Down => Vec::new(),
                    Scan::Send { msgs, checkpointed } => {
                        // A checkpoint is only worth its name if it
                        // survives a process kill.
                        if checkpointed {
                            node.persist_or_report(tick);
                        }
                        msgs
                    }
                };
                let sent = node.queue_counters(&mut out, outs)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Scan, sent })?;
            }
            Frame::PhaseStart { tick, phase: Phase::Candidate } => {
                let outs = node.machine.candidates();
                let sent = node.queue_counters(&mut out, outs)?;
                out.queue::<C>(&Frame::PhaseSent { tick, phase: Phase::Candidate, sent })?;
            }
            Frame::Counter(msg) => {
                // Consequent sends are queued *before* the ack, so the
                // hub's pending counter can never read zero while traffic
                // is still being produced (per-connection FIFO: queue
                // order is wire order).
                let outs = node.machine.receive(&msg);
                node.queue_counters(&mut out, outs)?;
                out.queue::<C>(&Frame::Processed)?;
            }
            Frame::Finish => {
                node.machine.finish(spec.rounds);
                node.queue_obs(&mut out)?;
                out.queue(&node.report())?;
                break 0;
            }
            Frame::HeartbeatAck { .. } => {}
            // Anything else from the hub is a protocol bug, not an
            // attack surface (the hub is trusted); ignore it.
            _ => {}
        }
    };
    // Flush before you exit: the one way out of the loop, so no goodbye
    // report, last event or ack is left pending behind an exit code.
    out.flush()?;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

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
