//! The traced run: the benchmark drives the grid itself, on one thread,
//! through the public resource API, with a span around every call into a
//! layer. It is the synchronous driver's loop (`MineSession::try_run`)
//! with the net codec and the checkpoint write path spliced in where the
//! workload has them.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gridmine::net::codec::{self, Frame, Tallies};
use gridmine::net::{transport, NetSession};
use gridmine::obs::KeyOpKind;
use gridmine::prelude::*;
use gridmine::secure::resource::wire_grid;
use gridmine::secure::session::DEFAULT_PAILLIER_BITS;
use gridmine::store::atomic_write_file;
use gridmine::topology::Overlay;

use crate::spans::{SpanRecorder, Tracer};
use crate::stats::{median, Better};
use crate::workloads::{
    find_node_binary, gate, run_session, setup, sim_session, Driver, Inputs, Workload,
    SIM_CANDIDATE_EVERY,
};

/// What the traced loop saw, next to its spans.
#[derive(Default)]
pub struct Traced {
    pub wall_s: f64,
    pub messages: u64,
    pub misses: Vec<String>,
    pub candidates_final: usize,
    pub frames: u64,
    pub frame_bytes: u64,
    pub image_bytes: u64,
    /// Sim workload: its build, timed apart from the run.
    pub sim_build_s: f64,
    pub topology_build_s: f64,
}

fn build_grid<C: HomCipher + 'static>(
    w: &Workload,
    inputs: &Inputs,
    keys: GridKeys<C>,
    rec: &SharedRecorder,
) -> Vec<SecureResource<C>> {
    let dbs = inputs.dbs();
    let tree = Tree::path(dbs.len());
    let cfg = w.mine_config(inputs.seed);
    let keys = keys.with_recorder(rec);
    let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
    let mut items: Vec<Item> = dbs.iter().flat_map(|d| d.item_domain()).collect();
    items.sort_unstable();
    items.dedup();
    let mut resources: Vec<SecureResource<C>> = dbs
        .iter()
        .cloned()
        .enumerate()
        .map(|(u, db)| {
            let mut r = SecureResource::new(
                u,
                &keys,
                tree.neighbors(u).collect(),
                db,
                cfg.k,
                generator,
                &items,
                cfg.seed ^ (u as u64).wrapping_mul(0x9E37_79B9),
            );
            r.set_recorder(rec.clone());
            r
        })
        .collect();
    wire_grid(&mut resources);
    resources
}

/// What a node process persists at a checkpoint: the recovery image, the
/// controller audits and its tallies, each through `atomic_write_file`.
fn persist<C: HomCipher>(
    tracer: &Tracer,
    dir: &Path,
    r: &SecureResource<C>,
    out: &mut Traced,
) -> Option<Vec<u8>> {
    let mut write = |name: &str, bytes: &[u8]| {
        let path = dir.join(format!("{}.{name}", r.id()));
        if let Err(e) = tracer.span("store.atomic_write", || atomic_write_file(&path, bytes)) {
            out.misses.push(format!("atomic_write_file {}: {e}", path.display()));
        }
    };
    let image = tracer.span("recovery.image_encode", || r.encode_recovery_image());
    if let Some(image) = &image {
        write("image", image);
    }
    let audits = tracer.span("recovery.image_encode", || {
        serde_json::to_string(&r.export_controller_audits()).unwrap_or_default()
    });
    write("audits", audits.as_bytes());
    let tallies = Tallies {
        msgs_sent: r.msgs_sent(),
        retries: r.retries_spent(),
        resends: r.resends_sent(),
        checkpoints: r.recovery_checkpoints(),
        replays: r.recovery_replays(),
        rejected: r.recovery_rejected(),
        exhausted: r.retry_exhausted(),
    };
    write("tallies", serde_json::to_string(&tallies).unwrap_or_default().as_bytes());
    image
}

/// The synchronous driver's loop over `w`'s grid, spans around every
/// call. Returns one in-flight message for the transport ping-pong.
fn traced_static<C: HomCipher + 'static>(
    w: &Workload,
    inputs: &Inputs,
    keys: GridKeys<C>,
    tracer: &Tracer,
    scratch: &Path,
) -> (Traced, Option<WireMsg<C>>) {
    let rec: SharedRecorder = Arc::new(SpanRecorder::new(tracer.clone()));
    let ckpt_dir = (w.driver == Driver::NetCheckpoint).then(|| scratch.join("traced-state"));
    let mut out = Traced::default();
    let mut sample: Option<WireMsg<C>> = None;
    let mut last_image: Option<Vec<u8>> = None;

    let t0 = Instant::now();
    let mut resources = tracer.span("session", || {
        let mut resources = tracer.span("core.build", || build_grid(w, inputs, keys, &rec));
        if ckpt_dir.is_some() {
            tracer.span("recovery.arm", || resources.iter_mut().for_each(|r| r.arm_recovery()));
        }

        let mut deliver = |resources: &mut Vec<SecureResource<C>>,
                           queue: &mut VecDeque<WireMsg<C>>,
                           out: &mut Traced| {
            while let Some(mut msg) = queue.pop_front() {
                out.messages += 1;
                if w.driver.is_net() {
                    let bytes =
                        tracer.span("net.codec.encode", || codec::encode(&Frame::Counter(msg)));
                    out.frames += 1;
                    out.frame_bytes += bytes.len() as u64;
                    msg = match tracer.span("net.codec.decode", || codec::decode::<C>(&bytes)) {
                        Ok(Frame::Counter(m)) => m,
                        other => {
                            out.misses.push(format!(
                                "a counter frame decoded to {:?}",
                                other.map(|_| "another frame kind")
                            ));
                            continue;
                        }
                    };
                    if sample.is_none() {
                        sample = Some(WireMsg::<C> {
                            from: msg.from,
                            to: msg.to,
                            cand: msg.cand.clone(),
                            counter: msg.counter.clone(),
                        });
                    }
                }
                let to = msg.to;
                queue.extend(tracer.span("core.on_receive", || resources[to].on_receive(&msg)));
            }
        };

        for round in 0..w.rounds {
            if let (Some(dir), true) = (&ckpt_dir, round > 0) {
                for r in resources.iter_mut() {
                    tracer.span("recovery.checkpoint", || r.take_checkpoint(round as u64));
                    if let Some(image) = persist(tracer, dir, r, &mut out) {
                        out.image_bytes = image.len() as u64;
                        if r.id() == 0 {
                            last_image = Some(image);
                        }
                    }
                }
            }
            let mut queue: VecDeque<WireMsg<C>> = VecDeque::new();
            for r in resources.iter_mut() {
                queue.extend(tracer.span("core.step", || r.step(usize::MAX)));
            }
            deliver(&mut resources, &mut queue, &mut out);
            for r in resources.iter_mut() {
                queue.extend(tracer.span("core.generate_candidates", || r.generate_candidates()));
            }
            deliver(&mut resources, &mut queue, &mut out);
            if resources.iter().any(|r| r.verdict().is_some()) {
                break;
            }
        }
        for r in resources.iter_mut() {
            tracer.span("core.refresh_outputs", || r.refresh_outputs());
        }
        resources
    });
    out.wall_s = t0.elapsed().as_secs_f64();

    // Off the session clock: check the loop mined what the drivers mine,
    // then time one restore of what it checkpointed.
    for r in &resources {
        if r.verdict().is_some() || r.degraded().is_some() {
            out.misses.push(format!("traced resource {} halted or degraded", r.id()));
        }
        if r.interim() != inputs.truth {
            out.misses.push(format!("traced resource {} missed the truth", r.id()));
        }
    }
    out.candidates_final = resources.iter().map(|r| r.candidate_count()).max().unwrap_or(0);
    if let Some(image) = &last_image {
        let r = &mut resources[0];
        r.crash_wipe();
        if !tracer.span("recovery.restore", || r.restore_from_image(image)) {
            out.misses.push("restore_from_image rejected its own image".to_string());
        }
    }
    (out, sample)
}

/// The sim workload's trace: spans around the build and around each
/// candidate cycle's worth of `run_event_driven`.
fn traced_sim(w: &Workload, inputs: &Inputs, tracer: &Tracer) -> Traced {
    let cfg = w.sim_config();
    let mut out = Traced::default();
    // The overlay alone, to split it out of the build it is part of.
    let t = Instant::now();
    std::hint::black_box(Overlay::barabasi(cfg.n_resources, cfg.ba_m, cfg.delay, cfg.seed));
    out.topology_build_s = t.elapsed().as_secs_f64();

    let session = sim_session(w, inputs, Arc::new(SpanRecorder::new(tracer.clone())));
    let t0 = Instant::now();
    tracer.span("session", || {
        let mut sim = match tracer.span("sim.build", || session.try_build()) {
            Ok(sim) => sim,
            Err(e) => {
                out.misses.push(e.to_string());
                return;
            }
        };
        out.sim_build_s = t0.elapsed().as_secs_f64();
        let mut left = w.rounds as u64;
        while left > 0 {
            let chunk = left.min(SIM_CANDIDATE_EVERY);
            tracer.span("sim.run", || sim.run_event_driven(chunk));
            left -= chunk;
        }
        tracer.span("sim.refresh_outputs", || sim.refresh_outputs());
        out.wall_s = t0.elapsed().as_secs_f64();
        out.messages = sim.total_msgs;
        out.candidates_final =
            (0..cfg.n_resources).map(|u| sim.resource(u).candidate_count()).max().unwrap_or(0);
        if !sim.verdicts.is_empty() {
            out.misses.push("a verdict on an honest simulated grid".to_string());
        }
    });
    out
}

/// Median round trip of one counter frame over a loopback TCP pair,
/// through `send_frame`/`recv_frame`, in microseconds.
fn frame_rtt_us<C: HomCipher>(msg: WireMsg<C>, trips: usize) -> Result<f64, String> {
    let io = |e: std::io::Error| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?.to_string();
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let (mut stream, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            while let Ok(frame) = transport::recv_frame::<C, _>(&mut stream) {
                transport::send_frame(&mut stream, &frame).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let (mut stream, _) =
            transport::dial(&addr, &RetryPolicy::DEFAULT).map_err(|e| e.to_string())?;
        let frame = Frame::Counter(msg);
        let mut rtts = Vec::with_capacity(trips);
        for _ in 0..trips {
            let t = Instant::now();
            transport::send_frame(&mut stream, &frame).map_err(|e| e.to_string())?;
            transport::recv_frame::<C, _>(&mut stream).map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(stream);
        echo.join().map_err(|_| "echo thread panicked".to_string())??;
        Ok(median(&rtts))
    })
}

/// A net session over empty partitions: process spawn, dial-in,
/// handshake, wiring and the phase barriers, with no counter to relay.
fn spawn_handshake_s(w: &Workload, seed: u64) -> Result<f64, String> {
    let session = NetSession::<MockCipher>::new(w.mine_config(seed))
        .with_databases(vec![Database::new(); w.resources])
        .with_node_binary(find_node_binary()?);
    let t = Instant::now();
    session.try_run().map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64())
}

/// Counts taken from the event log of one real-driver session.
#[derive(Default)]
struct EventCounts {
    events: u64,
    counters_sent: u64,
    counters_resent: u64,
    sfe_roundtrips: u64,
    wellformed_rejected: u64,
    checkpoints: u64,
    key_ops: [u64; 6],
}

fn count_events(events: &[Event]) -> EventCounts {
    let mut c = EventCounts { events: events.len() as u64, ..EventCounts::default() };
    for e in events {
        match e {
            Event::CounterSent { resend, .. } => {
                c.counters_sent += 1;
                c.counters_resent += u64::from(*resend);
            }
            Event::SfeAnswer { .. } => c.sfe_roundtrips += 1,
            Event::WellformednessRejected { .. } => c.wellformed_rejected += 1,
            Event::CheckpointTaken { .. } => c.checkpoints += 1,
            Event::KeyOp { op, .. } => c.key_ops[*op as usize] += 1,
            _ => {}
        }
    }
    c
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every per-layer metric, by name, with its unit. All of them are
/// reported on every workload; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("quest.generate_s", "s"),
    ("quest.partition_s", "s"),
    ("arm.truth_apriori_s", "s"),
    ("arm.truth_rules", "count"),
    ("paillier.keygen_s", "s"),
    ("paillier.encrypt_count", "count"),
    ("paillier.decrypt_count", "count"),
    ("paillier.rerandomize_count", "count"),
    ("paillier.batch_decrypt_count", "count"),
    ("paillier.multi_exp_count", "count"),
    ("paillier.modpow_count", "count"),
    ("paillier.busy_s", "s"),
    ("paillier.busy_share", "share"),
    ("paillier.us_per_counter", "us"),
    ("pool.threads", "count"),
    ("core.build_busy_s", "s"),
    ("core.step_busy_s", "s"),
    ("core.on_receive_busy_s", "s"),
    ("core.candidates_busy_s", "s"),
    ("core.refresh_busy_s", "s"),
    ("core.counters_sent", "count"),
    ("core.counters_resent", "count"),
    ("core.resend_share", "share"),
    ("core.sfe_roundtrips", "count"),
    ("core.wellformed_rejected", "count"),
    ("core.us_per_counter", "us"),
    ("majority.candidates_final", "count"),
    ("net.codec.encode_busy_s", "s"),
    ("net.codec.decode_busy_s", "s"),
    ("net.codec.frames", "count"),
    ("net.codec.bytes", "bytes"),
    ("net.codec.bytes_per_counter", "bytes"),
    ("net.transport.frame_rtt_us", "us"),
    ("net.hub.spawn_handshake_s", "s"),
    ("net.hub.overhead_s", "s"),
    ("store.atomic_writes", "count"),
    ("store.atomic_write_busy_s", "s"),
    ("store.fsync_us_p50", "us"),
    ("recovery.image_bytes", "bytes"),
    ("recovery.image_encode_busy_s", "s"),
    ("recovery.restore_busy_s", "s"),
    ("recovery.checkpoints", "count"),
    ("sim.build_s", "s"),
    ("topology.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.msgs", "count"),
    ("sim.resource_steps_per_s", "1/s"),
    ("sim.us_per_msg", "us"),
    ("sim.steps_to_90_recall", "count"),
    ("obs.events", "count"),
    ("obs.trace_overhead_share", "share"),
    ("driver.session_s", "s"),
    ("driver.traced_loop_s", "s"),
    ("driver.threaded_overhead_s", "s"),
    ("driver.msgs_per_resource", "count"),
    ("trace.attributed_share", "share"),
    ("trace.spans", "count"),
    ("gate.misses", "count"),
    ("setup.total_s", "s"),
    ("proc.peak_rss_mib", "MiB"),
];

/// Which way a per-layer metric improves: work done per second and the
/// share of the traced wall the spans account for go up; every time,
/// count and size goes down.
pub fn better(name: &str) -> Better {
    let higher = name.ends_with("_per_s") || name == "trace.attributed_share";
    if higher {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// What `trace_workload` returns.
pub struct TraceOutput {
    /// One value per `PER_LAYER` metric, in its order.
    pub values: Vec<(&'static str, f64)>,
    pub misses: Vec<String>,
    pub tracer: Tracer,
}

/// The traced pass of one workload: set-up with each stage timed, the
/// traced loop, one real session without a recorder and one with, and
/// the net probes. Returns every `PER_LAYER` metric, the gate misses,
/// and the spans.
pub fn trace_workload(w: &Workload, seed: u64, scratch: &Path) -> Result<TraceOutput, String> {
    let (inputs, st) = setup(w, seed, scratch)?;
    let tracer = Tracer::default();
    let mut rtt_us = 0.0;
    let traced = match w.driver {
        Driver::Sim => traced_sim(w, &inputs, &tracer),
        Driver::ThreadedPaillier => {
            let keys = GridKeys::paillier(DEFAULT_PAILLIER_BITS, seed);
            traced_static(w, &inputs, keys, &tracer, scratch).0
        }
        _ => {
            let (t, sample) = traced_static(w, &inputs, GridKeys::mock(seed), &tracer, scratch);
            if let (true, Some(msg)) = (w.driver.is_net(), sample) {
                rtt_us = frame_rtt_us::<MockCipher>(msg, 2000)?;
            }
            t
        }
    };
    let mut misses = traced.misses.clone();

    // The real driver, recorder off and then on: the first is the
    // session the traced loop is compared with, the second gives the
    // event counts, and their difference is what a recorder costs.
    let plain = run_session(w, &inputs, gridmine::obs::null())?;
    misses.extend(gate(w, &inputs, &plain, None));
    // Read before the event log below, the largest thing in the process.
    let peak_rss_mib = peak_rss_mib();
    let mem = MemoryRecorder::shared();
    let observed = run_session(w, &inputs, mem.clone())?;
    let counts = count_events(&mem.snapshot());

    let spawn_s = if w.driver.is_net() { spawn_handshake_s(w, seed)? } else { 0.0 };
    let steps_to_90 = if w.driver == Driver::Sim {
        sim_session(w, &inputs, gridmine::obs::null())
            .try_convergence(SIM_CANDIDATE_EVERY)
            .map_err(|e| e.to_string())?
            .step_at_90_recall
            .map_or(0.0, |s| s as f64)
    } else {
        0.0
    };

    let log = tracer.lock();
    let busy = log.busy();
    let self_s = |name: &str| busy.get(name).map_or(0.0, |b| b.self_s());
    let total_s = |name: &str| busy.get(name).map_or(0.0, |b| b.total_s());
    let count = |name: &str| busy.get(name).map_or(0.0, |b| b.count as f64);
    // Every span under the root is a call into a layer; the root's self
    // time is the loop's own queueing, which no layer owns.
    let session_total = total_s("session");
    let attributed = session_total - self_s("session");
    // Outermost key operations on the driving thread: crypto wall time.
    let paillier_busy: f64 = busy
        .iter()
        .filter(|(name, _)| name.starts_with("paillier."))
        .map(|(_, b)| b.self_s())
        .fold(0.0, |a, b| a + b);
    let writes_us: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "store.atomic_write")
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let msgs = traced.messages as f64;
    let core_busy = [
        "core.build",
        "core.step",
        "core.on_receive",
        "core.generate_candidates",
        "core.refresh_outputs",
    ]
    .iter()
    .map(|n| self_s(n))
    .sum::<f64>();
    let is_sim = w.driver == Driver::Sim;
    let is_threaded = matches!(w.driver, Driver::ThreadedMock | Driver::ThreadedPaillier);
    let key = |op: KeyOpKind| counts.key_ops[op as usize] as f64;

    let values: Vec<(&'static str, f64)> = vec![
        ("quest.generate_s", st.generate_s),
        ("quest.partition_s", st.partition_s),
        ("arm.truth_apriori_s", st.truth_s),
        ("arm.truth_rules", inputs.truth.len() as f64),
        ("paillier.keygen_s", st.keygen_s),
        ("paillier.encrypt_count", key(KeyOpKind::Encrypt)),
        ("paillier.decrypt_count", key(KeyOpKind::Decrypt)),
        ("paillier.rerandomize_count", key(KeyOpKind::Rerandomize)),
        ("paillier.batch_decrypt_count", key(KeyOpKind::BatchDecrypt)),
        ("paillier.multi_exp_count", key(KeyOpKind::MultiExp)),
        ("paillier.modpow_count", key(KeyOpKind::Modpow)),
        ("paillier.busy_s", paillier_busy),
        ("paillier.busy_share", per(paillier_busy, session_total)),
        ("paillier.us_per_counter", per(paillier_busy * 1e6, msgs)),
        ("pool.threads", rayon::current_num_threads() as f64),
        ("core.build_busy_s", self_s("core.build")),
        ("core.step_busy_s", self_s("core.step")),
        ("core.on_receive_busy_s", self_s("core.on_receive")),
        ("core.candidates_busy_s", self_s("core.generate_candidates")),
        ("core.refresh_busy_s", self_s("core.refresh_outputs")),
        ("core.counters_sent", counts.counters_sent as f64),
        ("core.counters_resent", counts.counters_resent as f64),
        ("core.resend_share", per(counts.counters_resent as f64, counts.counters_sent as f64)),
        ("core.sfe_roundtrips", counts.sfe_roundtrips as f64),
        ("core.wellformed_rejected", counts.wellformed_rejected as f64),
        ("core.us_per_counter", if is_sim { 0.0 } else { per(core_busy * 1e6, msgs) }),
        ("majority.candidates_final", traced.candidates_final as f64),
        ("net.codec.encode_busy_s", self_s("net.codec.encode")),
        ("net.codec.decode_busy_s", self_s("net.codec.decode")),
        ("net.codec.frames", traced.frames as f64),
        ("net.codec.bytes", traced.frame_bytes as f64),
        ("net.codec.bytes_per_counter", per(traced.frame_bytes as f64, traced.frames as f64)),
        ("net.transport.frame_rtt_us", rtt_us),
        ("net.hub.spawn_handshake_s", spawn_s),
        (
            "net.hub.overhead_s",
            if w.driver.is_net() { plain.wall_s - traced.wall_s - spawn_s } else { 0.0 },
        ),
        ("store.atomic_writes", count("store.atomic_write")),
        ("store.atomic_write_busy_s", self_s("store.atomic_write")),
        ("store.fsync_us_p50", if writes_us.is_empty() { 0.0 } else { median(&writes_us) }),
        ("recovery.image_bytes", traced.image_bytes as f64),
        ("recovery.image_encode_busy_s", self_s("recovery.image_encode")),
        ("recovery.restore_busy_s", self_s("recovery.restore")),
        (
            "recovery.checkpoints",
            if w.driver == Driver::NetCheckpoint { counts.checkpoints as f64 } else { 0.0 },
        ),
        ("sim.build_s", traced.sim_build_s),
        ("topology.build_s", traced.topology_build_s),
        ("sim.run_s", total_s("sim.run")),
        ("sim.msgs", if is_sim { msgs } else { 0.0 }),
        ("sim.resource_steps_per_s", per((w.resources * w.rounds) as f64, total_s("sim.run"))),
        ("sim.us_per_msg", if is_sim { per(total_s("sim.run") * 1e6, msgs) } else { 0.0 }),
        ("sim.steps_to_90_recall", steps_to_90),
        ("obs.events", counts.events as f64),
        ("obs.trace_overhead_share", per(observed.wall_s - plain.wall_s, plain.wall_s)),
        ("driver.session_s", plain.wall_s),
        ("driver.traced_loop_s", traced.wall_s),
        (
            "driver.threaded_overhead_s",
            if is_threaded { plain.wall_s - traced.wall_s } else { 0.0 },
        ),
        ("driver.msgs_per_resource", per(plain.messages as f64, w.resources as f64)),
        ("trace.attributed_share", per(attributed, session_total)),
        ("trace.spans", log.spans().len() as f64),
        ("gate.misses", misses.len() as f64),
        ("setup.total_s", st.total_s()),
        ("proc.peak_rss_mib", peak_rss_mib),
    ];
    drop(log);
    // In the order, and with exactly the names, `PER_LAYER` declares.
    let values = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = values.iter().find(|(n, _)| n == name);
            (*name, v.unwrap_or_else(|| panic!("per-layer metric {name} was not measured")).1)
        })
        .collect();
    Ok(TraceOutput { values, misses, tracer })
}
