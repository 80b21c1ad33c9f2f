//! Wire-codec micro-benchmarks: encode/decode throughput for the frame
//! kinds that dominate a real deployment, plus framed round-trip
//! latency over a loopback TCP socket pair.
//!
//! Not a paper figure — the paper's cost model counts protocol steps —
//! but the deployment question DESIGN.md's transport section raises:
//! how much of a phase's wall-clock goes to serialization versus the
//! network itself. Results land in `BENCH_wire.json` at the repo root
//! for CI to archive next to `BENCH_crypto.json`.

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_bench::hr;
use gridmine_core::{BrokerMsg, CounterLayout, GridKeys, SecureCounter, Verdict};
use gridmine_net::transport::{recv_frame, send_frame};
use gridmine_net::{codec, Frame, NodeReport, Tallies};
use gridmine_paillier::MockCipher;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// One measured frame kind in `BENCH_wire.json`.
#[derive(serde::Serialize)]
struct CodecRow {
    frame: &'static str,
    encoded_bytes: usize,
    encode_ns: u64,
    decode_ns: u64,
    encode_mib_s: f64,
    decode_mib_s: f64,
}

#[derive(serde::Serialize)]
struct RttRow {
    frame: &'static str,
    encoded_bytes: usize,
    /// Best observed round trip — the floor the loopback stack allows.
    best_ns: u64,
    /// Median round trip over all pings — the steady-state figure.
    median_ns: u64,
}

#[derive(serde::Serialize)]
struct WireReport {
    schema: &'static str,
    /// Best-of-N batches for codec timings; pings per frame for RTT.
    reps: usize,
    batch: usize,
    pings: usize,
    codec: Vec<CodecRow>,
    loopback_round_trip: Vec<RttRow>,
}

fn cand() -> CandidateRule {
    CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2, 3])), Ratio::new(1, 2))
}

/// The frame kinds worth measuring: the smallest supervision frame, the
/// protocol workhorse (a sealed counter) and a busy end-of-run report.
fn corpus() -> Vec<(&'static str, Frame<MockCipher>)> {
    let keys = GridKeys::<MockCipher>::mock(9);
    let layout = CounterLayout::new(0, vec![1, 2]);
    let counter: SecureCounter<MockCipher> = SecureCounter::seal_local(
        &keys.enc,
        &keys.tags.key(layout.arity()),
        &layout,
        5,
        9,
        1,
        7,
        3,
    );
    vec![
        ("heartbeat", Frame::Heartbeat { nonce: 7 }),
        ("counter", Frame::Counter(BrokerMsg { from: 0, to: 1, cand: cand(), counter })),
        (
            "report",
            Frame::Report(NodeReport {
                resource: 1,
                solutions: (0..16)
                    .map(|i| Rule::new(ItemSet::of(&[i, i + 1]), ItemSet::of(&[i + 2])))
                    .collect(),
                verdict: Some(Verdict::MaliciousResource(0)),
                degraded: None,
                tallies: Tallies { msgs_sent: 421, retries: 3, ..Tallies::default() },
            }),
        ),
    ]
}

/// Best-of-`reps` wall time for `batch` runs of a closure (batching
/// amortizes the timer's own cost for sub-microsecond operations).
fn best_of<F: FnMut()>(reps: usize, batch: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed());
    }
    best / batch as u32
}

fn mib_s(bytes: usize, per_op: Duration) -> f64 {
    bytes as f64 / per_op.as_secs_f64() / (1024.0 * 1024.0)
}

fn bench_codec(reps: usize, batch: usize) -> Vec<CodecRow> {
    hr("codec encode/decode");
    let mut rows = Vec::new();
    for (name, frame) in corpus() {
        let bytes = codec::encode(&frame);
        let enc = best_of(reps, batch, || {
            black_box(codec::encode(black_box(&frame)));
        });
        let dec = best_of(reps, batch, || {
            black_box(codec::decode::<MockCipher>(black_box(&bytes)).expect("own bytes"));
        });
        println!(
            "{name:>14}: {:>5} B  encode {:>7} ns ({:>8.1} MiB/s)  decode {:>7} ns ({:>8.1} MiB/s)",
            bytes.len(),
            enc.as_nanos(),
            mib_s(bytes.len(), enc),
            dec.as_nanos(),
            mib_s(bytes.len(), dec),
        );
        rows.push(CodecRow {
            frame: name,
            encoded_bytes: bytes.len(),
            encode_ns: enc.as_nanos() as u64,
            decode_ns: dec.as_nanos() as u64,
            encode_mib_s: mib_s(bytes.len(), enc),
            decode_mib_s: mib_s(bytes.len(), dec),
        });
    }
    rows
}

/// Round trip through a real loopback socket pair: an echo thread
/// `recv_frame`s and `send_frame`s back, the client times
/// send→receive. This is the per-message latency floor a phase barrier
/// pays, framing and checksum included.
fn bench_round_trip(pings: usize) -> Vec<RttRow> {
    hr("loopback round trip");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        while let Ok(f) = recv_frame::<MockCipher, _>(&mut stream) {
            if matches!(f, Frame::Finish) {
                break;
            }
            send_frame(&mut stream, &f).expect("echo");
        }
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");

    let mut rows = Vec::new();
    for (name, frame) in corpus() {
        let size = codec::encode(&frame).len();
        let mut samples = Vec::with_capacity(pings);
        for _ in 0..pings {
            let t = Instant::now();
            send_frame(&mut stream, &frame).expect("ping");
            black_box(recv_frame::<MockCipher, _>(&mut stream).expect("pong"));
            samples.push(t.elapsed());
        }
        samples.sort();
        let (best, median) = (samples[0], samples[pings / 2]);
        println!(
            "{name:>14}: {size:>5} B  best {:>7} ns  median {:>7} ns",
            best.as_nanos(),
            median.as_nanos(),
        );
        rows.push(RttRow {
            frame: name,
            encoded_bytes: size,
            best_ns: best.as_nanos() as u64,
            median_ns: median.as_nanos() as u64,
        });
    }
    send_frame(&mut stream, &Frame::<MockCipher>::Finish).expect("goodbye");
    echo.join().expect("echo thread");
    rows
}

fn main() {
    let (reps, batch, pings) = (15, 2000, 400);
    let report = WireReport {
        schema: "gridmine-bench-wire-v1",
        reps,
        batch,
        pings,
        codec: bench_codec(reps, batch),
        loopback_round_trip: bench_round_trip(pings),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize wire report");
    std::fs::write(path, body + "\n").expect("write BENCH_wire.json");
    println!("\nwrote {path}");
}
