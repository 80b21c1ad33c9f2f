//! **Throughput kernel round 2** — batched + parallel crypto rates.
//!
//! Where `crypto_ops` times one modular exponentiation, this bench times
//! the *wave*: how many secure counters per second the grid can seal and
//! open, and how many association rules per second a small grid mines at
//! the paper's T5I2 / T10I4 workload shapes. Three layers are measured:
//!
//! 1. micro — the batched kernels against their one-at-a-time
//!    equivalents (fixed-base tables, Straus multi-exponentiation,
//!    CRT batch decryption, random-linear-combination tag checks);
//! 2. wave — `SecureCounter::open_many` vs per-counter `open`, A/B'd
//!    between the parallel pool and `force_sequential` with the results
//!    asserted identical (determinism-under-seed);
//! 3. mining — end-to-end threaded sessions on T5I2 and T10I4
//!    partitions, reporting rules/sec and counters/sec.
//!
//! Results land in `BENCH_throughput.json` at the repo root for CI to
//! archive next to `BENCH_crypto.json` / `BENCH_wire.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gridmine_arm::Ratio;
use gridmine_bench::hr;
use gridmine_core::counter::CounterLayout;
use gridmine_core::{GridKeys, MineConfig, MineSession, SecureCounter};
use gridmine_paillier::{HomCipher, Keypair, PaillierCtx, Shape};
use gridmine_quest::QuestParams;
use num_bigint::{BigUint, MontgomeryCtx, RandBigInt};
use rand::SeedableRng;
use rayon::force_sequential;

/// One batched kernel vs its sequential equivalent.
#[derive(serde::Serialize)]
struct MicroRow {
    op: &'static str,
    bits: u64,
    batch: usize,
    sequential_ns: u64,
    batched_ns: u64,
    speedup: f64,
}

/// Counter-wave rates through the sealed-counter hot path.
#[derive(serde::Serialize)]
struct WaveRow {
    bits: u64,
    wave: usize,
    sealed_per_sec: f64,
    opened_per_sec_sequential: f64,
    opened_per_sec_batched: f64,
}

/// End-to-end mining throughput at a paper workload shape.
#[derive(serde::Serialize)]
struct MiningRow {
    workload: String,
    resources: usize,
    transactions: usize,
    rounds: usize,
    wall_ms_parallel: u64,
    wall_ms_sequential: u64,
    rules: usize,
    rules_per_sec: f64,
    messages: u64,
    counters_per_sec: f64,
}

#[derive(serde::Serialize)]
struct ThroughputReport {
    schema: &'static str,
    threads: usize,
    reps: usize,
    micro: Vec<MicroRow>,
    wave: Vec<WaveRow>,
    mining: Vec<MiningRow>,
}

/// Interleaved best-of-`reps` (same drift-cancelling idiom as
/// `crypto_ops`): alternating the sequential and batched closures inside
/// one loop keeps clock-frequency wander from biasing either side.
fn best_of_interleaved(
    reps: usize,
    mut seq: impl FnMut(),
    mut batched: impl FnMut(),
) -> (Duration, Duration) {
    let (mut best_s, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        seq();
        best_s = best_s.min(t.elapsed());
        let t = Instant::now();
        batched();
        best_b = best_b.min(t.elapsed());
    }
    (best_s, best_b)
}

fn micro_row(
    op: &'static str,
    bits: u64,
    batch: usize,
    reps: usize,
    seq: impl FnMut(),
    batched: impl FnMut(),
) -> MicroRow {
    let (s, b) = best_of_interleaved(reps, seq, batched);
    let row = MicroRow {
        op,
        bits,
        batch,
        sequential_ns: s.as_nanos() as u64,
        batched_ns: b.as_nanos() as u64,
        speedup: s.as_secs_f64() / b.as_secs_f64(),
    };
    println!(
        "{op:>14} ({bits}-bit, k={batch}): sequential {:.3} ms, batched {:.3} ms — {:.2}x",
        row.sequential_ns as f64 / 1e6,
        row.batched_ns as f64 / 1e6,
        row.speedup
    );
    row
}

/// The batched kernels against one-at-a-time loops over the same
/// operands, with bit-identity asserted before timing.
fn bench_micro(reps: usize) -> Vec<MicroRow> {
    hr("micro: batched kernels vs sequential equivalents");
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(11);
    let bits = 1024u64; // a 512-bit key's n² — the noise/tag working size
    let mut m = rng.gen_biguint(bits);
    m.set_bit(0, true);
    m.set_bit(bits - 1, true);
    let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
    let mut rows = Vec::new();

    // Fixed-base: one table amortized over a batch of exponents (the
    // noise pool's rⁿ shape).
    let base = rng.gen_biguint(bits - 1);
    let exps: Vec<BigUint> = (0..32).map(|_| rng.gen_biguint(bits - 1)).collect();
    let table = ctx.fixed_base(&base, bits);
    for e in &exps {
        assert_eq!(table.pow(e), ctx.modpow(&base, e), "fixed-base must be bit-identical");
    }
    rows.push(micro_row(
        "fixed_base",
        bits,
        exps.len(),
        reps,
        || {
            for e in &exps {
                black_box(ctx.modpow(black_box(&base), e));
            }
        },
        || {
            let t = ctx.fixed_base(&base, bits); // table build included
            for e in &exps {
                black_box(t.pow(e));
            }
        },
    ));

    // Straus multi-exponentiation: ∏ bᵢ^eᵢ in one pass (the batched tag
    // check's shape) vs k separate modpows multiplied together.
    let bases: Vec<BigUint> = (0..16).map(|_| rng.gen_biguint(bits - 1)).collect();
    let mexps: Vec<BigUint> = (0..16).map(|_| rng.gen_biguint(32)).collect();
    let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(mexps.iter()).collect();
    let naive = pairs.iter().fold(BigUint::from(1u32), |acc, (b, e)| acc * ctx.modpow(b, e) % &m);
    assert_eq!(ctx.multi_modpow(&pairs), naive, "multi-exp must be bit-identical");
    rows.push(micro_row(
        "multi_exp",
        bits,
        pairs.len(),
        reps,
        || {
            black_box(
                pairs.iter().fold(BigUint::from(1u32), |acc, (b, e)| acc * ctx.modpow(b, e) % &m),
            );
        },
        || {
            black_box(ctx.multi_modpow(&pairs));
        },
    ));

    // CRT batch decryption: one pass over the cached p²/q² contexts for
    // the whole wave vs a per-ciphertext loop.
    let kp = Keypair::generate_with_seed(512, 23);
    let enc = kp.encryptor();
    let dec = kp.decryptor();
    let plains: Vec<i64> = (0..32).map(|i| 1000 + i).collect();
    let cts: Vec<_> = plains.iter().map(|&v| enc.encrypt_i64(v)).collect();
    let refs: Vec<&_> = cts.iter().collect();
    assert_eq!(dec.decrypt_wave(&refs, &[Shape::Signed]).0, plains, "batch decrypt must agree");
    rows.push(micro_row(
        "batch_decrypt",
        512,
        refs.len(),
        reps,
        || {
            black_box(cts.iter().map(|c| dec.decrypt_i64(c)).collect::<Vec<_>>());
        },
        || {
            black_box(dec.decrypt_wave(&refs, &[Shape::Signed]));
        },
    ));

    // Random-linear-combination tag verification: one multi-exp + one
    // decryption for the whole wave vs one decryption per tag.
    let tag_refs = &refs;
    assert!(dec.verify_tags_batch(tag_refs, &plains), "honest tags must verify");
    rows.push(micro_row(
        "tag_verify",
        512,
        tag_refs.len(),
        reps,
        || {
            black_box(cts.iter().zip(&plains).all(|(c, &e)| dec.decrypt_i64(c) == e));
        },
        || {
            black_box(dec.verify_tags_batch(tag_refs, &plains));
        },
    ));
    rows
}

/// Seals a wave of counters and opens it both ways; the parallel and
/// sequential openings must agree exactly.
fn bench_wave(reps: usize) -> Vec<WaveRow> {
    hr("wave: counters sealed and opened per second");
    let bits = 512u64;
    let wave = 24usize;
    let keys = GridKeys::<PaillierCtx>::paillier(bits, 31);
    let layout = CounterLayout::new(0, vec![1, 2]);
    let key = keys.tags.key(layout.arity());

    let seal_wave = || -> Vec<SecureCounter<PaillierCtx>> {
        (0..wave as i64)
            .map(|i| SecureCounter::seal_local(&keys.enc, &key, &layout, i, 2 * i, 3, 1, i as u32))
            .collect()
    };
    let t = Instant::now();
    let counters = seal_wave();
    let seal_elapsed = t.elapsed();

    let refs: Vec<&SecureCounter<PaillierCtx>> = counters.iter().collect();
    force_sequential(true);
    let seq_opened: Vec<_> = counters.iter().map(|c| c.open(&keys.dec, &key)).collect();
    force_sequential(false);
    let batch_opened = SecureCounter::open_many(&keys.dec, &key, &refs);
    assert_eq!(
        seq_opened, batch_opened,
        "parallel batched opening must match sequential exactly (determinism-under-seed)"
    );

    let (seq, batched) = best_of_interleaved(
        reps,
        || {
            force_sequential(true);
            black_box(counters.iter().map(|c| c.open(&keys.dec, &key)).collect::<Vec<_>>());
            force_sequential(false);
        },
        || {
            black_box(SecureCounter::open_many(&keys.dec, &key, &refs));
        },
    );
    let row = WaveRow {
        bits,
        wave,
        sealed_per_sec: wave as f64 / seal_elapsed.as_secs_f64(),
        opened_per_sec_sequential: wave as f64 / seq.as_secs_f64(),
        opened_per_sec_batched: wave as f64 / batched.as_secs_f64(),
    };
    println!(
        "{bits}-bit wave of {wave}: sealed {:.1}/s, opened {:.1}/s sequential, {:.1}/s batched",
        row.sealed_per_sec, row.opened_per_sec_sequential, row.opened_per_sec_batched
    );
    vec![row]
}

/// End-to-end threaded mining at a workload shape; parallel and
/// forced-sequential runs must pin identical solutions and verdicts.
fn bench_mining() -> Vec<MiningRow> {
    hr("mining: rules/sec and counters/sec at T5I2 / T10I4");
    let shapes = [(QuestParams::t5i2(), 60, 25, 0.05), (QuestParams::t10i4(), 300, 100, 0.065)];
    let mut rows = Vec::new();
    for (params, n_items, n_patterns, freq) in shapes {
        let transactions = 2_000;
        let resources = 4;
        let rounds = 6;
        let params = params
            .with_transactions(transactions)
            .with_items(n_items)
            .with_patterns(n_patterns)
            .with_seed(42);
        let name = params.name();
        let global = gridmine_quest::generate(&params);
        let dbs = gridmine_quest::partition(&global, resources, 7);

        let mut cfg = MineConfig::new(Ratio::from_f64(freq), Ratio::from_f64(0.5));
        cfg.rounds = rounds;

        let run = |sequential: bool| {
            force_sequential(sequential);
            let t = Instant::now();
            let outcome = MineSession::new(cfg).with_databases(dbs.clone()).run_threaded();
            let wall = t.elapsed();
            force_sequential(false);
            (outcome, wall)
        };
        let (par, wall_par) = run(false);
        let (seq, wall_seq) = run(true);
        assert_eq!(
            par.solutions, seq.solutions,
            "parallel and sequential drivers must pin identical solutions"
        );
        assert_eq!(par.verdicts, seq.verdicts, "verdict parity across pool modes");

        let rules = par.solutions.first().map_or(0, |s| s.len());
        let row = MiningRow {
            workload: name,
            resources,
            transactions,
            rounds,
            wall_ms_parallel: wall_par.as_millis() as u64,
            wall_ms_sequential: wall_seq.as_millis() as u64,
            rules,
            rules_per_sec: rules as f64 / wall_par.as_secs_f64(),
            messages: par.messages,
            counters_per_sec: par.messages as f64 / wall_par.as_secs_f64(),
        };
        println!(
            "{}: {} rules in {} ms parallel / {} ms sequential — {:.1} rules/s, {:.1} counters/s",
            row.workload,
            row.rules,
            row.wall_ms_parallel,
            row.wall_ms_sequential,
            row.rules_per_sec,
            row.counters_per_sec
        );
        rows.push(row);
    }
    rows
}

fn main() {
    hr("Throughput kernel round 2: batched + parallel crypto");
    let threads = rayon::current_num_threads();
    println!("pool threads: {threads} (override with GRIDMINE_POOL_THREADS)");
    let reps = 5;

    let report = ThroughputReport {
        schema: "gridmine-bench-throughput-v1",
        threads,
        reps,
        micro: bench_micro(reps),
        wave: bench_wave(reps),
        mining: bench_mining(),
    };

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize throughput report");
    std::fs::write(path, body + "\n").expect("write BENCH_throughput.json");
    println!("\n[written: {path}]");
}
