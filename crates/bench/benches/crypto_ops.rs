//! Criterion micro-benchmarks of the cryptographic substrate: the cost of
//! everything §4.2 asks of an oblivious counter, across modulus sizes.
//!
//! Not a paper figure (the paper reports steps, not wall-clock), but the
//! ablation DESIGN.md calls out: it quantifies why the large-scale
//! simulations run on the mock cipher and what a real deployment pays per
//! message.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridmine_core::counter::CounterLayout;
use gridmine_core::{GridKeys, SecureCounter};
use gridmine_paillier::{HomCipher, Keypair, MockCipher};
use num_bigint::{BigUint, MontgomeryCtx, RandBigInt};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured modpow configuration in `BENCH_crypto.json`.
#[derive(serde::Serialize)]
struct KernelRow {
    bits: u64,
    montgomery_ns: u64,
    montgomery_cached_ctx_ns: u64,
    legacy_ns: u64,
    speedup: f64,
    speedup_cached_ctx: f64,
}

#[derive(serde::Serialize)]
struct CryptoReport {
    schema: &'static str,
    /// Best-of-N wall time per full modpow, legacy and Montgomery
    /// *interleaved in one process* so clock-frequency drift hits both
    /// sides equally.
    reps: usize,
    modpow: Vec<KernelRow>,
}

/// Interleaved best-of-`reps` of two closures: alternating A/B inside one
/// loop cancels the machine's run-to-run frequency drift, which on this
/// class of VM is larger than the effect being measured.
fn best_of_interleaved<A: FnMut() -> BigUint, B: FnMut() -> BigUint>(
    reps: usize,
    mut a: A,
    mut b: B,
) -> (Duration, Duration) {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(a());
        best_a = best_a.min(t.elapsed());
        let t = Instant::now();
        black_box(b());
        best_b = best_b.min(t.elapsed());
    }
    (best_a, best_b)
}

/// The tentpole measurement: Montgomery kernel vs the legacy
/// square-and-reduce modpow, at Paillier's working modulus sizes (n, n²
/// for 512/1024-bit keys). Criterion rows give the human-readable view;
/// the same data is re-measured interleaved and written to
/// `BENCH_crypto.json` at the repo root for CI to archive.
fn bench_modpow_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("modpow_kernel");
    group.sample_size(10);
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
    let reps = 15;
    let mut rows = Vec::new();
    for bits in [512u64, 1024, 2048] {
        let mut m = rng.gen_biguint(bits);
        m.set_bit(0, true);
        m.set_bit(bits - 1, true);
        let base = rng.gen_biguint(bits - 1);
        let e = rng.gen_biguint(bits - 1);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        // Bit-identity guard: the fast path must agree with the legacy
        // path on the exact operands being timed.
        assert_eq!(ctx.modpow(&base, &e), base.modpow_legacy(&e, &m));

        group.bench_with_input(BenchmarkId::new("montgomery", bits), &bits, |b, _| {
            b.iter(|| black_box(&base).modpow(black_box(&e), black_box(&m)))
        });
        group.bench_with_input(BenchmarkId::new("montgomery_cached_ctx", bits), &bits, |b, _| {
            b.iter(|| ctx.modpow(black_box(&base), black_box(&e)))
        });
        group.bench_with_input(BenchmarkId::new("legacy", bits), &bits, |b, _| {
            b.iter(|| black_box(&base).modpow_legacy(black_box(&e), black_box(&m)))
        });

        let (legacy, mont) =
            best_of_interleaved(reps, || base.modpow_legacy(&e, &m), || base.modpow(&e, &m));
        let (_, cached) =
            best_of_interleaved(reps, || base.modpow_legacy(&e, &m), || ctx.modpow(&base, &e));
        rows.push(KernelRow {
            bits,
            montgomery_ns: mont.as_nanos() as u64,
            montgomery_cached_ctx_ns: cached.as_nanos() as u64,
            legacy_ns: legacy.as_nanos() as u64,
            speedup: legacy.as_secs_f64() / mont.as_secs_f64(),
            speedup_cached_ctx: legacy.as_secs_f64() / cached.as_secs_f64(),
        });
    }
    group.finish();

    let report = CryptoReport { schema: "gridmine-bench-crypto-v1", reps, modpow: rows };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize crypto report");
    std::fs::write(path, body + "\n").expect("write BENCH_crypto.json");
    for r in &report.modpow {
        println!(
            "modpow {}-bit: montgomery {:.3} ms (cached-ctx {:.3} ms), legacy {:.3} ms — {:.2}x ({:.2}x cached)",
            r.bits,
            r.montgomery_ns as f64 / 1e6,
            r.montgomery_cached_ctx_ns as f64 / 1e6,
            r.legacy_ns as f64 / 1e6,
            r.speedup,
            r.speedup_cached_ctx
        );
    }
    println!("[written: {path}]");
}

fn bench_paillier_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier");
    for bits in [512u64, 1024, 2048] {
        let kp = Keypair::generate_with_seed(bits, 7);
        let (enc, dec) = (kp.encryptor(), kp.decryptor());
        let ct_a = enc.encrypt_i64(123_456);
        let ct_b = enc.encrypt_i64(-789);

        group.bench_with_input(BenchmarkId::new("encrypt", bits), &bits, |b, _| {
            b.iter(|| enc.encrypt_i64(black_box(42)))
        });
        group.bench_with_input(BenchmarkId::new("decrypt", bits), &bits, |b, _| {
            b.iter(|| dec.decrypt_i64(black_box(&ct_a)))
        });
        group.bench_with_input(BenchmarkId::new("add", bits), &bits, |b, _| {
            b.iter(|| enc.add(black_box(&ct_a), black_box(&ct_b)))
        });
        group.bench_with_input(BenchmarkId::new("scalar_mul", bits), &bits, |b, _| {
            b.iter(|| enc.scalar(black_box(1000), black_box(&ct_a)))
        });
        group.bench_with_input(BenchmarkId::new("rerandomize", bits), &bits, |b, _| {
            b.iter(|| enc.rerandomize(black_box(&ct_a)))
        });
    }
    group.finish();
}

fn bench_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_keygen");
    group.sample_size(10);
    for bits in [512u64, 1024] {
        let mut seed = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                seed += 1;
                Keypair::generate_with_seed(bits, seed)
            })
        });
    }
    group.finish();
}

fn bench_secure_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("secure_counter");
    // The protocol's message unit at a typical tree degree (3).
    let layout = CounterLayout::new(0, vec![1, 2, 3]);

    {
        let keys = GridKeys::paillier(1024, 3);
        let key = keys.tags.key(layout.arity());
        let a = SecureCounter::seal_local(&keys.enc, &key, &layout, 10, 20, 1, 99, 1);
        let b = SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, 5, 9, 1, 50, 2).unwrap();
        group.bench_function("seal/paillier-1024", |bch| {
            bch.iter(|| SecureCounter::seal_local(&keys.enc, &key, &layout, 10, 20, 1, 99, 1))
        });
        group.bench_function("aggregate/paillier-1024", |bch| {
            bch.iter(|| a.add(&keys.pub_ops, black_box(&b)))
        });
        group.bench_function("open/paillier-1024", |bch| {
            let agg = a.add(&keys.pub_ops, &b);
            bch.iter(|| agg.open(&keys.dec, &key).unwrap())
        });
        println!(
            "wire bytes at degree 3, 1024-bit keys: {} in {} ciphertexts",
            a.wire_bytes(),
            a.msg.fields.len() + 1
        );
    }
    {
        let keys = GridKeys::<MockCipher>::mock(3);
        let key = keys.tags.key(layout.arity());
        let a = SecureCounter::seal_local(&keys.enc, &key, &layout, 10, 20, 1, 99, 1);
        let b = SecureCounter::seal_outgoing(&keys.enc, &key, &layout, 1, 5, 9, 1, 50, 2).unwrap();
        group.bench_function("seal/mock", |bch| {
            bch.iter(|| SecureCounter::seal_local(&keys.enc, &key, &layout, 10, 20, 1, 99, 1))
        });
        group.bench_function("aggregate/mock", |bch| {
            bch.iter(|| a.add(&keys.pub_ops, black_box(&b)))
        });
        group.bench_function("open/mock", |bch| {
            let agg = a.add(&keys.pub_ops, &b);
            bch.iter(|| agg.open(&keys.dec, &key).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_modpow_kernel,
    bench_paillier_primitives,
    bench_keygen,
    bench_secure_counters
);
criterion_main!(benches);
