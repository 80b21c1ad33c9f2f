//! Per-operation cost table of the Paillier cipher at 512, 1024 and 2048
//! bits: keygen, encrypt (public-key handle), decrypt (CRT), homomorphic
//! add, and a seal by the handle that holds the private key (whose noise
//! is evaluated mod p² and q²). Prints a markdown table; asserts nothing
//! about timings. Ignored by default because the 2048-bit keygens take
//! seconds. Run it single-threaded, as the recorded table was:
//!
//! ```text
//! GRIDMINE_POOL_THREADS=1 cargo test --release -p gridmine-paillier \
//!     --test op_costs -- --ignored --nocapture
//! ```
//!
//! Encryption columns are steady state: each handle is warmed past the
//! noise pool's one-time fixed-base table build and its refill ramp, then
//! timed over whole refills.

use std::time::{Duration, Instant};

use gridmine_paillier::{HomCipher, Keypair};

const KEYGENS: usize = 5;
const OPS: usize = 64;
const ADDS: usize = 2_000;

/// Mean wall time of `f` over `reps` calls.
fn mean(reps: usize, mut f: impl FnMut(usize)) -> Duration {
    let start = Instant::now();
    for i in 0..reps {
        f(i);
    }
    start.elapsed() / reps as u32
}

fn ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

#[test]
#[ignore = "prints the op-cost table; takes seconds at 2048 bits"]
fn print_op_cost_table() {
    println!("pool threads: {}", rayon::current_num_threads());
    println!("| modulus | keygen | encrypt | seal, key holder | decrypt (CRT) | add |");
    println!("|---|---|---|---|---|---|");
    for bits in [512u64, 1024, 2048] {
        let mut kp = None;
        let keygen = mean(KEYGENS, |i| {
            kp = Some(Keypair::generate_with_seed(bits, 0xC057 + i as u64));
        });
        let kp = kp.expect("KEYGENS is nonzero");
        let (enc, dec) = (kp.encryptor(), kp.decryptor());
        // Warm both handles: table build plus the refill doubling ramp.
        for m in 0..OPS as i64 {
            let _ = (enc.encrypt_i64(m), dec.encrypt_i64(m));
        }
        let encrypt = mean(OPS, |i| {
            let _ = enc.encrypt_i64(i as i64);
        });
        let seal = mean(OPS, |i| {
            let _ = dec.encrypt_i64(i as i64);
        });
        let cts: Vec<_> = (0..OPS as i64).map(|m| enc.encrypt_i64(m - 7)).collect();
        let decrypt = mean(OPS, |i| {
            assert_eq!(dec.decrypt_i64(&cts[i]), i as i64 - 7);
        });
        let add = mean(ADDS, |i| {
            let _ = enc.add(&cts[i % OPS], &cts[(i + 1) % OPS]);
        });
        println!(
            "| {bits} | {} | {} | {} | {} | {:.1} µs |",
            ms(keygen),
            ms(encrypt),
            ms(seal),
            ms(decrypt),
            add.as_secs_f64() * 1e6
        );
    }
}
