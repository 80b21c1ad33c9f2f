//! The Paillier cipher proper: encryption, decryption and the key-free
//! homomorphic algebra (`A+`, `A−`, scalar multiplication, rerandomization).
//!
//! Plaintexts are signed 64-bit integers embedded into `Z_n` with the
//! standard shifting convention the paper mentions: a residue above `n/2`
//! decodes as negative. Counters in the protocol are far below 2⁶³ so the
//! embedding is always unambiguous.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gridmine_obs::{Event, KeyOpKind, SharedRecorder};
use num_bigint::{BigInt, BigUint, FixedBaseTable, MontgomeryCtx, RandBigInt, Sign};
use num_traits::One;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;

use crate::keys::{mod_inverse, PrivateKey, PublicKey};
use crate::{CipherError, HomCipher, Shape, SlotError, SlotLayout};

/// Cap on how many noise factors (`rⁿ mod n²`) one refill precomputes.
/// Refills start at a single factor and double per refill, so a handle
/// that encrypts once pays for one exponentiation while heavy users
/// quickly amortize whole batches through one warm Montgomery context.
const NOISE_BATCH: usize = 32;

/// Locks a mutex, recovering the guard when a sibling thread panicked
/// while holding it. Every mutex in this handle protects state that is
/// valid between any two operations (a pool of finished factors, an RNG
/// whose words are drawn whole), so poisoning carries no torn-state risk
/// — and propagating it would turn one panicking worker thread into a
/// denial of service against every clone of the handle.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared pool of precomputed encryption noise plus its adaptive
/// refill size.
#[derive(Default)]
struct NoisePool {
    ready: Vec<BigUint>,
    refills: u32,
    /// Factors racing clones are computing right now. Refill sizing
    /// subtracts this, so concurrent refills top the pool up to
    /// [`NOISE_BATCH`] instead of multiplying the work per racer.
    in_flight: usize,
    /// Fixed-base windowed table over `h = r₀ⁿ mod n²`, built on the
    /// first refill. Subsequent noise factors are `h^σ` for fresh
    /// `σ < n` — each a valid noise term (`h^σ = (r₀^σ)ⁿ` and `r₀^σ` is
    /// a unit) at windowed-multiply cost instead of a full
    /// exponentiation. `None` until first use, or when no Montgomery
    /// context exists for `n²`.
    table: Option<Arc<FixedBaseTable>>,
}

/// Redacting `Debug`: the table is derived from secret randomness and
/// the banked factors blind future ciphertexts.
impl std::fmt::Debug for NoisePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoisePool")
            .field("ready", &self.ready.len())
            .field("refills", &self.refills)
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

/// Montgomery contexts derived once per handle from the key material, so
/// the hot-path exponentiations (`encrypt_residue`, CRT decryption,
/// `scalar_raw`, noise refills) stop re-deriving `n'` and `R² mod n` per
/// call. Kept outside [`PublicKey`] (which is `Eq`) and shared across
/// clones of the handle. Not `Debug`: the `p²`/`q²` contexts embed the
/// private factorization.
struct MontCache {
    /// Context for the ciphertext modulus `n²` (always odd: `p`, `q` odd).
    n2: Option<MontgomeryCtx>,
    /// Context for `p²` (CRT decryption), when the private key carries it.
    p2: Option<MontgomeryCtx>,
    /// Context for `q²` (CRT decryption), when the private key carries it.
    q2: Option<MontgomeryCtx>,
}

impl MontCache {
    fn build(pk: &PublicKey, sk: Option<&PrivateKey>) -> Self {
        let crt = sk.and_then(|sk| sk.crt.as_ref());
        MontCache {
            n2: MontgomeryCtx::new(&pk.n2),
            p2: crt.and_then(|c| MontgomeryCtx::new(&c.p2)),
            q2: crt.and_then(|c| MontgomeryCtx::new(&c.q2)),
        }
    }
}

/// The handle's observability sink. `Arc<dyn Recorder>` is neither
/// `Debug` nor comparable, so it lives behind this newtype to keep
/// `PaillierCtx`'s derives.
#[derive(Clone)]
struct RecorderHandle(SharedRecorder);

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecorderHandle(enabled: {})", self.0.enabled())
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle(gridmine_obs::null())
    }
}

/// A Paillier ciphertext: an element of `Z_{n²}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ciphertext(pub(crate) BigUint);

impl serde::Serialize for Ciphertext {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.0.to_bytes_be(), s)
    }
}

impl<'de> serde::Deserialize<'de> for Ciphertext {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(d)?;
        Ok(Ciphertext(BigUint::from_bytes_be(&bytes)))
    }
}

impl Ciphertext {
    /// Raw residue (for serialization / size accounting).
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Decodes wire bytes into a ciphertext — the same thing the serde
    /// path does. Performs **no** validation: any big-endian byte string
    /// is accepted, exactly as an honest peer must accept whatever a
    /// hostile one mails. Screen with [`HomCipher::is_wellformed`] before
    /// trusting the result.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        Ciphertext(BigUint::from_bytes_be(bytes))
    }

    /// Serialized size in bytes (used by the simulator's bandwidth model).
    pub fn byte_len(&self) -> usize {
        (self.0.bits() as usize).div_ceil(8)
    }
}

/// A capability handle over a Paillier keypair.
///
/// * accountants get a handle with no private key (encrypt + algebra),
/// * controllers get one with the private key (everything),
/// * brokers get one with no private key and, by protocol contract, only
///   ever call the algebra.
///
/// The handle owns a seeded RNG behind a mutex so that `&self` methods can
/// draw randomness; contention is negligible because each protocol entity
/// owns its own handle.
#[derive(Clone)]
pub struct PaillierCtx {
    pk: Arc<PublicKey>,
    sk: Option<Arc<PrivateKey>>,
    rng: Arc<Mutex<ChaCha12Rng>>,
    mont: Arc<MontCache>,
    /// Precomputed encryption noise factors `rⁿ mod n²`, refilled in
    /// batches so `encrypt_residue` / `rerandomize` are a single modular
    /// multiply on the hot path. Shared across clones (like the RNG).
    noise: Arc<Mutex<NoisePool>>,
    /// Observability sink for `Event::KeyOp` timings; `NullRecorder` by
    /// default, in which case the timing instrumentation is skipped.
    rec: RecorderHandle,
}

/// Redacting `Debug`: names the capability, never the key material
/// (`PrivateKey` itself is unformattable by design).
// gridlint: allow(taint-flow) -- this IS the redacting impl: it prints modulus bits and a decrypt-capability flag only; PrivateKey itself derives no formatting traits
impl std::fmt::Debug for PaillierCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaillierCtx")
            .field("bits", &self.pk.bits())
            .field("can_decrypt", &self.sk.is_some())
            .finish_non_exhaustive()
    }
}

impl PaillierCtx {
    pub(crate) fn new(pk: PublicKey, sk: Option<PrivateKey>, seed: u64) -> Self {
        let mont = MontCache::build(&pk, sk.as_ref());
        PaillierCtx {
            pk: Arc::new(pk),
            sk: sk.map(Arc::new),
            rng: Arc::new(Mutex::new(ChaCha12Rng::seed_from_u64(seed))),
            mont: Arc::new(mont),
            noise: Arc::new(Mutex::new(NoisePool::default())),
            rec: RecorderHandle::default(),
        }
    }

    /// Run `f` under a `KeyOp` timing when a recorder is attached; with
    /// the default `NullRecorder` this is one branch, no clock read.
    #[inline]
    fn timed<T>(&self, op: KeyOpKind, f: impl FnOnce() -> T) -> T {
        if !self.rec.0.enabled() {
            return f();
        }
        // gridlint: allow(determinism) -- KeyOp latency telemetry only; the measured nanos feed the recorder and never protocol state, so replay stays byte-identical
        let start = std::time::Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        self.rec.0.record(&Event::KeyOp { op, nanos });
        out
    }

    /// `base^exp mod n²` through the cached Montgomery context.
    fn powmod_n2(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.timed(KeyOpKind::Modpow, || match &self.mont.n2 {
            Some(ctx) => ctx.modpow(base, exp),
            None => base.modpow(exp, &self.pk.n2),
        })
    }

    /// Builds the fixed-base noise table: one full exponentiation
    /// `h = r₀ⁿ mod n²` for a fresh unit `r₀`, then windowed
    /// precomputation for `h` sized to exponents below `n`. Every later
    /// noise factor is `h^σ` for a fresh secret `σ < n` — the standard
    /// fixed-base speedup, whose noise ranges over the subgroup `⟨r₀ⁿ⟩`
    /// instead of all n-th residues (the usual trade accepted for
    /// precomputed Paillier randomizers).
    fn build_noise_table(&self) -> Option<Arc<FixedBaseTable>> {
        let ctx = self.mont.n2.as_ref()?;
        let r0 = self.sample_unit();
        let h = self.powmod_n2(&r0, &self.pk.n);
        Some(Arc::new(ctx.fixed_base(&h, self.pk.n.bits())))
    }

    /// Pops a precomputed noise factor `rⁿ mod n²`, refilling the shared
    /// pool in batch when it runs dry.
    fn next_noise(&self) -> BigUint {
        let (batch_size, table) = {
            let mut pool = lock(&self.noise);
            if let Some(rn) = pool.ready.pop() {
                return rn;
            }
            let want = (1usize << pool.refills.min(16)).min(NOISE_BATCH);
            pool.refills += 1;
            // Racing clones shrink their refill by whatever is already
            // being computed, so a refill storm tops the pool up once
            // instead of once per racer.
            let size = want.saturating_sub(pool.in_flight).max(1);
            pool.in_flight += size;
            if pool.table.is_none() {
                // One-time, under the pool lock on purpose: racing clones
                // would otherwise each pay the full `r₀ⁿ` exponentiation.
                pool.table = self.build_noise_table();
            }
            (size, pool.table.clone())
        };
        // Refill outside the pool lock: the exponentiations dominate and
        // must not serialize other clones popping banked factors.
        let mut batch: Vec<BigUint> = match &table {
            Some(t) => {
                // σ draws come out of the shared RNG sequentially (one
                // lock, fixed order) so replays under a seed stay
                // byte-identical no matter how the evaluation below is
                // scheduled across the pool.
                let sigmas: Vec<BigUint> = {
                    let mut rng = lock(&self.rng);
                    (0..batch_size).map(|_| rng.gen_biguint_below(&self.pk.n)).collect()
                };
                sigmas.par_iter().map(|s| self.timed(KeyOpKind::Modpow, || t.pow(s))).collect()
            }
            None => (0..batch_size)
                .map(|_| {
                    let r = self.sample_unit();
                    self.powmod_n2(&r, &self.pk.n)
                })
                .collect(),
        };
        let out = batch.pop().expect("batch is non-empty");
        let mut pool = lock(&self.noise);
        pool.in_flight = pool.in_flight.saturating_sub(batch_size);
        // Bank at most what the pool has room for; racing refills that
        // both completed must not balloon `ready` past NOISE_BATCH.
        let room = NOISE_BATCH.saturating_sub(pool.ready.len());
        batch.truncate(room);
        pool.ready.append(&mut batch);
        out
    }

    /// The public key this handle operates under.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// Encode a signed integer into `Z_n` (shifting convention).
    fn encode(&self, m: i64) -> BigUint {
        if m >= 0 {
            BigUint::from(m as u64)
        } else {
            &self.pk.n - BigUint::from(m.unsigned_abs())
        }
    }

    /// Decode a `Z_n` residue back to a signed integer.
    ///
    /// Total, even on hostile inputs: a magnitude that does not fit an
    /// `i64` (a corrupted or overflowed counter — honest counters are far
    /// below 2⁶³) folds deterministically to its low 63 bits instead of
    /// panicking, so the caller's tag check rejects it as malicious rather
    /// than the decrypting process aborting.
    fn decode(&self, m: BigUint) -> i64 {
        use num_traits::ToPrimitive;
        fn fold(m: &BigUint) -> i64 {
            m.to_i64().unwrap_or_else(|| {
                let bytes = m.to_bytes_be();
                let mut buf = [0u8; 8];
                let tail = &bytes[bytes.len().saturating_sub(8)..];
                buf[8 - tail.len()..].copy_from_slice(tail);
                (u64::from_be_bytes(buf) >> 1) as i64
            })
        }
        if m > self.pk.half_n {
            let neg = &self.pk.n - m;
            -fold(&neg)
        } else {
            fold(&m)
        }
    }

    /// Draws a unit `r ∈ Z_n*` for encryption randomness.
    fn sample_unit(&self) -> BigUint {
        use num_integer::Integer;
        let mut rng = lock(&self.rng);
        loop {
            let r = rng.gen_biguint_range(&BigUint::one(), &self.pk.n);
            if r.gcd(&self.pk.n).is_one() {
                return r;
            }
        }
    }

    /// Encrypts an arbitrary `Z_n` residue (used by the slot-vector layer,
    /// whose packed plaintexts exceed 64 bits). An unreduced input is
    /// reduced mod `n` explicitly — a `debug_assert!` here used to let
    /// release builds silently wrap to the wrong residue; callers that
    /// want out-of-range inputs rejected use
    /// [`PaillierCtx::try_encrypt_residue`].
    pub fn encrypt_residue(&self, m: &BigUint) -> Ciphertext {
        self.timed(KeyOpKind::Encrypt, || {
            let reduced;
            let m = if m < &self.pk.n {
                m
            } else {
                reduced = m % &self.pk.n;
                &reduced
            };
            // (1 + m·n) · rⁿ mod n²  — the g = n+1 shortcut, with the noise
            // factor rⁿ drawn precomputed from the pool.
            let gm = (BigUint::one() + m * &self.pk.n) % &self.pk.n2;
            Ciphertext(gm * self.next_noise() % &self.pk.n2)
        })
    }

    /// Strict variant of [`PaillierCtx::encrypt_residue`]: errors on a
    /// plaintext not already reduced below `n` instead of reducing it.
    pub fn try_encrypt_residue(&self, m: &BigUint) -> Result<Ciphertext, CipherError> {
        if m >= &self.pk.n {
            return Err(CipherError::PlaintextOutOfRange);
        }
        Ok(self.encrypt_residue(m))
    }

    /// Decrypts to the raw `Z_n` residue. Uses CRT (mod p² and q²
    /// separately) when the private key carries the precomputation —
    /// roughly 4× cheaper than the direct mod-n² exponentiation.
    ///
    /// # Panics
    /// Panics if this handle has no private key.
    pub fn decrypt_residue(&self, c: &Ciphertext) -> BigUint {
        self.timed(KeyOpKind::Decrypt, || self.decrypt_residue_inner(c))
    }

    fn decrypt_residue_inner(&self, c: &Ciphertext) -> BigUint {
        let sk = self
            .sk
            .as_ref()
            .expect("this handle has no decryption capability (broker/accountant side)");
        if let Some(crt) = &sk.crt {
            // m mod p = L_p(c^{p−1} mod p²) · hp mod p; likewise mod q,
            // each exponentiation through its cached Montgomery context.
            let cp = match &self.mont.p2 {
                Some(ctx) => ctx.modpow(&c.0, &(&crt.p - 1u32)),
                None => (&c.0 % &crt.p2).modpow(&(&crt.p - 1u32), &crt.p2),
            };
            let cq = match &self.mont.q2 {
                Some(ctx) => ctx.modpow(&c.0, &(&crt.q - 1u32)),
                None => (&c.0 % &crt.q2).modpow(&(&crt.q - 1u32), &crt.q2),
            };
            let mp = ((cp - BigUint::one()) / &crt.p) % &crt.p * &crt.hp % &crt.p;
            let mq = ((cq - BigUint::one()) / &crt.q) % &crt.q * &crt.hq % &crt.q;
            // Garner recombination: m = mp + p·((mq − mp)·p⁻¹ mod q).
            let diff = if mq >= mp { &mq - &mp } else { &crt.q - ((&mp - &mq) % &crt.q) % &crt.q };
            let t = diff % &crt.q * &crt.p_inv_q % &crt.q;
            (mp + &crt.p * t) % &self.pk.n
        } else {
            let u = self.powmod_n2(&c.0, &sk.lambda);
            // L(u) = (u - 1) / n
            let l = (u - BigUint::one()) / &self.pk.n;
            l * &sk.mu % &self.pk.n
        }
    }

    /// Decrypts via the direct (non-CRT) path — reference implementation
    /// used by tests to cross-check the CRT fast path.
    pub fn decrypt_residue_slow(&self, c: &Ciphertext) -> BigUint {
        let sk = self
            .sk
            .as_ref()
            .expect("this handle has no decryption capability (broker/accountant side)");
        let u = c.0.modpow(&sk.lambda, &self.pk.n2);
        let l = (u - BigUint::one()) / &self.pk.n;
        l * &sk.mu % &self.pk.n
    }

    /// Homomorphic addition of raw ciphertexts: multiply mod n².
    pub fn add_raw(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(&a.0 * &b.0 % &self.pk.n2)
    }

    /// Homomorphic negation: modular inverse mod n².
    ///
    /// Errors with [`CipherError::NotAUnit`] when the input has no inverse
    /// — under the malicious-participant model a hostile peer can mail
    /// such a "ciphertext" (any multiple of `n` serializes fine), and an
    /// `expect` here let it crash honest processes.
    pub fn neg_raw(&self, a: &Ciphertext) -> Result<Ciphertext, CipherError> {
        mod_inverse(&a.0, &self.pk.n2).map(Ciphertext).ok_or(CipherError::NotAUnit)
    }

    /// Homomorphic scalar multiplication by an arbitrary-precision signed
    /// scalar: `c^k mod n²` (inverse first for negative `k`). Errors only
    /// on a malformed (non-unit) ciphertext with a negative scalar.
    pub fn scalar_raw(&self, k: &BigInt, c: &Ciphertext) -> Result<Ciphertext, CipherError> {
        let (sign, mag) = k.clone().into_parts();
        let base = if sign == Sign::Minus { self.neg_raw(c)?.0 } else { c.0.clone() };
        Ok(Ciphertext(self.powmod_n2(&base, &mag)))
    }
}

impl HomCipher for PaillierCtx {
    type Ct = Ciphertext;

    fn encrypt_i64(&self, m: i64) -> Ciphertext {
        let enc = self.encode(m);
        self.encrypt_residue(&enc)
    }

    fn decrypt_i64(&self, c: &Ciphertext) -> i64 {
        let m = self.decrypt_residue(c);
        self.decode(m)
    }

    /// At least one: [`crate::Keypair`] generates no modulus below 64 bits.
    fn slots_per_ct(&self) -> usize {
        crate::slots::side_band_capacity(self.pk.bits())
    }

    fn encrypt_slots(&self, values: &[u32], out: &mut Vec<Ciphertext>) {
        for chunk in values.chunks(self.slots_per_ct()) {
            let wide: Vec<u64> = chunk.iter().map(|&v| u64::from(v)).collect();
            let packed = SlotLayout::side_band(chunk.len())
                .pack(&wide)
                .expect("u32 values fit the 32-bit capacity of as many side-band slots");
            out.push(self.encrypt_residue(&packed));
        }
    }

    fn decrypt_wave(
        &self,
        cts: &[&Ciphertext],
        pattern: &[Shape],
    ) -> (Vec<i64>, Vec<(usize, SlotError)>) {
        let one = |(c, read): (&&Ciphertext, &Shape)| -> Result<Vec<i64>, (usize, SlotError)> {
            let m = self.timed(KeyOpKind::Decrypt, || self.decrypt_residue_inner(c));
            match *read {
                Shape::Signed => Ok(vec![self.decode(m)]),
                Shape::Slots(0) => Ok(Vec::new()),
                Shape::Slots(n) => match SlotLayout::side_band(n).unpack(&m) {
                    // A side-band slot is 44 bits wide: its value fits.
                    Ok(v) => Ok(v.values.into_iter().map(|x| x as i64).collect()),
                    Err(e) => Err((n, e)),
                },
            }
        };
        let wave: Vec<(&&Ciphertext, &Shape)> = cts.iter().zip(pattern.iter().cycle()).collect();
        let parts: Vec<Result<Vec<i64>, (usize, SlotError)>> = if wave.len() < 2 {
            wave.into_iter().map(one).collect()
        } else {
            // One batched pass: the CRT contexts are already cached on
            // the handle, so the whole wave fans across the worker pool
            // with zero per-element setup. Order-preserving by the pool's
            // contract, so results are bit-identical to the sequential
            // map.
            self.timed(KeyOpKind::BatchDecrypt, || wave.into_par_iter().map(one).collect())
        };
        let (mut values, mut refused) = (Vec::with_capacity(parts.len()), Vec::new());
        for (i, part) in parts.into_iter().enumerate() {
            match part {
                Ok(v) => values.extend(v),
                Err((n, e)) => {
                    refused.push((i, e));
                    values.extend(std::iter::repeat_n(0, n));
                }
            }
        }
        (values, refused)
    }

    fn verify_tags_batch(&self, tags: &[&Ciphertext], expected: &[i64]) -> bool {
        if tags.len() != expected.len() {
            return false;
        }
        // The RLC accumulator below bounds Σ ρᵢ·eᵢ inside i128 only for
        // sane batch sizes; a hostile arity beyond this cap (or a handle
        // without the n² context) just verifies sequentially.
        if tags.len() < 2 || tags.len() > 1 << 20 || self.mont.n2.is_none() {
            return tags.iter().zip(expected).all(|(t, &e)| self.decrypt_i64(t) == e);
        }
        // Random linear combination: with fresh 32-bit weights ρᵢ,
        //   D(∏ tᵢ^ρᵢ) = Σ ρᵢ·D(tᵢ)  (mod n),
        // so one Straus multi-exponentiation plus ONE decryption checks
        // all k tag relations at once, accepting a forgery only when the
        // weights hit a root of the nonzero difference — probability
        // < 2⁻³² per weight.
        let rhos: Vec<u64> = {
            let mut rng = lock(&self.rng);
            (0..tags.len()).map(|_| rng.gen_range(1u64..1 << 32)).collect()
        };
        let combined = self.timed(KeyOpKind::MultiExp, || {
            let rho_big: Vec<BigUint> = rhos.iter().map(|&r| BigUint::from(r)).collect();
            let pairs: Vec<(&BigUint, &BigUint)> =
                tags.iter().map(|t| &t.0).zip(rho_big.iter()).collect();
            match &self.mont.n2 {
                Some(ctx) => ctx.multi_modpow(&pairs),
                None => unreachable!("screened above"),
            }
        });
        let got = self.decrypt_residue(&Ciphertext(combined));
        // Σ ρᵢ·eᵢ over i128 (|e| < 2⁶³, ρ < 2³², k ≤ 2²⁰ ⇒ |Σ| < 2¹¹⁶),
        // then reduced into Z_n. Honest expectations sit far below n/2,
        // so mod-n equality coincides with the per-tag i64 comparison.
        let want: i128 = rhos.iter().zip(expected).map(|(&r, &e)| r as i128 * e as i128).sum();
        let want = if want >= 0 {
            BigUint::from(want as u128) % &self.pk.n
        } else {
            &self.pk.n - (BigUint::from(want.unsigned_abs()) % &self.pk.n)
        };
        got == want % &self.pk.n
    }

    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.add_raw(a, b)
    }

    fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.try_sub(a, b).expect("ciphertext is a unit mod n² (honest ciphertexts always are)")
    }

    fn try_sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CipherError> {
        Ok(self.add_raw(a, &self.neg_raw(b)?))
    }

    fn scalar(&self, m: i64, c: &Ciphertext) -> Ciphertext {
        self.try_scalar(m, c).expect("ciphertext is a unit mod n² (honest ciphertexts always are)")
    }

    fn try_scalar(&self, m: i64, c: &Ciphertext) -> Result<Ciphertext, CipherError> {
        self.scalar_raw(&BigInt::from(m), c)
    }

    fn is_wellformed(&self, c: &Ciphertext) -> bool {
        use num_integer::Integer;
        // A valid ciphertext is a reduced unit of Z_{n²}*; equivalently
        // gcd(c mod n, n) = 1 — one gcd, no key material needed.
        c.0 < self.pk.n2 && (&c.0 % &self.pk.n).gcd(&self.pk.n).is_one()
    }

    fn all_wellformed(&self, cts: &[&Ciphertext]) -> bool {
        use num_integer::Integer;
        // n = p·q with huge prime factors, so p | ∏(cᵢ mod n) iff
        // p | some cᵢ mod n: ONE gcd of the running product screens the
        // whole batch. Range checks stay per-element (they are cheap).
        if !cts.iter().all(|c| c.0 < self.pk.n2) {
            return false;
        }
        let mut prod = BigUint::one();
        for c in cts {
            prod = prod * (&c.0 % &self.pk.n) % &self.pk.n;
        }
        // An honest-all batch never hits 0; a zero product short-circuits
        // the gcd to n itself, which the unit test below rejects anyway.
        prod.gcd(&self.pk.n).is_one()
    }

    fn rerandomize(&self, c: &Ciphertext) -> Ciphertext {
        self.timed(KeyOpKind::Rerandomize, || Ciphertext(&c.0 * self.next_noise() % &self.pk.n2))
    }

    fn can_decrypt(&self) -> bool {
        self.sk.is_some()
    }

    fn with_recorder(mut self, rec: SharedRecorder) -> Self {
        self.rec = RecorderHandle(rec);
        self
    }

    fn ct_bytes(c: &Ciphertext) -> usize {
        c.byte_len()
    }

    fn ct_encode(c: &Ciphertext) -> Vec<u8> {
        c.0.to_bytes_be()
    }

    fn ct_decode(bytes: &[u8]) -> Option<Ciphertext> {
        // Canonical big-endian residue: no empty strings, no redundant
        // leading zeros (so decode∘encode is the identity and every
        // residue has exactly one wire form). Semantic screening is
        // `is_wellformed`'s job.
        if bytes.is_empty() || (bytes.len() > 1 && bytes.first() == Some(&0)) {
            return None;
        }
        Some(Ciphertext(BigUint::from_bytes_be(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;

    fn small_keys() -> Keypair {
        Keypair::generate_with_seed(256, 0xA11CE)
    }

    #[test]
    fn roundtrip_positive_and_negative() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        for m in [0i64, 1, -1, 42, -42, i64::MAX / 4, -(i64::MAX / 4)] {
            assert_eq!(d.decrypt_i64(&e.encrypt_i64(m)), m, "roundtrip {m}");
        }
    }

    #[test]
    fn encryption_is_probabilistic() {
        let kp = small_keys();
        let e = kp.encryptor();
        assert_ne!(e.encrypt_i64(5), e.encrypt_i64(5));
    }

    #[test]
    fn ct_bytes_round_trip_is_canonical() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let ct = e.encrypt_i64(123);
        let bytes = PaillierCtx::ct_encode(&ct);
        let back = PaillierCtx::ct_decode(&bytes).expect("canonical bytes decode");
        assert_eq!(back, ct);
        assert_eq!(d.decrypt_i64(&back), 123);
        assert_eq!(PaillierCtx::ct_decode(&[]), None, "empty");
        let mut padded = vec![0u8];
        padded.extend_from_slice(&bytes);
        assert_eq!(PaillierCtx::ct_decode(&padded), None, "redundant leading zero");
    }

    #[test]
    fn addition_subtraction_scalar() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let a = e.encrypt_i64(30);
        let b = e.encrypt_i64(-12);
        assert_eq!(d.decrypt_i64(&e.add(&a, &b)), 18);
        assert_eq!(d.decrypt_i64(&e.sub(&a, &b)), 42);
        assert_eq!(d.decrypt_i64(&e.scalar(3, &a)), 90);
        assert_eq!(d.decrypt_i64(&e.scalar(-3, &a)), -90);
        assert_eq!(d.decrypt_i64(&e.scalar(0, &a)), 0);
    }

    #[test]
    fn rerandomization_preserves_plaintext_changes_cipher() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let c = e.encrypt_i64(77);
        let r = e.rerandomize(&c);
        assert_ne!(c, r);
        assert_eq!(d.decrypt_i64(&r), 77);
    }

    #[test]
    fn broker_handle_cannot_decrypt() {
        let kp = small_keys();
        assert!(!kp.broker_handle().can_decrypt());
        assert!(kp.decryptor().can_decrypt());
    }

    #[test]
    #[should_panic(expected = "no decryption capability")]
    fn decrypt_without_key_panics() {
        let kp = small_keys();
        let e = kp.encryptor();
        let c = e.encrypt_i64(1);
        let _ = e.decrypt_i64(&c);
    }

    #[test]
    fn crt_decryption_matches_reference_path() {
        use num_bigint::RandBigInt;
        use rand::SeedableRng;
        let kp = Keypair::generate_with_seed(512, 0xC127);
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        for _ in 0..50 {
            let m = rng.gen_biguint_below(e.public_key().modulus());
            let c = e.encrypt_residue(&m);
            assert_eq!(d.decrypt_residue(&c), d.decrypt_residue_slow(&c));
            assert_eq!(d.decrypt_residue(&c), m);
        }
    }

    #[test]
    fn non_unit_ciphertext_is_an_error_not_a_panic() {
        let kp = small_keys();
        let e = kp.encryptor();
        // c = n is publicly craftable and gcd(n, n²) = n ≠ 1.
        let evil = Ciphertext::from_bytes_be(&e.public_key().modulus().to_bytes_be());
        assert_eq!(e.neg_raw(&evil), Err(CipherError::NotAUnit));
        let honest = e.encrypt_i64(1);
        assert_eq!(e.try_sub(&honest, &evil), Err(CipherError::NotAUnit));
        assert_eq!(e.try_scalar(-2, &evil), Err(CipherError::NotAUnit));
        // Non-negative scalars never invert, so they stay defined.
        assert!(e.try_scalar(2, &evil).is_ok());
        assert!(!e.is_wellformed(&evil));
        assert!(e.is_wellformed(&honest));
        // Unreduced residue (≥ n²) is malformed even when it is a unit.
        let unreduced = Ciphertext(honest.0.clone() + e.public_key().modulus_sq());
        assert!(!e.is_wellformed(&unreduced));
    }

    #[test]
    fn encrypt_residue_reduces_instead_of_wrapping() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let n = e.public_key().modulus().clone();
        let big = &n * BigUint::from(3u8) + BigUint::from(17u8); // ≡ 17 mod n
        let c = e.encrypt_residue(&big);
        assert_eq!(d.decrypt_residue(&c), BigUint::from(17u8));
        // The strict path refuses instead.
        assert_eq!(e.try_encrypt_residue(&big), Err(CipherError::PlaintextOutOfRange));
        assert_eq!(e.try_encrypt_residue(&n), Err(CipherError::PlaintextOutOfRange));
        let ok = e.try_encrypt_residue(&BigUint::from(17u8)).expect("in range");
        assert_eq!(d.decrypt_residue(&ok), BigUint::from(17u8));
    }

    #[test]
    fn decode_is_total_on_garbage_plaintexts() {
        // A unit ciphertext a hostile peer made up decrypts to a huge
        // residue; decode must fold it deterministically, not panic, so
        // the tag check gets to reject it.
        let kp = small_keys();
        let d = kp.decryptor();
        let evil = Ciphertext::from_bytes_be(&[0x7F; 60]); // some unit w.h.p.
        assert!(d.is_wellformed(&evil), "test premise: crafted value is a unit");
        let v1 = d.decrypt_i64(&evil);
        let v2 = d.decrypt_i64(&evil);
        assert_eq!(v1, v2, "fold is deterministic");
    }

    #[test]
    fn noise_pool_refills_across_clones() {
        let kp = small_keys();
        let e = kp.encryptor();
        let e2 = e.clone();
        // Drain more than one batch through two handles sharing the pool.
        let d = kp.decryptor();
        for i in 0..(2 * NOISE_BATCH as i64 + 3) {
            let c = if i % 2 == 0 { e.encrypt_i64(i) } else { e2.encrypt_i64(i) };
            assert_eq!(d.decrypt_i64(&c), i);
        }
    }

    #[test]
    fn attached_recorder_sees_timed_key_ops() {
        use gridmine_obs::{EventKind, MemoryRecorder};
        let kp = small_keys();
        let mem = MemoryRecorder::shared();
        let e = kp.encryptor().with_recorder(mem.clone());
        let d = kp.decryptor().with_recorder(mem.clone());
        let c = e.encrypt_i64(5);
        let r = e.rerandomize(&c);
        assert_eq!(d.decrypt_i64(&r), 5);
        let events = mem.snapshot();
        let count = |op: KeyOpKind| {
            events.iter().filter(|ev| matches!(ev, Event::KeyOp { op: o, .. } if *o == op)).count()
        };
        assert_eq!(count(KeyOpKind::Encrypt), 1);
        assert_eq!(count(KeyOpKind::Rerandomize), 1);
        assert_eq!(count(KeyOpKind::Decrypt), 1);
        // The noise refill inside encrypt runs r^n through the Montgomery
        // kernel, so at least one modpow timing must have been captured.
        assert!(mem.count_of(EventKind::KeyOp) >= 4);
        assert!(count(KeyOpKind::Modpow) >= 1);
    }

    #[test]
    fn batch_decrypt_matches_single_decrypts() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let plains: Vec<i64> = (-6i64..=6).map(|i| i * 1_000_003).collect();
        let cts: Vec<Ciphertext> = plains.iter().map(|&m| e.encrypt_i64(m)).collect();
        let refs: Vec<&Ciphertext> = cts.iter().collect();
        assert_eq!(d.decrypt_wave(&refs, &[Shape::Signed]), (plains.clone(), vec![]));
        assert_eq!(d.decrypt_wave(&[], &[Shape::Signed]), (vec![], vec![]));
        assert_eq!(d.decrypt_wave(&refs[..1], &[Shape::Signed]), (plains[..1].to_vec(), vec![]));
    }

    #[test]
    fn slot_tuples_spill_greedily_and_add_slotwise() {
        // 256-bit keys carry five slots: seven values spill to 5 + 2.
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        assert_eq!(e.slots_per_ct(), 5);
        let a = [1u32, 2, 3, u32::MAX, 5, 6, 7];
        let b = [10u32, 20, 30, u32::MAX, 50, 60, 70];
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        e.encrypt_slots(&a, &mut ca);
        e.encrypt_slots(&b, &mut cb);
        assert_eq!((ca.len(), cb.len()), (2, 2));
        let sum: Vec<Ciphertext> =
            ca.iter().zip(&cb).map(|(x, y)| e.rerandomize(&e.add(x, y))).collect();
        let signed = e.encrypt_i64(-9);
        // Two messages of one shape in one wave: the pattern repeats.
        let pattern = [Shape::Slots(5), Shape::Signed, Shape::Slots(2)];
        let wave = [&sum[0], &signed, &sum[1], &ca[0], &signed, &ca[1]];
        let want = vec![
            11,
            22,
            33,
            2 * i64::from(u32::MAX),
            55,
            -9,
            66,
            77,
            1,
            2,
            3,
            i64::from(u32::MAX),
            5,
            -9,
            6,
            7,
        ];
        assert_eq!(d.decrypt_wave(&wave, &pattern), (want, vec![]));
        // Read under the wrong width, or after a borrow, the same
        // ciphertexts are listed with their error — zeros in their
        // places, not a panic.
        let borrowed = e.sub(&ca[1], &cb[1]);
        assert_eq!(
            d.decrypt_wave(&[&sum[0], &ca[1], &borrowed], &[Shape::Slots(2)]),
            (
                vec![0, 0, 6, 7, 0, 0],
                vec![(0, SlotError::OutOfLayout), (2, SlotError::OutOfLayout)]
            )
        );
    }

    #[test]
    fn batched_tag_verification_accepts_honest_and_rejects_forged() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let expected = [40i64, -3, 0, 1 << 40, 7];
        let tags: Vec<Ciphertext> = expected.iter().map(|&m| e.encrypt_i64(m)).collect();
        let refs: Vec<&Ciphertext> = tags.iter().collect();
        assert!(d.verify_tags_batch(&refs, &expected));
        // One altered expectation breaks the whole batch.
        let mut off = expected;
        off[2] = 1;
        assert!(!d.verify_tags_batch(&refs, &off));
        // Length mismatch is a structural no.
        assert!(!d.verify_tags_batch(&refs, &expected[..4]));
        // Degenerate sizes take the sequential path and still agree.
        assert!(d.verify_tags_batch(&refs[..1], &expected[..1]));
        assert!(d.verify_tags_batch(&[], &[]));
    }

    #[test]
    fn batched_wellformedness_matches_per_ciphertext_screen() {
        let kp = small_keys();
        let e = kp.encryptor();
        let good: Vec<Ciphertext> = (0..4).map(|i| e.encrypt_i64(i)).collect();
        let refs: Vec<&Ciphertext> = good.iter().collect();
        assert!(e.all_wellformed(&refs));
        assert!(e.all_wellformed(&[]));
        // A multiple of n poisons the product gcd no matter where it sits.
        let evil = Ciphertext::from_bytes_be(&e.public_key().modulus().to_bytes_be());
        for pos in 0..=good.len() {
            let mut batch: Vec<&Ciphertext> = good.iter().collect();
            batch.insert(pos, &evil);
            assert!(!e.all_wellformed(&batch), "evil at {pos}");
        }
        // Unreduced (≥ n²) fails the range screen even though it is a unit.
        let unreduced = Ciphertext(good[0].0.clone() + e.public_key().modulus_sq());
        assert!(!e.all_wellformed(&[&good[1], &unreduced]));
    }

    #[test]
    fn racing_refills_top_up_instead_of_multiplying() {
        use gridmine_obs::MemoryRecorder;
        let kp = small_keys();
        let mem = MemoryRecorder::shared();
        let e = kp.encryptor().with_recorder(mem.clone());
        // Warm past the doubling ramp so every refill wants a full batch,
        // then drain whatever is banked.
        for i in 0..(2 * NOISE_BATCH as i64) {
            let _ = e.encrypt_i64(i);
        }
        while !lock(&e.noise).ready.is_empty() {
            let _ = e.encrypt_i64(0);
        }
        let modpows = |mem: &MemoryRecorder| {
            mem.snapshot()
                .iter()
                .filter(|ev| matches!(ev, Event::KeyOp { op: KeyOpKind::Modpow, .. }))
                .count()
        };
        let before = modpows(&mem);
        // Eight clones race refills on the empty pool. In-flight
        // accounting means one racer computes the full batch and each
        // other racer shrinks to a single factor — without it this storm
        // would cost 8·NOISE_BATCH exponentiations.
        let racers: Vec<_> = (0..8)
            .map(|i| {
                let h = e.clone();
                std::thread::spawn(move || {
                    let _ = h.encrypt_i64(i);
                })
            })
            .collect();
        for r in racers {
            r.join().expect("no racer panicked");
        }
        let added = modpows(&mem) - before;
        assert!(added <= NOISE_BATCH + 8, "refill work multiplied: {added} exponentiations");
        assert!(lock(&e.noise).ready.len() <= NOISE_BATCH, "pool overfilled");
    }

    #[test]
    fn sum_of_many_terms() {
        let kp = small_keys();
        let (e, d) = (kp.encryptor(), kp.decryptor());
        let mut acc = e.zero();
        let mut expect = 0i64;
        for i in -20i64..=20 {
            acc = e.add(&acc, &e.encrypt_i64(i * 7));
            expect += i * 7;
        }
        assert_eq!(d.decrypt_i64(&acc), expect);
    }
}
