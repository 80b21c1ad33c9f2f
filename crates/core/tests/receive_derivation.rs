//! A receive costs one decryption. After neighbor `v`'s counter is
//! replaced, the broker's aggregate moved by that one term, and when the
//! ciphertexts say so (`full ⊕ recv_v_old = full_old ⊕ recv_v`) the
//! controller decrypts only the new `recv_v` and derives `full` as
//! `full_old − recv_v_old + recv_v`.
//!
//! * Over random runs of scan waves (a new local counter) and receive
//!   waves (a new counter from one neighbor), under 128-bit Paillier and
//!   the mock, every sealed payload is the test's own decryption of
//!   `full − recv_v`, no verdict appears, and a receive decrypts exactly
//!   one counter.
//! * A wave whose `full` did not move by one term — a double count, a
//!   `recv − full` forgery, a stale `recv_v` — opens `full` as well, and
//!   ends as a controller that opens everything ends: the same verdict,
//!   the same error, the same payload. So does a receive whose derived
//!   tuple is not what decryption returns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::counter::{CounterLayout, SecureCounter, F_NUM};
use gridmine_core::shares::SHARE_MODULUS;
use gridmine_core::{Controller, GridKeys, SendEdge, Verdict, WireMsg};
use gridmine_paillier::{HomCipher, MockCipher, ObliviousError, SlotError};
use proptest::prelude::*;

fn rule() -> CandidateRule {
    CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2))
}

/// `a + b`, as a broker sums them.
fn add<C: HomCipher>(cipher: &C, a: &SecureCounter<C>, b: &SecureCounter<C>) -> SecureCounter<C> {
    let mut sum = a.clone();
    assert!(sum.add_assign(cipher, b), "counters of one layout");
    sum
}

/// A cipher that counts the ciphertexts handed to its decryption waves —
/// what the controller decrypts of the counters it opens (the shares it
/// decrypts one at a time are not counted).
#[derive(Clone)]
struct Counting<C> {
    inner: C,
    opened: Arc<AtomicUsize>,
}

impl<C: HomCipher> HomCipher for Counting<C> {
    type Ct = C::Ct;

    fn encrypt_i64(&self, m: i64) -> C::Ct {
        self.inner.encrypt_i64(m)
    }

    fn decrypt_i64(&self, c: &C::Ct) -> i64 {
        self.inner.decrypt_i64(c)
    }

    fn slots_per_ct(&self) -> usize {
        self.inner.slots_per_ct()
    }

    fn encrypt_slots(&self, values: &[i64], tag: &[i64], out: &mut impl Extend<C::Ct>) {
        self.inner.encrypt_slots(values, tag, out)
    }

    fn decrypt_wave<'a>(
        &self,
        cts: impl Iterator<Item = &'a C::Ct>,
        len: usize,
        plains: &mut Vec<i64>,
        refused: &mut Vec<(usize, SlotError)>,
    ) where
        C::Ct: 'a,
    {
        let opened = &self.opened;
        let counted = cts.inspect(|_| {
            opened.fetch_add(1, Ordering::Relaxed);
        });
        self.inner.decrypt_wave(counted, len, plains, refused)
    }

    fn add(&self, a: &C::Ct, b: &C::Ct) -> C::Ct {
        self.inner.add(a, b)
    }

    fn sub(&self, a: &C::Ct, b: &C::Ct) -> C::Ct {
        self.inner.sub(a, b)
    }

    fn scalar(&self, m: i64, c: &C::Ct) -> C::Ct {
        self.inner.scalar(m, c)
    }

    fn all_wellformed(&self, cts: &[&C::Ct]) -> bool {
        self.inner.all_wellformed(cts)
    }

    fn rerandomize(&self, c: &C::Ct) -> C::Ct {
        self.inner.rerandomize(c)
    }

    fn can_decrypt(&self) -> bool {
        self.inner.can_decrypt()
    }

    fn ct_bytes(c: &C::Ct) -> usize {
        C::ct_bytes(c)
    }

    fn ct_encode(c: &C::Ct) -> Vec<u8> {
        C::ct_encode(c)
    }

    fn ct_decode(bytes: &[u8]) -> Option<C::Ct> {
        C::ct_decode(bytes)
    }
}

/// Resource 0 with neighbors 1 and 2, its broker's state, and a
/// controller: shares own + 77 + 88 ≡ 1, share 123 and 456 assigned to 0.
struct Grid<C: HomCipher> {
    keys: GridKeys<Counting<C>>,
    opened: Arc<AtomicUsize>,
    layout: CounterLayout,
    receiver_layouts: [CounterLayout; 2],
    local: SecureCounter<Counting<C>>,
    recv: [SecureCounter<Counting<C>>; 2],
    shares: [C::Ct; 2],
    /// The local clock and each neighbor's last time.
    ts: [u32; 3],
    ctl: Controller<Counting<C>>,
}

impl<C: HomCipher> Grid<C> {
    fn new(keys: GridKeys<C>) -> Self {
        let opened = Arc::new(AtomicUsize::new(0));
        let wrap = |inner: C| Counting { inner, opened: Arc::clone(&opened) };
        let keys = GridKeys {
            enc: wrap(keys.enc),
            dec: wrap(keys.dec),
            pub_ops: wrap(keys.pub_ops),
            tags: keys.tags,
        };
        let layout = CounterLayout::new(0, vec![1, 2]);
        let ctl = Controller::new(0, keys.dec.clone(), keys.tags.clone(), 1, layout.clone());
        let shares = [keys.enc.encrypt_i64(123), keys.enc.encrypt_i64(456)];
        let zeros = SecureCounter::zeros(&keys.enc, &keys.tags.key(layout.arity()), &layout);
        let mut grid = Grid {
            local: zeros.clone(),
            recv: [zeros.clone(), zeros],
            receiver_layouts: [CounterLayout::new(1, vec![0]), CounterLayout::new(2, vec![0])],
            keys,
            opened,
            layout,
            shares,
            ts: [0; 3],
            ctl,
        };
        grid.scan(0, 10);
        grid.receive(0, 6, 10, 1);
        grid.receive(1, 6, 10, 1);
        grid
    }

    /// The accountant's new local counter.
    fn scan(&mut self, sum: i64, count: i64) {
        let key = self.keys.tags.key(self.layout.arity());
        let own_share = (SHARE_MODULUS - 77 - 88 + 1) as u32;
        self.ts[0] += 1;
        self.local = SecureCounter::seal_local(
            &self.keys.enc,
            &key,
            &self.layout,
            sum,
            count,
            1,
            own_share,
            self.ts[0],
        );
    }

    /// A new counter from neighbor `1 + at`, stored by the broker.
    fn receive(&mut self, at: usize, sum: i64, count: i64, num: i64) {
        let key = self.keys.tags.key(self.layout.arity());
        self.ts[1 + at] += 1;
        let (share, ts) = ([77, 88][at], i64::from(self.ts[1 + at]));
        let (enc, layout) = (&self.keys.enc, &self.layout);
        self.recv[at] =
            SecureCounter::seal_outgoing(enc, &key, layout, 1 + at, sum, count, num, share, ts)
                .expect("a neighbor of 0");
    }

    /// The broker's full aggregate, summed in slot order.
    fn full(&self) -> SecureCounter<Counting<C>> {
        let ops = &self.keys.pub_ops;
        self.recv.iter().fold(self.local.clone(), |full, recv| add(ops, &full, recv))
    }

    /// One send wave over both edges, every suppressor lifted: the
    /// ciphertexts it decrypted, what it sealed and how it ended.
    fn wave_with(
        &mut self,
        full: &SecureCounter<Counting<C>>,
        recv: [&SecureCounter<Counting<C>>; 2],
    ) -> (usize, Vec<WireMsg<Counting<C>>>, Result<(), Verdict>) {
        self.ctl.reset_edge(1);
        self.ctl.reset_edge(2);
        let edges: Vec<_> = (0..2)
            .map(|at| SendEdge {
                v: 1 + at,
                receiver_layout: &self.receiver_layouts[at],
                recv_v: recv[at],
                share_for_me: &self.shares[at],
            })
            .collect();
        let before = self.opened.load(Ordering::Relaxed);
        let mut sealed = Vec::new();
        let verdict = self.ctl.send_queries(0, &rule(), full, &edges, &mut sealed);
        (self.opened.load(Ordering::Relaxed) - before, sealed, verdict)
    }

    fn wave(&mut self) -> (usize, Vec<WireMsg<Counting<C>>>, Result<(), Verdict>) {
        let (full, recv) = (self.full(), self.recv.clone());
        self.wave_with(&full, [&recv[0], &recv[1]])
    }

    /// What `full − recv_v` holds, by the test's own decryption:
    /// `(sum, count, num)`.
    fn minus(
        &self,
        full: &SecureCounter<Counting<C>>,
        recv: &SecureCounter<Counting<C>>,
    ) -> (i64, i64, i64) {
        let key = self.keys.tags.key(self.layout.arity());
        let f = full.open(&self.keys.dec, &key).expect("an honest aggregate opens");
        let r = recv.open(&self.keys.dec, &key).expect("an honest counter opens");
        (f.sum - r.sum, f.count - r.count, f.num - r.num)
    }

    /// What a sealed message toward `v` carries: `(sum, count, num, share)`.
    fn payload(&self, v: usize, sealed: &SecureCounter<Counting<C>>) -> (i64, i64, i64, i64) {
        let key = self.keys.tags.key(self.receiver_layouts[v - 1].arity());
        let p = sealed.open(&self.keys.dec, &key).expect("the controller's own seal opens");
        (p.sum, p.count, p.num, p.share)
    }

    /// The controller as it is, but with nothing opened: a new epoch of
    /// the same layout forgets every opening (and restarts the traces,
    /// which the waves below never regress), so its next wave opens every
    /// input and ends as opening alone ends it.
    fn twin(&self) -> Controller<Counting<C>> {
        let mut twin = self.ctl.clone();
        twin.set_layout(self.layout.clone());
        twin
    }
}

/// One wave of a run.
#[derive(Clone, Debug)]
enum Step {
    /// The accountant reports a new local counter.
    Scan(i64, i64),
    /// Neighbor `1 + at` sends `(sum, count, num)`.
    Receive(usize, i64, i64, i64),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let votes = || -1000i64..1000;
    let step = prop_oneof![
        (votes(), votes()).prop_map(|(s, c)| Step::Scan(s, c)),
        (0usize..2, votes(), votes(), 1i64..4).prop_map(|(at, s, c, n)| Step::Receive(at, s, c, n)),
    ];
    prop::collection::vec(step, 1..=24)
}

fn runs_match_opening<C: HomCipher>(
    keys: GridKeys<C>,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut g = Grid::new(keys);
    // The first wave opens all three counters.
    let (cold, _, verdict) = g.wave();
    prop_assert_eq!(verdict, Ok(()));
    prop_assert_eq!(cold, 3 * g.local.msg.fields.len());
    for step in steps {
        let one = match *step {
            Step::Scan(sum, count) => {
                g.scan(sum, count);
                g.full().msg.fields.len()
            }
            Step::Receive(at, sum, count, num) => {
                g.receive(at, sum, count, num);
                g.recv[at].msg.fields.len()
            }
        };
        let full = g.full();
        let (opened, sealed, verdict) = g.wave();
        prop_assert_eq!(verdict, Ok(()), "{:?}", step);
        prop_assert_eq!(opened, one, "one counter decrypts: {:?}", step);
        for WireMsg { to: v, counter: out, .. } in &sealed {
            let (sum, count, num) = g.minus(&full, &g.recv[v - 1]);
            let share = [123, 456][v - 1];
            prop_assert_eq!(g.payload(*v, out), (sum, count, num, share), "toward {}", v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scan_and_receive_waves_seal_what_opening_would(steps in steps(), seed in 0u64..1 << 16) {
        runs_match_opening(GridKeys::paillier(128, seed), &steps)?;
        runs_match_opening(GridKeys::<MockCipher>::mock(seed), &steps)?;
    }
}

/// A warm controller after neighbor 1's counter was replaced, on a `full`
/// and `recv_1` the broker made up: both decrypt, and the wave ends as
/// its twin that opens everything ends it.
fn ends_as_opening<C: HomCipher>(
    g: &mut Grid<C>,
    full: &SecureCounter<Counting<C>>,
    recv_1: &SecureCounter<Counting<C>>,
) -> (Vec<WireMsg<Counting<C>>>, Result<(), Verdict>) {
    let recv_2 = g.recv[1].clone();
    let mut twin = g.twin();
    std::mem::swap(&mut g.ctl, &mut twin);
    let (_, twin_sealed, twin_verdict) = g.wave_with(full, [recv_1, &recv_2]);
    std::mem::swap(&mut g.ctl, &mut twin);
    let (opened, sealed, verdict) = g.wave_with(full, [recv_1, &recv_2]);
    assert_eq!(opened, full.msg.fields.len() + recv_1.msg.fields.len(), "full opened too");
    assert_eq!(verdict, twin_verdict);
    let payloads = |sealed: &Vec<WireMsg<Counting<C>>>| -> Vec<_> {
        sealed.iter().map(|m| (m.to, g.payload(m.to, &m.counter))).collect()
    };
    assert_eq!(payloads(&sealed), payloads(&twin_sealed));
    (sealed, verdict)
}

fn full_that_moved_by_more_than_one_term_is_opened<C: HomCipher>(keys: impl Fn() -> GridKeys<C>) {
    let broker = Err(Verdict::MaliciousBroker(0));
    let key = |g: &Grid<C>| g.keys.tags.key(g.layout.arity());

    // A double count: `local + 2·recv_1 + recv_2`, whose share is not 1.
    let mut g = Grid::new(keys());
    assert_eq!(g.wave().2, Ok(()));
    g.receive(0, 2, 10, 1);
    let doubled = add(&g.keys.pub_ops, &g.full(), &g.recv[0]);
    let recv = g.recv[0].clone();
    assert_ne!(doubled.open(&g.keys.dec, &key(&g)).expect("a double count opens").share, 1);
    assert_eq!(ends_as_opening(&mut g, &doubled, &recv).1, broker);

    // `recv_1 − full`: the tag holds, the side-band goes negative.
    let mut g = Grid::new(keys());
    assert_eq!(g.wave().2, Ok(()));
    g.receive(0, 2, 10, 1);
    let mut forged = g.full();
    forged.msg = g.recv[0].msg.sub(&g.keys.pub_ops, &forged.msg);
    let recv = g.recv[0].clone();
    let negative = ObliviousError::SideBand(SlotError::Negative { slot: F_NUM });
    assert_eq!(forged.open(&g.keys.dec, &key(&g)), Err(negative));
    assert_eq!(ends_as_opening(&mut g, &forged, &recv).1, broker);

    // A stale `recv_1`: a counter neighbor 1 sent before the one the
    // controller last opened, beside a `full` that holds its newest.
    let mut g = Grid::new(keys());
    let stale = g.recv[0].clone();
    g.receive(0, 4, 10, 1);
    assert_eq!(g.wave().2, Ok(()));
    g.receive(0, 2, 10, 1);
    let full = g.full();
    let (sealed, verdict) = ends_as_opening(&mut g, &full, &stale);
    assert_eq!(verdict, Ok(()));
    let toward_1 = sealed.iter().find(|m| m.to == 1).expect("answered toward 1");
    let (sum, count, num) = g.minus(&full, &stale);
    assert_eq!(g.payload(1, &toward_1.counter), (sum, count, num, 123));
}

#[test]
fn a_full_that_moved_by_more_than_one_term_is_opened_under_both_ciphers() {
    full_that_moved_by_more_than_one_term_is_opened(|| GridKeys::<MockCipher>::mock(61));
    full_that_moved_by_more_than_one_term_is_opened(|| GridKeys::paillier(128, 61));
}

/// The identity holds, but the derived `sum` is past a digit: what the
/// aggregate decrypts to is some other tuple, so `full` is opened, and
/// fails as opening it alone fails. Paillier only: under the mock, a tag
/// that wide does not fit the one value it is sealed in.
#[test]
fn a_derived_tuple_past_a_digit_is_opened_instead() {
    let mut g = Grid::new(GridKeys::paillier(128, 67));
    assert_eq!(g.wave().2, Ok(()));
    g.receive(0, (1 << 44) - 1, 10, 1);
    let (full, recv) = (g.full(), g.recv[0].clone());
    let key = g.keys.tags.key(g.layout.arity());
    assert!(full.open(&g.keys.dec, &key).is_err(), "the sum carried out of its digit");
    assert_eq!(ends_as_opening(&mut g, &full, &recv).1, Err(Verdict::MaliciousBroker(0)));
}
