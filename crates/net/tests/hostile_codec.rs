//! Hostile-frame fixtures: forged length prefixes must cost the
//! attacker a typed [`WireError`], never an attacker-sized allocation.
//!
//! Frames here are crafted by hand — a sealed frame can't be bit-flipped
//! (the checksum catches that first), so each fixture builds a payload
//! byte string with a forged `u32::MAX` count and seals it through the
//! real [`frame::seal`]. A tracking global allocator then pins the
//! *largest single allocation request* made while decoding: if any
//! decode path ever passes a forged count to `Vec::with_capacity`, the
//! request jumps to gigabytes and the assertion (not the OOM killer)
//! reports it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gridmine_net::codec::decode;
use gridmine_net::frame;
use gridmine_net::WireError;
use gridmine_paillier::MockCipher;

/// Largest single allocation request observed since the last reset.
static PEAK_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct TrackingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping is a
// lock-free atomic max and never dereferences the pointers involved.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Every fixture frame is tiny; an honest decode of one allocates at
/// most a few small vectors. A forged `u32::MAX` item count reaching
/// `Vec::with_capacity` would request ≥ 4 · (2³² − 1) bytes.
const HONEST_CEILING: usize = 16 * 1024;

fn u32s(vals: &[u32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Rule words: a rule crosses in its canonical form, big-endian.
fn rule_words(vals: &[u32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_be_bytes()).collect()
}

/// Decodes under the tracking allocator and asserts the decode both
/// fails with `Truncated` and never requested a hostile-sized block.
fn assert_rejected_without_allocation(name: &str, sealed: &[u8]) {
    PEAK_REQUEST.store(0, Ordering::Relaxed);
    let got = decode::<MockCipher>(sealed);
    let peak = PEAK_REQUEST.load(Ordering::Relaxed);
    assert_eq!(got.unwrap_err(), WireError::Truncated, "{name}: expected a typed rejection");
    assert!(
        peak < HONEST_CEILING,
        "{name}: decode requested a {peak}-byte allocation — a forged count reached \
         Vec::with_capacity"
    );
}

// Wire kind tags are part of the frozen wire protocol (see
// `wire_fixtures.rs`); renumbering them is a protocol break, so the
// literals below are as stable as the sealed hex fixtures.
const K_COUNTER: u8 = 7;
const K_REPORT: u8 = 18;

/// One test (not four) so no concurrent honest test's allocations can
/// race the shared `PEAK_REQUEST` high-water mark.
#[test]
fn forged_counts_are_rejected_before_any_allocation() {
    // Counter frame, antecedent item count forged to u32::MAX.
    // Layout: from, to, then the candidate rule's antecedent count.
    let items = [u32s(&[0, 1]), rule_words(&[u32::MAX])].concat();

    // Counter frame, neighbor count forged. Layout: from, to,
    // cand = (antecedent: 0 items | consequent: 1 item [2] | λ = 1/2),
    // then owner and the forged neighbor count.
    let neighbors = [u32s(&[0, 1]), rule_words(&[0, 1, 2, 1, 2]), u32s(&[0, u32::MAX])].concat();

    // Counter frame, field count forged: same prefix, an empty
    // neighbor list, then the forged ciphertext-field count.
    let fields = [u32s(&[0, 1]), rule_words(&[0, 1, 2, 1, 2]), u32s(&[0, 0, u32::MAX])].concat();

    // Report frame, solution count forged. Layout: resource, count.
    // This site screened against the *total* payload length (instead
    // of bytes remaining) before the `seq_len` fix.
    let report = u32s(&[1, u32::MAX]);

    for (name, kind, payload) in [
        ("counter/items", K_COUNTER, items),
        ("counter/neighbors", K_COUNTER, neighbors),
        ("counter/fields", K_COUNTER, fields),
        ("report/solutions", K_REPORT, report),
    ] {
        assert_rejected_without_allocation(name, &frame::seal(kind, &payload));
    }
}

/// The ceiling itself has to be honest: a near-boundary count that the
/// remaining bytes *can* justify still decodes (and may allocate), it
/// just can't overshoot what the frame paid for.
#[test]
fn justified_counts_still_decode() {
    // Report with one real solution: resource, count = 1, then the rule
    // ({1} ⇒ {2, 3}), verdict tag + culprit, degrade tag, and the
    // tallies' seven words, the `exhausted` flag last.
    let mut payload = [u32s(&[1, 1]), rule_words(&[1, 1, 2, 2, 3])].concat();
    payload.push(0); // verdict: none
    payload.extend_from_slice(&u32s(&[0])); // culprit
    payload.push(0); // degraded: none
    payload.extend_from_slice(&[0u8; 56]); // tallies, exhausted: false
    let sealed = frame::seal(K_REPORT, &payload);
    assert!(decode::<MockCipher>(&sealed).is_ok(), "honest report must still decode");
}
