//! Allocation budget of the message path: a whole synchronous session —
//! build, scans, candidate cycles, every counter delivered — may cost at
//! most [`BUDGET`] heap allocations per counter sent. The protocol
//! machine is the only thing a mock-cipher session pays for, and a third
//! of what it paid used to be `malloc`: 56 allocations a counter before
//! the message path resolved a rule once and aggregated in place, 12
//! while a counter in flight still held its ciphertexts in a vector of
//! their own, 1.1 since it is plain data and each wave fills buffers its
//! resource, controller and driver keep.
//!
//! One test in this binary, on purpose: the counting allocator is
//! process-wide, and a second test running beside it would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gridmine::prelude::*;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a session may spend per counter it sends.
const BUDGET: f64 = 1.2;

#[test]
fn a_session_stays_inside_its_allocation_budget_per_counter() {
    // T10I4-shaped, sized for a debug build: 4 resources on a path, the
    // mock cipher, a few hundred candidates, tens of thousands of counters.
    let params =
        QuestParams::t10i4().with_transactions(800).with_items(120).with_patterns(40).with_seed(42);
    let dbs = gridmine::quest::partition(&gridmine::quest::generate(&params), 4, 7);
    let mut cfg = MineConfig::new(Ratio::from_f64(0.08), Ratio::from_f64(0.5));
    cfg.rounds = 6;
    cfg.seed = 1;
    let session =
        MineSession::over(cfg, GridKeys::<MockCipher>::mock(cfg.seed)).with_databases(dbs);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = session.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(outcome.verdicts.is_empty(), "an honest grid: {:?}", outcome.verdicts);
    assert!(outcome.messages > 10_000, "too few counters to price: {}", outcome.messages);
    let per_counter = allocations as f64 / outcome.messages as f64;
    println!(
        "{allocations} allocations / {} counters = {per_counter:.1} per counter (budget {BUDGET})",
        outcome.messages
    );
    assert!(per_counter <= BUDGET, "{per_counter:.1} allocations per counter sent, over {BUDGET}");
}
