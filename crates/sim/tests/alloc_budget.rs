//! Allocation budget of the simulator: a seeded mock-cipher grid with
//! Algorithm 1's padding on — build, steps, deliveries and candidate
//! cycles — may cost at most [`BUDGET`] heap allocations per message it
//! puts on the wire, whatever the width of the worker pool
//! (`GRIDMINE_POOL_THREADS`). It read 5.13 while every message held its
//! ciphertexts in a vector of their own; it reads 0.29 since a message is
//! plain data, what is left being mostly the messages to the overlay's
//! hubs, whose counters are too wide to hold in place.
//!
//! One test in this binary, on purpose: the counting allocator is
//! process-wide, and a second test running beside it would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gridmine_arm::{Database, Ratio};
use gridmine_quest::QuestParams;
use gridmine_sim::{split_growth, SimConfig, SimSession};

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

/// Allocations a simulated session may spend per message it sends.
const BUDGET: f64 = 0.3;

#[test]
fn a_simulated_session_stays_inside_its_allocation_budget_per_message() {
    // 24 resources on a Barabási–Albert overlay over a small T5I2 input,
    // a fifth of each partition held back as growth, sized for a debug
    // build: hundreds of thousands of messages.
    const N: usize = 24;
    let quest = QuestParams::t5i2().with_transactions(1_200).with_items(8).with_patterns(4);
    let global: Database = gridmine_quest::generate(&quest.with_seed(42));
    let mut cfg = SimConfig::small().with_resources(N).with_k(2).with_seed(0xA110C);
    cfg.scan_budget = 20;
    cfg.growth_per_step = 2;
    cfg.min_freq = Ratio::from_f64(0.3);
    assert!(cfg.obfuscate, "the padding sequence is part of what is priced");
    let session = SimSession::new(cfg)
        .with_workload(split_growth(&global, N, 0.2, 0xF00D))
        .with_items(&global.item_domain())
        .with_steps(24);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = session.try_run().expect("a valid session");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(outcome.verdicts.is_empty(), "an honest grid: {:?}", outcome.verdicts);
    assert!(outcome.messages > 10_000, "too few messages to price: {}", outcome.messages);
    let per_msg = allocations as f64 / outcome.messages as f64;
    println!(
        "{allocations} allocations / {} messages = {per_msg:.2} per message (budget {BUDGET})",
        outcome.messages
    );
    assert!(per_msg <= BUDGET, "{per_msg:.2} allocations per message sent, over {BUDGET}");
}
