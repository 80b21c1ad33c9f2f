//! The recovery image against arbitrary mining states, and against
//! arbitrary single-byte damage.
//!
//! Whatever state a resource holds, the image encoded from it must read
//! back exactly that state after a trip through bytes, with a driver's
//! own WAL puts (the controller's audits) on top or not. Damage to the
//! bytes is refused with a typed error, or — where it touches nothing
//! the state is read from — reads back the same state; never a panic.

use std::collections::BTreeMap;

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::recovery::{RecoveryImage, ResourceState, RuleRecord};
use proptest::prelude::*;

/// A handful of rules whose keys differ only in how the same items are
/// split between the sides, and in the threshold.
fn rule(i: usize) -> CandidateRule {
    let (x, y, num): (&[u32], &[u32], u32) = match i % 5 {
        0 => (&[], &[1, 2], 1),
        1 => (&[1], &[2], 1),
        2 => (&[2], &[1], 1),
        3 => (&[1], &[2], 2),
        _ => (&[], &[7], 1),
    };
    CandidateRule::new(Rule::new(ItemSet::of(x), ItemSet::of(y)), Ratio::new(num, 3))
}

fn record() -> impl Strategy<Value = RuleRecord> {
    let output = prop_oneof![Just(None), Just(Some(false)), Just(Some(true))];
    (0usize..5, any::<u64>(), any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>(), output)
        .prop_map(|(r, frontier, sum, count, clock, last_sum, output)| RuleRecord {
            rule: rule(r),
            frontier,
            sum,
            count,
            clock,
            last_sum,
            output,
        })
}

/// A resource's state: one record per rule, in rule-key order, as a
/// resource's working set holds it and a restore reads it back.
fn state() -> impl Strategy<Value = ResourceState> {
    (any::<u64>(), prop::collection::vec(record(), 0..12)).prop_map(|(resource, records)| {
        let by_key: BTreeMap<Vec<u8>, RuleRecord> =
            records.into_iter().map(|r| (r.rule.key(), r)).collect();
        ResourceState { resource, records: by_key.into_values().collect() }
    })
}

/// The image of `state` with `puts` driver entries put on top of it, as
/// a resource puts its controller's audits.
fn image(state: &ResourceState, puts: &[(u8, u64)]) -> RecoveryImage {
    let mut store = state.to_store().expect("a state the store takes");
    for &(key, value) in puts {
        store.put("audits", &[key], &value.to_be_bytes()).expect("put");
    }
    RecoveryImage::from_store(store)
}

fn puts() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn an_image_reads_back_its_state_before_and_after_a_trip_through_bytes(
        state in state(),
        puts in puts(),
    ) {
        let image = image(&state, &puts);
        prop_assert_eq!(&image.replay().expect("an intact image reads back"), &state);

        let tripped = RecoveryImage::from_bytes(&image.to_bytes())
            .expect("its own bytes unframe")
            .replay()
            .expect("and read back");
        prop_assert_eq!(&tripped, &state, "same records in the same order");
    }
}

proptest! {
    // An image here is a few hundred bytes to a few kilobytes; enough
    // cases that header, frame lengths, names and both segments are hit.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_single_byte_flip_is_a_typed_error_or_changes_nothing(
        state in state(),
        puts in puts(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = image(&state, &puts).to_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        // Never a panic. An image that still verifies and still ends at
        // the pinned head (a flipped name of an empty WAL, say) must
        // read back exactly the state the undamaged one holds.
        if let Ok(damaged) = RecoveryImage::from_bytes(&bytes).and_then(|i| i.replay()) {
            prop_assert_eq!(damaged, state, "byte {} of {}", at, bytes.len());
        }
    }
}
