//! The recovery log against a plain-map model, and its image against
//! arbitrary single-byte damage.
//!
//! The model is what the log replaces: a map from rule to record where
//! every delta is an upsert of absolute post-state and a checkpoint
//! changes nothing but the replay length. Whatever sequence of deltas
//! and checkpoints runs, a restore — from the live log, or from its
//! image after a trip through bytes — must read back exactly the model.

use std::collections::HashMap;

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_recovery::{RecoveryImage, RecoveryLog, ResourceState, RuleRecord};
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

#[derive(Clone, Debug)]
enum Step {
    Register(usize),
    Scan(usize, u64, i64, i64, i64, i64),
    Output(usize, bool),
    Checkpoint,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..5).prop_map(Step::Register),
        (0usize..5, any::<u64>(), any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>())
            .prop_map(|(r, f, s, c, k, l)| Step::Scan(r, f, s, c, k, l)),
        (0usize..5, any::<bool>()).prop_map(|(r, b)| Step::Output(r, b)),
        Just(Step::Checkpoint),
    ]
}

type Model = HashMap<CandidateRule, RuleRecord>;

fn fresh(rule: CandidateRule) -> RuleRecord {
    RuleRecord { rule, frontier: 0, sum: 0, count: 0, clock: 1, last_sum: 0, output: None }
}

const OWNER: u64 = 9;

/// Runs `steps` against a log and the model; returns both, and the
/// deltas since the last checkpoint.
fn run(steps: &[Step]) -> (RecoveryLog, Model, usize) {
    let mut log = RecoveryLog::baseline(&ResourceState { resource: OWNER, records: Vec::new() });
    let mut model = Model::new();
    let mut deltas = 0;
    for step in steps {
        deltas += 1;
        match *step {
            Step::Register(r) => {
                log.rule_registered(&rule(r));
                model.entry(rule(r)).or_insert_with(|| fresh(rule(r)));
            }
            Step::Scan(r, frontier, sum, count, clock, last_sum) => {
                let rec = model.entry(rule(r)).or_insert_with(|| fresh(rule(r)));
                *rec = RuleRecord { frontier, sum, count, clock, last_sum, ..rec.clone() };
                // The delta carries no output: whatever the record
                // passed in says about it must not reach the log.
                log.scan_advanced(&RuleRecord { output: Some(sum > 0), ..rec.clone() });
            }
            Step::Output(r, answer) => {
                log.output_cached(&rule(r), answer);
                model.entry(rule(r)).or_insert_with(|| fresh(rule(r))).output = Some(answer);
            }
            Step::Checkpoint => {
                let records = model.values().cloned().collect();
                log = RecoveryLog::baseline(&ResourceState { resource: OWNER, records });
                deltas = 0;
            }
        }
    }
    (log, model, deltas)
}

fn as_model(state: &ResourceState) -> Model {
    state.records.iter().map(|r| (r.rule.clone(), r.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_equals_the_model_before_and_after_a_trip_through_bytes(
        steps in prop::collection::vec(step(), 0..60),
    ) {
        let (log, model, deltas) = run(&steps);
        prop_assert_eq!(log.len(), deltas, "len() = deltas since the last checkpoint");

        let state = log.replay().expect("an intact log replays");
        prop_assert_eq!(state.resource, OWNER);
        prop_assert_eq!(state.records.len(), model.len(), "one record per rule");
        prop_assert_eq!(&as_model(&state), &model);

        let bytes = log.image().to_bytes();
        let (tripped, entries) = RecoveryImage::from_bytes(&bytes)
            .expect("its own bytes unframe")
            .replay()
            .expect("and replay");
        prop_assert_eq!(&tripped, &state, "same records in the same order");
        prop_assert_eq!(entries as usize, deltas);
    }
}

proptest! {
    // An image here is a few hundred bytes to a few kilobytes; enough
    // cases that header, frame lengths, names and both segments are hit.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_single_byte_flip_is_a_typed_error_or_changes_nothing(
        steps in prop::collection::vec(step(), 0..24),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (log, _, _) = run(&steps);
        let state = log.replay().expect("an intact log replays");
        let mut bytes = log.image().to_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        // Never a panic. An image that still verifies and still ends at
        // the pinned head (a flipped name of an empty WAL, say) must
        // restore exactly what the undamaged one does.
        if let Ok((damaged, _)) = RecoveryImage::from_bytes(&bytes).and_then(|i| i.replay()) {
            prop_assert_eq!(damaged, state, "byte {} of {}", at, bytes.len());
        }
    }
}
