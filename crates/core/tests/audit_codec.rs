//! The controller's audit image at rest: one store entry per rule
//! ([`AuditImage::to_entry`]) under the rule's canonical key, read back
//! by a decoder that is total over whatever bytes a disk hands it.

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::{AuditImage, GateMode, KGate};
use proptest::prelude::*;

/// A handful of rules: frequency and confidence, several thresholds.
fn rule(i: usize) -> CandidateRule {
    let (x, y, num, den): (&[u32], &[u32], u32, u32) = match i % 4 {
        0 => (&[], &[3], 1, 2),
        1 => (&[1, 4], &[2], 2, 3),
        2 => (&[2], &[1, 4], 0, 1),
        _ => (&[], &[u32::MAX - 1, u32::MAX], 9, 10),
    };
    CandidateRule::new(Rule::new(ItemSet::of(x), ItemSet::of(y)), Ratio::new(num, den))
}

/// Any gate a controller holds: any k ≥ 1, either mode, fresh or after
/// a disclosure that recorded some population and answer.
fn gate() -> impl Strategy<Value = KGate> {
    let registers = (0i64..i64::MAX / 4, 0i64..i64::MAX / 4, any::<bool>());
    (1i64..i64::MAX / 4, any::<bool>(), any::<bool>(), registers).prop_map(
        |(k, relaxed, disclosed, (x1, x2, answer))| {
            let mode = if relaxed { GateMode::TransactionsOnly } else { GateMode::BothKNew };
            let mut gate = KGate::with_mode(k, mode);
            if disclosed {
                gate.disclose(k + x1, k + x2, || answer);
            }
            gate
        },
    )
}

/// An image as `Controller::export_audits` lists one: a send gate per
/// neighbor slot asked about, neighbors distinct.
fn image() -> impl Strategy<Value = AuditImage> {
    let slots = prop::collection::vec((any::<u32>(), gate()), 0..=8);
    (0usize..4, any::<u32>(), gate(), slots).prop_map(|(r, clock, output_gate, slots)| {
        let mut seen = std::collections::HashSet::new();
        AuditImage {
            rule: rule(r),
            clock: i64::from(clock),
            output_gate,
            send_gates: slots
                .into_iter()
                .filter(|&(v, _)| seen.insert(v))
                .map(|(v, gate)| (v as usize, gate))
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_audit_image_round_trips_through_its_store_entry(img in image()) {
        let (key, value) = img.to_entry();
        prop_assert_eq!(key, img.rule.key());
        prop_assert_eq!(AuditImage::from_entry(&key, &value), Some(img));
    }

    #[test]
    fn a_cut_or_padded_value_never_decodes(img in image(), cut in any::<u64>(), pad in any::<u8>()) {
        let (key, value) = img.to_entry();
        let cut = (cut % value.len() as u64) as usize;
        prop_assert_eq!(AuditImage::from_entry(&key, &value[..cut]), None, "cut at {}", cut);
        let padded = [value.as_slice(), &[pad]].concat();
        prop_assert_eq!(AuditImage::from_entry(&key, &padded), None);
        prop_assert_eq!(AuditImage::from_entry(&[&key[..], &[0; 4]].concat(), &value), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        img in image(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (key, value) = img.to_entry();
        let _ = AuditImage::from_entry(&key, &bytes);
        let _ = AuditImage::from_entry(&bytes, &value);
        // One damaged byte of a real entry decodes to some image — or
        // to none — but never panics, and never to a gate with k < 1.
        let mut damaged = value.clone();
        let at = (at % damaged.len() as u64) as usize;
        damaged[at] ^= flip;
        if let Some(back) = AuditImage::from_entry(&key, &damaged) {
            let gates = back.send_gates.iter().map(|(_, g)| g).chain([&back.output_gate]);
            for g in gates {
                prop_assert!(g.k >= 1);
            }
        }
    }
}

#[test]
fn gate_fields_out_of_range_are_refused() {
    let img = AuditImage {
        rule: rule(1),
        clock: 7,
        output_gate: KGate::new(3),
        send_gates: vec![(4, KGate::new(2))],
    };
    let (key, value) = img.to_entry();
    assert_eq!(AuditImage::from_entry(&key, &value).as_ref(), Some(&img));
    // The output gate follows the clock word: `k` (8), mode (1), the two
    // registers (16), cached (1); then the slot count (4), the slot's
    // neighbor (8) and its send gate, laid out like the output gate.
    let damaged = |at: std::ops::Range<usize>, byte: u8| {
        let mut v = value.clone();
        v[at].fill(byte);
        AuditImage::from_entry(&key, &v)
    };
    assert_eq!(damaged(8..16, 0), None, "k = 0");
    assert_eq!(damaged(8..16, 0xFF), None, "k = -1");
    assert_eq!(damaged(16..17, 2), None, "mode byte 2");
    assert_eq!(damaged(33..34, 2), None, "cached byte 2");
    assert_eq!(damaged(34..38, 0), None, "fewer slots than the value holds");
    assert_eq!(damaged(34..38, 0xFF), None, "more slots than the value holds");
    assert_eq!(damaged(46..54, 0), None, "a send gate with k = 0");
    assert_eq!(damaged(54..55, 2), None, "a send gate's mode byte 2");
}
