//! Property coverage for the wire codec, alongside the pinned fixtures:
//! arbitrary frames survive encode→decode→re-encode byte-identically,
//! and arbitrary corruption — bit flips, truncations, random byte
//! strings — always surfaces as a typed [`WireError`], never a panic.

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::{BrokerMsg, CounterLayout, DegradeReason, GridKeys, SecureCounter, Verdict};
use gridmine_net::codec::{decode, encode};
use gridmine_net::{Frame, NodeReport, Phase, Role, Tallies};
use gridmine_paillier::{HomCipher, MockCipher};
use proptest::prelude::*;

/// Disjoint by construction: antecedent items and consequent items are
/// drawn from non-overlapping ranges, and the consequent is non-empty —
/// so `Rule::new`'s invariants hold for every sample.
fn rule() -> impl Strategy<Value = Rule> {
    (prop::collection::vec(0u32..20, 0..5), prop::collection::vec(20u32..28, 1..4))
        .prop_map(|(a, c)| Rule::new(ItemSet::of(&a), ItemSet::of(&c)))
}

fn cand() -> impl Strategy<Value = CandidateRule> {
    (rule(), 0u32..100, 1u32..100)
        .prop_map(|(r, num, den)| CandidateRule::new(r, Ratio::new(num, den)))
}

fn phase() -> impl Strategy<Value = Phase> {
    prop_oneof![Just(Phase::Wiring), Just(Phase::Scan), Just(Phase::Candidate)]
}

fn verdict() -> impl Strategy<Value = Verdict> {
    (0usize..9, any::<bool>()).prop_map(|(u, broker)| {
        if broker {
            Verdict::MaliciousBroker(u)
        } else {
            Verdict::MaliciousResource(u)
        }
    })
}

fn degrade() -> impl Strategy<Value = Option<DegradeReason>> {
    prop_oneof![
        Just(None),
        Just(Some(DegradeReason::Crashed)),
        Just(Some(DegradeReason::Departed)),
        Just(Some(DegradeReason::Panicked)),
        Just(Some(DegradeReason::MuteController)),
        Just(Some(DegradeReason::Disconnected)),
        Just(Some(DegradeReason::RecoveryStalled)),
    ]
}

fn tallies() -> impl Strategy<Value = Tallies> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(msgs_sent, retries, resends, checkpoints, replays, rejected)| Tallies {
            msgs_sent,
            retries,
            resends,
            checkpoints,
            replays,
            rejected,
            exhausted: msgs_sent % 2 == 0,
        },
    )
}

/// A sealed counter with sampled plaintexts, keyed by a sampled seed —
/// exercises varying ciphertext bytes, layouts and arities.
fn counter() -> impl Strategy<Value = SecureCounter<MockCipher>> {
    (any::<u64>(), 0usize..5, 1usize..4, -50i64..50, -50i64..50, 0u32..100).prop_map(
        |(seed, owner, nbrs, sum, count, share)| {
            let keys = GridKeys::<MockCipher>::mock(seed);
            let neighbors: Vec<usize> = (0..nbrs).map(|i| owner + i + 1).collect();
            let layout = CounterLayout::new(owner, neighbors);
            SecureCounter::seal_local(
                &keys.enc,
                &keys.tags.key(layout.arity()),
                &layout,
                sum,
                count,
                1,
                share,
                3,
            )
        },
    )
}

fn frame() -> impl Strategy<Value = Frame<MockCipher>> {
    prop_oneof![
        (any::<u16>(), any::<bool>(), any::<u64>(), any::<u32>(), any::<bool>(), any::<u32>())
            .prop_map(|(version, monitor, session, resource, resumed, attempts)| Frame::Hello {
                version,
                role: if monitor { Role::Monitor } else { Role::Node },
                session,
                resource,
                resumed,
                attempts,
            }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(session, resource)| Frame::HelloAck { session, resource }),
        any::<u64>().prop_map(|nonce| Frame::Heartbeat { nonce }),
        any::<u64>().prop_map(|nonce| Frame::HeartbeatAck { nonce }),
        (any::<u64>(), phase()).prop_map(|(tick, phase)| Frame::PhaseStart { tick, phase }),
        (any::<u64>(), phase(), any::<u32>()).prop_map(|(tick, phase, sent)| Frame::PhaseSent {
            tick,
            phase,
            sent
        }),
        (0usize..8, 0usize..8, cand(), counter()).prop_map(|(from, to, cand, counter)| {
            Frame::Counter(BrokerMsg { from, to, cand, counter })
        }),
        Just(Frame::Processed),
        (any::<u32>(), any::<u32>(), any::<u64>(), -100i64..100).prop_map(|(from, to, seed, v)| {
            Frame::Share { from, to, ct: GridKeys::<MockCipher>::mock(seed).enc.encrypt_i64(v) }
        }),
        any::<u32>().prop_map(|to| Frame::ShareResend { to }),
        (any::<u32>(), cand(), any::<u64>(), -100i64..100).prop_map(|(resource, rule, seed, v)| {
            Frame::SfeQuery {
                resource,
                rule,
                blinded: GridKeys::<MockCipher>::mock(seed).enc.encrypt_i64(v),
            }
        }),
        (any::<u32>(), cand(), any::<bool>())
            .prop_map(|(resource, rule, answer)| Frame::SfeAnswer { resource, rule, answer }),
        (any::<u32>(), verdict()).prop_map(|(at, verdict)| Frame::VerdictNotice { at, verdict }),
        prop::collection::vec(any::<u8>(), 0..64)
            .prop_map(|bytes| Frame::Obs { line: String::from_utf8_lossy(&bytes).into_owned() }),
        Just(Frame::Finish),
        (any::<u32>(), prop::collection::vec(rule(), 0..5), verdict(), degrade(), tallies())
            .prop_map(|(resource, solutions, v, degraded, tallies)| Frame::Report(NodeReport {
                resource,
                solutions,
                verdict: if resource % 3 == 0 { None } else { Some(v) },
                degraded,
                tallies,
            })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_then_decode_is_the_byte_identity(f in frame()) {
        let bytes = encode(&f);
        let back = decode::<MockCipher>(&bytes).expect("own encoding must decode");
        // Encoding is deterministic, so decode∘encode must reproduce
        // the exact bytes — a stronger check than structural equality,
        // and it needs no `PartialEq` on ciphertexts.
        prop_assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn any_single_byte_corruption_is_a_typed_error(f in frame(), pos in any::<u32>(), mask in 1u8..=255) {
        let mut bytes = encode(&f);
        let i = pos as usize % bytes.len();
        bytes[i] ^= mask;
        // A flipped byte may corrupt header, payload or checksum; the
        // checksum makes all of them decode failures. Reaching this
        // line at all is the panic-freedom claim.
        prop_assert!(decode::<MockCipher>(&bytes).is_err());
    }

    #[test]
    fn any_truncation_is_a_typed_error(f in frame(), cut in any::<u32>()) {
        let bytes = encode(&f);
        let keep = cut as usize % bytes.len();
        prop_assert!(decode::<MockCipher>(&bytes[..keep]).is_err());
    }

    #[test]
    fn random_byte_strings_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Unstructured fuzz: whatever happens, it is an Ok or a typed
        // WireError — the decoder is total.
        let _ = decode::<MockCipher>(&bytes);
    }

    #[test]
    fn frames_with_a_forged_kind_are_refused(f in frame(), kind in 19u8..=255) {
        // Splice a future/unknown kind tag into an otherwise valid
        // frame and reseal it: the decoder must refuse it by type.
        let bytes = encode(&f);
        let payload = bytes[12..bytes.len() - 8].to_vec();
        let forged = gridmine_net::frame::seal(kind, &payload);
        prop_assert!(matches!(
            decode::<MockCipher>(&forged),
            Err(gridmine_net::WireError::UnknownKind(_)) | Err(gridmine_net::WireError::Malformed(_))
        ));
    }
}
