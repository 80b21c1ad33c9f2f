//! Pinned byte-for-byte wire fixtures: the codec's layout is a
//! contract, and these hex strings are the contract's signature. A
//! refactor that changes any encoded byte — reordered fields, a new
//! default, a different length prefix — breaks an equality here, not
//! just a round-trip. Append new kinds; never renumber or re-layout.
//!
//! Fixture inputs are fully deterministic: `GridKeys::mock(9)` for the
//! mock cipher and `GridKeys::paillier(64, 5)` for a (deliberately toy)
//! Paillier context, so ciphertext bytes are reproducible.

use gridmine_arm::{CandidateRule, ItemSet, Ratio, Rule};
use gridmine_core::{BrokerMsg, CounterLayout, DegradeReason, GridKeys, SecureCounter, Verdict};
use gridmine_net::codec::{decode, encode};
use gridmine_net::{Frame, NodeReport, Phase, Role, Tallies, WireError};
use gridmine_paillier::{HomCipher, MockCipher, PaillierCtx};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("fixture hex"))
        .collect()
}

/// Asserts the pinned bytes, then that the pinned bytes decode back to
/// a frame which re-encodes to the same bytes (decode∘encode identity
/// at the byte level — works without `PartialEq` on ciphertexts).
fn pin<C: HomCipher>(f: &Frame<C>, fixture: &str) {
    let bytes = encode(f);
    assert_eq!(hex(&bytes), fixture, "wire layout changed — this is a protocol break");
    let back = decode::<C>(&unhex(fixture)).expect("pinned fixture must decode");
    assert_eq!(encode(&back), bytes, "decode∘encode must be the identity");
}

fn cand() -> CandidateRule {
    CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2, 3])), Ratio::new(1, 2))
}

#[test]
fn supervision_frames_are_pinned() {
    pin(
        &Frame::<MockCipher>::Hello {
            version: 1,
            role: Role::Node,
            session: 0x1122_3344_5566_7788,
            resource: 2,
            resumed: false,
            attempts: 3,
        },
        "474d570102000100140000000100008877665544332211020000000003000000251d719a404af0ee",
    );
    pin(
        &Frame::<MockCipher>::HelloAck { session: 0x1122_3344_5566_7788, resource: 2 },
        "474d5701020002000c000000887766554433221102000000aaf919e4a9b84c03",
    );
    pin(
        &Frame::<MockCipher>::Heartbeat { nonce: 7 },
        "474d5701020003000800000007000000000000007c8c364464ab9806",
    );
    pin(
        &Frame::<MockCipher>::HeartbeatAck { nonce: 7 },
        "474d570102000400080000000700000000000000aae9a6bbbaf1247f",
    );
    pin(
        &Frame::<MockCipher>::PhaseStart { tick: 5, phase: Phase::Scan },
        "474d5701020005000900000005000000000000000143a104b4fd714c5f",
    );
    pin(
        &Frame::<MockCipher>::PhaseSent { tick: 5, phase: Phase::Candidate, sent: 9 },
        "474d5701020006000d0000000500000000000000020900000076a7b0c4dd25a854",
    );
    pin(
        &Frame::<MockCipher>::Processed { n: 3 },
        "474d5701020008000400000003000000a04f60c4f2bced48",
    );
    pin(
        &Frame::<MockCipher>::ShareResend { to: 4 },
        "474d570102000a000400000004000000bd345595a71bc5a3",
    );
    pin(&Frame::<MockCipher>::Finish, "474d570102001100000000000f06f20019280d63");
}

#[test]
fn protocol_frames_are_pinned() {
    let keys = GridKeys::<MockCipher>::mock(9);
    let layout = CounterLayout::new(0, vec![1, 2]);
    let counter: SecureCounter<MockCipher> = SecureCounter::seal_local(
        &keys.enc,
        &keys.tags.key(layout.arity()),
        &layout,
        5,
        9,
        1,
        7,
        3,
    );
    pin(
        &Frame::Counter(BrokerMsg { from: 0, to: 1, cand: cand(), counter }),
        "474d570102000700d8000000000000000100000001000000010000000200000002000000030000000\
         100000002000000000000000200000001000000020000000700000010000000050000000000000009\
         000000000000001000000009000000000000001e7c4a7fb979379e1000000001000000000000003\
         3f894fe72f36e3c1000000007000000000000004874df7d2c6da6da10000000030000000000000\
         05df029fde5e6dd78100000000000000000000000726c747c9f60151710000000000000000000000\
         087e8befb58da4cb5100000002e2e4501000000009c64097b12548453e043c3baced22d5d",
    );
    pin(
        &Frame::<MockCipher>::Share { from: 0, to: 1, ct: keys.enc.encrypt_i64(11) },
        "474d5701020009001c0000000000000001000000100000000b00000000000000b1e053facbcdbbf1\
         45b3fc0ae07b41bb",
    );
    pin(
        &Frame::<MockCipher>::SfeQuery {
            resource: 1,
            rule: cand(),
            blinded: keys.enc.encrypt_i64(-3),
        },
        "474d570102000b0034000000010000000100000001000000020000000200000003000000010000000\
         200000010000000fdffffffffffffffc65c9e798547f38f6d434c7302324164",
    );
    pin(
        &Frame::<MockCipher>::SfeAnswer { resource: 1, rule: cand(), answer: true },
        "474d570102000c00210000000100000001000000010000000200000002000000030000000100000002\
         00000001609d38692bcc7e78",
    );
    pin(
        &Frame::<MockCipher>::VerdictNotice { at: 2, verdict: Verdict::MaliciousBroker(1) },
        "474d570102000d0009000000020000000101000000659c0752ef37d191",
    );
    pin(
        &Frame::<MockCipher>::Obs { line: "{\"event\":\"RoundAdvanced\",\"tick\":3}".into() },
        "474d570102000e0026000000220000007b226576656e74223a22526f756e64416476616e636564222\
         c227469636b223a337d40fe34e2194ed68b",
    );
    pin(
        &Frame::<MockCipher>::Report(NodeReport {
            resource: 1,
            solutions: vec![cand().rule],
            verdict: Some(Verdict::MaliciousResource(0)),
            degraded: Some(DegradeReason::Disconnected),
            tallies: Tallies {
                msgs_sent: 10,
                retries: 1,
                resends: 2,
                checkpoints: 3,
                replays: 1,
                rejected: 0,
                exhausted: false,
            },
        }),
        "474d57010200120053000000010000000100000001000000010000000200000002000000030000000\
         200000000050a000000000000000100000000000000020000000000000003000000000000000100000\
         000000000000000000000000000ed973eaeab951e6a",
    );
}

#[test]
fn retired_kinds_stay_retired() {
    // Kinds 15 and 16 framed recovery images (`Checkpoint`, `Restore`)
    // that no peer ever sent or handled. These are their last pinned
    // bytes: a peer still speaking them is refused by kind at the door
    // — the quarantine path — and the numbers are never reused.
    for (kind, fixture) in [
        (15, "474d570102000f000b0000000200000003000000010203ffd0d2a1b5c81ecb"),
        (16, "474d5701020010000a00000002000000020000000405ddbfaab4d11827b0"),
    ] {
        let err = decode::<MockCipher>(&unhex(fixture)).expect_err("retired kind");
        assert_eq!(err, WireError::UnknownKind(kind));
    }
}

#[test]
fn a_version_1_frame_is_refused_by_its_version() {
    // Wire version 1's `Processed`, which acked one frame and carried no
    // count: a peer still speaking it is refused before its payload is
    // read, whatever the kind.
    let v1 = unhex("474d57010100080000000000f9be65d63d5ae3c9");
    assert_eq!(
        decode::<MockCipher>(&v1).expect_err("old version"),
        WireError::UnsupportedVersion(1)
    );
}

#[test]
fn paillier_ciphertexts_are_pinned_too() {
    // A deliberately toy 64-bit modulus: small enough to pin, same code
    // path as production key sizes.
    let keys = GridKeys::<PaillierCtx>::paillier(64, 5);
    // Re-pinned when encryption noise moved to fixed-base tables over
    // `h = r₀ⁿ`: the frame layout is byte-identical, but the noise draw
    // sequence under the toy seed (and hence the ciphertext residue)
    // legitimately changed.
    pin(
        &Frame::<PaillierCtx>::Share { from: 0, to: 1, ct: keys.enc.encrypt_i64(11) },
        "474d5701020009001c0000000000000001000000100000000be6bb8508c28a622d5e1d784a2da8c\
         8f55c64482d71f1a0",
    );
}

#[test]
fn mutated_fixture_bytes_are_typed_errors_never_panics() {
    let heartbeat = unhex("474d5701020003000800000007000000000000007c8c364464ab9806");
    // Every single-byte corruption of a pinned frame must surface as a
    // typed WireError.
    for i in 0..heartbeat.len() {
        let mut bad = heartbeat.clone();
        bad[i] ^= 0x40;
        let err = decode::<MockCipher>(&bad).expect_err("corruption must be refused");
        let _typed: WireError = err;
    }
    // Every truncation likewise.
    for cut in 0..heartbeat.len() {
        decode::<MockCipher>(&heartbeat[..cut]).expect_err("truncation must be refused");
    }
}
