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
use gridmine_net::{Frame, NodeReport, Phase, Tallies, WireError};
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
            session: 0x1122_3344_5566_7788,
            resource: 2,
            resumed: false,
            attempts: 3,
        },
        "474d570104000100110000008877665544332211020000000003000000a0a3c8b4157d458a",
    );
    pin(
        &Frame::<MockCipher>::HelloAck { session: 0x1122_3344_5566_7788, resource: 2 },
        "474d5701040002000c000000887766554433221102000000a18250a23f4065a8",
    );
    pin(
        &Frame::<MockCipher>::Heartbeat { nonce: 7 },
        "474d5701040003000800000007000000000000001c1df42f15708ec7",
    );
    pin(
        &Frame::<MockCipher>::HeartbeatAck { nonce: 7 },
        "474d570104000400080000000700000000000000976802a0ee9686a4",
    );
    pin(
        &Frame::<MockCipher>::PhaseStart { tick: 5, phase: Phase::Scan },
        "474d5701040005000900000005000000000000000184c5d502c59f2942",
    );
    pin(
        &Frame::<MockCipher>::PhaseSent { tick: 5, phase: Phase::Candidate, sent: 9 },
        "474d5701040006000d00000005000000000000000209000000d8e9ab2f632ce18e",
    );
    pin(
        &Frame::<MockCipher>::Processed { n: 3 },
        "474d5701040008000400000003000000953c972e23b398f9",
    );
    pin(
        &Frame::<MockCipher>::ShareResend { to: 4 },
        "474d570104000a000400000004000000802c78ee00a748c7",
    );
    pin(&Frame::<MockCipher>::Finish, "474d57010400110000000000a97a5a369110b050");
}

#[test]
fn protocol_frames_are_pinned() {
    // The mock seals a counter of degree 2 in eight ciphertexts: its seven
    // values, then its tag as one wide value.
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
        "474d570104000700d800000000000000010000000000000100000001000000020000000200000003000000010\
         00000020000000002000000010000000200000008000000100000000500000000000000090000000000000010\
         00000009000000000000001e7c4a7fb979379e10000000010000000000000033f894fe72f36e3c10000000070\
         00000000000004874df7d2c6da6da1000000003000000000000005df029fde5e6dd7810000000000000000000\
         0000726c747c9f60151710000000000000000000000087e8befb58da4cb5100000002e2e4501000000009c640\
         97b12548453ed76320c991d36e7",
    );
    pin(
        &Frame::<MockCipher>::Share { from: 0, to: 1, ct: keys.enc.encrypt_i64(11) },
        "474d5701040009001c0000000000000001000000100000000b00000000000000b1e053facbcdbbf1c91a9f5cf\
         7f4e245",
    );
    pin(
        &Frame::<MockCipher>::Obs { line: "{\"event\":\"RoundAdvanced\",\"tick\":3}".into() },
        "474d570104000e0026000000220000007b226576656e74223a22526f756e64416476616e636564222c2274696\
         36b223a337d7780b95550ab8047",
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
        "474d5701040012005a00000001000000010000000000000100000001000000020000000200000003020000000\
         005000000000000000a0000000000000001000000000000000200000000000000030000000000000001000000\
         000000000000000000000000006f92946751902a7d",
    );
}

#[test]
fn retired_kinds_stay_retired() {
    // Kinds 11–13 framed an SFE query, its answer and a verdict broadcast
    // for a split deployment no process ever ran; 15 and 16 framed
    // recovery images (`Checkpoint`, `Restore`) that no peer ever sent or
    // handled. These are their last pinned payloads: a peer still
    // speaking them is refused by kind at the door — the quarantine path
    // — and the numbers are never reused.
    for (kind, fixture) in [
        (
            11,
            "474d570104000b00340000000100000001000000010000000200000002000000030000000100000002000\
             00010000000fdffffffffffffffc65c9e798547f38f711ec81762745b7b",
        ),
        (
            12,
            "474d570104000c00210000000100000001000000010000000200000002000000030000000100000002000\
             0000107019b0b207f281a",
        ),
        (13, "474d570104000d000900000002000000010100000074c0910223422de0"),
        (15, "474d570104000f000b00000002000000030000000102038e24262dcc1c577f"),
        (16, "474d5701040010000a0000000200000002000000040598cf3d28e18acbac"),
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
fn a_version_2_frame_is_refused_by_its_version() {
    // Wire version 2's `Hello`, which still announced a role and a
    // payload version: refused by the header's version, before its
    // payload is read.
    let v2 =
        unhex("474d570102000100140000000100008877665544332211020000000003000000251d719a404af0ee");
    assert_eq!(
        decode::<MockCipher>(&v2).expect_err("old version"),
        WireError::UnsupportedVersion(2)
    );
}

#[test]
fn a_version_3_frame_is_refused_by_its_version() {
    // Wire version 3's `Heartbeat`. Version 3 ended every counter in a
    // separate tag ciphertext; version 4 seals the tag inside the tuple's
    // own ciphertexts, so no version-3 counter would shape-check here.
    let v3 = unhex("474d5701030003000800000007000000000000000ff8d7b88d951c0a");
    assert_eq!(
        decode::<MockCipher>(&v3).expect_err("old version"),
        WireError::UnsupportedVersion(3)
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
        "474d5701040009001c0000000000000001000000100000000be6bb8508c28a622d5e1d784a2da8c8993586f9a\
         5def1f9",
    );
}

#[test]
fn mutated_fixture_bytes_are_typed_errors_never_panics() {
    let heartbeat = unhex("474d5701040003000800000007000000000000001c1df42f15708ec7");
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
