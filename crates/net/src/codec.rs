//! The versioned binary codec: every message of the deployment —
//! counters, shares, supervision chatter, reports — as a typed [`Frame`]
//! with a total decoder that accepts one byte form per frame.
//!
//! Design rules:
//!
//! * **Key-free.** Ciphertexts cross through
//!   [`HomCipher::ct_encode`]/[`HomCipher::ct_decode`] — structural byte
//!   moves any role may perform. Decoding never touches key material;
//!   semantic screening of a wire counter stays where it always was
//!   (`Broker::counter_is_wellformed` at the resource's door).
//! * **Total.** [`decode`] maps *any* byte string to `Ok(Frame)` or a
//!   typed [`WireError`]. Constructors that panic on bad invariants
//!   ([`Rule::new`], [`Ratio::new`]) are pre-validated by the decoders
//!   that call them, so hostile bytes surface as `Malformed`, never as an
//!   unwind. A decode failure at a peering door is accounted as
//!   `Verdict::MaliciousResource` by the hub — exactly like a bad
//!   authentication tag.
//! * **Canonical.** Every value has one byte form and the decoder takes
//!   no other: a rule is the form the store keys it by ([`Rule::encode`],
//!   [`CandidateRule::encode`]), tallies are [`Tallies::to_bytes`], a
//!   layout's neighbors are strictly ascending, a boolean is 0 or 1, a
//!   report names a culprit only with a verdict, a ciphertext has no
//!   redundant leading byte. So `decode(b) == Ok(f)` implies
//!   `encode(f) == b`: a frame the hub relays as its sender wrote it
//!   reaches the addressee as the bytes this codec would have written.
//! * **Pinned.** The byte layout is fixed by fixture tests
//!   (`tests/wire_fixtures.rs`); any accidental layout change breaks a
//!   byte-for-byte comparison, not just a round-trip.
//!
//! [`Ratio::new`]: gridmine_arm::Ratio::new

// No unchecked index on hostile input (DESIGN.md § Static analysis).
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use gridmine_arm::{CandidateRule, Rule, RuleFormError};
pub use gridmine_core::Tallies;
use gridmine_core::{BrokerMsg, DegradeReason, LayoutStamp, SecureCounter, Verdict};
use gridmine_paillier::{CounterMsg, Fields, HomCipher, InlineVec};

use crate::error::WireError;
use crate::frame;

/// Protocol phase tag used by the hub's round structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Pre-round share/layout exchange.
    Wiring,
    /// Scan phase of a round (step + anti-entropy + checkpoints).
    Scan,
    /// Candidate-generation phase of a round.
    Candidate,
}

/// A node's end-of-run report: its interim solution plus everything the
/// driver folds into the [`gridmine_core::MiningOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Reporting resource.
    pub resource: u32,
    /// The interim solution `R̃_u` as a sorted rule list.
    pub solutions: Vec<Rule>,
    /// Verdict that halted this resource, if any.
    pub verdict: Option<Verdict>,
    /// Degradation the resource recorded about itself, if any.
    pub degraded: Option<DegradeReason>,
    /// Protocol tallies (including carried pre-restart life).
    pub tallies: Tallies,
}

/// Every message of the socket deployment. Kind tags are part of the
/// wire contract — append only, never renumber.
#[derive(Clone, Debug)]
pub enum Frame<C: HomCipher> {
    /// Peering handshake, client side: session id + resource id, plus
    /// whether this is a post-restart resume and how many dial attempts
    /// it took. The wire version rides in every frame's header.
    Hello {
        /// Session id the dialer believes it belongs to.
        session: u64,
        /// Resource id.
        resource: u32,
        /// True when resuming after a process restart.
        resumed: bool,
        /// Dial attempts spent (for `PeerReconnected` accounting).
        attempts: u32,
    },
    /// Handshake accept, hub side.
    HelloAck {
        /// Confirmed session id.
        session: u64,
        /// Confirmed resource id.
        resource: u32,
    },
    /// Liveness probe (node → hub on idle).
    Heartbeat {
        /// Echo nonce.
        nonce: u64,
    },
    /// Liveness echo (hub → node).
    HeartbeatAck {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Opens a phase for one tick (hub → nodes).
    PhaseStart {
        /// Protocol round.
        tick: u64,
        /// Which phase.
        phase: Phase,
    },
    /// Phase-work completion marker (node → hub), after the node's own
    /// sends of that phase — per-connection FIFO makes the ordering
    /// sound.
    PhaseSent {
        /// Protocol round.
        tick: u64,
        /// Which phase.
        phase: Phase,
        /// Messages the node mailed in this phase.
        sent: u32,
    },
    /// A sealed counter in flight between two brokers.
    Counter(BrokerMsg<C>),
    /// Delivery acknowledgement: the receiving node fully processed `n`
    /// routed messages (their consequent sends were already mailed).
    Processed {
        /// How many; never zero.
        n: u32,
    },
    /// An encrypted accounting share in flight (wiring / rejoin).
    Share {
        /// Assigning resource.
        from: u32,
        /// Receiving resource.
        to: u32,
        /// The encrypted share.
        ct: C::Ct,
    },
    /// Hub asks a node to re-send its share toward a rejoined neighbor.
    ShareResend {
        /// The rejoined neighbor.
        to: u32,
    },
    /// One structured observability event, as its canonical JSON line
    /// (nodes forward their recorders to the hub through these).
    Obs {
        /// `Event::to_json` output.
        line: String,
    },
    /// End of run: refresh outputs and report (hub → nodes).
    Finish,
    /// A node's end-of-run report.
    Report(NodeReport),
}

// Kind tags (wire contract). Retired, never reused, and decoded as
// `WireError::UnknownKind` like any other stray tag: 11–13 (an SFE query
// and answer and a verdict broadcast, for a split deployment no process
// ever ran) and 15–16 (recovery images nobody sent or handled).
const K_HELLO: u8 = 1;
const K_HELLO_ACK: u8 = 2;
const K_HEARTBEAT: u8 = 3;
const K_HEARTBEAT_ACK: u8 = 4;
const K_PHASE_START: u8 = 5;
const K_PHASE_SENT: u8 = 6;
const K_COUNTER: u8 = 7;
const K_PROCESSED: u8 = 8;
const K_SHARE: u8 = 9;
const K_SHARE_RESEND: u8 = 10;
const K_OBS: u8 = 14;
const K_FINISH: u8 = 17;
const K_REPORT: u8 = 18;

/// Little-endian payload writer, appending to the caller's buffer.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
    fn ct<C: HomCipher>(&mut self, c: &C::Ct) {
        self.bytes(&C::ct_encode(c));
    }
    fn counter<C: HomCipher>(&mut self, c: &SecureCounter<C>) {
        self.u32(c.layout.owner);
        self.u32(c.layout.neighbors.len() as u32);
        for &v in c.layout.neighbors.iter() {
            self.u32(v);
        }
        self.u32(c.msg.fields.len() as u32);
        for f in &c.msg.fields {
            self.ct::<C>(f);
        }
    }
}

/// Total little-endian payload reader: every take is bounds-checked and
/// surfaces [`WireError::Truncated`]; [`Reader::finish`] rejects
/// trailing garbage so an attacker cannot smuggle bytes past the codec.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean out of range")),
        }
    }

    /// Length prefix of a sequence whose elements each consume at least
    /// `min_elem_bytes` of payload. The count is screened against the
    /// bytes actually remaining in the frame *before* the caller
    /// allocates, so a forged `u32::MAX` count costs a typed error and
    /// zero capacity — never an OOM-sized `Vec::with_capacity`.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() / min_elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed byte string. The length is screened against the
    /// remaining payload before any allocation.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        self.take(n)
    }

    fn ct<C: HomCipher>(&mut self) -> Result<C::Ct, WireError> {
        C::ct_decode(self.bytes()?).ok_or(WireError::Malformed("undecodable ciphertext bytes"))
    }

    /// A value in its canonical form, read off the front of the payload
    /// by `decode` ([`Rule::decode`], [`CandidateRule::decode`]).
    fn canonical<T>(
        &mut self,
        decode: impl FnOnce(&'a [u8]) -> Result<(T, &'a [u8]), RuleFormError>,
    ) -> Result<T, WireError> {
        let (value, rest) = decode(self.buf)?;
        self.buf = rest;
        Ok(value)
    }

    fn counter<C: HomCipher>(&mut self) -> Result<SecureCounter<C>, WireError> {
        let owner = self.u32()?;
        // Each neighbor id costs 4 payload bytes.
        let n = self.seq_len(4)?;
        let mut neighbors = InlineVec::new();
        for _ in 0..n {
            let v = self.u32()?;
            if neighbors.last().is_some_and(|&last| last >= v) {
                return Err(WireError::Malformed("layout neighbors out of order or repeated"));
            }
            neighbors.push(v);
        }
        // Each field costs at least its 4-byte length prefix.
        let fields_n = self.seq_len(4)?;
        let mut fields = Fields::new();
        for _ in 0..fields_n {
            fields.push(self.ct::<C>()?);
        }
        Ok(SecureCounter { msg: CounterMsg { fields }, layout: LayoutStamp { owner, neighbors } })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

fn phase_tag(phase: Phase) -> u8 {
    match phase {
        Phase::Wiring => 0,
        Phase::Scan => 1,
        Phase::Candidate => 2,
    }
}

fn phase_of(tag: u8) -> Result<Phase, WireError> {
    match tag {
        0 => Ok(Phase::Wiring),
        1 => Ok(Phase::Scan),
        2 => Ok(Phase::Candidate),
        _ => Err(WireError::Malformed("unknown phase tag")),
    }
}

fn verdict_tag(v: Option<Verdict>) -> (u8, u32) {
    match v {
        None => (0, 0),
        Some(Verdict::MaliciousBroker(u)) => (1, u as u32),
        Some(Verdict::MaliciousResource(u)) => (2, u as u32),
    }
}

fn verdict_of(tag: u8, culprit: u32) -> Result<Option<Verdict>, WireError> {
    match tag {
        0 if culprit != 0 => Err(WireError::Malformed("a culprit without a verdict")),
        0 => Ok(None),
        1 => Ok(Some(Verdict::MaliciousBroker(culprit as usize))),
        2 => Ok(Some(Verdict::MaliciousResource(culprit as usize))),
        _ => Err(WireError::Malformed("unknown verdict tag")),
    }
}

fn degrade_tag(d: Option<DegradeReason>) -> u8 {
    match d {
        None => 0,
        Some(DegradeReason::Crashed) => 1,
        Some(DegradeReason::Departed) => 2,
        Some(DegradeReason::Panicked) => 3,
        Some(DegradeReason::MuteController) => 4,
        Some(DegradeReason::Disconnected) => 5,
        Some(DegradeReason::RecoveryStalled) => 6,
    }
}

fn degrade_of(tag: u8) -> Result<Option<DegradeReason>, WireError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(DegradeReason::Crashed)),
        2 => Ok(Some(DegradeReason::Departed)),
        3 => Ok(Some(DegradeReason::Panicked)),
        4 => Ok(Some(DegradeReason::MuteController)),
        5 => Ok(Some(DegradeReason::Disconnected)),
        6 => Ok(Some(DegradeReason::RecoveryStalled)),
        _ => Err(WireError::Malformed("unknown degradation tag")),
    }
}

/// Encodes a frame into its full byte string (header + payload +
/// checksum). The inverse of [`decode`].
pub fn encode<C: HomCipher>(f: &Frame<C>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, f);
    out
}

/// Appends a frame's full byte string to `out` — the same bytes
/// [`encode`] returns, written once: the payload is encoded in place
/// between [`frame::begin`] and [`frame::finish`]. A connection's writer
/// encodes every frame into its one pending buffer this way.
pub fn encode_into<C: HomCipher>(out: &mut Vec<u8>, f: &Frame<C>) {
    let start = frame::begin(out);
    let mut w = Writer { buf: out };
    let kind = match f {
        Frame::Hello { session, resource, resumed, attempts } => {
            w.u64(*session);
            w.u32(*resource);
            w.u8(u8::from(*resumed));
            w.u32(*attempts);
            K_HELLO
        }
        Frame::HelloAck { session, resource } => {
            w.u64(*session);
            w.u32(*resource);
            K_HELLO_ACK
        }
        Frame::Heartbeat { nonce } => {
            w.u64(*nonce);
            K_HEARTBEAT
        }
        Frame::HeartbeatAck { nonce } => {
            w.u64(*nonce);
            K_HEARTBEAT_ACK
        }
        Frame::PhaseStart { tick, phase } => {
            w.u64(*tick);
            w.u8(phase_tag(*phase));
            K_PHASE_START
        }
        Frame::PhaseSent { tick, phase, sent } => {
            w.u64(*tick);
            w.u8(phase_tag(*phase));
            w.u32(*sent);
            K_PHASE_SENT
        }
        Frame::Counter(msg) => {
            w.u32(msg.from as u32);
            w.u32(msg.to as u32);
            msg.cand.encode(w.buf);
            w.counter::<C>(&msg.counter);
            K_COUNTER
        }
        Frame::Processed { n } => {
            w.u32(*n);
            K_PROCESSED
        }
        Frame::Share { from, to, ct } => {
            w.u32(*from);
            w.u32(*to);
            w.ct::<C>(ct);
            K_SHARE
        }
        Frame::ShareResend { to } => {
            w.u32(*to);
            K_SHARE_RESEND
        }
        Frame::Obs { line } => {
            w.bytes(line.as_bytes());
            K_OBS
        }
        Frame::Finish => K_FINISH,
        Frame::Report(r) => {
            w.u32(r.resource);
            w.u32(r.solutions.len() as u32);
            for rule in &r.solutions {
                rule.encode(w.buf);
            }
            let (vt, culprit) = verdict_tag(r.verdict);
            w.u8(vt);
            w.u32(culprit);
            w.u8(degrade_tag(r.degraded));
            w.buf.extend_from_slice(&r.tallies.to_bytes());
            K_REPORT
        }
    };
    frame::finish(out, start, kind);
}

/// Decodes a full frame byte string. Total: hostile input yields a
/// typed [`WireError`], never a panic; and canonical: what decodes
/// re-encodes to the same bytes.
pub fn decode<C: HomCipher>(bytes: &[u8]) -> Result<Frame<C>, WireError> {
    let (kind, payload) = frame::open(bytes)?;
    let mut r = Reader::new(payload);
    let frame = match kind {
        K_HELLO => Frame::Hello {
            session: r.u64()?,
            resource: r.u32()?,
            resumed: r.bool()?,
            attempts: r.u32()?,
        },
        K_HELLO_ACK => Frame::HelloAck { session: r.u64()?, resource: r.u32()? },
        K_HEARTBEAT => Frame::Heartbeat { nonce: r.u64()? },
        K_HEARTBEAT_ACK => Frame::HeartbeatAck { nonce: r.u64()? },
        K_PHASE_START => Frame::PhaseStart { tick: r.u64()?, phase: phase_of(r.u8()?)? },
        K_PHASE_SENT => {
            Frame::PhaseSent { tick: r.u64()?, phase: phase_of(r.u8()?)?, sent: r.u32()? }
        }
        K_COUNTER => {
            let from = r.u32()? as usize;
            let to = r.u32()? as usize;
            let cand = r.canonical(CandidateRule::decode)?;
            let counter = r.counter::<C>()?;
            Frame::Counter(BrokerMsg { from, to, cand, counter })
        }
        K_PROCESSED => match r.u32()? {
            0 => return Err(WireError::Malformed("an ack of nothing")),
            n => Frame::Processed { n },
        },
        K_SHARE => Frame::Share { from: r.u32()?, to: r.u32()?, ct: r.ct::<C>()? },
        K_SHARE_RESEND => Frame::ShareResend { to: r.u32()? },
        K_OBS => Frame::Obs {
            line: String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| WireError::Malformed("non-UTF-8 obs line"))?,
        },
        K_FINISH => Frame::Finish,
        K_REPORT => {
            let resource = r.u32()?;
            // Each rule costs at least its two item-set count words,
            // screened against the reader's *remaining* bytes.
            let n = r.seq_len(8)?;
            let mut solutions = Vec::with_capacity(n);
            for _ in 0..n {
                solutions.push(r.canonical(Rule::decode)?);
            }
            let vt = r.u8()?;
            let culprit = r.u32()?;
            let verdict = verdict_of(vt, culprit)?;
            let degraded = degrade_of(r.u8()?)?;
            let tallies = Tallies::from_bytes(r.take(Tallies::BYTES)?)
                .ok_or(WireError::Malformed("tallies flag out of range"))?;
            Frame::Report(NodeReport { resource, solutions, verdict, degraded, tallies })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{ItemSet, Ratio};
    use gridmine_core::{CounterLayout, GridKeys};
    use gridmine_paillier::MockCipher;

    fn candidate() -> CandidateRule {
        CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2, 3])), Ratio::new(1, 2))
    }

    fn counter() -> SecureCounter<MockCipher> {
        let keys = GridKeys::<MockCipher>::mock(9);
        let layout = CounterLayout::new(0, vec![1, 2]);
        SecureCounter::seal_local(&keys.enc, &keys.tags.key(layout.arity()), &layout, 5, 9, 1, 7, 3)
    }

    fn round_trip(f: Frame<MockCipher>) {
        let bytes = encode(&f);
        let back = decode::<MockCipher>(&bytes).expect("round trip");
        // Encoding is deterministic, so decode∘encode must be the
        // identity at the byte level — a stronger check than structural
        // equality, and it works for payloads without `PartialEq`.
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
        // Appending behind frames already queued patches this frame's
        // header, not the buffer's first one.
        let mut queued = bytes.clone();
        encode_into(&mut queued, &f);
        assert_eq!(queued, [bytes.as_slice(), bytes.as_slice()].concat());
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(Frame::Hello { session: 0xABCD, resource: 3, resumed: true, attempts: 4 });
        round_trip(Frame::HelloAck { session: 0xABCD, resource: 3 });
        round_trip(Frame::Heartbeat { nonce: 42 });
        round_trip(Frame::HeartbeatAck { nonce: 42 });
        round_trip(Frame::PhaseStart { tick: 7, phase: Phase::Scan });
        round_trip(Frame::PhaseSent { tick: 7, phase: Phase::Candidate, sent: 12 });
        round_trip(Frame::Counter(BrokerMsg {
            from: 0,
            to: 1,
            cand: candidate(),
            counter: counter(),
        }));
        round_trip(Frame::Processed { n: 3 });
        round_trip(Frame::Share {
            from: 2,
            to: 0,
            ct: GridKeys::<MockCipher>::mock(1).enc.encrypt_i64(11),
        });
        round_trip(Frame::ShareResend { to: 4 });
        round_trip(Frame::Obs { line: "{\"event\":\"RoundAdvanced\",\"tick\":3}".into() });
        round_trip(Frame::Finish);
        round_trip(Frame::Report(NodeReport {
            resource: 1,
            solutions: vec![Rule::frequency(ItemSet::of(&[1, 2])), candidate().rule],
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
        }));
    }

    #[test]
    fn malformed_rules_are_refused_not_panicked() {
        // An empty consequent would trip Rule::new's assertion; the
        // decoder must pre-validate. Build the bytes by hand: a Report
        // whose only rule has no consequent items.
        let good = encode(&Frame::<MockCipher>::Report(NodeReport {
            resource: 0,
            solutions: vec![Rule::frequency(ItemSet::of(&[5]))],
            verdict: None,
            degraded: None,
            tallies: Tallies::default(),
        }));
        // Locate the consequent count (after header, resource u32,
        // count u32, antecedent [count], consequent count) and zero it —
        // then fix the checksum by resealing.
        let (kind, payload) = frame::open(&good).expect("fixture");
        let mut p = payload.to_vec();
        // payload: resource(4) count(4) antecedent-count(4)=0 consequent-count(4)=1 item(4)...
        p[12..16].copy_from_slice(&0u32.to_be_bytes());
        let resealed = frame::seal(kind, &p);
        match decode::<MockCipher>(&resealed) {
            Err(WireError::Malformed(_)) | Err(WireError::Truncated) => {}
            other => panic!("empty consequent must be refused, got {other:?}"),
        }
    }

    /// `f`'s bytes with `edit` applied to its payload, resealed.
    fn edited(f: Frame<MockCipher>, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let bytes = encode(&f);
        let (kind, payload) = frame::open(&bytes).expect("own frame");
        let mut p = payload.to_vec();
        edit(&mut p);
        frame::seal(kind, &p)
    }

    #[test]
    fn a_second_spelling_of_a_frame_is_refused() {
        let counter_frame =
            || Frame::Counter(BrokerMsg { from: 0, to: 1, cand: candidate(), counter: counter() });
        let word = |p: &mut Vec<u8>, at: usize, w: [u8; 4]| p[at..at + 4].copy_from_slice(&w);
        // Counter payload: from, to, then the candidate's words (|X| = 1,
        // 1, |Y| = 2, 2, 3, λₙ, λ_d) at 8..36, then owner and the
        // neighbor count, and the neighbors 1, 2 at 44..52.
        let cases: [(&str, Vec<u8>, &str); 6] = [
            (
                "consequent items swapped",
                edited(counter_frame(), |p| p[20..28].rotate_left(4)),
                "items out of order or repeated",
            ),
            (
                "a consequent item repeated",
                edited(counter_frame(), |p| word(p, 24, 2u32.to_be_bytes())),
                "items out of order or repeated",
            ),
            (
                "λ = 2/4",
                edited(counter_frame(), |p| {
                    word(p, 28, 2u32.to_be_bytes());
                    word(p, 32, 4u32.to_be_bytes());
                }),
                "unreduced threshold",
            ),
            (
                "layout neighbors swapped",
                edited(counter_frame(), |p| p[44..52].rotate_left(4)),
                "layout neighbors out of order or repeated",
            ),
            (
                "a layout neighbor repeated",
                edited(counter_frame(), |p| word(p, 48, 1u32.to_le_bytes())),
                "layout neighbors out of order or repeated",
            ),
            (
                "a culprit without a verdict",
                // Report payload: resource, no solutions, the verdict tag
                // at 8 and the culprit at 9..13.
                edited(
                    Frame::Report(NodeReport {
                        resource: 1,
                        solutions: Vec::new(),
                        verdict: None,
                        degraded: None,
                        tallies: Tallies::default(),
                    }),
                    |p| word(p, 9, 5u32.to_le_bytes()),
                ),
                "a culprit without a verdict",
            ),
        ];
        for (what, bytes, why) in cases {
            assert_eq!(
                decode::<MockCipher>(&bytes).unwrap_err(),
                WireError::Malformed(why),
                "{what}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let f = Frame::<MockCipher>::Heartbeat { nonce: 1 };
        let bytes = encode(&f);
        let (kind, payload) = frame::open(&bytes).expect("fixture");
        let mut p = payload.to_vec();
        p.push(0xFF);
        let resealed = frame::seal(kind, &p);
        let err = decode::<MockCipher>(&resealed).expect_err("must refuse");
        assert_eq!(err, WireError::Malformed("trailing payload bytes"));
    }

    #[test]
    fn an_ack_of_nothing_is_refused() {
        let bytes = frame::seal(K_PROCESSED, &0u32.to_le_bytes());
        let err = decode::<MockCipher>(&bytes).expect_err("must refuse");
        assert_eq!(err, WireError::Malformed("an ack of nothing"));
    }

    #[test]
    fn unknown_kind_is_typed() {
        let bytes = frame::seal(200, b"");
        let err = decode::<MockCipher>(&bytes).expect_err("must refuse");
        assert_eq!(err, WireError::UnknownKind(200));
    }
}
