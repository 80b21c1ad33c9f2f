//! The typed protocol vocabulary.
//!
//! One variant per observable protocol action. Fields are flat scalars
//! (plus the candidate-rule display string) so every event serializes to
//! a single flat JSON object and parses back without a generic JSON
//! value type — see [`Event::to_json`] / [`Event::from_json`].

/// Which SFE primitive a controller was asked to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SfeKind {
    /// The output SFE: "is the global majority nonnegative?"
    Output,
    /// The send SFE: "does the majority delta warrant a message?"
    Send,
}

impl SfeKind {
    pub fn name(self) -> &'static str {
        match self {
            SfeKind::Output => "output",
            SfeKind::Send => "send",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "output" => Some(SfeKind::Output),
            "send" => Some(SfeKind::Send),
            _ => None,
        }
    }
}

/// Which side of the protocol a verdict convicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictKind {
    /// `Verdict::MaliciousBroker` — the local broker corrupted state.
    Broker,
    /// `Verdict::MaliciousResource` — a remote peer sent poison.
    Resource,
}

impl VerdictKind {
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Broker => "broker",
            VerdictKind::Resource => "resource",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "broker" => Some(VerdictKind::Broker),
            "resource" => Some(VerdictKind::Resource),
            _ => None,
        }
    }
}

/// Which cryptographic operation a [`Event::KeyOp`] timing covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyOpKind {
    Encrypt,
    Decrypt,
    Rerandomize,
    Modpow,
    /// One batched multi-ciphertext decryption pass (the whole pass, not
    /// the per-ciphertext [`KeyOpKind::Decrypt`] timings inside it).
    BatchDecrypt,
    /// One Straus/Shamir multi-exponentiation. Nothing performs one
    /// since tags are checked in the plaintext their values decrypt to;
    /// the kind stays so that readers of recorded runs keep parsing it.
    MultiExp,
}

impl KeyOpKind {
    pub fn name(self) -> &'static str {
        match self {
            KeyOpKind::Encrypt => "encrypt",
            KeyOpKind::Decrypt => "decrypt",
            KeyOpKind::Rerandomize => "rerandomize",
            KeyOpKind::Modpow => "modpow",
            KeyOpKind::BatchDecrypt => "batch_decrypt",
            KeyOpKind::MultiExp => "multi_exp",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "encrypt" => Some(KeyOpKind::Encrypt),
            "decrypt" => Some(KeyOpKind::Decrypt),
            "rerandomize" => Some(KeyOpKind::Rerandomize),
            "modpow" => Some(KeyOpKind::Modpow),
            "batch_decrypt" => Some(KeyOpKind::BatchDecrypt),
            "multi_exp" => Some(KeyOpKind::MultiExp),
            _ => None,
        }
    }
}

/// One observable protocol action.
///
/// Resource ids are `u64` on the wire for JSON friendliness; in-process
/// they are `usize` at the call sites and converted at emission.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A broker sealed and mailed a counter to a neighbor. `resend` marks
    /// anti-entropy / recovery re-sends of an already-published aggregate,
    /// as opposed to first sends driven by local scan progress.
    CounterSent { from: u64, to: u64, rule: String, bytes: u64, resend: bool },
    /// A resource accepted a wire counter from a peer.
    CounterReceived { at: u64, from: u64, rule: String },
    /// The key-free wellformedness screen rejected a wire counter.
    WellformednessRejected { at: u64, from: u64 },
    /// A broker posed an SFE query to its controller.
    SfeQuery { resource: u64, kind: SfeKind, rule: String },
    /// The controller answered an SFE query (`answer` = the one output
    /// bit the SFE is allowed to reveal).
    SfeAnswer { resource: u64, kind: SfeKind, answer: bool },
    /// A broker retried a mute controller (`spent` = retries so far).
    SfeRetry { resource: u64, spent: u64 },
    /// The output-SFE decision for one candidate rule, with the plaintext
    /// majority the controller (and only the controller) saw.
    OutputDecision { resource: u64, rule: String, count: i64, num: i64, answer: bool },
    /// A resource halted with a verdict convicting `culprit`.
    VerdictIssued { resource: u64, verdict: VerdictKind, culprit: u64 },
    /// Fault injection: a resource crashed at `tick`.
    ResourceCrashed { resource: u64, tick: u64 },
    /// Fault injection: a crashed resource came back at `tick`.
    ResourceRecovered { resource: u64, tick: u64 },
    /// Fault injection: a resource departed the grid for good at `tick`.
    ResourceDeparted { resource: u64, tick: u64 },
    /// The overlay routed around a degraded resource at `tick`.
    ResourceQuarantined { resource: u64, tick: u64 },
    /// A resource was marked degraded (first reason wins).
    ResourceDegraded { resource: u64, reason: String },
    /// Fault injection: a lossy link ate a message.
    MessageDropped { from: u64, to: u64 },
    /// Fault injection: a link duplicated a message into `copies`.
    MessageDuplicated { from: u64, to: u64, copies: u64 },
    /// Fault injection: a link jittered a message by `ticks`.
    MessageDelayed { from: u64, to: u64, ticks: u64 },
    /// A driver advanced to protocol round `tick`.
    RoundAdvanced { tick: u64 },
    /// A timed cryptographic operation (Montgomery modpow et al.).
    KeyOp { op: KeyOpKind, nanos: u64 },
    /// Recovery: an armed resource took a checkpoint at `tick`.
    CheckpointTaken { resource: u64, tick: u64 },
    /// Recovery: a resource restored the mining state of a validated
    /// image.
    JournalReplayed { resource: u64 },
    /// Recovery: a restore was refused (forged/truncated image, failed
    /// wellformedness screen or share audit).
    RecoveryRejected { resource: u64, reason: String },
    /// A bounded-retry budget ran dry (`spent` = retries consumed); the
    /// operation's owner degrades rather than retrying forever.
    RetryExhausted { resource: u64, spent: u64 },
    /// Transport: a peer completed the version/role/session handshake.
    PeerConnected { resource: u64, session: u64 },
    /// Transport: a peer's connection closed or its heartbeat deadline
    /// lapsed.
    PeerDisconnected { resource: u64, reason: String },
    /// Transport: a respawned successor of a killed or crashed node
    /// peered with the hub; `attempts` are its dial attempts.
    PeerReconnected { resource: u64, attempts: u64 },
    /// Transport: an inbound frame failed the wire codec's total decode
    /// (bad magic/version/checksum, truncation, hostile payload).
    FrameRejected { from: u64, reason: String },
    /// Durability: a node failed to publish its checkpoint state (one
    /// image: mining state, audits, tallies) to disk. The run continues,
    /// but a process kill before the next successful persist replays
    /// from the previous checkpoint.
    CheckpointPersistFailed { resource: u64, reason: String },
}

/// Fieldless mirror of [`Event`], for counting and filtering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EventKind {
    CounterSent,
    CounterReceived,
    WellformednessRejected,
    SfeQuery,
    SfeAnswer,
    SfeRetry,
    OutputDecision,
    VerdictIssued,
    ResourceCrashed,
    ResourceRecovered,
    ResourceDeparted,
    ResourceQuarantined,
    ResourceDegraded,
    MessageDropped,
    MessageDuplicated,
    MessageDelayed,
    RoundAdvanced,
    KeyOp,
    CheckpointTaken,
    JournalReplayed,
    RecoveryRejected,
    RetryExhausted,
    PeerConnected,
    PeerDisconnected,
    PeerReconnected,
    FrameRejected,
    CheckpointPersistFailed,
}

impl EventKind {
    /// Number of distinct kinds (array-index bound for tallies).
    pub const COUNT: usize = 27;

    /// All kinds, in declaration order (index = `as usize`).
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::CounterSent,
        EventKind::CounterReceived,
        EventKind::WellformednessRejected,
        EventKind::SfeQuery,
        EventKind::SfeAnswer,
        EventKind::SfeRetry,
        EventKind::OutputDecision,
        EventKind::VerdictIssued,
        EventKind::ResourceCrashed,
        EventKind::ResourceRecovered,
        EventKind::ResourceDeparted,
        EventKind::ResourceQuarantined,
        EventKind::ResourceDegraded,
        EventKind::MessageDropped,
        EventKind::MessageDuplicated,
        EventKind::MessageDelayed,
        EventKind::RoundAdvanced,
        EventKind::KeyOp,
        EventKind::CheckpointTaken,
        EventKind::JournalReplayed,
        EventKind::RecoveryRejected,
        EventKind::RetryExhausted,
        EventKind::PeerConnected,
        EventKind::PeerDisconnected,
        EventKind::PeerReconnected,
        EventKind::FrameRejected,
        EventKind::CheckpointPersistFailed,
    ];

    /// The `"type"` tag used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CounterSent => "CounterSent",
            EventKind::CounterReceived => "CounterReceived",
            EventKind::WellformednessRejected => "WellformednessRejected",
            EventKind::SfeQuery => "SfeQuery",
            EventKind::SfeAnswer => "SfeAnswer",
            EventKind::SfeRetry => "SfeRetry",
            EventKind::OutputDecision => "OutputDecision",
            EventKind::VerdictIssued => "VerdictIssued",
            EventKind::ResourceCrashed => "ResourceCrashed",
            EventKind::ResourceRecovered => "ResourceRecovered",
            EventKind::ResourceDeparted => "ResourceDeparted",
            EventKind::ResourceQuarantined => "ResourceQuarantined",
            EventKind::ResourceDegraded => "ResourceDegraded",
            EventKind::MessageDropped => "MessageDropped",
            EventKind::MessageDuplicated => "MessageDuplicated",
            EventKind::MessageDelayed => "MessageDelayed",
            EventKind::RoundAdvanced => "RoundAdvanced",
            EventKind::KeyOp => "KeyOp",
            EventKind::CheckpointTaken => "CheckpointTaken",
            EventKind::JournalReplayed => "JournalReplayed",
            EventKind::RecoveryRejected => "RecoveryRejected",
            EventKind::RetryExhausted => "RetryExhausted",
            EventKind::PeerConnected => "PeerConnected",
            EventKind::PeerDisconnected => "PeerDisconnected",
            EventKind::PeerReconnected => "PeerReconnected",
            EventKind::CheckpointPersistFailed => "CheckpointPersistFailed",
            EventKind::FrameRejected => "FrameRejected",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        EventKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl Event {
    pub fn kind(&self) -> EventKind {
        match self {
            Event::CounterSent { .. } => EventKind::CounterSent,
            Event::CounterReceived { .. } => EventKind::CounterReceived,
            Event::WellformednessRejected { .. } => EventKind::WellformednessRejected,
            Event::SfeQuery { .. } => EventKind::SfeQuery,
            Event::SfeAnswer { .. } => EventKind::SfeAnswer,
            Event::SfeRetry { .. } => EventKind::SfeRetry,
            Event::OutputDecision { .. } => EventKind::OutputDecision,
            Event::VerdictIssued { .. } => EventKind::VerdictIssued,
            Event::ResourceCrashed { .. } => EventKind::ResourceCrashed,
            Event::ResourceRecovered { .. } => EventKind::ResourceRecovered,
            Event::ResourceDeparted { .. } => EventKind::ResourceDeparted,
            Event::ResourceQuarantined { .. } => EventKind::ResourceQuarantined,
            Event::ResourceDegraded { .. } => EventKind::ResourceDegraded,
            Event::MessageDropped { .. } => EventKind::MessageDropped,
            Event::MessageDuplicated { .. } => EventKind::MessageDuplicated,
            Event::MessageDelayed { .. } => EventKind::MessageDelayed,
            Event::RoundAdvanced { .. } => EventKind::RoundAdvanced,
            Event::KeyOp { .. } => EventKind::KeyOp,
            Event::CheckpointTaken { .. } => EventKind::CheckpointTaken,
            Event::JournalReplayed { .. } => EventKind::JournalReplayed,
            Event::RecoveryRejected { .. } => EventKind::RecoveryRejected,
            Event::RetryExhausted { .. } => EventKind::RetryExhausted,
            Event::PeerConnected { .. } => EventKind::PeerConnected,
            Event::PeerDisconnected { .. } => EventKind::PeerDisconnected,
            Event::PeerReconnected { .. } => EventKind::PeerReconnected,
            Event::FrameRejected { .. } => EventKind::FrameRejected,
            Event::CheckpointPersistFailed { .. } => EventKind::CheckpointPersistFailed,
        }
    }

    /// Serialize to one flat JSON object: `{"type":"CounterSent",...}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(self.kind().name());
        match self {
            Event::CounterSent { from, to, rule, bytes, resend } => {
                w.u64("from", *from)
                    .u64("to", *to)
                    .str("rule", rule)
                    .u64("bytes", *bytes)
                    .bool("resend", *resend);
            }
            Event::CounterReceived { at, from, rule } => {
                w.u64("at", *at).u64("from", *from).str("rule", rule);
            }
            Event::WellformednessRejected { at, from } => {
                w.u64("at", *at).u64("from", *from);
            }
            Event::SfeQuery { resource, kind, rule } => {
                w.u64("resource", *resource).str("kind", kind.name()).str("rule", rule);
            }
            Event::SfeAnswer { resource, kind, answer } => {
                w.u64("resource", *resource).str("kind", kind.name()).bool("answer", *answer);
            }
            Event::SfeRetry { resource, spent } => {
                w.u64("resource", *resource).u64("spent", *spent);
            }
            Event::OutputDecision { resource, rule, count, num, answer } => {
                w.u64("resource", *resource)
                    .str("rule", rule)
                    .i64("count", *count)
                    .i64("num", *num)
                    .bool("answer", *answer);
            }
            Event::VerdictIssued { resource, verdict, culprit } => {
                w.u64("resource", *resource)
                    .str("verdict", verdict.name())
                    .u64("culprit", *culprit);
            }
            Event::ResourceCrashed { resource, tick }
            | Event::ResourceRecovered { resource, tick }
            | Event::ResourceDeparted { resource, tick }
            | Event::ResourceQuarantined { resource, tick } => {
                w.u64("resource", *resource).u64("tick", *tick);
            }
            Event::ResourceDegraded { resource, reason } => {
                w.u64("resource", *resource).str("reason", reason);
            }
            Event::MessageDropped { from, to } => {
                w.u64("from", *from).u64("to", *to);
            }
            Event::MessageDuplicated { from, to, copies } => {
                w.u64("from", *from).u64("to", *to).u64("copies", *copies);
            }
            Event::MessageDelayed { from, to, ticks } => {
                w.u64("from", *from).u64("to", *to).u64("ticks", *ticks);
            }
            Event::RoundAdvanced { tick } => {
                w.u64("tick", *tick);
            }
            Event::KeyOp { op, nanos } => {
                w.str("op", op.name()).u64("nanos", *nanos);
            }
            Event::CheckpointTaken { resource, tick } => {
                w.u64("resource", *resource).u64("tick", *tick);
            }
            Event::JournalReplayed { resource } => {
                w.u64("resource", *resource);
            }
            Event::RecoveryRejected { resource, reason } => {
                w.u64("resource", *resource).str("reason", reason);
            }
            Event::RetryExhausted { resource, spent } => {
                w.u64("resource", *resource).u64("spent", *spent);
            }
            Event::PeerConnected { resource, session } => {
                w.u64("resource", *resource).u64("session", *session);
            }
            Event::PeerDisconnected { resource, reason } => {
                w.u64("resource", *resource).str("reason", reason);
            }
            Event::PeerReconnected { resource, attempts } => {
                w.u64("resource", *resource).u64("attempts", *attempts);
            }
            Event::FrameRejected { from, reason } => {
                w.u64("from", *from).str("reason", reason);
            }
            Event::CheckpointPersistFailed { resource, reason } => {
                w.u64("resource", *resource).str("reason", reason);
            }
        }
        w.finish()
    }

    /// Parse one line previously produced by [`Event::to_json`].
    ///
    /// Returns `None` on malformed input or an unknown `"type"`. The
    /// parser accepts exactly the flat-object dialect this crate emits —
    /// it is a round-trip companion, not a general JSON reader.
    pub fn from_json(line: &str) -> Option<Event> {
        let obj = parse_flat_object(line)?;
        let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let u = |k: &str| -> Option<u64> {
            match get(k)? {
                JsonValue::Num(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            }
        };
        let i = |k: &str| -> Option<i64> {
            match get(k)? {
                JsonValue::Num(n) => Some(*n),
                _ => None,
            }
        };
        let s = |k: &str| -> Option<String> {
            match get(k)? {
                JsonValue::Str(v) => Some(v.clone()),
                _ => None,
            }
        };
        let b = |k: &str| -> Option<bool> {
            match get(k)? {
                JsonValue::Bool(v) => Some(*v),
                _ => None,
            }
        };
        let kind = EventKind::parse(&s("type")?)?;
        Some(match kind {
            EventKind::CounterSent => Event::CounterSent {
                from: u("from")?,
                to: u("to")?,
                rule: s("rule")?,
                bytes: u("bytes")?,
                resend: b("resend")?,
            },
            EventKind::CounterReceived => {
                Event::CounterReceived { at: u("at")?, from: u("from")?, rule: s("rule")? }
            }
            EventKind::WellformednessRejected => {
                Event::WellformednessRejected { at: u("at")?, from: u("from")? }
            }
            EventKind::SfeQuery => Event::SfeQuery {
                resource: u("resource")?,
                kind: SfeKind::parse(&s("kind")?)?,
                rule: s("rule")?,
            },
            EventKind::SfeAnswer => Event::SfeAnswer {
                resource: u("resource")?,
                kind: SfeKind::parse(&s("kind")?)?,
                answer: b("answer")?,
            },
            EventKind::SfeRetry => Event::SfeRetry { resource: u("resource")?, spent: u("spent")? },
            EventKind::OutputDecision => Event::OutputDecision {
                resource: u("resource")?,
                rule: s("rule")?,
                count: i("count")?,
                num: i("num")?,
                answer: b("answer")?,
            },
            EventKind::VerdictIssued => Event::VerdictIssued {
                resource: u("resource")?,
                verdict: VerdictKind::parse(&s("verdict")?)?,
                culprit: u("culprit")?,
            },
            EventKind::ResourceCrashed => {
                Event::ResourceCrashed { resource: u("resource")?, tick: u("tick")? }
            }
            EventKind::ResourceRecovered => {
                Event::ResourceRecovered { resource: u("resource")?, tick: u("tick")? }
            }
            EventKind::ResourceDeparted => {
                Event::ResourceDeparted { resource: u("resource")?, tick: u("tick")? }
            }
            EventKind::ResourceQuarantined => {
                Event::ResourceQuarantined { resource: u("resource")?, tick: u("tick")? }
            }
            EventKind::ResourceDegraded => {
                Event::ResourceDegraded { resource: u("resource")?, reason: s("reason")? }
            }
            EventKind::MessageDropped => Event::MessageDropped { from: u("from")?, to: u("to")? },
            EventKind::MessageDuplicated => {
                Event::MessageDuplicated { from: u("from")?, to: u("to")?, copies: u("copies")? }
            }
            EventKind::MessageDelayed => {
                Event::MessageDelayed { from: u("from")?, to: u("to")?, ticks: u("ticks")? }
            }
            EventKind::RoundAdvanced => Event::RoundAdvanced { tick: u("tick")? },
            EventKind::KeyOp => {
                Event::KeyOp { op: KeyOpKind::parse(&s("op")?)?, nanos: u("nanos")? }
            }
            EventKind::CheckpointTaken => {
                Event::CheckpointTaken { resource: u("resource")?, tick: u("tick")? }
            }
            EventKind::JournalReplayed => Event::JournalReplayed { resource: u("resource")? },
            EventKind::RecoveryRejected => {
                Event::RecoveryRejected { resource: u("resource")?, reason: s("reason")? }
            }
            EventKind::RetryExhausted => {
                Event::RetryExhausted { resource: u("resource")?, spent: u("spent")? }
            }
            EventKind::PeerConnected => {
                Event::PeerConnected { resource: u("resource")?, session: u("session")? }
            }
            EventKind::PeerDisconnected => {
                Event::PeerDisconnected { resource: u("resource")?, reason: s("reason")? }
            }
            EventKind::PeerReconnected => {
                Event::PeerReconnected { resource: u("resource")?, attempts: u("attempts")? }
            }
            EventKind::FrameRejected => {
                Event::FrameRejected { from: u("from")?, reason: s("reason")? }
            }
            EventKind::CheckpointPersistFailed => {
                Event::CheckpointPersistFailed { resource: u("resource")?, reason: s("reason")? }
            }
        })
    }
}

// ── flat-object JSON plumbing ─────────────────────────────────────────

enum JsonValue {
    Num(i64),
    Str(String),
    Bool(bool),
}

struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    fn new(ty: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"type\":\"");
        buf.push_str(ty);
        buf.push('"');
        JsonWriter { buf }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        self.buf.push_str(",\"");
        self.buf.push_str(k);
        self.buf.push_str("\":");
        self
    }

    fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parse a single flat `{"k":scalar,...}` object.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = line.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next()? != '{' {
        return None;
    }
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = match chars.peek()? {
            '"' => JsonValue::Str(parse_string(&mut chars)?),
            't' => {
                for expect in "true".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                JsonValue::Bool(true)
            }
            'f' => {
                for expect in "false".chars() {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                JsonValue::Bool(false)
            }
            _ => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '-' || c.is_ascii_digit() {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonValue::Num(num.parse().ok()?)
            }
        };
        out.push((key, value));
    }
    // Trailing garbage after the closing brace is malformed.
    if chars.next().is_some() {
        return None;
    }
    Some(out)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    s.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<Event> {
        vec![
            Event::CounterSent {
                from: 0,
                to: 1,
                rule: "{1} => {2}".into(),
                bytes: 640,
                resend: false,
            },
            Event::CounterReceived { at: 1, from: 0, rule: "freq {1, 2}".into() },
            Event::WellformednessRejected { at: 1, from: 2 },
            Event::SfeQuery { resource: 3, kind: SfeKind::Send, rule: "r".into() },
            Event::SfeAnswer { resource: 3, kind: SfeKind::Output, answer: true },
            Event::SfeRetry { resource: 6, spent: 4 },
            Event::OutputDecision {
                resource: 2,
                rule: "esc\"ape\\n".into(),
                count: -7,
                num: 40,
                answer: false,
            },
            Event::VerdictIssued { resource: 1, verdict: VerdictKind::Resource, culprit: 0 },
            Event::ResourceCrashed { resource: 5, tick: 20 },
            Event::ResourceRecovered { resource: 5, tick: 31 },
            Event::ResourceDeparted { resource: 7, tick: 9 },
            Event::ResourceQuarantined { resource: 6, tick: 44 },
            Event::ResourceDegraded { resource: 6, reason: "MuteController".into() },
            Event::MessageDropped { from: 2, to: 3 },
            Event::MessageDuplicated { from: 2, to: 3, copies: 2 },
            Event::MessageDelayed { from: 4, to: 3, ticks: 1 },
            Event::RoundAdvanced { tick: 12 },
            Event::KeyOp { op: KeyOpKind::Modpow, nanos: 48_213 },
            Event::CheckpointTaken { resource: 3, tick: 15 },
            Event::JournalReplayed { resource: 5 },
            Event::RecoveryRejected { resource: 5, reason: "image digest mismatch".into() },
            Event::RetryExhausted { resource: 6, spent: 8 },
            Event::PeerConnected { resource: 2, session: 0x5E_5510 },
            Event::PeerDisconnected { resource: 2, reason: "heartbeat deadline".into() },
            Event::PeerReconnected { resource: 2, attempts: 3 },
            Event::FrameRejected { from: 4, reason: "checksum mismatch".into() },
            Event::CheckpointPersistFailed { resource: 3, reason: "disk full".into() },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let events = exemplars();
        assert_eq!(events.len(), EventKind::COUNT, "exemplar list covers every variant");
        for e in events {
            let line = e.to_json();
            let back =
                Event::from_json(&line).unwrap_or_else(|| panic!("failed to parse back: {line}"));
            assert_eq!(back, e, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn kind_names_parse_back() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::parse("NotAnEvent"), None);
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"type":"CounterSent"}"#,
            r#"{"type":"Unknown","from":0}"#,
            r#"{"type":"RoundAdvanced","tick":1} trailing"#,
            r#"{"type":"RoundAdvanced","tick":"one"}"#,
        ] {
            assert!(Event::from_json(bad).is_none(), "accepted malformed line: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_survive() {
        let e = Event::ResourceDegraded {
            resource: 0,
            reason: "tab\there \"quoted\" back\\slash\nnewline \u{1}ctl".into(),
        };
        assert_eq!(Event::from_json(&e.to_json()), Some(e));
    }
}
