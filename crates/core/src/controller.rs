//! The controller (Algorithm 3): decryption-key holder, SFE responder,
//! privacy gatekeeper and malicious-behaviour auditor.
//!
//! The controller never volunteers information: it answers exactly two
//! kinds of broker queries — "should I send to neighbor v?" and "is this
//! candidate rule correct?" — each releasing a single bit, gated by the
//! k-privacy rule of §5.1, and each evaluated on the plaintexts it opened
//! and audited in the same call. Before answering anything it audits the
//! broker-supplied aggregates:
//!
//! * authentication tags must verify (forged/spliced counters ⇒ the local
//!   broker is malicious);
//! * the share field of the full aggregate must decrypt to 1 (a neighbor
//!   counted zero or twice ⇒ the local broker is malicious, §5.2);
//! * no timestamp may regress below the controller's trace (an old counter
//!   was reused ⇒ the resource owning that slot is blamed, §5.2);
//! * `full` must contain each `recv-v` it is asked about — no more
//!   resources in `recv-v` than in `full`, no timestamp slot of `recv-v`
//!   above `full`'s (else the local broker is malicious).
//!
//! On a positive send decision the controller itself seals the outgoing
//! message — receiver-addressed share, fresh Lamport timestamp — which is
//! what makes honest aggregation verifiable end to end. What it seals is
//! `full − recv-v`, taken on the two plaintexts: a broker-supplied third
//! input could prove nothing, because tags are linear and a broker builds
//! a consistent `full ⊖ r'` for any valid counter `r'` it holds, key-free.
//! Naming a counter other than `v`'s latest as `recv-v` damages only the
//! validity of the liar's own resource.
//!
//! Each SFE input is opened once per content. A rule change asks about
//! every neighbor at the same `full` aggregate, so
//! [`Controller::send_queries`] takes them together, and between two
//! waves usually one input has new ciphertexts: per rule and input slot
//! (`full`, and `recv-v` per neighbor) the controller remembers the
//! counter it last opened there with its plaintext. The inputs that
//! differ from what is remembered decrypt in one wave and their tags
//! verify in one combined check; the rest are read back. Either way
//! `full` is audited once a wave, and the per-edge decisions then run in
//! neighbor order exactly as separate queries would. The share a neighbor
//! assigned to this resource is the same ciphertext for a whole
//! membership epoch; it is decrypted once and remembered by its bytes.
//!
//! Like any Lamport-clock scheme, the timestamp traces assume FIFO
//! links: reordering two honest messages on one edge is
//! indistinguishable from a replay and will be blamed as one. The
//! simulator's delay model preserves per-edge ordering accordingly.

use gridmine_arm::CandidateRule;
use gridmine_obs::{emit, Event, SfeKind, SharedRecorder, VerdictKind};
use gridmine_paillier::{HomCipher, TagKey};

use crate::counter::{CounterLayout, SecureCounter};
use crate::keyring::TagKeyring;
use crate::plain::PlainCounter;
use crate::rules::{PerRule, RuleId};
use crate::sfe::{be_word, majority_send_cond, GateMode, KGate};
use crate::shares::share_reduce;

/// A malicious-behaviour finding, broadcast grid-wide when raised
/// (Algorithm 3 "broadcast that … is malicious and halt").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The co-resident broker forged, spliced or mis-aggregated counters.
    MaliciousBroker(usize),
    /// The named resource replayed stale counters (timestamp regression).
    MaliciousResource(usize),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::MaliciousBroker(u) => write!(f, "broker of resource {u} is malicious"),
            Verdict::MaliciousResource(u) => write!(f, "resource {u} is malicious"),
        }
    }
}

impl Verdict {
    /// The observability event announcing this verdict, as issued at
    /// resource `at`.
    pub fn to_event(self, at: usize) -> Event {
        match self {
            Verdict::MaliciousBroker(u) => Event::VerdictIssued {
                resource: at as u64,
                verdict: VerdictKind::Broker,
                culprit: u as u64,
            },
            Verdict::MaliciousResource(u) => Event::VerdictIssued {
                resource: at as u64,
                verdict: VerdictKind::Resource,
                culprit: u as u64,
            },
        }
    }
}

/// The per-rule controller state a crash must not lose.
///
/// A crash loses what a killed process loses, the controller's audit
/// state included, and [`crate::SecureResource::crash_wipe`] hands this
/// image over with the recovery log so the restore can re-seat it. A
/// rejoiner whose clock restarted at zero could seal outgoing timestamps
/// *below* what its neighbors already audited, getting itself blamed as a
/// replayer, and one whose k-gates restarted could disclose again over an
/// almost identical population. The image carries exactly the state that
/// must not regress: the outgoing clock and the disclosure registers of
/// the k-gates. Timestamp traces are deliberately absent: a rejoin is a
/// membership epoch, and traces restart from zero just as
/// [`Controller::set_layout`] does. So are the duplicate-send
/// suppressors: the rejoiner heals every edge in the tick it is restored,
/// which lifts them all before anything reads them.
///
/// At rest (the image's `audits` tree) an image is one store entry: the
/// rule's canonical key ([`CandidateRule::key`]) and a value of
/// fixed-width big-endian fields — `clock`, the output gate, a slot count,
/// then per neighbor slot `v` and its send gate (see
/// [`AuditImage::to_entry`]).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AuditImage {
    pub rule: CandidateRule,
    pub clock: i64,
    pub output_gate: KGate,
    pub send_gates: Vec<(usize, KGate)>,
}

impl AuditImage {
    /// The image as one store entry `(key, value)`.
    pub fn to_entry(&self) -> (Vec<u8>, Vec<u8>) {
        let mut value = Vec::with_capacity(64 + 48 * self.send_gates.len());
        value.extend_from_slice(&self.clock.to_be_bytes());
        self.output_gate.encode(&mut value);
        value.extend_from_slice(&(self.send_gates.len() as u32).to_be_bytes());
        for (v, gate) in &self.send_gates {
            value.extend_from_slice(&(*v as u64).to_be_bytes());
            gate.encode(&mut value);
        }
        (self.rule.key(), value)
    }

    /// Total inverse of [`AuditImage::to_entry`]. Both halves come from
    /// disk: `None` for a key that is not a rule's canonical one, or a
    /// value that is not exactly one encoding — cut short, running long,
    /// a gate no constructor builds, a mode or bool byte out of range, a
    /// neighbor id past `usize`.
    pub fn from_entry(key: &[u8], value: &[u8]) -> Option<AuditImage> {
        let rule = CandidateRule::from_key(key)?;
        let (clock, rest) = be_word(value)?;
        let (output_gate, rest) = KGate::decode(rest)?;
        let (slots, mut rest) = rest.split_first_chunk()?;
        let mut send_gates = Vec::new();
        for _ in 0..u32::from_be_bytes(*slots) {
            let (v, tail) = be_word(rest)?;
            let (gate, tail) = KGate::decode(tail)?;
            send_gates.push((usize::try_from(v as u64).ok()?, gate));
            rest = tail;
        }
        rest.is_empty().then_some(AuditImage { rule, clock, output_gate, send_gates })
    }
}

/// What a rule's audit keeps toward one neighbor.
#[derive(Clone, Default)]
struct EdgeAudit {
    /// The send k-gate, once the edge was first asked about.
    gate: Option<KGate>,
    /// Plaintext (sum, count, num) last sealed toward the neighbor — both
    /// the `Δ^uv` ingredient and the duplicate-send suppressor.
    last_sent: Option<(i64, i64, i64)>,
}

/// An SFE input as last opened: the counter, its plaintext, and the wave
/// that last confirmed the two belong together.
#[derive(Clone)]
struct Opened<C: HomCipher> {
    counter: SecureCounter<C>,
    plain: PlainCounter,
    wave: u64,
}

/// Per-rule audit state.
#[derive(Clone)]
struct RuleAudit<C: HomCipher> {
    rule: CandidateRule,
    output_gate: KGate,
    /// Per neighbor, in the layout's slot order.
    edges: Vec<EdgeAudit>,
    /// Timestamp traces `T̃` per slot of the own layout.
    traces: Vec<i64>,
    /// This resource's logical clock for outgoing messages of this rule.
    clock: i64,
    /// Per SFE input slot — `full` first, then `recv-v` per neighbor in
    /// slot order — what was last opened there. A hit needs the very same
    /// layout, ciphertexts and tag, so an entry can be stale but never
    /// wrong: whatever is read back passed decryption and tag check as
    /// exactly these bytes. Not part of [`AuditImage`]; a restarted
    /// controller opens everything again.
    opened: Vec<Option<Opened<C>>>,
}

impl<C: HomCipher> RuleAudit<C> {
    fn new(rule: CandidateRule, output_gate: KGate, clock: i64, degree: usize) -> Self {
        RuleAudit {
            rule,
            output_gate,
            edges: vec![EdgeAudit::default(); degree],
            traces: vec![0; 1 + degree],
            clock,
            opened: vec![None; 1 + degree],
        }
    }
}

/// The controller of one resource.
#[derive(Clone)]
pub struct Controller<C: HomCipher> {
    id: usize,
    cipher: C,
    tags: TagKeyring,
    /// What every SFE input is opened with — the tag key of the own
    /// layout's arity — derived when the layout is set.
    key: TagKey,
    /// The keys outgoing messages were sealed under since, one per
    /// receiver arity met.
    seal_keys: Vec<TagKey>,
    k: i64,
    gate_mode: GateMode,
    layout: CounterLayout,
    rules: PerRule<RuleAudit<C>>,
    /// Per neighbor, in slot order, the share ciphertext last supplied
    /// for it and its reduced plaintext. A hit needs the very same
    /// ciphertext, so a broker that swaps the share gets the decryption
    /// of what it supplied, as without the cache.
    shares_seen: Vec<Option<(C::Ct, i64)>>,
    /// Serial of the last wave of inputs opened (see [`Opened`]).
    wave: u64,
    /// The inputs of that wave that had to be decrypted, by position
    /// (`full`, then the edges in order); a buffer kept between waves.
    missed: Vec<usize>,
    halted: Option<Verdict>,
    /// SFE queries served (protocol-cost accounting).
    pub queries_served: u64,
    /// Observability sink (`NullRecorder` by default).
    rec: SharedRecorder,
}

/// The outgoing messages one wave of send queries sealed, by neighbor.
pub type SealedEdges<C> = Vec<(usize, SecureCounter<C>)>;

/// One neighbor's inputs to the `MajorityCond(v)`/`Update(v)` SFE.
pub struct SendEdge<'a, C: HomCipher> {
    /// The neighbor asked about.
    pub v: usize,
    /// Its counter layout (the outgoing message is sealed under it).
    pub receiver_layout: &'a CounterLayout,
    /// The latest counter received from `v`, as the broker stores it.
    pub recv_v: &'a SecureCounter<C>,
    /// The encrypted share `v`'s accountant assigned to this resource at
    /// initialization.
    pub share_for_me: &'a C::Ct,
}

impl<C: HomCipher> Controller<C> {
    /// Builds a controller for resource `id` with its counter layout.
    ///
    /// # Panics
    /// Panics if the cipher handle cannot decrypt — a controller without
    /// the key is a configuration bug, not a runtime condition.
    pub fn new(id: usize, cipher: C, tags: TagKeyring, k: i64, layout: CounterLayout) -> Self {
        assert!(cipher.can_decrypt(), "controller requires the decryption key");
        Controller {
            id,
            key: tags.key(layout.arity()),
            cipher,
            seal_keys: Vec::new(),
            tags,
            k,
            gate_mode: GateMode::default(),
            shares_seen: vec![None; layout.neighbors.len()],
            layout,
            rules: PerRule::default(),
            wave: 0,
            missed: Vec::new(),
            halted: None,
            queries_served: 0,
            rec: gridmine_obs::null(),
        }
    }

    /// Attaches an observability recorder; SFE queries, answers, output
    /// decisions and verdicts are reported through it.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        self.rec = rec;
    }

    /// The verdict that halted this controller, if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.halted
    }

    /// Switches the privacy-gate mode (see [`GateMode`]); applies to gates
    /// created afterwards, so call it right after construction.
    pub fn set_gate_mode(&mut self, mode: GateMode) {
        self.gate_mode = mode;
    }

    /// Replaces the layout after a membership change (Algorithm 2
    /// regenerates shares on any change in `N_t^u`).
    ///
    /// Privacy state is *preserved*: the k-gates keep their disclosure
    /// registers — a membership change must not re-permit disclosure over
    /// an almost-identical population. Timestamp traces *reset*: the
    /// broker's counter state restarts from placeholders in the new
    /// epoch, and cross-epoch replay is blocked by the regenerated shares
    /// (a stale-epoch counter carries a stale share, breaking the sum-to-1
    /// audit). The outgoing clock continues, so this resource's own
    /// messages never regress at its neighbors. Remembered share
    /// plaintexts are forgotten with the epoch that assigned them,
    /// remembered openings with the layout they were opened under, and
    /// the tag keys are derived again for the new arities.
    pub fn set_layout(&mut self, layout: CounterLayout) {
        let degree = layout.neighbors.len();
        for audit in self.rules.values_mut() {
            audit.edges = self.layout.reslot(&layout, std::mem::take(&mut audit.edges));
            audit.traces = vec![0; 1 + degree];
            audit.opened = vec![None; 1 + degree];
        }
        self.key = self.tags.key(layout.arity());
        self.seal_keys.clear();
        self.shares_seen = vec![None; degree];
        self.layout = layout;
    }

    /// Clears the duplicate-send suppressor toward `v` for every rule, so
    /// the next send evaluation may resend the current aggregate — used
    /// when `v` rebuilt its counter state after a membership change and
    /// needs our data again. The k-gates are untouched.
    pub fn reset_edge(&mut self, v: usize) {
        let Some(at) = self.layout.slot_of(v) else { return };
        for edge in self.rules.values_mut().filter_map(|audit| audit.edges.get_mut(at)) {
            edge.last_sent = None;
        }
    }

    /// Restarts the timestamp trace of `v`'s slot for every rule: `v`
    /// rejoined and its counters start over — the membership epoch of
    /// [`Controller::set_layout`], at this end of one edge.
    pub(crate) fn restart_trace(&mut self, v: usize) {
        let Some(at) = self.layout.slot_of(v) else { return };
        for trace in self.rules.values_mut().filter_map(|audit| audit.traces.get_mut(1 + at)) {
            *trace = 0;
        }
    }

    /// Exports the audit state of every rule a crash must not lose, in
    /// rule-id order; at rest the `audits` tree orders them by canonical
    /// rule key. See [`AuditImage`].
    pub fn export_audits(&self) -> Vec<AuditImage> {
        self.rules
            .iter()
            .map(|(_, audit)| AuditImage {
                rule: audit.rule.clone(),
                clock: audit.clock,
                output_gate: audit.output_gate,
                send_gates: self
                    .layout
                    .neighbors
                    .iter()
                    .zip(&audit.edges)
                    .filter_map(|(&v, e)| Some((v, e.gate?)))
                    .collect(),
            })
            .collect()
    }

    /// A crash: every rule's audit state is gone, as in a killed process.
    pub(crate) fn wipe_audits(&mut self) {
        self.rules.clear();
    }

    /// Re-seats exported audit state after a crash, each image under the
    /// id `id_of` resolves its rule to, in place of whatever the
    /// controller held. Timestamp traces restart from zero (rejoin =
    /// membership epoch) and so do the suppressors; clocks and gates
    /// resume where the crash left them, so this resource's outgoing
    /// timestamps never regress at its neighbors.
    ///
    /// The images come from disk and are screened like it: a clock that
    /// is not the `u32` a timestamp slot seals refuses the whole import
    /// (`false`, nothing re-seated).
    pub fn import_audits(
        &mut self,
        images: Vec<AuditImage>,
        mut id_of: impl FnMut(&CandidateRule) -> RuleId,
    ) -> bool {
        if images.iter().any(|img| u32::try_from(img.clock).is_err()) {
            return false;
        }
        self.rules.clear();
        let degree = self.layout.neighbors.len();
        for img in images {
            let id = id_of(&img.rule);
            let mut audit = RuleAudit::new(img.rule, img.output_gate, img.clock, degree);
            for (v, gate) in img.send_gates {
                if let Some(edge) = self.layout.slot_of(v).and_then(|at| audit.edges.get_mut(at)) {
                    edge.gate = Some(gate);
                }
            }
            self.rules.insert(id, audit);
        }
        true
    }

    fn audit_state(&mut self, id: RuleId, rule: &CandidateRule) -> &mut RuleAudit<C> {
        // Cloning the rule only when it is new: every SFE query comes
        // through here.
        self.rules.get_or_insert_with(id, || {
            let gate = KGate::with_mode(self.k, self.gate_mode);
            RuleAudit::new(rule.clone(), gate, 0, self.layout.neighbors.len())
        })
    }

    fn raise(&mut self, v: Verdict) -> Verdict {
        self.halted = Some(v);
        emit(&self.rec, || v.to_event(self.id));
        v
    }

    /// Opens the SFE inputs of a rule — `full` at slot 0, each edge's
    /// `recv_v` at its neighbor's (see [`RuleAudit::opened`]) — as one
    /// wave with a fresh serial. An input whose bytes are those last
    /// opened at its slot is confirmed under the serial; the others
    /// decrypt together, verify their tags in one combined check, and
    /// their plaintexts are read into the slots that remember them. An
    /// input left without the serial did not open under this resource's
    /// key (or names no neighbor) — every counter of an honest wave is
    /// sealed under its layout.
    fn open_inputs(
        &mut self,
        id: RuleId,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
        edges: &[SendEdge<'_, C>],
    ) {
        self.wave += 1;
        self.audit_state(id, rule);
        let Controller { rules, cipher, key, layout, wave, missed, .. } = self;
        let Some(RuleAudit { opened, .. }) = rules.get_mut(id) else { return };
        // The input at position `i` of the wave, with its slot.
        let input = |i: usize| match i.checked_sub(1) {
            None => Some((0, full)),
            Some(e) => edges.get(e).and_then(|e| Some((1 + layout.slot_of(e.v)?, e.recv_v))),
        };
        missed.clear();
        for (i, (slot, counter)) in (0..=edges.len()).filter_map(|i| Some((i, input(i)?))) {
            match opened.get_mut(slot) {
                Some(Some(seen)) if seen.counter == *counter => seen.wave = *wave,
                Some(_) => missed.push(i),
                None => {}
            }
        }
        if missed.is_empty() {
            return;
        }
        let wave_inputs = missed.iter().filter_map(|&i| input(i));
        SecureCounter::open_wave(cipher, key, wave_inputs.clone().map(|(_, c)| c), |i, fields| {
            let (Ok(fields), Some((slot, counter))) = (fields, wave_inputs.clone().nth(i)) else {
                return;
            };
            let Some(at) = opened.get_mut(slot) else { return };
            // The plaintext first: a slot never pairs a counter with
            // fields that are not its own.
            let reread = at.as_mut().is_some_and(|seen| seen.plain.read(fields).is_ok());
            match at {
                Some(seen) if reread => {
                    seen.counter.clone_from(counter);
                    seen.wave = *wave;
                }
                _ => {
                    *at = PlainCounter::of(fields).ok().map(|plain| Opened {
                        counter: counter.clone(),
                        plain,
                        wave: *wave,
                    });
                }
            }
        });
    }

    /// Full-aggregate audit: share and timestamp checks of Algorithm 3.
    /// Returns the aggregate's `(sum, count, num)`.
    fn audit_full(
        &mut self,
        id: RuleId,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
    ) -> Result<(i64, i64, i64), Verdict> {
        if full.layout != self.layout {
            return Err(self.raise(Verdict::MaliciousBroker(self.id)));
        }
        self.open_inputs(id, rule, full, &[]);
        self.audit_full_plain(id)
    }

    /// Plaintext half of the full-aggregate audit, on what the last wave
    /// left at slot 0. Runs on every query, on a remembered plaintext as
    /// on a fresh one: the traces it holds `full` to move between queries
    /// even when `full` does not.
    fn audit_full_plain(&mut self, id: RuleId) -> Result<(i64, i64, i64), Verdict> {
        let broker = Verdict::MaliciousBroker(self.id);
        let wave = self.wave;
        let full = self.rules.get_mut(id).and_then(|audit| {
            let seen = audit.opened.first()?.as_ref().filter(|seen| seen.wave == wave)?;
            Some((&seen.plain, &mut audit.traces))
        });
        let blame = match full {
            None => broker,
            Some((p, _)) if p.share != 1 => broker,
            // Timestamp traces: slot 0 is the own accountant (⊥), slot i+1
            // the i-th neighbor.
            Some((p, traces)) => match p.ts.iter().zip(&*traces).position(|(t, seen)| t < seen) {
                None => {
                    traces.copy_from_slice(&p.ts);
                    return Ok((p.sum, p.count, p.num));
                }
                Some(slot) => Verdict::MaliciousResource(
                    slot.checked_sub(1)
                        .and_then(|i| self.layout.neighbors.get(i).copied())
                        .unwrap_or(self.id),
                ),
            },
        };
        Err(self.raise(blame))
    }

    /// The `Output()` SFE of Algorithm 1: is the candidate rule's majority
    /// `Δ^u = λ.delta(Σsum, Σcount)` non-negative? Gated by k; a gated
    /// query returns the previous answer. `id` is where the caller files
    /// `rule`; the controller files its audit state for it there too.
    ///
    /// The answer is evaluated on the plaintext of `full` that this call
    /// opens and audits (share, timestamps) anyway: the controller holds
    /// the key and reads that whole tuple, `Σsum` included, so its view of
    /// the output SFE is a subset of its view of the audit.
    pub fn output_query(
        &mut self,
        id: RuleId,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
    ) -> Result<bool, Verdict> {
        if let Some(v) = self.halted {
            return Err(v);
        }
        self.queries_served += 1;
        emit(&self.rec, || Event::SfeQuery {
            resource: self.id as u64,
            kind: SfeKind::Output,
            rule: rule.to_string(),
        });
        let (sum, count, num) = self.audit_full(id, rule, full)?;
        let sign_nonneg = rule.lambda.delta(sum, count) >= 0;
        let resource = self.id as u64;
        let ans = self.audit_state(id, rule).output_gate.disclose(count, num, || sign_nonneg);
        emit(&self.rec, || Event::OutputDecision {
            resource,
            rule: rule.to_string(),
            count,
            num,
            answer: ans,
        });
        emit(&self.rec, || Event::SfeAnswer { resource, kind: SfeKind::Output, answer: ans });
        Ok(ans)
    }

    /// The `MajorityCond(v)`/`Update(v)` SFE, for every edge a rule change
    /// asks about: should a message be sent to neighbor `v`, and if so,
    /// here is the sealed outgoing message. `id` as in
    /// [`Controller::output_query`].
    ///
    /// `full` is the broker's complete aggregate, the same for every
    /// edge. Of the `1 + edges` counters, those not already opened as
    /// these bytes are opened in one wave; `full` is audited once; then
    /// each edge is answered in order — its own `SfeQuery`/`SfeAnswer`
    /// pair, k-gate, suppressor and Lamport step — exactly as if it had
    /// been asked alone.
    ///
    /// Returns the messages sealed, by neighbor, and the verdict that
    /// stopped the wave, if one did: a failure at one edge leaves the
    /// earlier edges' messages sealed and returned.
    pub fn send_queries(
        &mut self,
        id: RuleId,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
        edges: &[SendEdge<'_, C>],
    ) -> (SealedEdges<C>, Result<(), Verdict>) {
        let mut sealed = Vec::new();
        if let Some(verdict) = self.halted {
            return (sealed, Err(verdict));
        }
        if edges.is_empty() {
            return (sealed, Ok(()));
        }
        // An input that does not open is blamed below, at the edge that
        // meets it first.
        self.open_inputs(id, rule, full, edges);
        for (i, edge) in edges.iter().enumerate() {
            emit(&self.rec, || Event::SfeQuery {
                resource: self.id as u64,
                kind: SfeKind::Send,
                rule: rule.to_string(),
            });
            self.queries_served += 1;
            // In protocol order, so the verdict blames the first failure,
            // exactly as one query per edge did: `full` and its audit
            // (met by the first edge; re-auditing the same plaintext per
            // edge is a no-op), then this edge's `recv_v`.
            if i == 0 {
                let audit = if full.layout == self.layout {
                    self.audit_full_plain(id)
                } else {
                    Err(self.raise(Verdict::MaliciousBroker(self.id)))
                };
                if let Err(verdict) = audit {
                    return (sealed, Err(verdict));
                }
            }
            match self.send_decision(id, edge) {
                Ok(decision) => {
                    emit(&self.rec, || Event::SfeAnswer {
                        resource: self.id as u64,
                        kind: SfeKind::Send,
                        answer: decision.is_some(),
                    });
                    sealed.extend(decision.map(|counter| (edge.v, counter)));
                }
                Err(verdict) => return (sealed, Err(verdict)),
            }
        }
        (sealed, Ok(()))
    }

    /// The reduced plaintext of the share `v` assigned to this resource,
    /// decrypted once per distinct ciphertext (see `shares_seen`).
    fn share_plain(&mut self, v: usize, share_for_me: &C::Ct) -> i64 {
        let seen = self.layout.slot_of(v).and_then(|at| self.shares_seen.get_mut(at));
        match seen {
            Some(Some((seen, plain))) if seen == share_for_me => *plain,
            _ => {
                let plain = share_reduce(self.cipher.decrypt_i64(share_for_me));
                if let Some(seen) = seen {
                    *seen = Some((share_for_me.clone(), plain));
                }
                plain
            }
        }
    }

    /// One edge of [`Controller::send_queries`], on the inputs the wave
    /// opened: the decision, then the seal.
    fn send_decision(
        &mut self,
        id: RuleId,
        edge: &SendEdge<'_, C>,
    ) -> Result<Option<SecureCounter<C>>, Verdict> {
        let ((sum, count, num), t_out) = match self.decide(id, edge.v) {
            Ok(Some(send)) => send,
            Ok(None) => return Ok(None),
            Err(verdict) => return Err(self.raise(verdict)),
        };
        let share_plain = self.share_plain(edge.v, edge.share_for_me);
        let arity = edge.receiver_layout.arity();
        let at = self.seal_keys.iter().position(|key| key.arity() == arity).unwrap_or_else(|| {
            self.seal_keys.push(self.tags.key(arity));
            self.seal_keys.len() - 1
        });
        // The caller resolved `receiver_layout` from its own neighbor set,
        // so the sender always has a timestamp slot in it; a `None` here is
        // a wiring bug on the trusted side or a value no slot seals (a
        // clock or resource count driven past 2³² from outside) — nothing
        // is sent either way.
        Ok(SecureCounter::seal_outgoing(
            &self.cipher,
            &self.seal_keys[at],
            edge.receiver_layout,
            self.id,
            sum,
            count,
            num,
            share_plain,
            t_out,
        ))
    }

    /// Whether rule `id`'s aggregate goes out toward `v`, on the
    /// plaintexts the wave left at their slots: the payload and the
    /// Lamport time to seal it with, `None` for "do not send", or the
    /// verdict to raise.
    #[allow(clippy::type_complexity)]
    fn decide(&mut self, id: RuleId, v: usize) -> Result<Option<((i64, i64, i64), i64)>, Verdict> {
        let broker = Verdict::MaliciousBroker(self.id);
        let (wave, k, mode) = (self.wave, self.k, self.gate_mode);
        let (Some(at), Some(audit)) = (self.layout.slot_of(v), self.rules.get_mut(id)) else {
            return Err(broker);
        };
        let RuleAudit { rule, edges, clock, opened, .. } = audit;
        let plain = |slot: usize| {
            opened.get(slot)?.as_ref().filter(|seen| seen.wave == wave).map(|seen| &seen.plain)
        };
        let (Some(p_full), Some(p_recv), Some(edge)) = (plain(0), plain(1 + at), edges.get_mut(at))
        else {
            return Err(broker);
        };
        // What leaves toward `v` is the aggregate without `v`'s own
        // contribution. Containment: a `recv_v` that `full` cannot have
        // been summed from — more resources, or a later timestamp in any
        // slot — is a counter the broker made the pair up with.
        let payload =
            (p_full.sum - p_recv.sum, p_full.count - p_recv.count, p_full.num - p_recv.num);
        let contained = payload.2 >= 0 && p_recv.ts.iter().zip(&p_full.ts).all(|(r, f)| r <= f);
        if !contained {
            return Err(broker);
        }

        let lambda = rule.lambda;
        let delta_u = lambda.delta(p_full.sum, p_full.count);
        let last = edge.last_sent.unwrap_or((0, 0, 0));
        let delta_uv = lambda.delta(last.0 + p_recv.sum, last.1 + p_recv.count);

        let gate = edge.gate.get_or_insert_with(|| KGate::with_mode(k, mode));
        // §5.1: send when the Majority-Rule condition holds, OR when
        // fewer than k new transactions / k new resources arrived since
        // the last disclosure (the data-independent default is to send).
        let decision = if gate.is_fresh(p_full.count, p_full.num) {
            gate.disclose(p_full.count, p_full.num, || majority_send_cond(delta_uv, delta_u))
        } else {
            true
        };

        // Duplicate suppression: resending an identical aggregate is a
        // no-op for the receiver; the plain protocol never does it
        // either (after a send, Δ^uv = Δ^u until something changes).
        let unsent_or_same = match edge.last_sent {
            Some(last) => payload == last,
            None => payload.2 == 0,
        };
        if !decision || unsent_or_same {
            return Ok(None);
        }

        // Lamport time: strictly above everything this aggregate saw.
        let max_ts = p_full.ts.iter().copied().max().unwrap_or(0);
        *clock = (*clock).max(max_ts) + 1;
        edge.last_sent = Some(payload);
        Ok(Some((payload, *clock)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::F_SUM;
    use crate::keyring::GridKeys;
    use gridmine_arm::{ItemSet, Ratio, Rule};
    use gridmine_paillier::MockCipher;

    fn rule() -> CandidateRule {
        CandidateRule::new(Rule::frequency(ItemSet::of(&[1])), Ratio::new(1, 2))
    }

    struct Fix {
        keys: GridKeys<MockCipher>,
        layout: CounterLayout,
        ctl: Controller<MockCipher>,
    }

    fn fix(k: i64) -> Fix {
        let keys = GridKeys::mock(9);
        let layout = CounterLayout::new(0, vec![1]);
        let ctl = Controller::new(0, keys.dec.clone(), keys.tags.clone(), k, layout.clone());
        Fix { keys, layout, ctl }
    }

    /// One edge through the wave: the single-neighbor query.
    fn send_one(
        ctl: &mut Controller<MockCipher>,
        rule: &CandidateRule,
        v: usize,
        receiver_layout: &CounterLayout,
        full: &SecureCounter<MockCipher>,
        recv_v: &SecureCounter<MockCipher>,
        share_for_me: &gridmine_paillier::MockCt,
    ) -> Result<Option<SecureCounter<MockCipher>>, Verdict> {
        let edge = SendEdge { v, receiver_layout, recv_v, share_for_me };
        let (mut sealed, verdict) = ctl.send_queries(0, rule, full, &[edge]);
        verdict.map(|()| sealed.pop().map(|(_, counter)| counter))
    }

    /// Builds a `(full, recv_v)` pair — the local counter plus neighbor
    /// 1's — with shares summing to 1 and the given vote values.
    fn pair(
        f: &Fix,
        own: (i64, i64, u32),
        from_v: (i64, i64, i64),
        ts_own: u32,
        ts_v: i64,
    ) -> (SecureCounter<MockCipher>, SecureCounter<MockCipher>) {
        let key = f.keys.tags.key(f.layout.arity());
        let own_share = share_reduce(1 - 77) as u32;
        let local = SecureCounter::seal_local(
            &f.keys.enc,
            &key,
            &f.layout,
            own.0,
            own.1,
            own.2,
            own_share,
            ts_own,
        );
        let recv = SecureCounter::seal_outgoing(
            &f.keys.enc,
            &key,
            &f.layout,
            1,
            from_v.0,
            from_v.1,
            from_v.2,
            77,
            ts_v,
        )
        .unwrap();
        (local.add(&f.keys.pub_ops, &recv), recv)
    }

    #[test]
    fn output_query_discloses_when_gate_passes() {
        let mut f = fix(2);
        // 3 + 3 = 6 transactions of which 5 support; 2 resources; λ = 1/2.
        let (full, _) = pair(&f, (2, 3, 1), (3, 3, 1), 1, 1);
        assert_eq!(f.ctl.output_query(0, &rule(), &full), Ok(true));
    }

    #[test]
    fn output_query_gated_below_k() {
        let mut f = fix(5);
        // Only 2 resources < k = 5: gated, initial cache is false even
        // though the majority holds.
        let (full, _) = pair(&f, (3, 3, 1), (3, 3, 1), 1, 1);
        assert_eq!(f.ctl.output_query(0, &rule(), &full), Ok(false));
    }

    #[test]
    fn bad_share_blames_broker() {
        let mut f = fix(1);
        let key = f.keys.tags.key(f.layout.arity());
        // Local counter alone: share ≠ 1 (its neighbor share is missing).
        let local = SecureCounter::seal_local(&f.keys.enc, &key, &f.layout, 1, 1, 1, 500, 1);
        assert_eq!(f.ctl.output_query(0, &rule(), &local), Err(Verdict::MaliciousBroker(0)));
        // Halted: all further queries refused.
        assert_eq!(f.ctl.output_query(0, &rule(), &local), Err(Verdict::MaliciousBroker(0)));
    }

    #[test]
    fn forged_counter_blames_broker() {
        let mut f = fix(1);
        let (full, _) = pair(&f, (1, 1, 1), (1, 1, 1), 1, 1);
        let mut forged = full.clone();
        forged.msg.fields[F_SUM] = f.keys.enc.encrypt_i64(999);
        assert_eq!(f.ctl.output_query(0, &rule(), &forged), Err(Verdict::MaliciousBroker(0)));
    }

    #[test]
    fn timestamp_regression_blames_slot_owner() {
        let mut f = fix(1);
        let (newer, _) = pair(&f, (1, 5, 1), (1, 5, 1), 3, 7);
        assert!(f.ctl.output_query(0, &rule(), &newer).is_ok());
        // Replay: neighbor 1's slot regresses from 7 to 2.
        let (older, _) = pair(&f, (2, 15, 1), (1, 5, 1), 4, 2);
        assert_eq!(f.ctl.output_query(0, &rule(), &older), Err(Verdict::MaliciousResource(1)));
    }

    #[test]
    fn send_query_seals_consistent_outgoing_message() {
        let mut f = fix(1);
        let (full, recv) = pair(&f, (4, 10, 1), (6, 10, 1), 1, 1);
        let receiver_layout = CounterLayout::new(1, vec![0]);
        let share_for_me = f.keys.enc.encrypt_i64(123);
        let out = send_one(&mut f.ctl, &rule(), 1, &receiver_layout, &full, &recv, &share_for_me)
            .unwrap();
        let out = out.expect("first contact with data must send");
        let key = f.keys.tags.key(receiver_layout.arity());
        let p = out.open(&f.keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num), (4, 10, 1));
        assert_eq!(p.share, 123);
        // Lamport time strictly above everything seen (max ts was 1).
        assert_eq!(p.ts[receiver_layout.ts_slot(0).unwrap() - crate::counter::F_TS], 2);
    }

    #[test]
    fn recv_v_outside_full_blames_broker() {
        let f = fix(1);
        // The local vote goes against the neighbor's, so the condition
        // holds on any `recv_v` that reports nothing.
        let (full, _) = pair(&f, (0, 10, 1), (6, 10, 1), 1, 1);
        let key = f.keys.tags.key(f.layout.arity());
        let receiver_layout = CounterLayout::new(1, vec![0]);
        let share = f.keys.enc.encrypt_i64(5);
        let send = |num, ts| {
            let recv =
                SecureCounter::seal_outgoing(&f.keys.enc, &key, &f.layout, 1, 0, 0, num, 77, ts)
                    .unwrap();
            send_one(&mut f.ctl.clone(), &rule(), 1, &receiver_layout, &full, &recv, &share)
        };
        // Lies about recv_v that `full` cannot contain: more resources
        // than it counts, a later time than it saw from neighbor 1.
        assert_eq!(send(3, 1), Err(Verdict::MaliciousBroker(0)));
        assert_eq!(send(1, 2), Err(Verdict::MaliciousBroker(0)));
        // One it can is not a lie the controller could tell apart: it is
        // answered, with whatever `full` holds beyond it.
        let out = send(0, 1).unwrap().expect("first contact with data sends");
        let p = out.open(&f.keys.dec, &f.keys.tags.key(receiver_layout.arity())).unwrap();
        assert_eq!((p.sum, p.count, p.num), (6, 20, 2));
    }

    #[test]
    fn exported_audits_keep_clocks_monotone_across_a_restart() {
        let mut f = fix(1);
        let (full, recv) = pair(&f, (4, 10, 1), (6, 10, 1), 5, 9);
        let receiver_layout = CounterLayout::new(1, vec![0]);
        let share = f.keys.enc.encrypt_i64(5);
        let out = send_one(&mut f.ctl, &rule(), 1, &receiver_layout, &full, &recv, &share)
            .unwrap()
            .expect("first contact sends");
        let key = f.keys.tags.key(receiver_layout.arity());
        let sent_ts = out.open(&f.keys.dec, &key).unwrap().ts
            [receiver_layout.ts_slot(0).unwrap() - crate::counter::F_TS];
        assert_eq!(sent_ts, 10, "clock ran past the max seen timestamp");

        // Serialize the image, kill the controller, restart a fresh one.
        let images = f.ctl.export_audits();
        let json = serde_json::to_string(&images).unwrap();
        let restored: Vec<AuditImage> = serde_json::from_str(&json).unwrap();
        let mut fresh =
            Controller::new(0, f.keys.dec.clone(), f.keys.tags.clone(), 1, f.layout.clone());
        fresh.import_audits(restored, |_| 0);

        // A fresh controller without the import would reseal at ts
        // max(0, seen)+1; with it, the clock stays strictly monotone. The
        // suppressor is not part of the image: the same aggregate goes
        // out again, stamped later.
        let again = send_one(&mut fresh, &rule(), 1, &receiver_layout, &full, &recv, &share)
            .unwrap()
            .expect("the suppressor restarts with the traces");
        let ts2 = again.open(&f.keys.dec, &key).unwrap().ts
            [receiver_layout.ts_slot(0).unwrap() - crate::counter::F_TS];
        assert!(ts2 > sent_ts, "imported clock never regresses ({ts2} > {sent_ts})");
    }

    #[test]
    fn duplicate_sends_are_suppressed() {
        let mut f = fix(1);
        let (full, recv) = pair(&f, (4, 10, 1), (6, 10, 1), 1, 1);
        let receiver_layout = CounterLayout::new(1, vec![0]);
        let share = f.keys.enc.encrypt_i64(5);
        let first =
            send_one(&mut f.ctl, &rule(), 1, &receiver_layout, &full, &recv, &share).unwrap();
        assert!(first.is_some());
        // Identical aggregate again: suppressed.
        let second =
            send_one(&mut f.ctl, &rule(), 1, &receiver_layout, &full, &recv, &share).unwrap();
        assert!(second.is_none());
    }
}
