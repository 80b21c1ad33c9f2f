//! The controller (Algorithm 3): decryption-key holder, SFE responder,
//! privacy gatekeeper and malicious-behaviour auditor.
//!
//! The controller never volunteers information: it answers exactly two
//! kinds of broker queries — "should I send to neighbor v?" and "is this
//! candidate rule correct?" — each releasing a single bit, gated by the
//! k-privacy rule of §5.1. Before answering anything it audits the
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
//! validity of the liar's own resource, as a wrongly blinded `Δ` does in
//! the output SFE.
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

use std::collections::HashMap;

use gridmine_arm::CandidateRule;
use gridmine_obs::{emit, Event, SfeKind, SharedRecorder, VerdictKind};
use gridmine_paillier::HomCipher;

use crate::counter::{CounterLayout, SecureCounter};
use crate::keyring::TagKeyring;
use crate::plain::PlainCounter;
use crate::sfe::{majority_send_cond, GateMode, KGate};
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

/// Plaintext `(sum, count, num)` last sealed toward one neighbor. A named
/// struct rather than a 3-tuple so the serde derive surface stays small.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SentAggregate {
    pub sum: i64,
    pub count: i64,
    pub num: i64,
}

/// Durable per-rule controller state for *process-level* warm restarts.
///
/// The threaded driver keeps the controller object alive across a
/// simulated crash, so its Lamport clock and k-privacy gates survive by
/// construction. A real killed process loses them — and a rejoiner whose
/// clock restarted at zero can seal outgoing timestamps *below* what its
/// neighbors already audited, getting itself blamed as a replayer. This
/// image carries exactly the state that must not regress: the outgoing
/// clock, the disclosure registers of the k-gates, and the duplicate-send
/// suppressor. Timestamp traces are deliberately absent: a rejoin is a
/// membership epoch, and traces restart from zero just as
/// [`Controller::set_layout`] does.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct AuditImage {
    pub rule: CandidateRule,
    pub clock: i64,
    pub output_gate: KGate,
    pub send_gates: Vec<(usize, KGate)>,
    pub last_sent: Vec<(usize, SentAggregate)>,
}

/// Per-rule audit state.
#[derive(Clone)]
struct RuleAudit<C: HomCipher> {
    output_gate: KGate,
    send_gates: HashMap<usize, KGate>,
    /// Timestamp traces `T̃` per slot of the own layout.
    traces: Vec<i64>,
    /// This resource's logical clock for outgoing messages of this rule.
    clock: i64,
    /// Plaintext (sum, count, num) last sealed toward each neighbor —
    /// both the `Δ^uv` ingredient and the duplicate-send suppressor.
    last_sent: HashMap<usize, (i64, i64, i64)>,
    /// Per SFE input slot — `None` is `full`, `Some(v)` is `recv-v` — the
    /// counter last opened there and its plaintext. A hit needs the very
    /// same layout, ciphertexts and tag, so an entry can be stale but
    /// never wrong: whatever is read back passed decryption and tag check
    /// as exactly these bytes. Not part of [`AuditImage`]; a restarted
    /// controller opens everything again.
    opened: HashMap<Option<usize>, (SecureCounter<C>, PlainCounter)>,
}

impl<C: HomCipher> RuleAudit<C> {
    fn new(k: i64, mode: GateMode, n_slots: usize) -> Self {
        RuleAudit {
            output_gate: KGate::with_mode(k, mode),
            send_gates: HashMap::new(),
            traces: vec![0; n_slots],
            clock: 0,
            last_sent: HashMap::new(),
            opened: HashMap::new(),
        }
    }
}

/// The controller of one resource.
#[derive(Clone)]
pub struct Controller<C: HomCipher> {
    id: usize,
    cipher: C,
    tags: TagKeyring,
    k: i64,
    gate_mode: GateMode,
    layout: CounterLayout,
    rules: HashMap<CandidateRule, RuleAudit<C>>,
    /// Per neighbor, the share ciphertext last supplied for it and its
    /// reduced plaintext. A hit needs the very same ciphertext, so a
    /// broker that swaps the share gets the decryption of what it
    /// supplied, as without the cache.
    shares_seen: HashMap<usize, (C::Ct, i64)>,
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
            cipher,
            tags,
            k,
            gate_mode: GateMode::default(),
            layout,
            rules: HashMap::new(),
            shares_seen: HashMap::new(),
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
    /// plaintexts are forgotten with the epoch that assigned them, and
    /// remembered openings with the layout they were opened under.
    pub fn set_layout(&mut self, layout: CounterLayout) {
        self.layout = layout;
        self.shares_seen.clear();
        let slots = self.layout.arity() - crate::counter::F_TS;
        let retained: std::collections::HashSet<usize> =
            self.layout.neighbors.iter().copied().collect();
        for audit in self.rules.values_mut() {
            audit.traces = vec![0; slots];
            audit.send_gates.retain(|v, _| retained.contains(v));
            audit.last_sent.retain(|v, _| retained.contains(v));
            audit.opened.clear();
        }
    }

    /// Clears the duplicate-send suppressor toward `v` for every rule, so
    /// the next send evaluation may resend the current aggregate — used
    /// when `v` rebuilt its counter state after a membership change and
    /// needs our data again. The k-gates are untouched.
    pub fn reset_edge(&mut self, v: usize) {
        for audit in self.rules.values_mut() {
            audit.last_sent.remove(&v);
        }
    }

    /// Exports the durable audit state of every rule, sorted by rule
    /// display form so the image is deterministic. See [`AuditImage`].
    pub fn export_audits(&self) -> Vec<AuditImage> {
        let mut out: Vec<AuditImage> = self
            .rules
            .iter()
            .map(|(rule, audit)| {
                let mut send_gates: Vec<(usize, KGate)> =
                    audit.send_gates.iter().map(|(&v, g)| (v, *g)).collect();
                send_gates.sort_by_key(|&(v, _)| v);
                let mut last_sent: Vec<(usize, SentAggregate)> = audit
                    .last_sent
                    .iter()
                    .map(|(&v, &(sum, count, num))| (v, SentAggregate { sum, count, num }))
                    .collect();
                last_sent.sort_by_key(|&(v, _)| v);
                AuditImage {
                    rule: rule.clone(),
                    clock: audit.clock,
                    output_gate: audit.output_gate,
                    send_gates,
                    last_sent,
                }
            })
            .collect();
        out.sort_by_key(|img| img.rule.to_string());
        out
    }

    /// Re-seats exported audit state after a process-level warm restart.
    /// Timestamp traces restart from zero (rejoin = membership epoch);
    /// clocks, gates and suppressors resume where the crashed process
    /// left off, so this resource's outgoing timestamps never regress at
    /// its neighbors.
    ///
    /// The images come from disk and are screened like it: a clock that
    /// is not the `u32` a timestamp slot seals refuses the whole import
    /// (`false`, nothing re-seated).
    pub fn import_audits(&mut self, images: Vec<AuditImage>) -> bool {
        if images.iter().any(|img| u32::try_from(img.clock).is_err()) {
            return false;
        }
        let slots = self.layout.arity() - crate::counter::F_TS;
        for img in images {
            let audit = RuleAudit {
                output_gate: img.output_gate,
                send_gates: img.send_gates.into_iter().collect(),
                traces: vec![0; slots],
                clock: img.clock,
                last_sent: img
                    .last_sent
                    .into_iter()
                    .map(|(v, a)| (v, (a.sum, a.count, a.num)))
                    .collect(),
                opened: HashMap::new(),
            };
            self.rules.insert(img.rule, audit);
        }
        true
    }

    fn audit_state(&mut self, rule: &CandidateRule) -> &mut RuleAudit<C> {
        // Cloning the rule (two item vectors) only when it is new: every
        // SFE query comes through here.
        if !self.rules.contains_key(rule) {
            let slots = self.layout.arity() - crate::counter::F_TS;
            self.rules.insert(rule.clone(), RuleAudit::new(self.k, self.gate_mode, slots));
        }
        self.rules.get_mut(rule).expect("present or just inserted")
    }

    fn raise(&mut self, v: Verdict) -> Verdict {
        self.halted = Some(v);
        emit(&self.rec, || v.to_event(self.id));
        v
    }

    /// The plaintext of each SFE input of `rule`, aligned with `inputs`
    /// (slot as in [`RuleAudit::opened`]). An input whose bytes are those
    /// last opened at its slot is read back; the others decrypt in one
    /// wave, verify their tags in one combined check and are remembered.
    /// `None` marks an input that did not open under this resource's key
    /// — every counter of an honest wave is sealed under its layout.
    fn open_inputs(
        &mut self,
        rule: &CandidateRule,
        inputs: &[(Option<usize>, &SecureCounter<C>)],
    ) -> Vec<Option<PlainCounter>> {
        self.audit_state(rule);
        let Controller { rules, cipher, tags, layout, .. } = self;
        let opened = &mut rules.get_mut(rule).expect("present or just inserted").opened;
        let mut plains: Vec<Option<PlainCounter>> = inputs
            .iter()
            .map(|&(slot, counter)| match opened.get(&slot) {
                Some((seen, plain)) if seen == counter => Some(plain.clone()),
                _ => None,
            })
            .collect();
        let missed: Vec<usize> = (0..inputs.len()).filter(|&i| plains[i].is_none()).collect();
        if missed.is_empty() {
            return plains;
        }
        let key = tags.key(layout.arity());
        let wave: Vec<&SecureCounter<C>> = missed.iter().map(|&i| inputs[i].1).collect();
        for (i, plain) in missed.into_iter().zip(SecureCounter::open_many(cipher, &key, &wave)) {
            if let Ok(plain) = plain {
                let (slot, counter) = inputs[i];
                opened.insert(slot, (counter.clone(), plain.clone()));
                plains[i] = Some(plain);
            }
        }
        plains
    }

    /// Full-aggregate audit: share and timestamp checks of Algorithm 3.
    fn audit_full(
        &mut self,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
    ) -> Result<PlainCounter, Verdict> {
        if full.layout != self.layout {
            return Err(self.raise(Verdict::MaliciousBroker(self.id)));
        }
        let Some(p) = self.open_inputs(rule, &[(None, full)]).pop().flatten() else {
            return Err(self.raise(Verdict::MaliciousBroker(self.id)));
        };
        self.audit_full_plain(rule, &p)?;
        Ok(p)
    }

    /// Plaintext half of the full-aggregate audit. Runs on every query,
    /// on a remembered plaintext as on a fresh one: the traces it holds
    /// `full` to move between queries even when `full` does not.
    fn audit_full_plain(&mut self, rule: &CandidateRule, p: &PlainCounter) -> Result<(), Verdict> {
        if p.share != 1 {
            return Err(self.raise(Verdict::MaliciousBroker(self.id)));
        }
        // Timestamp traces: slot 0 is the own accountant (⊥), slot i+1 the
        // i-th neighbor.
        let audit = self.audit_state(rule);
        match p.ts.iter().zip(&audit.traces).position(|(t, seen)| t < seen) {
            None => {
                audit.traces.copy_from_slice(&p.ts);
                Ok(())
            }
            Some(slot) => {
                let owner = match slot.checked_sub(1) {
                    None => self.id,
                    Some(i) => self.layout.neighbors.get(i).copied().unwrap_or(self.id),
                };
                Err(self.raise(Verdict::MaliciousResource(owner)))
            }
        }
    }

    /// The `Output()` SFE of Algorithm 1: is the candidate rule's majority
    /// non-negative? Gated by k; a gated query returns the previous
    /// answer.
    ///
    /// `blinded_delta` is the broker's multiplicatively blinded
    /// `E(ρ·Δ^u)` (see [`crate::broker::Broker::blinded_delta`]): the
    /// controller evaluates only its *sign*, never seeing `Σsum` in the
    /// clear — one step closer to the ideal SFE, in which the controller
    /// learns nothing at all. The share/timestamp audits and the k-gate
    /// still need the exact `count`/`num`/`share`/timestamp fields of the
    /// aggregate.
    pub fn output_query(
        &mut self,
        rule: &CandidateRule,
        full: &SecureCounter<C>,
        blinded_delta: &C::Ct,
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
        let p = self.audit_full(rule, full)?;
        let sign_nonneg = self.cipher.decrypt_i64(blinded_delta) >= 0;
        let id = self.id;
        let audit = self.audit_state(rule);
        let ans = audit.output_gate.disclose(p.count, p.num, || sign_nonneg);
        emit(&self.rec, || Event::OutputDecision {
            resource: id as u64,
            rule: rule.to_string(),
            count: p.count,
            num: p.num,
            answer: ans,
        });
        emit(&self.rec, || Event::SfeAnswer {
            resource: id as u64,
            kind: SfeKind::Output,
            answer: ans,
        });
        Ok(ans)
    }

    /// The `MajorityCond(v)`/`Update(v)` SFE, for every edge a rule change
    /// asks about: should a message be sent to neighbor `v`, and if so,
    /// here is the sealed outgoing message.
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
        let inputs: Vec<(Option<usize>, &SecureCounter<C>)> = std::iter::once((None, full))
            .chain(edges.iter().map(|e| (Some(e.v), e.recv_v)))
            .collect();
        let mut opened = self.open_inputs(rule, &inputs).into_iter();
        let p_full = opened.next().flatten().filter(|_| full.layout == self.layout);
        for (i, edge) in edges.iter().enumerate() {
            emit(&self.rec, || Event::SfeQuery {
                resource: self.id as u64,
                kind: SfeKind::Send,
                rule: rule.to_string(),
            });
            self.queries_served += 1;
            // Consume in protocol order so the verdict blames the first
            // failure, exactly as one query per edge did: `full` and its
            // audit (met by the first edge; re-auditing the same
            // plaintext per edge is a no-op), then this edge's `recv_v`.
            if i == 0 {
                let audit = match &p_full {
                    Some(p) => self.audit_full_plain(rule, p),
                    None => Err(self.raise(Verdict::MaliciousBroker(self.id))),
                };
                if let Err(verdict) = audit {
                    return (sealed, Err(verdict));
                }
            }
            let (Some(p_full), Some(Some(p_recv))) = (&p_full, opened.next()) else {
                return (sealed, Err(self.raise(Verdict::MaliciousBroker(self.id))));
            };
            match self.send_decision(rule, edge, p_full, &p_recv) {
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
        match self.shares_seen.get(&v) {
            Some((seen, plain)) if seen == share_for_me => *plain,
            _ => {
                let plain = share_reduce(self.cipher.decrypt_i64(share_for_me));
                self.shares_seen.insert(v, (share_for_me.clone(), plain));
                plain
            }
        }
    }

    /// One edge of [`Controller::send_queries`], on opened inputs.
    fn send_decision(
        &mut self,
        rule: &CandidateRule,
        edge: &SendEdge<'_, C>,
        p_full: &PlainCounter,
        p_recv: &PlainCounter,
    ) -> Result<Option<SecureCounter<C>>, Verdict> {
        // What leaves toward `v` is the aggregate without `v`'s own
        // contribution. Containment: a `recv_v` that `full` cannot have
        // been summed from — more resources, or a later timestamp in any
        // slot — is a counter the broker made the pair up with.
        let (sum, count, num) =
            (p_full.sum - p_recv.sum, p_full.count - p_recv.count, p_full.num - p_recv.num);
        let contained = num >= 0 && p_recv.ts.iter().zip(&p_full.ts).all(|(r, f)| r <= f);
        if !contained {
            return Err(self.raise(Verdict::MaliciousBroker(self.id)));
        }

        let v = edge.v;
        let lambda = rule.lambda;
        let delta_u = lambda.delta(p_full.sum, p_full.count);
        let (k, mode) = (self.k, self.gate_mode);

        let t_out = {
            let audit = self.audit_state(rule);
            let last = audit.last_sent.get(&v).copied().unwrap_or((0, 0, 0));
            let delta_uv = lambda.delta(last.0 + p_recv.sum, last.1 + p_recv.count);

            let gate = audit.send_gates.entry(v).or_insert_with(|| KGate::with_mode(k, mode));
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
            let payload = (sum, count, num);
            let already_sent = audit.last_sent.contains_key(&v);
            if !decision || (already_sent && payload == last) || (!already_sent && num == 0) {
                return Ok(None);
            }

            // Lamport time: strictly above everything this aggregate saw.
            let max_ts = p_full.ts.iter().copied().max().unwrap_or(0);
            audit.clock = audit.clock.max(max_ts) + 1;
            audit.last_sent.insert(v, payload);
            audit.clock
        };

        let share_plain = self.share_plain(v, edge.share_for_me);
        let key = self.tags.key(edge.receiver_layout.arity());
        // The caller resolved `receiver_layout` from its own neighbor set,
        // so the sender always has a timestamp slot in it; a `None` here is
        // a wiring bug on the trusted side or a value no slot seals (a
        // clock or resource count driven past 2³² from outside) — nothing
        // is sent either way.
        Ok(SecureCounter::seal_outgoing(
            &self.cipher,
            &key,
            edge.receiver_layout,
            self.id,
            sum,
            count,
            num,
            share_plain,
            t_out,
        ))
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
        let (mut sealed, verdict) = ctl.send_queries(rule, full, &[edge]);
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

    /// Blinded Δ as the broker would compute it (λ = 1/2 here).
    fn blind(f: &Fix, sum: i64, count: i64) -> gridmine_paillier::MockCt {
        f.keys.enc.encrypt_i64(7 * (2 * sum - count))
    }

    #[test]
    fn output_query_discloses_when_gate_passes() {
        let mut f = fix(2);
        // 3 + 3 = 6 transactions of which 5 support; 2 resources; λ = 1/2.
        let (full, _) = pair(&f, (2, 3, 1), (3, 3, 1), 1, 1);
        let b = blind(&f, 5, 6);
        assert_eq!(f.ctl.output_query(&rule(), &full, &b), Ok(true));
    }

    #[test]
    fn output_query_gated_below_k() {
        let mut f = fix(5);
        // Only 2 resources < k = 5: gated, initial cache is false even
        // though the majority holds.
        let (full, _) = pair(&f, (3, 3, 1), (3, 3, 1), 1, 1);
        let b = blind(&f, 6, 6);
        assert_eq!(f.ctl.output_query(&rule(), &full, &b), Ok(false));
    }

    #[test]
    fn bad_share_blames_broker() {
        let mut f = fix(1);
        let key = f.keys.tags.key(f.layout.arity());
        // Local counter alone: share ≠ 1 (its neighbor share is missing).
        let local = SecureCounter::seal_local(&f.keys.enc, &key, &f.layout, 1, 1, 1, 500, 1);
        let b = blind(&f, 1, 1);
        assert_eq!(f.ctl.output_query(&rule(), &local, &b), Err(Verdict::MaliciousBroker(0)));
        // Halted: all further queries refused.
        assert_eq!(f.ctl.output_query(&rule(), &local, &b), Err(Verdict::MaliciousBroker(0)));
    }

    #[test]
    fn forged_counter_blames_broker() {
        let mut f = fix(1);
        let (full, _) = pair(&f, (1, 1, 1), (1, 1, 1), 1, 1);
        let mut forged = full.clone();
        forged.msg.fields[F_SUM] = f.keys.enc.encrypt_i64(999);
        let b = blind(&f, 2, 2);
        assert_eq!(f.ctl.output_query(&rule(), &forged, &b), Err(Verdict::MaliciousBroker(0)));
    }

    #[test]
    fn timestamp_regression_blames_slot_owner() {
        let mut f = fix(1);
        let (newer, _) = pair(&f, (1, 5, 1), (1, 5, 1), 3, 7);
        let b = blind(&f, 2, 10);
        assert!(f.ctl.output_query(&rule(), &newer, &b).is_ok());
        // Replay: neighbor 1's slot regresses from 7 to 2.
        let (older, _) = pair(&f, (2, 15, 1), (1, 5, 1), 4, 2);
        let b = blind(&f, 3, 20);
        assert_eq!(f.ctl.output_query(&rule(), &older, &b), Err(Verdict::MaliciousResource(1)));
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
    fn exported_audits_keep_clocks_monotone_across_a_process_restart() {
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
        fresh.import_audits(restored);

        // A fresh controller without the import would reseal at ts
        // max(0, seen)+1; with it, the clock stays strictly monotone and
        // the duplicate-send suppressor still recognizes the aggregate.
        let dup = send_one(&mut fresh, &rule(), 1, &receiver_layout, &full, &recv, &share).unwrap();
        assert!(dup.is_none(), "suppressor state survived the restart");
        let (full2, recv2) = pair(&f, (5, 12, 1), (6, 10, 1), 6, 9);
        let out2 = send_one(&mut fresh, &rule(), 1, &receiver_layout, &full2, &recv2, &share)
            .unwrap()
            .expect("new data sends");
        let ts2 = out2.open(&f.keys.dec, &key).unwrap().ts
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
