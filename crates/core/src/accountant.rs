//! The accountant (Algorithm 2): the honest keeper of the local database
//! partition and the encryption key.
//!
//! The attack model (§3) assumes accountants answer every query correctly
//! (an attacker controlling one can observe but not lie), so this struct
//! has no malicious variants. It:
//!
//! * creates and distributes the accounting shares on initialization and
//!   on every change in the neighbor set;
//! * incrementally counts candidate-rule support with a per-rule cyclic
//!   scan frontier ("cyclically, read a few transactions from the
//!   database") so one step touches only `scan_budget` transactions;
//! * answers broker requests with sealed counters carrying a fresh
//!   timestamp — and, when the support changed, with the padding sequence
//!   of Algorithm 1 (`s+1, s−1, s'+1, s'−1, s'`) that makes the broker's
//!   downstream behaviour independent of whether the change mattered.

use gridmine_arm::{CandidateRule, Database, Transaction};
use gridmine_paillier::{HomCipher, TagKey};
use gridmine_recovery::RuleRecord;

use crate::counter::{CounterLayout, SecureCounter};
use crate::keyring::TagKeyring;
use crate::rules::{PerRule, RuleId};
use crate::shares::ShareSet;

/// Per-rule incremental scan state.
#[derive(Clone)]
struct ScanState {
    /// The rule counted.
    rule: CandidateRule,
    /// Next transaction index to read.
    frontier: usize,
    /// Accumulated `sum` (support of the union / of the itemset).
    sum: i64,
    /// Accumulated `count` (|DB| scanned, or antecedent support).
    count: i64,
    /// Logical clock `t` for this rule's counters: the `u32` a timestamp
    /// slot seals. It saturates — 2³² answers for one rule are out of any
    /// session's reach, and equal timestamps never read as a replay.
    clock: u32,
    /// Sum at the previous `respond`, for the padding sequence.
    last_sum: i64,
}

impl ScanState {
    /// The restorable record of this state (its `output` is the
    /// resource's to fill in).
    fn record(&self) -> RuleRecord {
        RuleRecord {
            rule: self.rule.clone(),
            frontier: self.frontier as u64,
            sum: self.sum,
            count: self.count,
            clock: i64::from(self.clock),
            last_sum: self.last_sum,
            output: None,
        }
    }
}

/// The accountant of one resource.
#[derive(Clone)]
pub struct Accountant<C: HomCipher> {
    id: usize,
    cipher: C,
    tags: TagKeyring,
    /// The tag key of `layout`'s arity, derived when the layout is set.
    key: TagKey,
    layout: CounterLayout,
    db: Database,
    shares: ShareSet,
    /// Emit Algorithm 1's ±1 padding sequence on support changes.
    pub obfuscate: bool,
    rules: PerRule<ScanState>,
    share_seed: u64,
}

impl<C: HomCipher> Accountant<C> {
    /// Builds an accountant over its local partition.
    pub fn new(
        id: usize,
        cipher: C,
        tags: TagKeyring,
        layout: CounterLayout,
        db: Database,
        seed: u64,
    ) -> Self {
        let shares = ShareSet::generate(&layout.neighbors, seed ^ (id as u64).wrapping_mul(0x9E37));
        Accountant {
            id,
            cipher,
            key: tags.key(layout.arity()),
            tags,
            layout,
            db,
            shares,
            obfuscate: true,
            rules: PerRule::default(),
            share_seed: seed,
        }
    }

    /// Resource id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current local database size.
    pub fn db_len(&self) -> usize {
        self.db.len()
    }

    /// Read access to the local partition (metrics / ground truth).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Database growth (§6: +20 transactions per step). Scan frontiers pick
    /// the new transactions up on their next pass.
    pub fn append<I: IntoIterator<Item = Transaction>>(&mut self, txs: I) {
        self.db.extend(txs);
    }

    /// The encrypted share `share^{uv}` to hand to neighbor `v`'s broker at
    /// initialization ("the accountant is the one responsible for creating,
    /// encrypting, and distributing the shares", §5.2).
    ///
    /// # Panics
    /// Panics if `v` is not a neighbor.
    pub fn encrypted_share_for(&self, v: usize) -> C::Ct {
        let s = self
            .shares
            .for_neighbor(v)
            .unwrap_or_else(|| panic!("resource {v} is not a neighbor of {}", self.id));
        self.cipher.encrypt_i64(s)
    }

    /// The zero-valued placeholder for `recv[v]`, carrying `v`'s share so
    /// the broker's aggregate sums to share 1 even before `v`'s first real
    /// message arrives.
    pub fn placeholder_for(&self, v: usize) -> SecureCounter<C> {
        let s = self
            .shares
            .for_neighbor(v)
            .unwrap_or_else(|| panic!("resource {v} is not a neighbor of {}", self.id));
        SecureCounter::seal_outgoing(&self.cipher, &self.key, &self.layout, v, 0, 0, 0, s, 0)
            .unwrap_or_else(|| panic!("resource {v} has no timestamp slot at {}", self.id))
    }

    /// Rebuilds shares and layout after a membership change (Algorithm 2:
    /// "On initialization or on change in `N_t^u`").
    pub fn set_layout(&mut self, layout: CounterLayout, epoch: u64) {
        self.shares = ShareSet::generate(
            &layout.neighbors,
            self.share_seed ^ (self.id as u64).wrapping_mul(0x9E37) ^ epoch.wrapping_mul(0xABCD),
        );
        self.key = self.tags.key(layout.arity());
        self.layout = layout;
        // Counters restart under the new arity; scan progress is kept but
        // clocks continue so timestamps never regress.
        for st in self.rules.values_mut() {
            st.last_sum = i64::MIN; // force a full (re)report
        }
    }

    /// Registers a candidate rule for counting under `id` (idempotent).
    pub fn register_rule(&mut self, id: RuleId, rule: &CandidateRule) {
        self.rules.get_or_insert_with(id, || ScanState {
            rule: rule.clone(),
            frontier: 0,
            sum: 0,
            count: 0,
            clock: 1,
            last_sum: 0,
        });
    }

    /// Advances the cyclic scan for rule `id` by up to `budget`
    /// transactions. Returns true if the counters changed.
    ///
    /// # Panics
    /// Panics if the rule was never registered.
    pub fn advance_scan(&mut self, id: RuleId, budget: usize) -> bool {
        let st = self.rules.get_mut(id).expect("rule not registered with accountant");
        let rule = &st.rule;
        let end = st.frontier.saturating_add(budget).min(self.db.len());
        if st.frontier >= end {
            return false;
        }
        // Polarity-aware counting: §3's negating transactions subtract
        // their original's contribution. Net counts can therefore shrink;
        // the k-gate measures count *growth*, so deletions only make it
        // more conservative (never more talkative).
        let (mut dsum, mut dcount) = (0i64, 0i64);
        let slice = &self.db.transactions()[st.frontier..end];
        if rule.rule.is_frequency() {
            let x = &rule.rule.consequent;
            for t in slice {
                dcount += t.polarity();
                if t.contains_all(x) {
                    dsum += t.polarity();
                }
            }
        } else {
            let a = &rule.rule.antecedent;
            let u = rule.rule.union();
            for t in slice {
                if t.contains_all(a) {
                    dcount += t.polarity();
                    if t.contains_all(&u) {
                        dsum += t.polarity();
                    }
                }
            }
        }
        st.frontier = end;
        st.sum += dsum;
        st.count += dcount;
        dsum != 0 || dcount != 0
    }

    /// Scans the entire remaining database for rule `id` (tests/examples).
    pub fn scan_all(&mut self, id: RuleId) -> bool {
        self.advance_scan(id, usize::MAX)
    }

    /// Transactions not yet scanned for rule `id`.
    pub fn backlog(&self, id: RuleId) -> usize {
        self.rules.get(id).map_or(self.db.len(), |st| self.db.len() - st.frontier)
    }

    /// Transactions not yet scanned, summed over every registered rule
    /// (a recovered resource is "caught up" when this reaches zero).
    pub fn total_backlog(&self) -> usize {
        self.rules.iter().map(|(_, st)| self.db.len() - st.frontier).sum()
    }

    /// The restorable scan record for rule `id`, when registered (the
    /// journal's `ScanAdvanced` payload).
    pub fn scan_record(&self, id: RuleId) -> Option<RuleRecord> {
        self.rules.get(id).map(ScanState::record)
    }

    /// Every rule's id and scan record, in id order — the checkpoint
    /// snapshot body.
    pub fn scan_snapshot(&self) -> Vec<(RuleId, RuleRecord)> {
        self.rules.iter().map(|(id, st)| (id, st.record())).collect()
    }

    /// Restores the scan state of rule `id` from a *validated* recovery
    /// record (callers run [`RuleRecord::is_wellformed`] first; this
    /// clamps the frontier and the clock defensively anyway).
    pub fn restore_scan(&mut self, id: RuleId, rec: &RuleRecord) {
        self.rules.insert(
            id,
            ScanState {
                rule: rec.rule.clone(),
                frontier: (rec.frontier as usize).min(self.db.len()),
                sum: rec.sum,
                count: rec.count,
                clock: u32::try_from(rec.clock.max(1)).unwrap_or(u32::MAX),
                last_sum: rec.last_sum,
            },
        );
    }

    /// Crash semantics: the in-memory scan state is lost. The database
    /// partition and the accounting shares are durable (the partition is
    /// the grid's data, not mining state; shares are re-distributed only
    /// on membership changes).
    pub fn wipe_scans(&mut self) {
        self.rules.clear();
    }

    /// Re-audits the accounting shares (§5.2 invariant: own share plus
    /// all distributed shares reduce to 1). Restored state that violates
    /// this is forged.
    pub fn audit_shares(&self) -> bool {
        self.shares.sums_to_one()
    }

    /// Answers the broker's support request: the current sealed local
    /// counter, preceded by the ±1 padding sequence when the support
    /// changed and `obfuscate` is on.
    ///
    /// # Panics
    /// Panics if the rule was never registered.
    pub fn respond(&mut self, id: RuleId) -> Vec<SecureCounter<C>> {
        let st = self.rules.get_mut(id).expect("rule not registered with accountant");
        let (s_old, s_new, count) = (st.last_sum, st.sum, st.count);
        let padding = (self.obfuscate && s_old != s_new && s_old != i64::MIN)
            .then(|| [s_old + 1, s_old - 1, s_new + 1, s_new - 1]);
        // A share is an element of the 31-bit share field.
        let own_share = self.shares.own as u32;
        let mut out = Vec::with_capacity(padding.map_or(1, |p| p.len() + 1));
        for s in padding.into_iter().flatten().chain([s_new]) {
            let t = st.clock;
            st.clock = st.clock.saturating_add(1);
            out.push(SecureCounter::seal_local(
                &self.cipher,
                &self.key,
                &self.layout,
                s,
                count,
                1,
                own_share,
                t,
            ));
        }
        st.last_sum = s_new;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::GridKeys;
    use gridmine_arm::{ItemSet, Ratio, Rule};
    use gridmine_paillier::MockCipher;

    fn db() -> Database {
        Database::from_transactions(vec![
            Transaction::of(0, &[1, 2]),
            Transaction::of(1, &[1]),
            Transaction::of(2, &[1, 2]),
            Transaction::of(3, &[3]),
        ])
    }

    fn freq_rule(items: &[u32]) -> CandidateRule {
        CandidateRule::new(Rule::frequency(ItemSet::of(items)), Ratio::new(1, 2))
    }

    fn setup() -> (GridKeys<MockCipher>, Accountant<MockCipher>) {
        let keys = GridKeys::mock(4);
        let layout = CounterLayout::new(0, vec![1, 2]);
        let acc = Accountant::new(0, keys.enc.clone(), keys.tags.clone(), layout, db(), 7);
        (keys, acc)
    }

    #[test]
    fn incremental_scan_matches_full_support() {
        let (keys, mut acc) = setup();
        let r = freq_rule(&[1]);
        acc.register_rule(0, &r);
        assert!(acc.advance_scan(0, 2));
        assert!(acc.advance_scan(0, 2));
        assert!(!acc.advance_scan(0, 2), "scan exhausted");
        let c = acc.respond(0).pop().unwrap();
        let key = keys.tags.key(c.layout.arity());
        let p = c.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num), (3, 4, 1));
    }

    #[test]
    fn confidence_rule_counts_antecedent_and_union() {
        let (keys, mut acc) = setup();
        let r =
            CandidateRule::new(Rule::new(ItemSet::of(&[1]), ItemSet::of(&[2])), Ratio::new(1, 2));
        acc.register_rule(0, &r);
        acc.scan_all(0);
        let c = acc.respond(0).pop().unwrap();
        let key = keys.tags.key(c.layout.arity());
        let p = c.open(&keys.dec, &key).unwrap();
        // 3 transactions contain {1}; 2 contain {1,2}.
        assert_eq!((p.sum, p.count), (2, 3));
    }

    #[test]
    fn appended_transactions_are_picked_up() {
        let (keys, mut acc) = setup();
        let r = freq_rule(&[3]);
        acc.register_rule(0, &r);
        acc.scan_all(0);
        assert_eq!(acc.backlog(0), 0);
        acc.append([Transaction::of(4, &[3]), Transaction::of(5, &[3])]);
        assert_eq!(acc.backlog(0), 2);
        acc.scan_all(0);
        let c = acc.respond(0).pop().unwrap();
        let key = keys.tags.key(c.layout.arity());
        let p = c.open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count), (3, 6));
    }

    #[test]
    fn obfuscation_sequence_shape() {
        let (keys, mut acc) = setup();
        let r = freq_rule(&[1]);
        acc.register_rule(0, &r);
        acc.scan_all(0);
        let seq = acc.respond(0);
        assert_eq!(seq.len(), 5, "support changed 0 → 3: padding sequence expected");
        let key = keys.tags.key(seq[0].layout.arity());
        let sums: Vec<i64> = seq.iter().map(|c| c.open(&keys.dec, &key).unwrap().sum).collect();
        assert_eq!(sums, vec![1, -1, 4, 2, 3]);
        // Timestamps strictly increase across the sequence.
        let ts: Vec<i64> = seq.iter().map(|c| c.open(&keys.dec, &key).unwrap().ts[0]).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        // No change since: a single plain response.
        assert_eq!(acc.respond(0).len(), 1);
    }

    #[test]
    fn obfuscation_can_be_disabled() {
        let (_, mut acc) = setup();
        acc.obfuscate = false;
        let r = freq_rule(&[1]);
        acc.register_rule(0, &r);
        acc.scan_all(0);
        assert_eq!(acc.respond(0).len(), 1);
    }

    #[test]
    fn placeholders_carry_neighbor_shares() {
        let (keys, acc) = setup();
        let p1 = acc.placeholder_for(1);
        let p2 = acc.placeholder_for(2);
        let key = keys.tags.key(p1.layout.arity());
        let o1 = p1.open(&keys.dec, &key).unwrap();
        let o2 = p2.open(&keys.dec, &key).unwrap();
        assert_eq!((o1.sum, o1.count, o1.num), (0, 0, 0));
        // Own share + the two placeholders must sum to 1 in the field.
        let own = acc.shares.own;
        assert_eq!(crate::shares::share_reduce(own + o1.share + o2.share), 1);
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn share_for_stranger_panics() {
        let (_, acc) = setup();
        let _ = acc.encrypted_share_for(9);
    }
}
