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
//!   database") so one step touches only `scan_budget` transactions. It
//!   reads them from a vertical index of its partition: one bitmap over
//!   transaction positions per item present, and one marking the
//!   negating transactions. A step ANDs the rule's columns word by word,
//!   masked to the window it scans, instead of testing every transaction
//!   against every rule. The index costs at most one bit per (item
//!   present, transaction) beside the partition itself, and it is derived
//!   from the partition, so a crash, which keeps the partition, keeps it
//!   too;
//! * answers broker requests with sealed counters carrying a fresh
//!   timestamp — and, when the support changed, with the padding sequence
//!   of Algorithm 1 (`s+1, s−1, s'+1, s'−1, s'`) that makes the broker's
//!   downstream behaviour independent of whether the change mattered.

use std::collections::HashMap;

use gridmine_arm::{CandidateRule, Database, Item, ItemSet, Transaction};
use gridmine_paillier::{HomCipher, TagKey};

use crate::counter::{CounterLayout, SecureCounter};
use crate::keyring::TagKeyring;
use crate::recovery::RuleRecord;
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
    /// `num` at the previous `respond`: 0 until the first answer the
    /// resource counted in.
    last_num: u32,
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

/// Words of a window [`VerticalIndex::count`] masks at a time: one column
/// lookup per item covers 512 transactions.
const CHUNK: usize = 8;

/// The partition by column. Bit `i % 64` of word `i / 64` of an item's
/// column is set when transaction `i` holds the item, and `negating`
/// marks the negating transactions the same way. A column ends at the
/// word of its last set bit; the words past its end read as zero.
#[derive(Clone, Default)]
struct VerticalIndex {
    columns: HashMap<Item, Vec<u64>>,
    negating: Vec<u64>,
    /// Transactions indexed: the position the next one takes.
    len: usize,
}

impl VerticalIndex {
    fn of(db: &Database) -> Self {
        let mut index = VerticalIndex::default();
        db.transactions().iter().for_each(|t| index.push(t));
        index
    }

    /// Indexes `t` at the next position.
    fn push(&mut self, t: &Transaction) {
        let (word, bit) = (self.len / 64, 1 << (self.len % 64));
        for &item in t.items() {
            set_bit(self.columns.entry(item).or_default(), word, bit);
        }
        if t.polarity() < 0 {
            set_bit(&mut self.negating, word, bit);
        }
        self.len += 1;
    }

    /// The signed `(sum, count)` of the window `[lo, hi)`: `count` over
    /// the transactions holding all of `antecedent`, `sum` over those
    /// holding all of `consequent` too. A negating transaction subtracts
    /// where an ordinary one adds, so a masked word `m` counts
    /// `popcount(m) − 2·popcount(m & negating)`.
    fn count(
        &self,
        lo: usize,
        hi: usize,
        antecedent: &ItemSet,
        consequent: &ItemSet,
    ) -> (i64, i64) {
        let (mut sum, mut count) = (0, 0);
        if lo >= hi {
            return (sum, count);
        }
        let mut buf = [0u64; CHUNK];
        let (mut first, end) = (lo / 64, hi.div_ceil(64));
        while first < end {
            let words = &mut buf[..CHUNK.min(end - first)];
            for (w, m) in (first..).zip(words.iter_mut()) {
                *m = window_word(w, lo, hi);
            }
            self.and_columns(words, first, antecedent);
            count += self.signed_popcount(words, first);
            self.and_columns(words, first, consequent);
            sum += self.signed_popcount(words, first);
            first += words.len();
        }
        (sum, count)
    }

    /// ANDs `items`' columns into `words`, which start at word `first`.
    fn and_columns(&self, words: &mut [u64], first: usize, items: &ItemSet) {
        for item in items.items() {
            let column = self.columns.get(item).map_or(&[][..], Vec::as_slice);
            for (w, m) in (first..).zip(words.iter_mut()) {
                *m &= word(column, w);
            }
        }
    }

    fn signed_popcount(&self, words: &[u64], first: usize) -> i64 {
        (first..)
            .zip(words)
            .map(|(w, &m)| {
                i64::from(m.count_ones())
                    - 2 * i64::from((m & word(&self.negating, w)).count_ones())
            })
            .sum()
    }
}

/// Word `w` of a column, zero past its end.
fn word(column: &[u64], w: usize) -> u64 {
    column.get(w).copied().unwrap_or(0)
}

fn set_bit(column: &mut Vec<u64>, word: usize, bit: u64) {
    if column.len() <= word {
        column.resize(word + 1, 0);
    }
    column[word] |= bit;
}

/// The bits of word `w` that fall inside `[lo, hi)`; the word must
/// overlap the window.
fn window_word(w: usize, lo: usize, hi: usize) -> u64 {
    let start = lo.saturating_sub(w * 64);
    let end = (hi - w * 64).min(64);
    (u64::MAX >> (64 - (end - start))) << start
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
    /// `db` by column, for the scans.
    index: VerticalIndex,
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
            index: VerticalIndex::of(&db),
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
        for t in txs {
            self.index.push(&t);
            self.db.append(t);
        }
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
            last_num: 0,
        });
    }

    /// Advances the cyclic scan for rule `id` by up to `budget`
    /// transactions. Returns true if the counters changed, and on the
    /// scan's first step: that step starts the rule's scan, so the
    /// resource now counts in its population (`num`, see
    /// [`Accountant::respond`]) even when nothing matched.
    ///
    /// # Panics
    /// Panics if the rule was never registered.
    #[expect(clippy::expect_used, reason = "documented # Panics on an unregistered rule")]
    pub fn advance_scan(&mut self, id: RuleId, budget: usize) -> bool {
        let st = self.rules.get_mut(id).expect("rule not registered with accountant");
        let end = st.frontier.saturating_add(budget).min(self.db.len());
        if st.frontier >= end {
            return false;
        }
        // Polarity-aware counting: §3's negating transactions subtract
        // their original's contribution. Net counts can therefore shrink;
        // the k-gate measures count *growth*, so deletions only make it
        // more conservative (never more talkative). A frequency rule's
        // antecedent is empty, so its `count` is the window's own.
        let rule = &st.rule.rule;
        let (dsum, dcount) = self.index.count(st.frontier, end, &rule.antecedent, &rule.consequent);
        let started = st.frontier == 0;
        st.frontier = end;
        st.sum += dsum;
        st.count += dcount;
        started || dsum != 0 || dcount != 0
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
    /// (the simulator keeps a resource armed for scans while it is
    /// positive).
    pub fn total_backlog(&self) -> usize {
        self.rules.iter().map(|(_, st)| self.db.len() - st.frontier).sum()
    }

    /// Every rule's id and scan record, in id order — the body of a
    /// recovery image.
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
                // A scan's first step is always answered (`advance_scan`).
                last_num: u32::from(rec.frontier > 0 || self.db.is_empty()),
            },
        );
    }

    /// Crash semantics: the in-memory scan state is lost. The database
    /// partition and the accounting shares are durable (the partition is
    /// the grid's data, not mining state; shares are re-distributed only
    /// on membership changes), and so is the partition's vertical index,
    /// which is derived from it.
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
    /// changed and `obfuscate` is on. The counter's `num` is 1 once the
    /// rule's scan has started (or there is nothing to scan) and 0
    /// before: a resource that adopted a rule on receipt is not yet part
    /// of the population the k-gate counts. So the first counted answer
    /// has no previous answer to pad: its sequence pads the new sum
    /// twice (`s'+1, s'−1, s'+1, s'−1, s'`), and every pad stays within
    /// one of a state the resource really answered.
    ///
    /// # Panics
    /// Panics if the rule was never registered.
    #[expect(clippy::expect_used, reason = "documented # Panics on an unregistered rule")]
    pub fn respond(&mut self, id: RuleId) -> Vec<SecureCounter<C>> {
        let st = self.rules.get_mut(id).expect("rule not registered with accountant");
        let (s_old, s_new, count) = (st.last_sum, st.sum, st.count);
        let num = u32::from(st.frontier > 0 || self.db.is_empty());
        let base = if st.last_num == 0 { s_new } else { s_old };
        let padding = (self.obfuscate && s_old != s_new && s_old != i64::MIN)
            .then(|| [base + 1, base - 1, s_new + 1, s_new - 1]);
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
                num,
                own_share,
                t,
            ));
        }
        (st.last_sum, st.last_num) = (s_new, num);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::GridKeys;
    use gridmine_arm::{Ratio, Rule};
    use gridmine_paillier::MockCipher;
    use proptest::prelude::*;

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
    fn a_first_scan_that_matches_nothing_is_a_change_and_seals_num_one() {
        let (keys, mut acc) = setup();
        // No transaction holds the antecedent {9}: the scan counts nothing.
        let r =
            CandidateRule::new(Rule::new(ItemSet::of(&[9]), ItemSet::of(&[1])), Ratio::new(1, 2));
        acc.register_rule(0, &r);
        let before = acc.respond(0).pop().unwrap();
        let key = keys.tags.key(before.layout.arity());
        assert_eq!(before.open(&keys.dec, &key).unwrap().num, 0, "not scanned yet");
        assert!(acc.advance_scan(0, 2), "the scan's first step starts it");
        let p = acc.respond(0).pop().unwrap().open(&keys.dec, &key).unwrap();
        assert_eq!((p.sum, p.count, p.num), (0, 0, 1));
        assert!(!acc.advance_scan(0, 1), "a later step that counts nothing is no change");
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
        // The first counted answer pads itself: the sum before the scan
        // counted no resource.
        assert_eq!(sums, vec![4, 2, 4, 2, 3]);
        // Timestamps strictly increase across the sequence.
        let ts: Vec<i64> = seq.iter().map(|c| c.open(&keys.dec, &key).unwrap().ts[0]).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        // No change since: a single plain response.
        assert_eq!(acc.respond(0).len(), 1);
        // Later changes pad the previous answer and the new one.
        acc.append([Transaction::of(4, &[1]), Transaction::of(5, &[1])]);
        acc.scan_all(0);
        let sums: Vec<i64> =
            acc.respond(0).iter().map(|c| c.open(&keys.dec, &key).unwrap().sum).collect();
        assert_eq!(sums, vec![4, 2, 6, 4, 5]);
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

    /// The per-transaction polarity loop [`VerticalIndex::count`]
    /// replaced, kept as its oracle.
    fn polarity_loop(txs: &[Transaction], a: &ItemSet, c: &ItemSet) -> (i64, i64) {
        let (mut dsum, mut dcount) = (0i64, 0i64);
        if a.is_empty() {
            for t in txs {
                dcount += t.polarity();
                if t.contains_all(c) {
                    dsum += t.polarity();
                }
            }
        } else {
            let u = a.union(c);
            for t in txs {
                if t.contains_all(a) {
                    dcount += t.polarity();
                    if t.contains_all(&u) {
                        dsum += t.polarity();
                    }
                }
            }
        }
        (dsum, dcount)
    }

    /// Item ids spread over the whole `u32` range.
    const SPARSE: [u32; 8] = [0, 1, 63, 64, 1_000, 65_536, 1 << 30, u32::MAX];
    /// Items no generated partition holds.
    const ABSENT: [u32; 2] = [77_777, 88_888];

    /// Rows of a partition: items as indices into [`SPARSE`], and a
    /// draw that makes one row in four a negating transaction.
    fn rows(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(Vec<usize>, u8)>> {
        prop::collection::vec((prop::collection::vec(0..SPARSE.len(), 0..5), 0u8..4), len)
    }

    fn transactions(rows: &[(Vec<usize>, u8)], first_id: usize) -> Vec<Transaction> {
        (first_id as u64..)
            .zip(rows)
            .map(|(id, (items, draw))| {
                let ids: Vec<u32> = items.iter().map(|&i| SPARSE[i]).collect();
                let t = Transaction::of(id, &ids);
                if *draw == 0 {
                    t.negation_of(id)
                } else {
                    t
                }
            })
            .collect()
    }

    /// Small itemsets, the empty one and an absent item included.
    fn itemset() -> impl Strategy<Value = ItemSet> {
        prop::collection::vec(0..=SPARSE.len(), 0..3).prop_map(|ix| {
            ItemSet::of(
                &ix.iter()
                    .map(|&i| SPARSE.get(i).copied().unwrap_or(ABSENT[0]))
                    .collect::<Vec<_>>(),
            )
        })
    }

    /// The scan record of the one rule `acc` counts.
    fn only_record(acc: &Accountant<MockCipher>) -> RuleRecord {
        acc.scan_snapshot().pop().expect("one rule registered").1
    }

    fn accountant(keys: &GridKeys<MockCipher>, txs: Vec<Transaction>) -> Accountant<MockCipher> {
        let layout = CounterLayout::new(0, vec![1, 2]);
        Accountant::new(
            0,
            keys.enc.clone(),
            keys.tags.clone(),
            layout,
            Database::from_transactions(txs),
            7,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_index_counts_every_window_as_the_polarity_loop_does(
            rows in rows(0..200),
            a in itemset(),
            c in itemset(),
        ) {
            let db = Database::from_transactions(transactions(&rows, 0));
            let index = VerticalIndex::of(&db);
            // Window edges on both sides of the first two word boundaries,
            // and the partition's end; `lo == hi` is the empty window.
            let edges = [0, 63, 64, 65, 127, db.len()].map(|e| e.min(db.len()));
            for lo in edges {
                for hi in edges.into_iter().filter(|&hi| hi >= lo) {
                    let want = polarity_loop(&db.transactions()[lo..hi], &a, &c);
                    prop_assert_eq!(index.count(lo, hi, &a, &c), want, "window [{}, {})", lo, hi);
                }
            }
        }

        #[test]
        fn budgeted_scans_across_an_append_count_as_the_polarity_loop_does(
            first in rows(0..150),
            later in rows(0..80),
            a in itemset(),
            c in itemset(),
            budgets in prop::collection::vec(
                prop_oneof![Just(37usize), Just(63), Just(64), Just(65), 1usize..130],
                1..8,
            ),
        ) {
            let c = c.difference(&a);
            let c = if c.is_empty() { ItemSet::of(&[ABSENT[1]]) } else { c };
            let rule = CandidateRule::new(Rule::new(a.clone(), c.clone()), Ratio::new(1, 2));
            let keys = GridKeys::mock(4);
            let mut acc = accountant(&keys, transactions(&first, 0));
            acc.register_rule(0, &rule);
            for (step, &budget) in budgets.iter().enumerate() {
                if step == budgets.len() / 2 {
                    acc.append(transactions(&later, first.len()));
                }
                acc.advance_scan(0, budget);
                let rec = only_record(&acc);
                let scanned = &acc.db().transactions()[..rec.frontier as usize];
                prop_assert_eq!((rec.sum, rec.count), polarity_loop(scanned, &a, &c), "step {}", step);
            }
            acc.scan_all(0);
            let rec = only_record(&acc);
            prop_assert_eq!((rec.sum, rec.count), polarity_loop(acc.db().transactions(), &a, &c));
        }
    }

    #[test]
    fn a_restored_scan_resumes_on_the_index() {
        // Every fifth transaction negates; two more arrive while the
        // resource is down, the second of them negating.
        let txs: Vec<Transaction> = (0..150u64)
            .map(|i| {
                let t = Transaction::of(i, &[(i % 3) as u32, 3 + (i % 2) as u32]);
                if i % 5 == 4 {
                    t.negation_of(i)
                } else {
                    t
                }
            })
            .collect();
        let late = [Transaction::of(150, &[0, 3]), Transaction::of(0, &[0, 3]).negation_of(151)];
        let keys = GridKeys::mock(4);
        let rules = [
            freq_rule(&[0]),
            CandidateRule::new(Rule::new(ItemSet::of(&[0]), ItemSet::of(&[3])), Ratio::new(1, 2)),
        ];
        for rule in rules {
            let mut crashed = accountant(&keys, txs.clone());
            crashed.register_rule(0, &rule);
            crashed.advance_scan(0, 37);
            crashed.advance_scan(0, 37);
            let rec = only_record(&crashed);
            assert_eq!(rec.frontier, 74, "a frontier inside word 1");

            let mut restored = accountant(&keys, txs.clone());
            restored.append(late.clone());
            restored.restore_scan(0, &rec);
            restored.scan_all(0);
            let mut whole = accountant(&keys, txs.clone());
            whole.append(late.clone());
            whole.register_rule(0, &rule);
            whole.scan_all(0);

            let (r, w) = (only_record(&restored), only_record(&whole));
            assert_eq!((r.frontier, r.sum, r.count), (w.frontier, w.sum, w.count), "{rule}");
            let (a, c) = (&rule.rule.antecedent, &rule.rule.consequent);
            assert_eq!((w.sum, w.count), polarity_loop(whole.db().transactions(), a, c), "{rule}");
        }
    }
}
