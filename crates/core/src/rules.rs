//! Dense rule ids: a delivered counter names its rule by value, and the
//! resource resolves that name once.
//!
//! [`RuleTable`] interns each [`CandidateRule`] a resource meets into a
//! [`RuleId`], counted up from zero in the order the rules were met, and
//! the accountant, broker and controller keep what they hold per rule in
//! a [`PerRule`] vector indexed by it. The table's map is the one keyed
//! lookup on the message path. It keeps std's keyed hasher on purpose:
//! the key arrives off the wire, and a peer that could aim its candidates
//! at one bucket would turn every lookup into a scan.
//!
//! Ids are never reused or forgotten — a crash wipes the state filed under
//! them, not the table — so walking ids in order is walking rules in the
//! order they were first registered, the same on every replay of a seed.

use std::collections::HashMap;

use gridmine_arm::CandidateRule;

/// Where one resource files a rule's state. Meaningless at any other.
pub type RuleId = usize;

/// The rules a resource has met, in the order it met them.
#[derive(Clone, Default)]
pub(crate) struct RuleTable {
    ids: HashMap<CandidateRule, RuleId>,
    rules: Vec<CandidateRule>,
}

impl RuleTable {
    /// The id of a rule met before.
    pub fn id_of(&self, rule: &CandidateRule) -> Option<RuleId> {
        self.ids.get(rule).copied()
    }

    /// The id of `rule`, assigned now if it is new.
    pub fn intern(&mut self, rule: &CandidateRule) -> RuleId {
        if let Some(id) = self.id_of(rule) {
            return id;
        }
        let id = self.rules.len();
        self.ids.insert(rule.clone(), id);
        self.rules.push(rule.clone());
        id
    }

    /// The rule filed under `id`.
    pub fn rule(&self, id: RuleId) -> Option<&CandidateRule> {
        self.rules.get(id)
    }
}

/// State kept per rule, indexed by [`RuleId`]; an id nothing is filed
/// under reads as absent.
#[derive(Clone, Debug)]
pub(crate) struct PerRule<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PerRule<T> {
    fn default() -> Self {
        PerRule { slots: Vec::new() }
    }
}

impl<T> PerRule<T> {
    pub fn get(&self, id: RuleId) -> Option<&T> {
        self.slots.get(id)?.as_ref()
    }

    pub fn get_mut(&mut self, id: RuleId) -> Option<&mut T> {
        self.slots.get_mut(id)?.as_mut()
    }

    fn slot(&mut self, id: RuleId) -> &mut Option<T> {
        if self.slots.len() <= id {
            self.slots.resize_with(id + 1, || None);
        }
        &mut self.slots[id]
    }

    /// What is filed under `id`, filing `new()` first if nothing is.
    pub fn get_or_insert_with(&mut self, id: RuleId, new: impl FnOnce() -> T) -> &mut T {
        self.slot(id).get_or_insert_with(new)
    }

    /// Files `value` under `id`, replacing what was there.
    pub fn insert(&mut self, id: RuleId, value: T) {
        *self.slot(id) = Some(value);
    }

    /// Everything filed, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &T)> {
        self.slots.iter().enumerate().filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }

    /// Everything filed, in id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// How many ids have something filed.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Forgets everything filed; the ids stay the table's.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}
