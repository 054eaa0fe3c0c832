//! The arena representation of a finite labeled transition system.

use crate::action::{Action, ActionId, Observation};
use std::collections::HashMap;

/// Index of a state within an [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single labeled transition `src --action--> target`.
///
/// The source state is implicit: transitions are stored grouped by source in
/// the compressed adjacency of the owning [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// The interned action labeling the transition.
    pub action: ActionId,
    /// The target state.
    pub target: StateId,
}

/// A finite labeled transition system `(S, →, A, s0)` (Definition 2.1).
///
/// States and actions are interned as dense `u32` indices; transitions are
/// stored in a compressed-sparse-row adjacency so that the partition
/// refinement and product constructions in the sibling crates can iterate
/// successors without allocation.
///
/// An `Lts` is immutable once built. Use [`LtsBuilder`](crate::LtsBuilder) or
/// [`explore`](crate::explore) to construct one.
#[derive(Debug, Clone)]
pub struct Lts {
    actions: Vec<Action>,
    /// `offsets[s]..offsets[s+1]` indexes `transitions` for state `s`.
    offsets: Vec<u32>,
    transitions: Vec<Transition>,
    initial: StateId,
    visible: Vec<bool>,
    num_visible_actions: usize,
}

impl Lts {
    pub(crate) fn from_parts(
        actions: Vec<Action>,
        adjacency: Vec<Vec<Transition>>,
        initial: StateId,
    ) -> Self {
        let visible: Vec<bool> = actions.iter().map(Action::is_visible).collect();
        let num_visible_actions = visible.iter().filter(|v| **v).count();
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut transitions = Vec::with_capacity(adjacency.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for row in &adjacency {
            transitions.extend_from_slice(row);
            offsets.push(transitions.len() as u32);
        }
        assert!(
            (initial.index()) < adjacency.len(),
            "initial state out of range"
        );
        Lts {
            actions,
            offsets,
            transitions,
            initial,
            visible,
            num_visible_actions,
        }
    }

    /// The initial state `s0`.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of states `|S|`.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of transitions `|→|`.
    #[inline]
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of distinct interned actions `|A|`.
    #[inline]
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Number of distinct visible (call/return) actions.
    #[inline]
    pub fn num_visible_actions(&self) -> usize {
        self.num_visible_actions
    }

    /// Resolves an interned action id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this LTS.
    #[inline]
    pub fn action(&self, id: ActionId) -> &Action {
        &self.actions[id.index()]
    }

    /// Returns `true` if `id` labels a visible (call/return) action.
    #[inline]
    pub fn is_visible(&self, id: ActionId) -> bool {
        self.visible[id.index()]
    }

    /// All interned actions, indexable by [`ActionId`].
    #[inline]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Outgoing transitions of `s`.
    #[inline]
    pub fn successors(&self, s: StateId) -> &[Transition] {
        let lo = self.offsets[s.index()] as usize;
        let hi = self.offsets[s.index() + 1] as usize;
        &self.transitions[lo..hi]
    }

    /// Iterates over all transitions as `(source, action, target)` triples.
    pub fn iter_transitions(&self) -> impl Iterator<Item = (StateId, ActionId, StateId)> + '_ {
        (0..self.num_states()).flat_map(move |s| {
            let src = StateId(s as u32);
            self.successors(src)
                .iter()
                .map(move |t| (src, t.action, t.target))
        })
    }

    /// All state ids of this LTS, in index order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states() as u32).map(StateId)
    }

    /// Builds a map from observable content to the set of action ids
    /// observing as it. Used to align the alphabets of two systems when
    /// checking refinement or joint bisimilarity.
    pub fn observation_index(&self) -> HashMap<Observation, Vec<ActionId>> {
        let mut map: HashMap<Observation, Vec<ActionId>> = HashMap::new();
        for (i, a) in self.actions.iter().enumerate() {
            if let Some(obs) = a.observation() {
                map.entry(obs).or_default().push(ActionId(i as u32));
            }
        }
        map
    }

    /// The set of distinct observations (visible letters) of this system.
    pub fn observations(&self) -> Vec<Observation> {
        let mut obs: Vec<Observation> = self
            .actions
            .iter()
            .filter_map(Action::observation)
            .collect();
        obs.sort();
        obs.dedup();
        obs
    }

    /// Returns the in-degree of every state. Useful for analyses that need
    /// reverse traversal without materializing a reverse adjacency.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_states()];
        for t in &self.transitions {
            deg[t.target.index()] += 1;
        }
        deg
    }

    /// Builds the reverse adjacency: for each state, the list of
    /// `(source, action)` pairs of incoming transitions.
    pub fn predecessors(&self) -> Vec<Vec<(StateId, ActionId)>> {
        let mut preds: Vec<Vec<(StateId, ActionId)>> = vec![Vec::new(); self.num_states()];
        for (src, act, dst) in self.iter_transitions() {
            preds[dst.index()].push((src, act));
        }
        preds
    }

    /// Builds the reverse adjacency as a flat CSR table: two allocations for
    /// the whole LTS instead of one `Vec` per state. Entry order per target
    /// matches [`Lts::predecessors`] (transition-array order), so analyses
    /// that iterate incoming edges are deterministic either way.
    pub fn predecessor_table(&self) -> PredecessorTable {
        let n = self.num_states();
        let mut offsets = vec![0u32; n + 1];
        for (_, _, dst) in self.iter_transitions() {
            offsets[dst.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![(StateId(0), ActionId(0)); self.num_transitions()];
        for (src, act, dst) in self.iter_transitions() {
            let at = cursor[dst.index()] as usize;
            entries[at] = (src, act);
            cursor[dst.index()] += 1;
        }
        PredecessorTable { offsets, entries }
    }
}

/// Flat (CSR-shaped) reverse adjacency of an [`Lts`]: `offsets` indexes a
/// single `(source, action)` entry array by target state. Built once by
/// [`Lts::predecessor_table`] and shared by analyses that repeatedly walk
/// incoming edges, e.g. the incremental refinement worklists in `bb-bisim`.
#[derive(Debug, Clone)]
pub struct PredecessorTable {
    offsets: Vec<u32>,
    entries: Vec<(StateId, ActionId)>,
}

impl PredecessorTable {
    /// The `(source, action)` pairs of transitions into `s`.
    #[inline]
    pub fn of(&self, s: StateId) -> &[(StateId, ActionId)] {
        &self.entries[self.offsets[s.index()] as usize..self.offsets[s.index() + 1] as usize]
    }

    /// Total number of entries (= number of transitions).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Action, LtsBuilder, ThreadId};

    fn tiny() -> crate::Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "m", None));
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let ret = b.intern_action(Action::ret(ThreadId(1), "m", Some(0)));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, tau, s1);
        b.add_transition(s1, ret, s2);
        b.build(s0)
    }

    #[test]
    fn counts() {
        let lts = tiny();
        assert_eq!(lts.num_states(), 3);
        assert_eq!(lts.num_transitions(), 3);
        assert_eq!(lts.num_actions(), 3);
        assert_eq!(lts.num_visible_actions(), 2);
    }

    #[test]
    fn successors_are_grouped_by_source() {
        let lts = tiny();
        assert_eq!(lts.successors(crate::StateId(0)).len(), 1);
        assert_eq!(lts.successors(crate::StateId(1)).len(), 2);
        assert_eq!(lts.successors(crate::StateId(2)).len(), 0);
    }

    #[test]
    fn iter_transitions_covers_all() {
        let lts = tiny();
        assert_eq!(lts.iter_transitions().count(), 3);
    }

    #[test]
    fn observation_index_groups_by_letter() {
        let lts = tiny();
        let idx = lts.observation_index();
        assert_eq!(idx.len(), 2); // call and ret; tau not included
    }

    #[test]
    fn in_degrees_and_predecessors() {
        let lts = tiny();
        let deg = lts.in_degrees();
        assert_eq!(deg, vec![0, 2, 1]);
        let preds = lts.predecessors();
        assert_eq!(preds[1].len(), 2);
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn predecessor_table_matches_nested_predecessors() {
        let lts = tiny();
        let nested = lts.predecessors();
        let flat = lts.predecessor_table();
        assert_eq!(flat.num_entries(), lts.num_transitions());
        for s in lts.states() {
            assert_eq!(flat.of(s), nested[s.index()].as_slice());
        }
    }
}
