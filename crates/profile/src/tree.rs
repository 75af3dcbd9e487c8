use std::collections::HashMap;
use std::fmt;

use ctxpref_context::{ContextEnvironment, ContextState, CtxValue, DistanceKind};

use crate::access::AccessCounter;
use crate::error::ProfileError;
use crate::leaf::{Leaf, LeafEntry};
use crate::ordering::ParamOrder;
use crate::preference::{AttributeClause, ContextualPreference};
use crate::profile::Profile;
use crate::{CELL_BYTES, LEAF_ENTRY_BYTES};

/// Identifies a leaf node of a [`ProfileTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeafId(pub u32);

impl LeafId {
    #[inline]
    /// Zero-based index of the leaf.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `[key, pointer]` cell of an internal node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub(crate) key: CtxValue,
    /// Index into `nodes` for non-bottom levels, into `leaves` for the
    /// bottom parameter level.
    pub(crate) child: u32,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Node {
    pub(crate) cells: Vec<Cell>,
}

/// A candidate path produced by `Search_CS` (Algorithm 1): a stored
/// context state that equals or covers the searched state, its distance
/// from the searched state, and the leaf holding its preference entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The stored context state spelled by the path.
    pub state: ContextState,
    /// Distance from the searched state under the chosen metric.
    pub distance: f64,
    /// The leaf holding the path's preference entries.
    pub leaf: LeafId,
}

/// Size statistics of a [`ProfileTree`] under the byte model documented
/// on [`crate::CELL_BYTES`] / [`crate::LEAF_ENTRY_BYTES`] — the
/// quantities plotted in Figures 5 and 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Internal (non-leaf) nodes.
    pub internal_nodes: usize,
    /// `[key, pointer]` cells across internal nodes.
    pub internal_cells: usize,
    /// Leaf nodes (distinct stored context states).
    pub leaf_nodes: usize,
    /// `[attribute θ value, score]` entries across leaves.
    pub leaf_entries: usize,
}

impl TreeStats {
    /// Total cells, counting each leaf entry as one cell (the unit of
    /// Figures 5–6: a 522-preference profile stored serially is ~2200
    /// cells ≈ 522 × (3 context values + 1 leaf entry)).
    pub fn total_cells(&self) -> usize {
        self.internal_cells + self.leaf_entries
    }

    /// Total bytes under the documented cost model.
    pub fn total_bytes(&self) -> usize {
        self.internal_cells * CELL_BYTES + self.leaf_entries * LEAF_ENTRY_BYTES
    }
}

/// The profile tree (Section 3.3): an index over the context states of
/// a profile's preferences.
///
/// * One level per context parameter (assigned by a [`ParamOrder`]),
///   plus a leaf level — height `n + 1`.
/// * Each internal node at level `k` holds `[key, pointer]` cells whose
///   keys are values of `edom(C_{order[k]})` (including `all` for
///   unspecified parameters); no two cells of one node share a key.
/// * Each root-to-leaf path spells one stored context state; the leaf
///   holds every `[attribute θ value, interest_score]` associated with
///   that state.
/// * Conflicts (Definition 6) are detected during insertion with a
///   single root-to-leaf traversal per state.
/// * Each leaf entry has a contributor count: how many inserted
///   preferences contribute that `(state, clause, score)`. Removing a
///   preference takes one contributor from the entry at each of its
///   states and drops an entry only at zero, and a re-score is refused
///   (as a Definition 6 conflict) wherever another contributor shares
///   the entry. So every edit of [`crate::IndexedProfile`] costs one
///   root-to-leaf walk per state of the edited preference, whatever
///   the size of the profile.
#[derive(Debug, Clone)]
pub struct ProfileTree {
    env: ContextEnvironment,
    order: ParamOrder,
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
    /// Contributor counts above one, keyed by `(leaf, entry position)`;
    /// every entry missing here has exactly one. Shared entries are
    /// rare, so this keeps the count out of [`LeafEntry`].
    shared: HashMap<(u32, u32), u32>,
    /// Arena slots freed by [`ProfileTree::remove_state_entry`], reused
    /// by subsequent insertions.
    free_nodes: Vec<u32>,
    free_leaves: Vec<u32>,
}

impl ProfileTree {
    /// An empty tree over `env` with the given parameter-to-level
    /// assignment.
    pub fn new(env: ContextEnvironment, order: ParamOrder) -> Result<Self, ProfileError> {
        if order.len() != env.len() {
            return Err(ProfileError::InvalidOrder(format!(
                "order has {} levels for {} parameters",
                order.len(),
                env.len()
            )));
        }
        Ok(Self {
            env,
            order,
            nodes: vec![Node::default()],
            leaves: Vec::new(),
            shared: HashMap::new(),
            free_nodes: Vec::new(),
            free_leaves: Vec::new(),
        })
    }

    /// A tree over a prebuilt arena: the root at slot 0, children
    /// possibly shared between parents, every contributor count one and
    /// no free slots. The DAG compression builds its snapshot this way.
    pub(crate) fn from_arena(
        env: ContextEnvironment,
        order: ParamOrder,
        nodes: Vec<Node>,
        leaves: Vec<Leaf>,
    ) -> Self {
        Self {
            env,
            order,
            nodes,
            leaves,
            shared: HashMap::new(),
            free_nodes: Vec::new(),
            free_leaves: Vec::new(),
        }
    }

    /// Build a tree from a whole profile, with the contributor counts
    /// inserting its preferences one by one leaves.
    pub fn from_profile(profile: &Profile, order: ParamOrder) -> Result<Self, ProfileError> {
        let mut tree = Self::new(profile.env().clone(), order)?;
        for pref in profile.iter() {
            tree.insert(pref)?;
        }
        Ok(tree)
    }

    /// The context environment the tree indexes.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// The parameter-to-level assignment.
    pub fn order(&self) -> &ParamOrder {
        &self.order
    }

    /// Number of context parameters = height of the tree minus one.
    #[inline]
    fn depth(&self) -> usize {
        self.order.len()
    }

    /// The entries of a leaf.
    pub fn leaf(&self, id: LeafId) -> &[LeafEntry] {
        self.leaves[id.index()].entries()
    }

    /// Insert one contextual preference: one path per state of its
    /// descriptor's context.
    ///
    /// Conflict handling follows Section 3.3: before any path is
    /// created, every state is checked with a root-to-leaf traversal; if
    /// some state already stores the same attribute clause with a
    /// different score, the whole insertion is rejected (atomically) and
    /// the caller can notify the user. Re-inserting an identical
    /// `(state, clause, score)` adds a contributor to the stored entry
    /// instead of a second entry.
    pub fn insert(&mut self, pref: &ContextualPreference) -> Result<(), ProfileError> {
        let states = pref.descriptor().states(&self.env)?;
        // Phase 1: detect conflicts without mutating.
        for state in &states {
            if let Some(leaf) = self.locate_leaf(state) {
                for entry in self.leaf(leaf) {
                    if entry.clause == *pref.clause() && entry.score != pref.score() {
                        return Err(ProfileError::Conflict {
                            state: state.clone(),
                            existing_score: entry.score,
                            new_score: pref.score(),
                        });
                    }
                }
            }
        }
        // Phase 2: insert paths.
        for state in &states {
            let leaf = self.ensure_path(state);
            let entries = &mut self.leaves[leaf.index()];
            match entries
                .entries()
                .iter()
                .position(|e| e.clause == *pref.clause() && e.score == pref.score())
            {
                Some(pos) => *self.shared.entry((leaf.0, pos as u32)).or_insert(1) += 1,
                None => entries.push(LeafEntry {
                    clause: pref.clause().clone(),
                    score: pref.score(),
                }),
            }
        }
        Ok(())
    }

    /// Take `pref`'s contribution out of the entry at each of its
    /// states, dropping an entry (and pruning emptied nodes) when `pref`
    /// was its last contributor. `pref` must have been inserted.
    pub(crate) fn remove(&mut self, pref: &ContextualPreference) -> Result<(), ProfileError> {
        for state in pref.descriptor().states(&self.env)? {
            let found = self.remove_state_entry(&state, pref.clause(), pref.score());
            debug_assert!(found, "the tree indexes every state of its preferences");
        }
        Ok(())
    }

    /// Re-score in place the entries that `pref`, already inserted,
    /// contributes. Refused with [`ProfileError::Conflict`], changing
    /// nothing, when another preference shares one of them: that sharer
    /// keeps `pref`'s old score, which `score` would conflict with.
    pub(crate) fn rescore(
        &mut self,
        pref: &ContextualPreference,
        score: f64,
    ) -> Result<(), ProfileError> {
        let states = pref.descriptor().states(&self.env)?;
        for state in &states {
            let Some(leaf) = self.locate_leaf(state) else {
                continue;
            };
            let shared = self
                .leaf(leaf)
                .iter()
                .position(|e| e.clause == *pref.clause())
                .is_some_and(|pos| self.shared.contains_key(&(leaf.0, pos as u32)));
            if shared {
                return Err(ProfileError::Conflict {
                    state: state.clone(),
                    existing_score: pref.score(),
                    new_score: score,
                });
            }
        }
        for state in &states {
            let found = self.update_state_entry(state, pref.clause(), score);
            debug_assert!(found, "the tree indexes every state of its preferences");
        }
        Ok(())
    }

    /// Walk the path of `state`, returning its leaf if fully present.
    fn locate_leaf(&self, state: &ContextState) -> Option<LeafId> {
        let mut node = 0usize;
        for level in 0..self.depth() {
            let key = state.value(self.order.param_at(level));
            let cell = self.nodes[node].cells.iter().find(|c| c.key == key)?;
            if level + 1 == self.depth() {
                return Some(LeafId(cell.child));
            }
            node = cell.child as usize;
        }
        unreachable!("depth ≥ 1 by construction")
    }

    /// Walk the path of `state`, creating nodes/cells as needed; returns
    /// the leaf. A new node is made for the one cell about to go in
    /// (most hold one for good) and grows from there as any `Vec` does;
    /// a new leaf is empty and allocates nothing.
    fn ensure_path(&mut self, state: &ContextState) -> LeafId {
        let mut node = 0usize;
        for level in 0..self.depth() {
            let key = state.value(self.order.param_at(level));
            let bottom = level + 1 == self.depth();
            let existing = self.nodes[node]
                .cells
                .iter()
                .find(|c| c.key == key)
                .map(|c| c.child);
            let child = match existing {
                Some(c) => c,
                None => {
                    let c = if bottom {
                        match self.free_leaves.pop() {
                            Some(i) => i,
                            None => {
                                self.leaves.push(Leaf::EMPTY);
                                (self.leaves.len() - 1) as u32
                            }
                        }
                    } else {
                        match self.free_nodes.pop() {
                            Some(i) => i,
                            None => {
                                self.nodes.push(Node {
                                    cells: Vec::with_capacity(1),
                                });
                                (self.nodes.len() - 1) as u32
                            }
                        }
                    };
                    self.nodes[node].cells.push(Cell { key, child: c });
                    c
                }
            };
            if bottom {
                return LeafId(child);
            }
            node = child as usize;
        }
        unreachable!("depth ≥ 1 by construction")
    }

    /// Exact-match lookup: a single root-to-leaf traversal (the first
    /// case of the paper's query-complexity analysis). Returns the leaf
    /// for `state` if the exact state is stored.
    ///
    /// `counter` is charged one access per `[key, pointer]` cell
    /// examined by the linear scan of each visited node.
    pub fn exact_lookup(
        &self,
        state: &ContextState,
        counter: &mut AccessCounter,
    ) -> Option<(LeafId, &[LeafEntry])> {
        let mut node = 0usize;
        for level in 0..self.depth() {
            let key = state.value(self.order.param_at(level));
            let cells = &self.nodes[node].cells;
            let mut found = None;
            for (i, c) in cells.iter().enumerate() {
                if c.key == key {
                    counter.add(i as u64 + 1);
                    found = Some(c.child);
                    break;
                }
            }
            let Some(child) = found else {
                counter.add(cells.len() as u64);
                return None;
            };
            if level + 1 == self.depth() {
                let leaf = LeafId(child);
                return Some((leaf, self.leaf(leaf)));
            }
            node = child as usize;
        }
        unreachable!("depth ≥ 1 by construction")
    }

    /// `Search_CS` (Algorithm 1): find every stored path whose context
    /// state equals or covers `state`, each annotated with its distance
    /// from `state` under `kind`.
    ///
    /// The traversal descends from the root; at level `k` with searched
    /// value `c_k`, it follows every cell whose key is `c_k` itself or
    /// an ancestor of `c_k` (including `all`), accumulating the
    /// per-parameter distance contribution. Every cell of every visited
    /// node is charged to `counter` (the linear scan must classify each
    /// cell).
    pub fn search_cs(
        &self,
        state: &ContextState,
        kind: DistanceKind,
        counter: &mut AccessCounter,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        let mut path: Vec<CtxValue> = Vec::with_capacity(self.depth());
        self.search_rec(0, 0.0, state, kind, counter, &mut path, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn search_rec(
        &self,
        node: usize,
        dist: f64,
        state: &ContextState,
        kind: DistanceKind,
        counter: &mut AccessCounter,
        path: &mut Vec<CtxValue>,
        out: &mut Vec<Candidate>,
    ) {
        let level = path.len();
        let param = self.order.param_at(level);
        let h = self.env.hierarchy(param);
        let target = state.value(param);
        let bottom = level + 1 == self.depth();
        let cells = &self.nodes[node].cells;
        counter.add(cells.len() as u64);
        for cell in cells {
            if !h.is_ancestor_or_self(cell.key, target) {
                continue;
            }
            let d = dist + kind.value_dist(&self.env, param, cell.key, target);
            path.push(cell.key);
            if bottom {
                out.push(Candidate {
                    state: self.state_from_path(path),
                    distance: d,
                    leaf: LeafId(cell.child),
                });
            } else {
                self.search_rec(cell.child as usize, d, state, kind, counter, path, out);
            }
            path.pop();
        }
    }

    /// Reconstruct a state (in parameter order) from a root-to-leaf key
    /// path (in tree-level order).
    fn state_from_path(&self, path: &[CtxValue]) -> ContextState {
        let mut values = vec![ctxpref_hierarchy::ValueId(0); self.depth()];
        for (level, &v) in path.iter().enumerate() {
            values[self.order.param_at(level).index()] = v;
        }
        ContextState::from_values_unchecked(values)
    }

    /// Enumerate every stored `(state, leaf entries)` pair, in
    /// depth-first order. Used by tests and by tree re-organization.
    pub fn paths(&self) -> Vec<(ContextState, &[LeafEntry])> {
        self.leaf_paths()
            .into_iter()
            .map(|(state, leaf)| (state, self.leaf(leaf)))
            .collect()
    }

    /// Every stored `(state, leaf)` pair, in depth-first order.
    fn leaf_paths(&self) -> Vec<(ContextState, LeafId)> {
        let mut out = Vec::with_capacity(self.leaves.len());
        let mut path = Vec::with_capacity(self.depth());
        self.paths_rec(0, &mut path, &mut out);
        out
    }

    fn paths_rec(
        &self,
        node: usize,
        path: &mut Vec<CtxValue>,
        out: &mut Vec<(ContextState, LeafId)>,
    ) {
        let bottom = path.len() + 1 == self.depth();
        for cell in &self.nodes[node].cells {
            path.push(cell.key);
            if bottom {
                out.push((self.state_from_path(path), LeafId(cell.child)));
            } else {
                self.paths_rec(cell.child as usize, path, out);
            }
            path.pop();
        }
    }

    /// Rebuild the same contents, contributor counts included, under a
    /// different parameter order.
    pub fn reorder(&self, order: ParamOrder) -> Result<Self, ProfileError> {
        let mut tree = Self::new(self.env.clone(), order)?;
        for (state, old) in self.leaf_paths() {
            let leaf = tree.ensure_path(&state);
            let entries = self.leaf(old);
            tree.leaves[leaf.index()] = Leaf::from(entries);
            for pos in 0..entries.len() as u32 {
                if let Some(&n) = self.shared.get(&(old.0, pos)) {
                    tree.shared.insert((leaf.0, pos), n);
                }
            }
        }
        Ok(tree)
    }

    /// Size statistics (Figures 5–6). Freed arena slots (after
    /// removals) hold no cells/entries and internal node/leaf counts
    /// exclude them.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            internal_nodes: self.nodes.len() - self.free_nodes.len(),
            internal_cells: self.nodes.iter().map(|n| n.cells.len()).sum(),
            leaf_nodes: self.leaves.len() - self.free_leaves.len(),
            leaf_entries: self.leaves.iter().map(|l| l.entries().len()).sum(),
        }
    }

    /// Number of distinct stored context states.
    pub fn state_count(&self) -> usize {
        self.leaves.len() - self.free_leaves.len()
    }

    /// Take one contributor from the `(clause, score)` entry stored
    /// under one exact context state, removing the entry and pruning
    /// emptied nodes when it was the last. Returns whether an entry
    /// existed.
    fn remove_state_entry(
        &mut self,
        state: &ContextState,
        clause: &AttributeClause,
        score: f64,
    ) -> bool {
        // Record the path root → bottom as (node, cell position).
        let mut path: Vec<(usize, usize)> = Vec::with_capacity(self.depth());
        let mut node = 0usize;
        let mut leaf = None;
        for level in 0..self.depth() {
            let key = state.value(self.order.param_at(level));
            let Some(pos) = self.nodes[node].cells.iter().position(|c| c.key == key) else {
                return false;
            };
            let child = self.nodes[node].cells[pos].child;
            path.push((node, pos));
            if level + 1 == self.depth() {
                leaf = Some(child);
            } else {
                node = child as usize;
            }
        }
        let leaf = leaf.expect("depth ≥ 1 by construction");
        let entries = &mut self.leaves[leaf as usize];
        let Some(i) = entries
            .entries()
            .iter()
            .position(|e| e.clause == *clause && e.score == score)
        else {
            return false;
        };
        let key = (leaf, i as u32);
        if let Some(n) = self.shared.get_mut(&key) {
            *n -= 1;
            if *n == 1 {
                self.shared.remove(&key);
            }
            return true;
        }
        // The last entry moves into position `i`, and its count with it.
        let last = entries.entries().len() - 1;
        entries.swap_remove(i);
        if let Some(n) = self.shared.remove(&(leaf, last as u32)) {
            self.shared.insert(key, n);
        }
        if !entries.entries().is_empty() {
            return true;
        }
        // Leaf emptied: prune the path bottom-up while nodes empty out.
        self.free_leaves.push(leaf);
        for level in (0..self.depth()).rev() {
            let (node, pos) = path[level];
            let child = self.nodes[node].cells[pos].child;
            let child_gone =
                level + 1 == self.depth() || self.nodes[child as usize].cells.is_empty();
            if !child_gone {
                break;
            }
            self.nodes[node].cells.swap_remove(pos);
            if level + 1 < self.depth() {
                self.free_nodes.push(child);
            }
        }
        true
    }

    /// Update the score of the `(state, clause)` entry under one exact
    /// context state, keeping its contributor count. Returns whether an
    /// entry was found.
    pub fn update_state_entry(
        &mut self,
        state: &ContextState,
        clause: &AttributeClause,
        score: f64,
    ) -> bool {
        let Some(leaf) = self.locate_leaf(state) else {
            return false;
        };
        let entries = self.leaves[leaf.index()].entries_mut();
        match entries.iter_mut().find(|e| e.clause == *clause) {
            Some(e) => {
                e.score = score;
                true
            }
            None => false,
        }
    }
}

impl ProfileTree {
    /// Every stored entry with its contributor count, keyed by what it
    /// means rather than where it sits, so trees built by different
    /// edit histories compare equal. Refused with
    /// [`ProfileError::ContributorCount`] when a recorded count is one
    /// or less (an entry of one contributor has no record) or names an
    /// entry its leaf does not hold.
    pub fn contributor_counts(&self) -> Result<Vec<(ContextState, String, u32)>, ProfileError> {
        for (&(leaf, position), &count) in &self.shared {
            let entries = self
                .leaves
                .get(leaf as usize)
                .map_or(0, |l| l.entries().len());
            if count <= 1 || position as usize >= entries {
                return Err(ProfileError::ContributorCount {
                    leaf,
                    position,
                    count,
                    entries,
                });
            }
        }
        let mut out: Vec<_> = self
            .leaf_paths()
            .into_iter()
            .flat_map(|(state, leaf)| {
                self.leaf(leaf).iter().enumerate().map(move |(pos, e)| {
                    let n = self.shared.get(&(leaf.0, pos as u32)).map_or(1, |&n| n);
                    (state.clone(), format!("{:?}@{}", e.clause, e.score), n)
                })
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

impl fmt::Display for ProfileTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "ProfileTree[order {}, {} states, {} cells, {} bytes]",
            self.order.display(&self.env),
            self.state_count(),
            s.total_cells(),
            s.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use ctxpref_context::parse_descriptor;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_relation::AttrId;

    use super::*;

    #[test]
    fn a_corrupt_contributor_count_is_refused_typed() {
        let env =
            ContextEnvironment::new(vec![Hierarchy::flat("weather", &["cold", "warm"]).unwrap()])
                .unwrap();
        let pref = ContextualPreference::new(
            parse_descriptor(&env, "weather = warm").unwrap(),
            AttributeClause::eq(AttrId(0), "park".into()),
            0.5,
        )
        .unwrap();
        let mut tree = ProfileTree::new(env.clone(), ParamOrder::identity(&env)).unwrap();
        tree.insert(&pref).unwrap();
        tree.insert(&pref).unwrap();
        assert_eq!(tree.contributor_counts().unwrap()[0].2, 2);
        assert!(
            matches!(tree.leaves[0], Leaf::One(_)),
            "one entry stays inline"
        );

        let key = *tree.shared.keys().next().unwrap();
        tree.shared.insert(key, 1);
        let err = tree.contributor_counts().unwrap_err();
        assert_eq!(
            err,
            ProfileError::ContributorCount {
                leaf: key.0,
                position: key.1,
                count: 1,
                entries: 1,
            }
        );
        assert!(err.to_string().contains("count of 1"), "{err}");

        tree.shared.insert(key, 2);
        tree.shared.insert((key.0, 1), 3);
        let err = tree.contributor_counts().unwrap_err();
        assert!(matches!(
            err,
            ProfileError::ContributorCount {
                position: 1,
                count: 3,
                entries: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("outlives"), "{err}");
    }
}
