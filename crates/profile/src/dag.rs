//! DAG compression of the profile tree.
//!
//! Section 3.3 describes the profile tree as "a directed acyclic graph
//! with a single root node": nothing requires distinct parents to point
//! to distinct children. [`CompressedProfileTree`] exploits that degree
//! of freedom by hash-consing structurally identical subtrees — two
//! context values whose sub-contexts carry identical preferences share
//! one physical subtree, and identical leaf entry-sets are stored once.
//!
//! Compression is a read-only snapshot: build a [`crate::ProfileTree`],
//! then [`crate::ProfileTree::compress`] it. The snapshot *is* a
//! `ProfileTree` whose arena shares children, so lookups (`exact_lookup`,
//! `search_cs`) run the tree's own code with the same cell-access
//! accounting, and the compressed index slots into every experiment as
//! an ablation (`repro -- dag`).

use std::collections::HashMap;

use ctxpref_context::{ContextEnvironment, ContextState, CtxValue, DistanceKind};

use crate::access::AccessCounter;
use crate::leaf::{Leaf, LeafEntry};
use crate::ordering::ParamOrder;
use crate::tree::{Candidate, Cell, LeafId, Node, ProfileTree, TreeStats};

/// A hash-consed, immutable profile tree: same contents and lookup
/// behaviour as the [`ProfileTree`] it was compressed from, with
/// structurally identical subtrees and leaves shared.
#[derive(Debug, Clone)]
pub struct CompressedProfileTree(ProfileTree);

/// Hashable fingerprint of a leaf: sorted `(clause debug, score bits)`.
fn leaf_key(entries: &[LeafEntry]) -> Vec<(String, u64)> {
    let mut key: Vec<(String, u64)> = entries
        .iter()
        .map(|e| (format!("{:?}", e.clause), e.score.to_bits()))
        .collect();
    key.sort();
    key
}

impl ProfileTree {
    /// Compress into a shared-subtree DAG (read-only snapshot).
    pub fn compress(&self) -> CompressedProfileTree {
        // Slot 0 is the root's, as in every `ProfileTree`.
        let mut builder = DagBuilder {
            nodes: vec![Node::default()],
            leaves: Vec::new(),
            node_index: HashMap::new(),
            leaf_index: HashMap::new(),
        };
        let depth = self.order().len();
        let mut paths = self.paths();
        // Sort for deterministic construction.
        paths.sort_by(|a, b| a.0.cmp(&b.0));
        builder.nodes[0] = node(&builder.cells(self, &paths, 0, depth));
        CompressedProfileTree(ProfileTree::from_arena(
            self.env().clone(),
            self.order().clone(),
            builder.nodes,
            builder.leaves,
        ))
    }
}

/// Paths grouped under one key at one level.
type PathGroup<'a> = Vec<(ContextState, &'a [LeafEntry])>;

fn node(cells: &[(u32, u32)]) -> Node {
    Node {
        cells: cells
            .iter()
            .map(|&(k, c)| Cell {
                key: ctxpref_hierarchy::ValueId(k),
                child: c,
            })
            .collect(),
    }
}

struct DagBuilder {
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
    node_index: HashMap<Vec<(u32, u32)>, u32>,
    leaf_index: HashMap<Vec<(String, u64)>, u32>,
}

impl DagBuilder {
    /// The sorted `(key, child)` cells of the node covering `paths`
    /// (all sharing a key prefix of length `level` in tree order).
    fn cells(
        &mut self,
        tree: &ProfileTree,
        paths: &[(ContextState, &[LeafEntry])],
        level: usize,
        depth: usize,
    ) -> Vec<(u32, u32)> {
        // Group paths by their key at this level (tree order).
        let param = tree.order().param_at(level);
        let mut groups: Vec<(CtxValue, PathGroup)> = Vec::new();
        for (state, entries) in paths {
            let key = state.value(param);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push((state.clone(), entries)),
                None => groups.push((key, vec![(state.clone(), entries)])),
            }
        }
        let mut cells: Vec<(u32, u32)> = Vec::with_capacity(groups.len());
        for (key, group) in groups {
            let child = if level + 1 == depth {
                self.intern_leaf(group[0].1)
            } else {
                let below = self.cells(tree, &group, level + 1, depth);
                self.intern_node(below)
            };
            cells.push((key.0, child));
        }
        cells.sort();
        cells
    }

    fn intern_leaf(&mut self, entries: &[LeafEntry]) -> u32 {
        let key = leaf_key(entries);
        if let Some(&id) = self.leaf_index.get(&key) {
            return id;
        }
        let id = self.leaves.len() as u32;
        self.leaves.push(Leaf::from(entries));
        self.leaf_index.insert(key, id);
        id
    }

    fn intern_node(&mut self, cells: Vec<(u32, u32)>) -> u32 {
        if let Some(&id) = self.node_index.get(&cells) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node(&cells));
        self.node_index.insert(cells, id);
        id
    }
}

impl CompressedProfileTree {
    /// The context environment the DAG indexes.
    pub fn env(&self) -> &ContextEnvironment {
        self.0.env()
    }

    /// The parameter-to-level assignment (same as the source tree).
    pub fn order(&self) -> &ParamOrder {
        self.0.order()
    }

    /// The entries of a (shared) leaf.
    pub fn leaf(&self, id: LeafId) -> &[LeafEntry] {
        self.0.leaf(id)
    }

    /// Exact-match lookup, identical contract to
    /// [`ProfileTree::exact_lookup`].
    pub fn exact_lookup(
        &self,
        state: &ContextState,
        counter: &mut AccessCounter,
    ) -> Option<(LeafId, &[LeafEntry])> {
        self.0.exact_lookup(state, counter)
    }

    /// `Search_CS` over the DAG, identical contract to
    /// [`ProfileTree::search_cs`].
    pub fn search_cs(
        &self,
        state: &ContextState,
        kind: DistanceKind,
        counter: &mut AccessCounter,
    ) -> Vec<Candidate> {
        self.0.search_cs(state, kind, counter)
    }

    /// Size statistics under the same byte model as [`TreeStats`].
    /// Shared nodes/leaves are counted once — that is the point.
    pub fn stats(&self) -> TreeStats {
        self.0.stats()
    }

    /// Number of *distinct physical* leaves (≤ the source tree's state
    /// count).
    pub fn unique_leaf_count(&self) -> usize {
        self.0.state_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::{AttributeClause, ContextualPreference};
    use crate::profile::Profile;
    use ctxpref_context::{parse_descriptor, ContextEnvironment};
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_relation::AttrId;

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("weather", &["cold", "mild", "warm", "hot"]).unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    fn pref(env: &ContextEnvironment, d: &str, value: &str, score: f64) -> ContextualPreference {
        ContextualPreference::new(
            parse_descriptor(env, d).unwrap(),
            AttributeClause::eq(AttrId(0), value.into()),
            score,
        )
        .unwrap()
    }

    #[test]
    fn identical_subtrees_are_shared() {
        let env = env();
        let mut profile = Profile::new(env.clone());
        // The same (company → clause) structure under all four weather
        // values: four identical subtrees collapse into one.
        profile
            .insert(pref(
                &env,
                "weather in {cold, mild, warm, hot} and company = friends",
                "brewery",
                0.9,
            ))
            .unwrap();
        let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
        let dag = tree.compress();
        let t = tree.stats();
        let d = dag.stats();
        assert_eq!(t.leaf_entries, 4, "tree stores four copies");
        assert_eq!(d.leaf_entries, 1, "dag shares the single leaf");
        assert!(d.internal_cells < t.internal_cells);
        assert_eq!(dag.unique_leaf_count(), 1);
        assert!(d.total_bytes() < t.total_bytes());
    }

    #[test]
    fn lookups_match_source_tree() {
        let env = env();
        let mut profile = Profile::new(env.clone());
        for (d, v, s) in [
            (
                "weather in {cold, mild} and company = friends",
                "brewery",
                0.9,
            ),
            ("weather in {warm, hot} and company = friends", "beach", 0.8),
            ("company = family", "zoo", 0.7),
            ("weather = hot", "aquarium", 0.6),
        ] {
            profile.insert(pref(&env, d, v, s)).unwrap();
        }
        let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
        let dag = tree.compress();
        let wh = env.hierarchy(ctxpref_context::ParamId(0));
        let ch = env.hierarchy(ctxpref_context::ParamId(1));
        for &w in wh.edom().collect::<Vec<_>>().iter() {
            for &c in ch.edom().collect::<Vec<_>>().iter() {
                let q = ContextState::from_values_unchecked(vec![w, c]);
                let mut c1 = AccessCounter::new();
                let mut c2 = AccessCounter::new();
                let te = tree.exact_lookup(&q, &mut c1).map(|(_, e)| {
                    let mut v: Vec<String> = e.iter().map(|x| format!("{x:?}")).collect();
                    v.sort();
                    v
                });
                let de = dag.exact_lookup(&q, &mut c2).map(|(_, e)| {
                    let mut v: Vec<String> = e.iter().map(|x| format!("{x:?}")).collect();
                    v.sort();
                    v
                });
                assert_eq!(te, de);
                // Covering search agrees on (state, distance) sets.
                let mut s1: Vec<(String, String)> = tree
                    .search_cs(&q, DistanceKind::Jaccard, &mut c1)
                    .into_iter()
                    .map(|x| {
                        (
                            x.state.display(&env).to_string(),
                            format!("{:.9}", x.distance),
                        )
                    })
                    .collect();
                let mut s2: Vec<(String, String)> = dag
                    .search_cs(&q, DistanceKind::Jaccard, &mut c2)
                    .into_iter()
                    .map(|x| {
                        (
                            x.state.display(&env).to_string(),
                            format!("{:.9}", x.distance),
                        )
                    })
                    .collect();
                s1.sort();
                s2.sort();
                assert_eq!(s1, s2);
            }
        }
    }

    #[test]
    fn compression_is_idempotent_in_size() {
        let env = env();
        let mut profile = Profile::new(env.clone());
        for (i, w) in ["cold", "mild", "warm", "hot"].iter().enumerate() {
            profile
                .insert(pref(
                    &env,
                    &format!("weather = {w}"),
                    "x",
                    0.1 * (i + 1) as f64,
                ))
                .unwrap();
        }
        let tree = ProfileTree::from_profile(&profile, ParamOrder::identity(&env)).unwrap();
        let dag = tree.compress();
        assert!(dag.stats().total_cells() <= tree.stats().total_cells());
        assert_eq!(dag.order().len(), 2);
        assert_eq!(dag.env().len(), 2);
    }
}
