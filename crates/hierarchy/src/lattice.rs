//! General level **lattices** — the full formalism of Section 3.1.
//!
//! The paper defines an attribute hierarchy as "a lattice `(L, ≺)` …
//! of m levels" whose upper bound is `ALL` and whose lower bound is the
//! detailed level. Every hierarchy actually drawn in the paper is a
//! chain, which is what [`crate::Hierarchy`] implements with O(1)
//! leaf-range tricks. This module implements the *general* case: a
//! level graph where one level may have several parent levels — e.g. a
//! time lattice
//!
//! ```text
//!            ALL
//!           /    \
//!   PartOfDay    DayType        (morning/noon/… | weekday/weekend)
//!           \    /
//!            Hour
//! ```
//!
//! with the three `anc` conditions enforced: totality per edge,
//! **composition** (diamonds must commute — `anc` to a level reachable
//! via several paths is path-independent), and monotonicity (audited by
//! [`LatticeHierarchy::validate_monotonicity`]).
//!
//! A [`LatticeHierarchy`] answers the same queries as a chain hierarchy
//! (`anc`, `desc`, leaf sets, Jaccard, minimum-path level distance) and
//! can be **decomposed into chains** ([`LatticeHierarchy::extract_chain`])
//! so that each maximal path becomes an ordinary [`crate::Hierarchy`]
//! usable as a context parameter by the rest of the system.

use std::collections::HashMap;

use crate::error::HierarchyError;
use crate::hierarchy::{Hierarchy, LevelId, ValueId, ALL_VALUE_NAME};
use crate::HierarchyBuilder;

/// Errors specific to lattice construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeError {
    /// A level name was declared twice, or `ALL` was used explicitly.
    BadLevel(String),
    /// A parent level reference did not resolve.
    UnknownLevel(String),
    /// The level graph has a cycle (levels must form a DAG under ≺).
    LevelCycle,
    /// A value name was used twice.
    DuplicateValue(String),
    /// A value is missing its parent at one of its level's parent levels.
    MissingParent {
        /// The child value.
        value: String,
        /// The parent level with no assignment.
        parent_level: String,
    },
    /// A referenced parent value does not exist at the expected level.
    BadParent {
        /// The child value.
        value: String,
        /// The unresolved or misplaced parent.
        parent: String,
    },
    /// Composition violated: two upward paths give different ancestors.
    DiamondMismatch {
        /// The value whose ancestors disagree.
        value: String,
        /// The level at which the two paths disagree.
        level: String,
    },
    /// An underlying chain-hierarchy error during extraction.
    Chain(HierarchyError),
    /// The requested chain is not an upward path in the lattice.
    NotAPath(String),
}

impl std::fmt::Display for LatticeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadLevel(l) => write!(f, "bad level declaration {l:?}"),
            Self::UnknownLevel(l) => write!(f, "unknown level {l:?}"),
            Self::LevelCycle => write!(f, "levels must form a DAG"),
            Self::DuplicateValue(v) => write!(f, "duplicate value {v:?}"),
            Self::MissingParent {
                value,
                parent_level,
            } => {
                write!(f, "value {value:?} has no parent at level {parent_level:?}")
            }
            Self::BadParent { value, parent } => {
                write!(f, "value {value:?} has invalid parent {parent:?}")
            }
            Self::DiamondMismatch { value, level } => write!(
                f,
                "anc composition violated: paths from {value:?} to level {level:?} disagree"
            ),
            Self::Chain(e) => write!(f, "{e}"),
            Self::NotAPath(p) => write!(f, "{p:?} is not an upward path of the lattice"),
        }
    }
}

impl std::error::Error for LatticeError {}

impl From<HierarchyError> for LatticeError {
    fn from(e: HierarchyError) -> Self {
        Self::Chain(e)
    }
}

#[derive(Debug, Clone)]
struct LevelInfo {
    name: String,
    /// Direct parent levels (edges of ≺ going up).
    parents: Vec<LevelId>,
}

#[derive(Debug, Clone)]
struct ValueInfo {
    name: String,
    level: LevelId,
    /// One parent value per direct parent level, aligned with
    /// `LevelInfo::parents`.
    parents: Vec<ValueId>,
    /// Sorted positions of detailed-level descendants.
    leaf_set: Vec<u32>,
}

/// A hierarchy over a general level lattice. Immutable once built.
#[derive(Debug, Clone)]
pub struct LatticeHierarchy {
    name: String,
    levels: Vec<LevelInfo>,
    values: Vec<ValueInfo>,
    by_level: Vec<Vec<ValueId>>,
    by_name: HashMap<String, ValueId>,
    /// `anc_table[v][l]`: the ancestor of value `v` at level `l`, if `l`
    /// is upward-reachable from `v`'s level.
    anc_table: Vec<Vec<Option<ValueId>>>,
    /// All-pairs minimum path length between levels in the *undirected*
    /// level graph (Definition 14's minimum number of edges).
    level_dist: Vec<Vec<u32>>,
}

/// Builder for a [`LatticeHierarchy`].
///
/// Declare levels bottom-up with their direct parent levels (`ALL` is
/// implicit: levels declared with no parents hang off `ALL`), then add
/// values with one parent value per parent level.
#[derive(Debug, Clone)]
pub struct LatticeBuilder {
    name: String,
    /// (level name, parent level names); `ALL` is appended at build.
    levels: Vec<(String, Vec<String>)>,
    /// (level, value, parent values by name).
    values: Vec<(String, String, Vec<String>)>,
}

impl LatticeBuilder {
    /// Start a lattice named `name`. The first declared level is the
    /// detailed level.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            levels: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Declare a level with its direct parent levels (already-declared
    /// names; empty = parent is `ALL`).
    pub fn level(&mut self, name: &str, parents: &[&str]) -> &mut Self {
        self.levels.push((
            name.to_string(),
            parents.iter().map(|p| p.to_string()).collect(),
        ));
        self
    }

    /// Add a value at `level` with one parent value per declared parent
    /// level (same order). Levels whose only parent is `ALL` take no
    /// parent values.
    pub fn value(&mut self, level: &str, name: &str, parents: &[&str]) -> &mut Self {
        self.values.push((
            level.to_string(),
            name.to_string(),
            parents.iter().map(|p| p.to_string()).collect(),
        ));
        self
    }

    /// Resolve everything, validate the three `anc` conditions that are
    /// checkable structurally (totality and composition), and build.
    pub fn build(&self) -> Result<LatticeHierarchy, LatticeError> {
        // ----- levels -----
        let mut level_names: Vec<String> = Vec::new();
        for (l, _) in &self.levels {
            if l == "ALL" || level_names.contains(l) {
                return Err(LatticeError::BadLevel(l.clone()));
            }
            level_names.push(l.clone());
        }
        if level_names.is_empty() {
            return Err(LatticeError::BadLevel("(no levels)".into()));
        }
        level_names.push("ALL".to_string());
        let all_level = LevelId((level_names.len() - 1) as u8);
        let level_of_name = |n: &str| -> Result<LevelId, LatticeError> {
            level_names
                .iter()
                .position(|x| x == n)
                .map(|i| LevelId(i as u8))
                .ok_or_else(|| LatticeError::UnknownLevel(n.to_string()))
        };
        let mut levels: Vec<LevelInfo> = Vec::with_capacity(level_names.len());
        for (i, (l, parents)) in self.levels.iter().enumerate() {
            let mut pids = Vec::new();
            for p in parents {
                let pid = level_of_name(p)?;
                // ≺ must be acyclic; requiring parents to be declared
                // *before* use would forbid valid orders, so only check
                // self-reference here and acyclicity below.
                if pid.index() == i {
                    return Err(LatticeError::LevelCycle);
                }
                pids.push(pid);
            }
            if pids.is_empty() {
                pids.push(all_level);
            }
            levels.push(LevelInfo {
                name: l.clone(),
                parents: pids,
            });
        }
        levels.push(LevelInfo {
            name: "ALL".into(),
            parents: Vec::new(),
        });

        // Acyclicity of the level graph (upward edges).
        {
            let mut state = vec![0u8; levels.len()]; // 0 new, 1 visiting, 2 done
            fn dfs(l: usize, levels: &[LevelInfo], state: &mut [u8]) -> bool {
                if state[l] == 1 {
                    return false;
                }
                if state[l] == 2 {
                    return true;
                }
                state[l] = 1;
                for p in &levels[l].parents {
                    if !dfs(p.index(), levels, state) {
                        return false;
                    }
                }
                state[l] = 2;
                true
            }
            for l in 0..levels.len() {
                if !dfs(l, &levels, &mut state) {
                    return Err(LatticeError::LevelCycle);
                }
            }
        }

        // ----- values -----
        let mut values: Vec<ValueInfo> = vec![ValueInfo {
            name: ALL_VALUE_NAME.to_string(),
            level: all_level,
            parents: Vec::new(),
            leaf_set: Vec::new(),
        }];
        let mut by_level: Vec<Vec<ValueId>> = vec![Vec::new(); levels.len()];
        by_level[all_level.index()].push(ValueId(0));
        let mut by_name: HashMap<String, ValueId> = HashMap::new();
        by_name.insert(ALL_VALUE_NAME.to_string(), ValueId(0));

        // First pass: create values.
        let mut raw_parents: Vec<Vec<String>> = vec![Vec::new()];
        for (level, name, parents) in &self.values {
            let lid = level_of_name(level)?;
            if name == ALL_VALUE_NAME || by_name.contains_key(name) {
                return Err(LatticeError::DuplicateValue(name.clone()));
            }
            let id = ValueId(values.len() as u32);
            by_name.insert(name.clone(), id);
            by_level[lid.index()].push(id);
            values.push(ValueInfo {
                name: name.clone(),
                level: lid,
                parents: Vec::new(),
                leaf_set: Vec::new(),
            });
            raw_parents.push(parents.clone());
        }

        // Second pass: resolve parent values, one per parent level.
        for vid in 1..values.len() {
            let lid = values[vid].level;
            let parent_levels = levels[lid.index()].parents.clone();
            let mut resolved = Vec::with_capacity(parent_levels.len());
            for (slot, &plevel) in parent_levels.iter().enumerate() {
                if plevel == all_level {
                    resolved.push(ValueId(0));
                    continue;
                }
                let pname =
                    raw_parents[vid]
                        .get(slot)
                        .ok_or_else(|| LatticeError::MissingParent {
                            value: values[vid].name.clone(),
                            parent_level: levels[plevel.index()].name.clone(),
                        })?;
                let &pid = by_name.get(pname).ok_or_else(|| LatticeError::BadParent {
                    value: values[vid].name.clone(),
                    parent: pname.clone(),
                })?;
                if values[pid.index()].level != plevel {
                    return Err(LatticeError::BadParent {
                        value: values[vid].name.clone(),
                        parent: pname.clone(),
                    });
                }
                resolved.push(pid);
            }
            values[vid].parents = resolved;
        }

        // ----- anc table (validating composition on diamonds) -----
        let nl = levels.len();
        let mut anc_table: Vec<Vec<Option<ValueId>>> = vec![vec![None; nl]; values.len()];
        // Process levels in topological order bottom-up: repeat until fix.
        // Since the level DAG is small, iterate levels in an order where
        // parents come later (Kahn on upward edges).
        let topo: Vec<usize> = {
            let mut indeg = vec![0usize; nl];
            for l in &levels {
                for p in &l.parents {
                    indeg[p.index()] += 1;
                }
            }
            // Start from levels nobody points up to... we want children
            // before parents, i.e., process in order of "all descendants
            // done". Use reverse topological order of the parent edges.
            let mut order = Vec::with_capacity(nl);
            let mut queue: Vec<usize> = (0..nl).filter(|&i| levels[i].parents.is_empty()).collect();
            // Kahn from the top (ALL) downward over reversed edges.
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); nl];
            for (i, l) in levels.iter().enumerate() {
                for p in &l.parents {
                    children[p.index()].push(i);
                }
            }
            let mut remaining = vec![0usize; nl];
            for (i, l) in levels.iter().enumerate() {
                remaining[i] = l.parents.len();
            }
            let _ = indeg;
            while let Some(top) = queue.pop() {
                order.push(top);
                for &c in &children[top] {
                    remaining[c] -= 1;
                    if remaining[c] == 0 {
                        queue.push(c);
                    }
                }
            }
            // `order` lists parents before children (ALL first), which
            // is what ancestor propagation needs: each value inherits
            // its parents' completed rows.
            order
        };

        for &l in &topo {
            for &vid in &by_level[l] {
                anc_table[vid.index()][l] = Some(vid);
                // Propagate through each direct parent.
                let parents: Vec<(LevelId, ValueId)> = levels[l]
                    .parents
                    .iter()
                    .copied()
                    .zip(values[vid.index()].parents.iter().copied())
                    .collect();
                for (plevel, pval) in parents {
                    // Everything the parent can reach, v can reach too.
                    for ul in 0..nl {
                        if let Some(a) = anc_table[pval.index()][ul] {
                            match anc_table[vid.index()][ul] {
                                None => anc_table[vid.index()][ul] = Some(a),
                                Some(existing) if existing != a => {
                                    return Err(LatticeError::DiamondMismatch {
                                        value: values[vid.index()].name.clone(),
                                        level: levels[ul].name.clone(),
                                    });
                                }
                                _ => {}
                            }
                        }
                    }
                    let _ = plevel;
                }
            }
        }

        // ----- leaf sets -----
        let mut leaf_sets: Vec<Vec<u32>> = vec![Vec::new(); values.len()];
        for (pos, &leaf) in by_level[0].iter().enumerate() {
            for anc in anc_table[leaf.index()].iter().flatten() {
                leaf_sets[anc.index()].push(pos as u32);
            }
        }
        for (vid, ls) in leaf_sets.into_iter().enumerate() {
            let mut ls = ls;
            ls.sort_unstable();
            ls.dedup();
            values[vid].leaf_set = ls;
        }

        // ----- level distances (undirected min path) -----
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nl];
        for (i, l) in levels.iter().enumerate() {
            for p in &l.parents {
                adj[i].push(p.index());
                adj[p.index()].push(i);
            }
        }
        let mut level_dist = vec![vec![u32::MAX; nl]; nl];
        for (start, row) in level_dist.iter_mut().enumerate() {
            let mut queue = std::collections::VecDeque::from([start]);
            row[start] = 0;
            while let Some(x) = queue.pop_front() {
                for &y in &adj[x] {
                    if row[y] == u32::MAX {
                        row[y] = row[x] + 1;
                        queue.push_back(y);
                    }
                }
            }
        }

        Ok(LatticeHierarchy {
            name: self.name.clone(),
            levels,
            values,
            by_level,
            by_name,
            anc_table,
            level_dist,
        })
    }
}

impl LatticeHierarchy {
    /// Name of the context parameter the lattice models.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels including `ALL`.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Resolve a level by name (`"ALL"` included).
    pub fn level_by_name(&self, name: &str) -> Option<LevelId> {
        self.levels
            .iter()
            .position(|l| l.name == name)
            .map(|i| LevelId(i as u8))
    }

    /// Name of a level.
    pub fn level_name(&self, l: LevelId) -> &str {
        &self.levels[l.index()].name
    }

    /// The domain of one level.
    pub fn domain(&self, l: LevelId) -> &[ValueId] {
        &self.by_level[l.index()]
    }

    /// Total number of values across levels (`|edom|`).
    pub fn edom_size(&self) -> usize {
        self.values.len()
    }

    /// Resolve a value by name.
    pub fn lookup(&self, name: &str) -> Option<ValueId> {
        self.by_name.get(name).copied()
    }

    /// Name of a value.
    pub fn value_name(&self, v: ValueId) -> &str {
        &self.values[v.index()].name
    }

    /// The level a value belongs to.
    pub fn level_of(&self, v: ValueId) -> LevelId {
        self.values[v.index()].level
    }

    /// `anc(v, level)`: the unique ancestor of `v` at `level`, if the
    /// level is upward-reachable from `v`'s level (path-independence is
    /// guaranteed at build time).
    pub fn anc(&self, v: ValueId, level: LevelId) -> Option<ValueId> {
        self.anc_table[v.index()][level.index()]
    }

    /// `desc(v, level)`: all values at `level` whose ancestor is `v`.
    pub fn desc(&self, v: ValueId, level: LevelId) -> Vec<ValueId> {
        self.by_level[level.index()]
            .iter()
            .copied()
            .filter(|&u| self.anc(u, self.level_of(v)) == Some(v))
            .collect()
    }

    /// Sorted detailed-level positions below `v`.
    pub fn leaf_set(&self, v: ValueId) -> &[u32] {
        &self.values[v.index()].leaf_set
    }

    /// True iff `a == b` or `a` is an ancestor of `b`.
    pub fn is_ancestor_or_self(&self, a: ValueId, b: ValueId) -> bool {
        self.anc(b, self.level_of(a)) == Some(a)
    }

    /// Minimum number of edges between two levels in the undirected
    /// level graph (Definition 14). `None` if disconnected (impossible
    /// when every level reaches `ALL`).
    pub fn level_dist(&self, a: LevelId, b: LevelId) -> Option<u32> {
        let d = self.level_dist[a.index()][b.index()];
        (d != u32::MAX).then_some(d)
    }

    /// The Jaccard distance of two values (Definition 16), via sorted
    /// leaf-set intersection.
    pub fn jaccard(&self, a: ValueId, b: ValueId) -> f64 {
        let (sa, sb) = (self.leaf_set(a), self.leaf_set(b));
        let mut i = 0;
        let mut j = 0;
        let mut inter = 0usize;
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = sa.len() + sb.len() - inter;
        if union == 0 {
            0.0
        } else {
            1.0 - inter as f64 / union as f64
        }
    }

    /// Every maximal upward path of level ids from the detailed level to
    /// `ALL` — the chains the lattice decomposes into.
    pub fn chains(&self) -> Vec<Vec<LevelId>> {
        let mut out = Vec::new();
        let mut path = vec![LevelId(0)];
        self.chains_rec(LevelId(0), &mut path, &mut out);
        out
    }

    fn chains_rec(&self, at: LevelId, path: &mut Vec<LevelId>, out: &mut Vec<Vec<LevelId>>) {
        let parents = &self.levels[at.index()].parents;
        if parents.is_empty() {
            out.push(path.clone());
            return;
        }
        for &p in parents {
            path.push(p);
            self.chains_rec(p, path, out);
            path.pop();
        }
    }

    /// Extract one upward path as an ordinary chain [`Hierarchy`]
    /// (named `{lattice}_{top user level}`), usable as a context
    /// parameter by the rest of the system. `path` lists level names
    /// bottom-up starting at the detailed level; `ALL` is implicit.
    pub fn extract_chain(&self, path: &[&str]) -> Result<Hierarchy, LatticeError> {
        // Resolve and verify the path is upward-adjacent.
        let mut lids = Vec::with_capacity(path.len());
        for name in path {
            lids.push(
                self.level_by_name(name)
                    .ok_or_else(|| LatticeError::UnknownLevel((*name).to_string()))?,
            );
        }
        if lids.is_empty() || lids[0] != LevelId(0) {
            return Err(LatticeError::NotAPath(path.join(" ≺ ")));
        }
        for w in lids.windows(2) {
            if !self.levels[w[0].index()].parents.contains(&w[1]) {
                return Err(LatticeError::NotAPath(path.join(" ≺ ")));
            }
        }
        let top = *lids.last().unwrap();
        let chain_name = format!(
            "{}_{}",
            self.name,
            self.levels[top.index()].name.to_lowercase()
        );
        let mut b = HierarchyBuilder::new(&chain_name, path);
        // Top level values first (no parents), then downward. Values
        // with no detailed-level descendants are skipped: a chain
        // hierarchy requires `desc` to be total, and such values can
        // never be reached by a context state anyway.
        for &v in self.domain(top) {
            if self.leaf_set(v).is_empty() {
                continue;
            }
            b.add(self.level_name(top), self.value_name(v), None)?;
        }
        for w in lids.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            for &v in self.domain(lo) {
                if lo != LevelId(0) && self.leaf_set(v).is_empty() {
                    continue;
                }
                let parent = self.anc(v, hi).expect("anc total along lattice edges");
                b.add(
                    self.level_name(lo),
                    self.value_name(v),
                    Some(self.value_name(parent)),
                )?;
            }
        }
        Ok(b.build()?)
    }

    /// Decompose the lattice into all of its maximal chains, extracting
    /// one ordinary [`Hierarchy`] per upward path (see
    /// [`Self::extract_chain`]). Each chain shares the lattice's
    /// detailed-level value names, so a concrete detailed value can be
    /// located in every chain.
    pub fn decompose(&self) -> Result<Vec<Hierarchy>, LatticeError> {
        let mut out = Vec::new();
        for chain in self.chains() {
            // Drop the trailing ALL (implicit in extract_chain).
            let names: Vec<&str> = chain[..chain.len() - 1]
                .iter()
                .map(|&l| self.level_name(l))
                .collect();
            out.push(self.extract_chain(&names)?);
        }
        Ok(out)
    }

    /// Audit monotonicity (the third `anc` condition) with respect to
    /// the within-level insertion order. Lattices with crossing parent
    /// assignments are reported here rather than rejected at build —
    /// none of the resolution algorithms depend on monotonicity.
    pub fn validate_monotonicity(&self) -> Result<(), String> {
        for (li, level) in self.levels.iter().enumerate() {
            for (slot, &pl) in level.parents.iter().enumerate() {
                let mut last: Option<usize> = None;
                for &v in &self.by_level[li] {
                    let p = self.values[v.index()].parents[slot];
                    let pos = self.by_level[pl.index()]
                        .iter()
                        .position(|&x| x == p)
                        .expect("parent in its level domain");
                    if let Some(prev) = last {
                        if pos < prev {
                            return Err(format!(
                                "anc from {} to {} not monotone at value {}",
                                level.name,
                                self.levels[pl.index()].name,
                                self.value_name(v)
                            ));
                        }
                    }
                    last = Some(pos);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-branch time lattice of the module docs:
    /// Hour ≺ PartOfDay ≺ ALL and Hour ≺ DayType ≺ ALL, over a
    /// 2-day × 4-hour toy domain so diamonds are real.
    fn time_lattice() -> LatticeHierarchy {
        let mut b = LatticeBuilder::new("time");
        b.level("Hour", &["PartOfDay", "DayType"]);
        b.level("PartOfDay", &[]);
        b.level("DayType", &[]);
        for p in ["morning", "evening"] {
            b.value("PartOfDay", p, &[]);
        }
        for d in ["weekday", "weekend"] {
            b.value("DayType", d, &[]);
        }
        // hours: (day, slot) — mon/sat × 9am/9pm.
        b.value("Hour", "mon_9am", &["morning", "weekday"]);
        b.value("Hour", "mon_9pm", &["evening", "weekday"]);
        b.value("Hour", "sat_9am", &["morning", "weekend"]);
        b.value("Hour", "sat_9pm", &["evening", "weekend"]);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_answers_anc_desc() {
        let l = time_lattice();
        assert_eq!(l.level_count(), 4);
        assert_eq!(l.edom_size(), 9); // 4 hours + 2 + 2 + all
        let h = l.lookup("mon_9am").unwrap();
        let morning = l.lookup("morning").unwrap();
        let weekday = l.lookup("weekday").unwrap();
        let pod = l.level_by_name("PartOfDay").unwrap();
        let dt = l.level_by_name("DayType").unwrap();
        assert_eq!(l.anc(h, pod), Some(morning));
        assert_eq!(l.anc(h, dt), Some(weekday));
        assert_eq!(
            l.anc(h, l.level_by_name("ALL").unwrap()),
            Some(l.lookup("all").unwrap())
        );
        // desc from morning back to hours.
        let hours = l.desc(morning, LevelId(0));
        let names: Vec<&str> = hours.iter().map(|&v| l.value_name(v)).collect();
        assert_eq!(names, vec!["mon_9am", "sat_9am"]);
        // Incomparable levels: no anc from PartOfDay to DayType.
        assert_eq!(l.anc(morning, dt), None);
    }

    #[test]
    fn ancestor_or_self_and_leaf_sets() {
        let l = time_lattice();
        let h = l.lookup("sat_9pm").unwrap();
        let evening = l.lookup("evening").unwrap();
        let weekend = l.lookup("weekend").unwrap();
        let weekday = l.lookup("weekday").unwrap();
        assert!(l.is_ancestor_or_self(evening, h));
        assert!(l.is_ancestor_or_self(weekend, h));
        assert!(!l.is_ancestor_or_self(weekday, h));
        assert!(l.is_ancestor_or_self(h, h));
        assert_eq!(l.leaf_set(evening).len(), 2);
        assert_eq!(l.leaf_set(l.lookup("all").unwrap()).len(), 4);
        assert_eq!(l.leaf_set(h).len(), 1);
    }

    #[test]
    fn jaccard_across_branches() {
        let l = time_lattice();
        let morning = l.lookup("morning").unwrap();
        let weekday = l.lookup("weekday").unwrap();
        // morning = {mon_9am, sat_9am}, weekday = {mon_9am, mon_9pm}:
        // intersection 1, union 3 → distance 2/3.
        assert!((l.jaccard(morning, weekday) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(l.jaccard(morning, morning), 0.0);
    }

    #[test]
    fn level_distances_use_min_paths() {
        let l = time_lattice();
        let hour = LevelId(0);
        let pod = l.level_by_name("PartOfDay").unwrap();
        let dt = l.level_by_name("DayType").unwrap();
        let all = l.level_by_name("ALL").unwrap();
        assert_eq!(l.level_dist(hour, pod), Some(1));
        assert_eq!(l.level_dist(hour, all), Some(2));
        // Between the two branches: PartOfDay—Hour—DayType or via ALL,
        // both length 2.
        assert_eq!(l.level_dist(pod, dt), Some(2));
        assert_eq!(l.level_dist(pod, pod), Some(0));
    }

    #[test]
    fn diamonds_must_commute() {
        // A 3-level diamond where the two paths to the top disagree.
        let mut b = LatticeBuilder::new("bad");
        b.level("Lo", &["A", "B"]);
        b.level("A", &["Top"]);
        b.level("B", &["Top"]);
        b.level("Top", &[]);
        b.value("Top", "t1", &[]);
        b.value("Top", "t2", &[]);
        b.value("A", "a1", &["t1"]);
        b.value("B", "b1", &["t2"]);
        // lo's path via A reaches t1, via B reaches t2 → mismatch.
        b.value("Lo", "lo", &["a1", "b1"]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, LatticeError::DiamondMismatch { .. }), "{err}");

        // Fixing B's parent makes it commute.
        let mut b = LatticeBuilder::new("good");
        b.level("Lo", &["A", "B"]);
        b.level("A", &["Top"]);
        b.level("B", &["Top"]);
        b.level("Top", &[]);
        b.value("Top", "t1", &[]);
        b.value("A", "a1", &["t1"]);
        b.value("B", "b1", &["t1"]);
        b.value("Lo", "lo", &["a1", "b1"]);
        let l = b.build().unwrap();
        assert_eq!(
            l.anc(l.lookup("lo").unwrap(), l.level_by_name("Top").unwrap()),
            l.lookup("t1")
        );
    }

    #[test]
    fn builder_errors() {
        let mut b = LatticeBuilder::new("x");
        b.level("L", &["nope"]);
        assert!(matches!(
            b.build().unwrap_err(),
            LatticeError::UnknownLevel(_)
        ));

        let mut b = LatticeBuilder::new("x");
        b.level("A", &["B"]);
        b.level("B", &["A"]);
        assert!(matches!(b.build().unwrap_err(), LatticeError::LevelCycle));

        let mut b = LatticeBuilder::new("x");
        b.level("L", &[]);
        b.value("L", "v", &[]);
        b.value("L", "v", &[]);
        assert!(matches!(
            b.build().unwrap_err(),
            LatticeError::DuplicateValue(_)
        ));

        let mut b = LatticeBuilder::new("x");
        b.level("Lo", &["Hi"]);
        b.level("Hi", &[]);
        b.value("Hi", "h", &[]);
        b.value("Lo", "l", &[]);
        assert!(matches!(
            b.build().unwrap_err(),
            LatticeError::MissingParent { .. }
        ));

        let mut b = LatticeBuilder::new("x");
        b.level("Lo", &["Hi"]);
        b.level("Hi", &[]);
        b.value("Hi", "h", &[]);
        b.value("Lo", "l", &["ghost"]);
        assert!(matches!(
            b.build().unwrap_err(),
            LatticeError::BadParent { .. }
        ));

        assert!(LatticeBuilder::new("x").build().is_err());
    }

    #[test]
    fn chains_enumerate_maximal_paths() {
        let l = time_lattice();
        let chains = l.chains();
        assert_eq!(chains.len(), 2);
        let rendered: Vec<Vec<&str>> = chains
            .iter()
            .map(|c| c.iter().map(|&lid| l.level_name(lid)).collect())
            .collect();
        assert!(rendered.contains(&vec!["Hour", "PartOfDay", "ALL"]));
        assert!(rendered.contains(&vec!["Hour", "DayType", "ALL"]));
    }

    #[test]
    fn chain_extraction_yields_working_hierarchies() {
        let l = time_lattice();
        let by_pod = l.extract_chain(&["Hour", "PartOfDay"]).unwrap();
        by_pod.validate().unwrap();
        assert_eq!(by_pod.level_count(), 3); // Hour, PartOfDay, ALL
        let h = by_pod.lookup("mon_9am").unwrap();
        let m = by_pod.lookup("morning").unwrap();
        assert_eq!(by_pod.anc(h, LevelId(1)), Some(m));
        assert_eq!(by_pod.leaf_count(m), 2);

        let by_dt = l.extract_chain(&["Hour", "DayType"]).unwrap();
        assert_eq!(
            by_dt
                .desc(by_dt.lookup("weekend").unwrap(), LevelId(0))
                .len(),
            2
        );

        // Non-paths are rejected.
        assert!(matches!(
            l.extract_chain(&["Hour", "ALL"]).unwrap_err(),
            LatticeError::NotAPath(_)
        ));
        assert!(matches!(
            l.extract_chain(&["PartOfDay"]).unwrap_err(),
            LatticeError::NotAPath(_)
        ));
    }

    #[test]
    fn monotonicity_audit() {
        let l = time_lattice();
        // mon_9am, mon_9pm, sat_9am, sat_9pm: DayType parents are
        // weekday, weekday, weekend, weekend → monotone; PartOfDay
        // parents morning, evening, morning, evening → NOT monotone.
        assert!(l.validate_monotonicity().is_err());

        // Reordering hours by part-of-day first fixes it for that edge
        // but breaks the other — a genuine lattice limitation the audit
        // surfaces. A single-branch lattice is monotone.
        let mut b = LatticeBuilder::new("c");
        b.level("Lo", &["Hi"]);
        b.level("Hi", &[]);
        b.value("Hi", "h1", &[]);
        b.value("Hi", "h2", &[]);
        b.value("Lo", "a", &["h1"]);
        b.value("Lo", "b", &["h2"]);
        assert!(b.build().unwrap().validate_monotonicity().is_ok());
    }
}
