use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ctxpref_context::{ContextEnvironment, ContextState, CtxValue, ParamId};
use ctxpref_relation::RankedResults;
use parking_lot::RwLock;

use crate::stats::{AtomicStats, CacheStats};

#[derive(Debug, Clone, Copy)]
struct Cell {
    key: CtxValue,
    child: u32,
}

#[derive(Debug, Default)]
struct Node {
    cells: Vec<Cell>,
}

#[derive(Debug)]
struct Leaf {
    state: ContextState,
    results: Arc<RankedResults>,
    /// LRU stamp, bumped atomically so cache *hits* need only the
    /// shared read lock.
    last_used: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    leaves: Vec<Option<Leaf>>,
    free_leaves: Vec<u32>,
    live: usize,
    /// Lazy eviction heap: `(stamp, leaf index)` min-first. A popped
    /// entry whose stamp no longer matches the leaf's `last_used` is
    /// stale (the leaf was touched since) and is re-pushed with the
    /// current stamp — O(log n) amortized eviction instead of an
    /// O(live) scan.
    evict_heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// The context query tree: a capacity-bounded, LRU-evicting trie from
/// context states to cached [`RankedResults`]. See the crate docs.
///
/// Concurrency: lookups (including LRU bookkeeping and statistics) take
/// only the shared read lock — concurrent hits do not serialize. Only
/// `insert`, `remove`, and `invalidate_all` take the write lock.
#[derive(Debug)]
pub struct ContextQueryTree {
    env: ContextEnvironment,
    capacity: usize,
    clock: AtomicU64,
    stats: AtomicStats,
    inner: RwLock<Inner>,
}

impl ContextQueryTree {
    /// A cache over `env` holding at most `capacity` context states
    /// (`capacity` ≥ 1 is enforced by clamping).
    pub fn new(env: ContextEnvironment, capacity: usize) -> Self {
        Self {
            env,
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            stats: AtomicStats::default(),
            inner: RwLock::new(Inner {
                nodes: vec![Node::default()],
                free_nodes: Vec::new(),
                leaves: Vec::new(),
                free_leaves: Vec::new(),
                live: 0,
                evict_heap: BinaryHeap::new(),
            }),
        }
    }

    /// The context environment the cache is keyed over.
    pub fn env(&self) -> &ContextEnvironment {
        &self.env
    }

    /// Maximum number of cached states.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached context states.
    pub fn len(&self) -> usize {
        self.inner.read().live
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Look up the cached results for `state`, refreshing its LRU stamp
    /// on a hit. Takes only the shared read lock: concurrent hits
    /// proceed in parallel, with the LRU clock bumped atomically.
    pub fn get(&self, state: &ContextState) -> Option<Arc<RankedResults>> {
        debug_assert_eq!(state.len(), self.env.len());
        // Fault site: an injected fault means "cache unavailable" — the
        // lookup degrades to a miss and the caller recomputes.
        if ctxpref_faults::hit("qcache.get").is_err() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let inner = self.inner.read();
        let depth = self.env.len();
        let mut node = 0usize;
        let mut cells = 0u64;
        for level in 0..depth {
            let key = state.value(ParamId(level as u16));
            let nc = &inner.nodes[node].cells;
            let mut found = None;
            for (i, c) in nc.iter().enumerate() {
                if c.key == key {
                    cells += i as u64 + 1;
                    found = Some(c.child);
                    break;
                }
            }
            let Some(child) = found else {
                cells += nc.len() as u64;
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .cells_accessed
                    .fetch_add(cells, Ordering::Relaxed);
                return None;
            };
            if level + 1 == depth {
                let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                let leaf = inner.leaves[child as usize]
                    .as_ref()
                    .expect("cache cells never point to freed leaves");
                // `fetch_max`, not `store`: racing hits must leave the
                // newest stamp, whatever order they land in.
                leaf.last_used.fetch_max(stamp, Ordering::Relaxed);
                let results = Arc::clone(&leaf.results);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .cells_accessed
                    .fetch_add(cells, Ordering::Relaxed);
                return Some(results);
            }
            node = child as usize;
        }
        unreachable!("environments have ≥ 1 parameter")
    }

    /// Cache `results` for `state`, evicting the least-recently-used
    /// state if the capacity bound would be exceeded. Replaces any
    /// previous entry for the same state.
    pub fn insert(&self, state: &ContextState, results: Arc<RankedResults>) {
        debug_assert_eq!(state.len(), self.env.len());
        // Fault site: an injected fault drops the insertion (the cache
        // stays consistent, merely colder).
        if ctxpref_faults::hit("qcache.insert").is_err() {
            return;
        }
        let mut inner = self.inner.write();
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;

        // Walk/create the path.
        let depth = self.env.len();
        let mut node = 0usize;
        for level in 0..depth {
            let key = state.value(ParamId(level as u16));
            let bottom = level + 1 == depth;
            let existing = inner.nodes[node]
                .cells
                .iter()
                .find(|c| c.key == key)
                .map(|c| c.child);
            let child = match existing {
                Some(c) => c,
                None => {
                    let c = if bottom {
                        match inner.free_leaves.pop() {
                            Some(i) => i,
                            None => {
                                inner.leaves.push(None);
                                (inner.leaves.len() - 1) as u32
                            }
                        }
                    } else {
                        match inner.free_nodes.pop() {
                            Some(i) => {
                                inner.nodes[i as usize].cells.clear();
                                i
                            }
                            None => {
                                inner.nodes.push(Node::default());
                                (inner.nodes.len() - 1) as u32
                            }
                        }
                    };
                    inner.nodes[node].cells.push(Cell { key, child: c });
                    c
                }
            };
            if bottom {
                if inner.leaves[child as usize].is_none() {
                    inner.live += 1;
                }
                inner.leaves[child as usize] = Some(Leaf {
                    state: state.clone(),
                    results,
                    last_used: AtomicU64::new(clock),
                });
                inner.evict_heap.push(Reverse((clock, child)));
                self.stats.insertions.fetch_add(1, Ordering::Relaxed);
                break;
            }
            node = child as usize;
        }

        // Enforce capacity via the lazy heap. Under the write lock no
        // hit can race the stamp comparison.
        while inner.live > self.capacity {
            let Reverse((stamp, idx)) = inner
                .evict_heap
                .pop()
                .expect("every live leaf has at least one heap entry with stamp ≤ its last_used");
            let Some(leaf) = inner.leaves[idx as usize].as_ref() else {
                continue; // stale entry for a removed/freed leaf
            };
            let current = leaf.last_used.load(Ordering::Relaxed);
            if current != stamp {
                // Touched since this entry was pushed: re-queue at its
                // current recency and keep looking.
                inner.evict_heap.push(Reverse((current, idx)));
                continue;
            }
            let victim = leaf.state.clone();
            Self::remove_locked(&self.env, &mut inner, &victim);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }

        // Replacement-heavy workloads accumulate stale heap entries
        // without triggering evictions; compact before the heap dwarfs
        // the live set.
        if inner.evict_heap.len() > 4 * inner.live.max(self.capacity) + 8 {
            let rebuilt: BinaryHeap<Reverse<(u64, u32)>> = inner
                .leaves
                .iter()
                .enumerate()
                .filter_map(|(i, l)| {
                    l.as_ref()
                        .map(|l| Reverse((l.last_used.load(Ordering::Relaxed), i as u32)))
                })
                .collect();
            inner.evict_heap = rebuilt;
        }
    }

    /// Convenience: return the cached results for `state`, computing and
    /// caching them on a miss.
    pub fn get_or_compute(
        &self,
        state: &ContextState,
        compute: impl FnOnce() -> RankedResults,
    ) -> Arc<RankedResults> {
        if let Some(hit) = self.get(state) {
            return hit;
        }
        let results = Arc::new(compute());
        self.insert(state, Arc::clone(&results));
        results
    }

    /// Remove one cached state, if present. Returns whether it existed.
    pub fn remove(&self, state: &ContextState) -> bool {
        let mut inner = self.inner.write();
        Self::remove_locked(&self.env, &mut inner, state)
    }

    /// Drop every cached result (a profile change invalidates all
    /// cached rankings).
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.write();
        inner.nodes.clear();
        inner.nodes.push(Node::default());
        inner.free_nodes.clear();
        inner.leaves.clear();
        inner.free_leaves.clear();
        inner.live = 0;
        inner.evict_heap.clear();
        self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    fn remove_locked(env: &ContextEnvironment, inner: &mut Inner, state: &ContextState) -> bool {
        let depth = env.len();
        // Record the path (node index, cell position) root → bottom.
        let mut path: Vec<(usize, usize)> = Vec::with_capacity(depth);
        let mut node = 0usize;
        for level in 0..depth {
            let key = state.value(ParamId(level as u16));
            let Some(pos) = inner.nodes[node].cells.iter().position(|c| c.key == key) else {
                return false;
            };
            let child = inner.nodes[node].cells[pos].child;
            path.push((node, pos));
            if level + 1 == depth {
                if inner.leaves[child as usize].take().is_none() {
                    return false;
                }
                inner.free_leaves.push(child);
                inner.live -= 1;
            } else {
                node = child as usize;
            }
        }
        // Prune now-empty nodes bottom-up.
        for level in (0..depth).rev() {
            let (node, pos) = path[level];
            let child = inner.nodes[node].cells[pos].child;
            let child_empty = level + 1 == depth || inner.nodes[child as usize].cells.is_empty();
            if child_empty {
                inner.nodes[node].cells.swap_remove(pos);
                if level + 1 < depth {
                    inner.free_nodes.push(child);
                }
            } else {
                break;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_hierarchy::Hierarchy;
    use ctxpref_relation::{ScoreCombiner, ScoredTuple};

    fn env() -> ContextEnvironment {
        ContextEnvironment::new(vec![
            Hierarchy::flat("weather", &["cold", "warm", "hot"]).unwrap(),
            Hierarchy::flat("company", &["friends", "family"]).unwrap(),
        ])
        .unwrap()
    }

    fn results(score: f64) -> RankedResults {
        RankedResults::from_scores(
            vec![ScoredTuple {
                tuple_index: 0,
                score,
            }],
            ScoreCombiner::Max,
        )
    }

    fn st(env: &ContextEnvironment, names: &[&str]) -> ContextState {
        ContextState::parse(env, names).unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        let s = st(&env, &["warm", "friends"]);
        assert!(cache.get(&s).is_none());
        cache.insert(&s, Arc::new(results(0.5)));
        let hit = cache.get(&s).unwrap();
        assert_eq!(hit.entries()[0].score, 0.5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!(stats.cells_accessed > 0);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn distinct_states_do_not_collide() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        cache.insert(&st(&env, &["warm", "friends"]), Arc::new(results(0.1)));
        cache.insert(&st(&env, &["warm", "family"]), Arc::new(results(0.2)));
        cache.insert(&st(&env, &["cold", "friends"]), Arc::new(results(0.3)));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.get(&st(&env, &["warm", "family"])).unwrap().entries()[0].score,
            0.2
        );
        assert!(cache.get(&st(&env, &["hot", "family"])).is_none());
    }

    #[test]
    fn reinsert_replaces() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        let s = st(&env, &["warm", "friends"]);
        cache.insert(&s, Arc::new(results(0.1)));
        cache.insert(&s, Arc::new(results(0.9)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&s).unwrap().entries()[0].score, 0.9);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 2);
        let a = st(&env, &["cold", "friends"]);
        let b = st(&env, &["warm", "friends"]);
        let c = st(&env, &["hot", "friends"]);
        cache.insert(&a, Arc::new(results(0.1)));
        cache.insert(&b, Arc::new(results(0.2)));
        // Touch `a` so `b` becomes the LRU victim.
        cache.get(&a).unwrap();
        cache.insert(&c, Arc::new(results(0.3)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn remove_and_prune() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        let a = st(&env, &["cold", "friends"]);
        let b = st(&env, &["cold", "family"]);
        cache.insert(&a, Arc::new(results(0.1)));
        cache.insert(&b, Arc::new(results(0.2)));
        assert!(cache.remove(&a));
        assert!(!cache.remove(&a));
        assert!(cache.get(&a).is_none());
        assert!(cache.get(&b).is_some());
        // Re-inserting after pruning reuses freed slots.
        cache.insert(&a, Arc::new(results(0.4)));
        assert_eq!(cache.get(&a).unwrap().entries()[0].score, 0.4);
    }

    #[test]
    fn invalidate_all_clears() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        cache.insert(&st(&env, &["cold", "friends"]), Arc::new(results(0.1)));
        cache.insert(&st(&env, &["warm", "family"]), Arc::new(results(0.2)));
        cache.invalidate_all();
        assert!(cache.is_empty());
        assert!(cache.get(&st(&env, &["cold", "friends"])).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn get_or_compute_computes_once() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 8);
        let s = st(&env, &["warm", "friends"]);
        let mut calls = 0;
        let r1 = cache.get_or_compute(&s, || {
            calls += 1;
            results(0.7)
        });
        let r2 = cache.get_or_compute(&s, || {
            calls += 1;
            results(0.0)
        });
        assert_eq!(calls, 1);
        assert!(Arc::ptr_eq(&r1, &r2));
    }

    #[test]
    fn capacity_is_clamped() {
        let env = env();
        let cache = ContextQueryTree::new(env.clone(), 0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(&st(&env, &["cold", "friends"]), Arc::new(results(0.1)));
        cache.insert(&st(&env, &["warm", "friends"]), Arc::new(results(0.2)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.env().len(), 2);
    }

    /// Regression (PR 2): cache hits must not serialize on the write
    /// lock. A reader-held *read* lock cannot block other hits, so
    /// hits issued while a read guard is held elsewhere still complete
    /// and still bump LRU recency.
    #[test]
    fn hits_proceed_under_shared_read_lock() {
        let env = env();
        let cache = Arc::new(ContextQueryTree::new(env.clone(), 4));
        let a = st(&env, &["cold", "friends"]);
        let b = st(&env, &["warm", "friends"]);
        cache.insert(&a, Arc::new(results(0.1)));
        cache.insert(&b, Arc::new(results(0.2)));
        // Hold a shared read lock for the duration of the probe hits.
        let guard = cache.inner.read();
        std::thread::scope(|scope| {
            let cache = Arc::clone(&cache);
            let a = a.clone();
            let handle = scope.spawn(move || {
                for _ in 0..100 {
                    assert!(cache.get(&a).is_some());
                }
            });
            handle.join().unwrap();
        });
        drop(guard);
        assert_eq!(cache.stats().hits, 100);
        // The hits under the read lock refreshed `a`'s recency: insert
        // two more states and `b` (not `a`) must be evicted first.
        let c = st(&env, &["hot", "friends"]);
        let d = st(&env, &["cold", "family"]);
        let e = st(&env, &["warm", "family"]);
        cache.insert(&c, Arc::new(results(0.3)));
        cache.insert(&d, Arc::new(results(0.4)));
        cache.insert(&e, Arc::new(results(0.5)));
        assert!(
            cache.get(&a).is_some(),
            "recently-hit state survived eviction"
        );
        assert!(cache.get(&b).is_none(), "stale state was the LRU victim");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let env = env();
        let cache = Arc::new(ContextQueryTree::new(env.clone(), 4));
        let states: Vec<ContextState> = [
            ["cold", "friends"],
            ["warm", "friends"],
            ["hot", "friends"],
            ["cold", "family"],
            ["warm", "family"],
            ["hot", "family"],
        ]
        .iter()
        .map(|n| st(&env, n))
        .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let states = states.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let s = &states[(i + t) % states.len()];
                        let _ = cache.get_or_compute(s, || results(i as f64 / 200.0));
                        if i % 7 == 0 {
                            cache.remove(s);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 4);
        let stats = cache.stats();
        assert!(stats.hits + stats.misses >= 800 - 200);
    }
}
