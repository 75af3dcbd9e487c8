//! Which users share a profile's index and views, and how an edit
//! makes a shared pair one user's own (see [`crate::MultiUserDb`]'s
//! module docs).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use ctxpref_profile::{ContextualPreference, IndexedProfile, ProfileError};
use ctxpref_views::{ViewCatalog, ViewStats};
use parking_lot::Mutex;

use crate::error::CoreError;
use crate::multi::{slot_mut, UserSlot, VIEW_CAPACITY};

/// A profile's tree index and the catalog of top-k views derived from
/// it: shared by every user holding that index until they edit (see the
/// module docs).
#[derive(Debug)]
pub(crate) struct Derived {
    /// Shared further with snapshots, which share no views.
    pub(crate) indexed: Arc<IndexedProfile>,
    pub(crate) views: ViewCatalog,
    /// The key the pair is filed under for sharing, if it is.
    pub(crate) filed: Option<u64>,
}

impl Derived {
    pub(crate) fn new(indexed: Arc<IndexedProfile>, filed: Option<u64>) -> Self {
        Self {
            indexed,
            views: ViewCatalog::new(VIEW_CAPACITY),
            filed,
        }
    }
}

/// Run `apply` on `user`'s index; it returns `Some` when the edit
/// changed something, and only then does the pair become the user's
/// alone. An index the user alone holds (a pair only sharing entries
/// name is taken back from them first, and filed again if the edit
/// changes nothing) is edited in place. Otherwise a copy is edited and
/// replaces it, and a pair other users hold forks: the user gets a
/// catalog carrying the views they asked about or pinned.
pub(crate) fn edit<'a, R>(
    users: &'a mut HashMap<String, UserSlot>,
    sharing: &mut Sharing,
    user: &str,
    apply: impl FnOnce(&mut IndexedProfile) -> Result<Option<R>, ProfileError>,
) -> Result<Option<(&'a mut UserSlot, R)>, CoreError> {
    let derived = &slot_mut(users, user)?.derived;
    let mut unfiled = None;
    if Arc::strong_count(derived) == 1 && Arc::weak_count(derived) > 0 {
        let (name, mut slot) = users.remove_entry(user).expect("looked up above");
        unfiled = slot.derived.filed;
        slot.derived = sharing.unfile(slot.derived);
        users.insert(name, slot);
    }
    let slot = slot_mut(users, user)?;
    let own = Arc::get_mut(&mut slot.derived).and_then(|d| Arc::get_mut(&mut d.indexed));
    if let Some(index) = own {
        let verdict = apply(index);
        if let (Some(key), false) = (unfiled, matches!(verdict, Ok(Some(_)))) {
            Arc::get_mut(&mut slot.derived).expect("held alone").filed = Some(key);
            sharing.file(key, &slot.derived);
        }
        return Ok(verdict?.map(|out| (slot, out)));
    }
    let mut index = IndexedProfile::clone(&slot.derived.indexed);
    let Some(out) = apply(&mut index)? else {
        return Ok(None);
    };
    let index = Arc::new(index);
    if let Some(derived) = Arc::get_mut(&mut slot.derived) {
        derived.indexed = index;
    } else {
        let views = slot.derived.views.fork(&slot.seat);
        let forked = Arc::new(Derived {
            indexed: index,
            views,
            filed: None,
        });
        sharing.retire(std::mem::replace(&mut slot.derived, forked));
    }
    Ok(Some((slot, out)))
}

/// The key under which an index of `prefs` is filed for sharing.
pub(crate) fn share_key(prefs: &[ContextualPreference]) -> u64 {
    let mut h = DefaultHasher::new();
    prefs.hash(&mut h);
    h.finish()
}

/// The pair last registered for each profile hash, so a user registered
/// with an equal profile shares it. The stripes of a sharded database
/// file into one table, so equal profiles share on whichever stripes
/// their users land, as in one database. An entry goes when its pair
/// does.
#[derive(Debug, Default)]
pub(crate) struct Filed {
    pub(crate) pairs: HashMap<u64, Weak<Derived>>,
    /// The size at which filing sweeps dead entries out next.
    sweep_at: usize,
}

impl Filed {
    /// Drop every entry whose pair no user holds any more.
    pub(crate) fn sweep(&mut self) {
        self.pairs.retain(|_, w| w.strong_count() > 0);
        self.sweep_at = 2 * self.pairs.len() + 16;
    }

    /// Drop the entry under `key` if no user holds its pair any more.
    fn drop_dead(&mut self, key: u64) {
        if self.pairs.get(&key).is_some_and(|w| w.strong_count() == 0) {
            self.pairs.remove(&key);
        }
    }
}

/// Which pair each profile shares, and what the pairs this database
/// retired had counted.
#[derive(Debug, Default)]
pub(crate) struct Sharing {
    /// Shared with every stripe beside this one.
    pub(crate) filed: Arc<Mutex<Filed>>,
    /// The counters of every catalog retired here: views totals never
    /// fall when a fork or a removal drops a catalog.
    pub(crate) retired: ViewStats,
}

impl Sharing {
    /// A sharing that files into this one's table and has retired
    /// nothing yet.
    pub(crate) fn joined(&self) -> Self {
        Self {
            filed: Arc::clone(&self.filed),
            retired: ViewStats::default(),
        }
    }

    /// The live pair filed under `key`, if any.
    pub(crate) fn get(&self, key: u64) -> Option<Arc<Derived>> {
        self.filed.lock().pairs.get(&key).and_then(Weak::upgrade)
    }

    /// File `derived` under `key`, first dropping dead entries once the
    /// table has doubled since the last sweep.
    pub(crate) fn file(&self, key: u64, derived: &Arc<Derived>) {
        let mut filed = self.filed.lock();
        if filed.pairs.len() >= filed.sweep_at {
            filed.sweep();
        }
        filed.pairs.insert(key, Arc::downgrade(derived));
    }

    /// `derived` with its entry dropped, when no user but the caller
    /// holds it: the entry's `Weak` alone keeps it from being edited in
    /// place, so it comes back unfiled, catalog and all, instead of
    /// being forked. A pair another stripe just shared again comes back
    /// unchanged.
    pub(crate) fn unfile(&self, derived: Arc<Derived>) -> Arc<Derived> {
        let mut pair = match Arc::try_unwrap(derived) {
            Ok(pair) => pair,
            Err(shared) => return shared,
        };
        if let Some(key) = pair.filed.take() {
            self.filed.lock().drop_dead(key);
        }
        Arc::new(pair)
    }

    /// Let go of one user's hold on `derived`. The last hold retires
    /// the pair: its catalog's counters are kept and its entry goes.
    pub(crate) fn retire(&mut self, derived: Arc<Derived>) {
        let Some(gone) = Arc::into_inner(derived) else {
            return;
        };
        self.retired.absorb(&ViewStats {
            materialized_views: 0,
            pinned_views: 0,
            ..gone.views.stats()
        });
        if let Some(key) = gone.filed {
            self.filed.lock().drop_dead(key);
        }
    }

    /// A user leaves: their seat goes back, then their hold.
    pub(crate) fn leave(&mut self, slot: UserSlot) {
        slot.derived.views.leave(slot.seat);
        self.retire(slot.derived);
    }
}
