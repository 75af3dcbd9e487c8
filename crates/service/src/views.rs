//! The view catalog's serving-side surface: per-user cache and view
//! counters, the `views-status` report, and view pins.

use ctxpref_context::ContextState;
use ctxpref_qcache::CacheStats;

use crate::error::ServiceError;
use crate::service::CtxPrefService;

impl CtxPrefService {
    /// One user's query-cache statistics.
    pub fn cache_stats(&self, user: &str) -> Result<Option<CacheStats>, ServiceError> {
        Ok(self.core().cache_stats(user)?)
    }

    /// One user's view-serving counters.
    pub fn view_stats(&self, user: &str) -> Result<ctxpref_views::ViewStats, ServiceError> {
        Ok(self.core().view_stats(user)?)
    }

    /// A human-readable view-catalog report. The aggregate line counts
    /// each catalog once, however many users share it, plus the
    /// counters of catalogs that forks and removals retired. Then one
    /// line per user with materialized or pinned views: that user's own
    /// hits and pins (their pinned states listed), how many of the
    /// states they asked about or pinned are materialized, and the
    /// patches and rebuilds of the catalog they hold, which every user
    /// sharing it prints alike. Served by the `views-status` wire verb.
    pub fn views_status(&self) -> String {
        let core = self.core();
        let totals = core.views_totals();
        let mut body = format!(
            "views materialized={} pinned={} hits={} misses={} patches={} rebuilds={}\n",
            totals.materialized_views,
            totals.pinned_views,
            totals.view_hits,
            totals.view_misses,
            totals.view_patches,
            totals.view_rebuilds,
        );
        for user in core.users_sorted() {
            let Ok(s) = core.view_stats(&user) else {
                continue;
            };
            if s.materialized_views == 0 && s.pinned_views == 0 {
                continue;
            }
            let pinned: Vec<String> = core
                .pinned_views(&user)
                .unwrap_or_default()
                .iter()
                .map(|st| st.display(core.env()).to_string())
                .collect();
            body.push_str(&format!(
                "user {user} materialized={} pinned={} hits={} patches={} rebuilds={}{}{}\n",
                s.materialized_views,
                s.pinned_views,
                s.view_hits,
                s.view_patches,
                s.view_rebuilds,
                if pinned.is_empty() { "" } else { " states=" },
                pinned.join(";"),
            ));
        }
        body
    }

    /// Register and pin a materialized top-k view of `(user, state)`:
    /// materialized on first use and never evicted. The pin lives in
    /// memory only: nothing saved writes it, so a save, a checkpoint and
    /// a recovery drop it (view contents are derived data and are never
    /// trusted across a WAL replay either).
    pub fn pin_view(&self, user: &str, state: &ContextState) -> Result<(), ServiceError> {
        Ok(self.core().pin_view(user, state)?)
    }

    /// Unpin a previously pinned view; returns whether it was pinned.
    pub fn unpin_view(&self, user: &str, state: &ContextState) -> Result<bool, ServiceError> {
        Ok(self.core().unpin_view(user, state)?)
    }
}
