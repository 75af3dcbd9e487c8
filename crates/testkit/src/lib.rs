#![warn(missing_docs)]
//! Test support shared by the workspace's suites. Dev-only: no
//! production crate depends on it.
//!
//! * [`TempDir`] — a fresh directory, removed on drop.
//! * [`seeds`] — the seed range of a fuzz matrix, overridable with
//!   `CTXPREF_FUZZ_SEEDS=start..end`.
//! * [`Model`] — the acked-state oracle: the paper's state (§3: each
//!   user's profile is its set of contextual preferences) rebuilt by
//!   replaying the applied [`WalOp`]s, compared to a database byte for
//!   byte through the snapshot encoding.
//! * [`effect_visible`] — whether one acked add's effect shows in a
//!   database, for the suites whose workloads only ever add.
//!
//! The process-global fault plan's guard is not here: it is
//! `ctxpref_faults::exclusive()`, next to the plan it guards.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_wal::{snapshot, WalOp};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

/// A fresh directory under the system temp dir; removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create an empty directory whose name carries `tag`, the process
    /// id and a per-process counter, so concurrent tests and test
    /// binaries never share one.
    pub fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ctxpref-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

/// A `TempDir` is the directory: `&dir` passes as a `&Path`.
impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The variable that overrides every fuzz matrix's seed range.
const SEEDS_VAR: &str = "CTXPREF_FUZZ_SEEDS";

/// The seeds a fuzz matrix runs: `CTXPREF_FUZZ_SEEDS=start..end` when
/// set (e.g. `7..8` to replay one seed), else the suite's `default`.
/// Panics, naming the variable, when the value does not parse.
pub fn seeds(default: Range<u64>) -> Range<u64> {
    parse_seeds(std::env::var(SEEDS_VAR).ok().as_deref(), default)
}

fn parse_seeds(spec: Option<&str>, default: Range<u64>) -> Range<u64> {
    let Some(spec) = spec else {
        return default;
    };
    let parse = |s: &str| s.trim().parse::<u64>().ok();
    match spec.split_once("..").map(|(a, b)| (parse(a), parse(b))) {
        Some((Some(a), Some(b))) if a < b => a..b,
        _ => panic!("{SEEDS_VAR} must look like '0..32', got {spec:?}"),
    }
}

/// The acked-state oracle: a one-stripe database in the tiny universe
/// (`ctxpref_workload::reference::tiny_env`) that replays exactly the
/// ops a run applied.
pub struct Model(ShardedMultiUserDb);

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self(ShardedMultiUserDb::new(tiny_env(), tiny_relation(), 2, 1))
    }

    /// Replay one applied op.
    pub fn apply(&self, op: &WalOp) -> Result<(), String> {
        op.clone()
            .apply(&self.0)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// `Ok` when `db` serializes to exactly the model's bytes; the
    /// error names both sizes.
    pub fn matches(&self, db: &ShardedMultiUserDb) -> Result<(), String> {
        let bytes = |db: &ShardedMultiUserDb| {
            snapshot::encode_multi_user(&db.snapshot()).map_err(|e| format!("serialize: {e}"))
        };
        let (want, got) = (bytes(&self.0)?, bytes(db)?);
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "model {} bytes vs db {} bytes",
                want.len(),
                got.len()
            ))
        }
    }
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `op`'s effect shows in `db`: the user exists, or the user
/// holds a preference with the same descriptor, clause and score. Only
/// adds have an effect that later ops cannot undo, so this is for
/// workloads that never remove or re-score; any other op panics.
pub fn effect_visible(db: &ShardedMultiUserDb, op: &WalOp) -> bool {
    match op {
        WalOp::AddUser { user } => db.profile(user).is_ok(),
        WalOp::InsertPreference { user, pref } => {
            let Ok(profile) = db.profile(user) else {
                return false;
            };
            profile.preferences().contains(pref)
        }
        other => panic!("effect_visible: {other:?} is not an add"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxpref_context::ContextDescriptor;
    use ctxpref_profile::{AttributeClause, ContextualPreference};

    fn insert(user: &str, value: &str, score: f64) -> WalOp {
        let rel = tiny_relation();
        let attr = rel.schema().require_attr("name").unwrap();
        let pref = ContextualPreference::new(
            ContextDescriptor::empty(),
            AttributeClause::eq(attr, value.into()),
            score,
        )
        .unwrap();
        WalOp::InsertPreference {
            user: user.into(),
            pref,
        }
    }

    fn add(user: &str) -> WalOp {
        WalOp::AddUser { user: user.into() }
    }

    /// A model and a database that both applied `ops`.
    fn replayed(ops: &[WalOp]) -> (Model, ShardedMultiUserDb) {
        let model = Model::new();
        let db = ShardedMultiUserDb::new(tiny_env(), tiny_relation(), 2, 4);
        for op in ops {
            model.apply(op).unwrap();
            op.clone().apply(&db).unwrap();
        }
        (model, db)
    }

    #[test]
    fn seeds_default_when_unset() {
        assert_eq!(parse_seeds(None, 0..32), 0..32);
        assert_eq!(parse_seeds(None, 0..8), 0..8);
    }

    #[test]
    fn seeds_parse_a_range() {
        assert_eq!(parse_seeds(Some("3..5"), 0..32), 3..5);
        assert_eq!(parse_seeds(Some(" 3 .. 5 "), 0..32), 3..5);
    }

    #[test]
    fn malformed_seeds_panic_naming_the_variable() {
        for spec in ["", "7", "5..3", "a..b", "3..=5"] {
            let err = std::panic::catch_unwind(|| parse_seeds(Some(spec), 0..32)).expect_err(spec);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("CTXPREF_FUZZ_SEEDS"), "{msg}");
        }
    }

    #[test]
    fn the_model_matches_the_same_history_across_stripes() {
        let ops = [add("u0"), insert("u0", "alpha", 0.5), add("u1")];
        let (model, db) = replayed(&ops);
        model.matches(&db).unwrap();
    }

    #[test]
    fn the_model_catches_a_missing_preference() {
        let (model, db) = replayed(&[add("u0"), insert("u0", "alpha", 0.5)]);
        insert("u0", "beta", 0.5).apply(&db).unwrap();
        let err = model.matches(&db).unwrap_err();
        assert!(err.contains("model") && err.contains("db"), "{err}");
    }

    /// Same digit count, so the two serializations differ in one byte
    /// and not in length.
    #[test]
    fn the_model_catches_a_different_score() {
        let (model, db) = replayed(&[add("u0"), insert("u0", "alpha", 0.5)]);
        WalOp::UpdateScore {
            user: "u0".into(),
            index: 0,
            score: 0.6,
        }
        .apply(&db)
        .unwrap();
        assert!(model.matches(&db).is_err());
    }

    #[test]
    fn effects_show_only_once_applied() {
        let (_, db) = replayed(&[add("u0"), insert("u0", "alpha", 0.5)]);
        assert!(effect_visible(&db, &add("u0")));
        assert!(effect_visible(&db, &insert("u0", "alpha", 0.5)));
        assert!(!effect_visible(&db, &add("u1")), "missing user");
        assert!(
            !effect_visible(&db, &insert("u1", "alpha", 0.5)),
            "preference of a missing user"
        );
        assert!(
            !effect_visible(&db, &insert("u0", "beta", 0.5)),
            "missing preference"
        );
        assert!(
            !effect_visible(&db, &insert("u0", "alpha", 0.25)),
            "same clause, other score"
        );
    }
}
