//! Deterministic crash-recovery fuzzing.
//!
//! One fuzz case = one `(seed, fault site)` pair. The harness first
//! runs a seeded workload with an empty fault plan installed, which
//! both (a) checks the clean round trip — drop without flushing,
//! recover, compare — and (b) counts how often every fault site fires.
//! It then re-runs the same workload once per site with a single
//! injected crash (a panic, or a torn write) at a seeded hit index,
//! simulates the process dying (drop without flush; optionally also
//! truncate the unsynced page-cache tail, modelling a power cut),
//! recovers from disk with **no plan installed**, and asserts the
//! acked-durability invariant:
//!
//! 1. every durably-acked mutation survives recovery, and
//! 2. the recovered database equals **exactly** the per-shard prefix of
//!    attempted mutations up to the recovered LSN — the one in-flight
//!    mutation may appear iff its LSN is exactly the next one, and
//!    nothing else may surface.
//!
//! Everything is derived from the seed: the workload, the crash site
//! choice, and the torn-write fraction. A violation message carries the
//! seed and site, so any failure is replayable with
//! `run_seed(dir, &FuzzConfig::for_seed(seed))`. The recovered state is
//! checked against the shared acked-state [`Model`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ctxpref_context::ContextDescriptor;
use ctxpref_core::{MultiUserDb, ShardedMultiUserDb};
use ctxpref_faults::sites::{self, DURABILITY_SITES};
use ctxpref_faults::FaultPlan;
use ctxpref_profile::{AttributeClause, ContextualPreference};
use ctxpref_relation::Relation;
use ctxpref_testkit::Model;
use ctxpref_wal::{DurableDb, SyncPolicy, WalOp, WalOptions};
use ctxpref_workload::reference::{tiny_env, tiny_relation};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Parameters of one fuzz case family (one seed, every site).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Drives the workload, the crash hit choice, and torn fractions.
    pub seed: u64,
    /// The durability policy under test.
    pub sync: SyncPolicy,
    /// Mutations per run.
    pub ops: usize,
    /// Take a checkpoint every this many mutations.
    pub checkpoint_every: usize,
    /// Flush the WAL every this many mutations (group commit).
    pub flush_every: usize,
    /// Small so rotations happen constantly.
    pub segment_max_bytes: u64,
    /// WAL shards == core stripes.
    pub shards: usize,
    /// After the simulated kill, also truncate unsynced bytes (a power
    /// cut rather than a process crash). Only meaningful under group
    /// commit, where unsynced acks are allowed to be lost.
    pub lose_unsynced: bool,
}

impl FuzzConfig {
    /// The canonical per-seed configuration the CI matrix uses: even
    /// seeds exercise per-record sync, odd seeds group commit, and
    /// every other group-commit seed also loses the unsynced tail.
    pub fn for_seed(seed: u64) -> Self {
        let group_commit = seed % 2 == 1;
        Self {
            seed,
            sync: if group_commit {
                SyncPolicy::GroupCommit {
                    flush_interval: Duration::from_millis(5),
                }
            } else {
                SyncPolicy::PerRecord
            },
            ops: 80,
            checkpoint_every: 12,
            flush_every: 5,
            segment_max_bytes: 512,
            shards: 4,
            lose_unsynced: group_commit && seed % 4 == 1,
        }
    }

    fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync: self.sync,
            segment_max_bytes: self.segment_max_bytes,
        }
    }
}

/// What one `run_seed` call covered.
#[derive(Debug)]
pub struct FuzzReport {
    /// Fault sites that actually fired during the clean run (and were
    /// therefore crash-tested).
    pub sites_tested: Vec<String>,
    /// Registered sites the workload never reached (should be empty —
    /// the workload is sized to hit everything).
    pub sites_missed: Vec<String>,
    /// Total log records replayed across all recoveries.
    pub total_replayed: u64,
}

/// Generates only-valid operations: clause values are globally unique
/// (so no preference ever conflicts), indices always in range, users
/// always known. That keeps the acked model exact — every logged op
/// applies cleanly both live and on replay.
pub struct Workload {
    rng: StdRng,
    rel: Relation,
    alive: Vec<(String, usize)>, // (user, preference count)
    next_user: u64,
    next_value: u64,
}

impl Workload {
    /// A seeded workload; equal seeds generate equal op sequences.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_f00d),
            rel: tiny_relation(),
            alive: Vec::new(),
            next_user: 0,
            next_value: 0,
        }
    }

    fn fresh_pref(&mut self) -> ContextualPreference {
        let attr = self.rel.schema().require_attr("name").expect("attr exists");
        let value = format!("v{}", self.next_value);
        self.next_value += 1;
        let score = self.rng.random_range(0..=1000) as f64 / 1000.0;
        ContextualPreference::new(
            ContextDescriptor::empty(),
            AttributeClause::eq(attr, value.into()),
            score,
        )
        .expect("score is in range")
    }

    /// The next operation; always valid against the state produced by
    /// applying every previous op in order.
    pub fn next_op(&mut self) -> WalOp {
        let roll = self.rng.random_range(0..100u32);
        let with_prefs: Vec<usize> = (0..self.alive.len())
            .filter(|&i| self.alive[i].1 > 0)
            .collect();
        if self.alive.is_empty() || roll < 10 {
            let user = format!("u{}", self.next_user);
            self.next_user += 1;
            self.alive.push((user.clone(), 0));
            WalOp::AddUser { user }
        } else if roll < 70 || with_prefs.is_empty() {
            let i = self.rng.random_range(0..self.alive.len());
            self.alive[i].1 += 1;
            let user = self.alive[i].0.clone();
            let pref = self.fresh_pref();
            WalOp::InsertPreference { user, pref }
        } else if roll < 82 {
            let i = with_prefs[self.rng.random_range(0..with_prefs.len())];
            let index = self.rng.random_range(0..self.alive[i].1);
            let score = self.rng.random_range(0..=1000) as f64 / 1000.0;
            WalOp::UpdateScore {
                user: self.alive[i].0.clone(),
                index,
                score,
            }
        } else if roll < 94 {
            let i = with_prefs[self.rng.random_range(0..with_prefs.len())];
            let index = self.rng.random_range(0..self.alive[i].1);
            self.alive[i].1 -= 1;
            WalOp::RemovePreference {
                user: self.alive[i].0.clone(),
                index,
            }
        } else {
            let i = self.rng.random_range(0..self.alive.len());
            let (user, _) = self.alive.swap_remove(i);
            WalOp::RemoveUser { user }
        }
    }
}

/// Where a run stopped and what it acknowledged.
struct RunOutcome {
    /// Per shard, the attempted ops in LSN order: `ops[s][i]` carries
    /// LSN `i + 1`. The crashed in-flight op (if any) is the last entry
    /// of its shard — recovery may or may not have persisted it.
    ops_by_shard: Vec<Vec<WalOp>>,
    /// Per shard, the highest LSN that was durably acknowledged.
    durable_lsn: Vec<u64>,
    /// Whether an injected fault ended the run early.
    crashed: bool,
    /// Site hit counts observed while the plan was installed.
    hits: HashMap<String, u64>,
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Silence the default "thread panicked" stderr spew while injected
/// panics fly; restores the previous hook on drop.
struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn new() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Self { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Run the seeded workload against a fresh durable directory, with
/// `plan` (possibly rule-free, for calibration) installed between
/// bootstrap and the simulated kill. Returns what was acked; the
/// directory is left exactly as the "crash" left it.
fn run_workload(dir: &Path, cfg: &FuzzConfig, plan: &Arc<FaultPlan>) -> Result<RunOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    let db = MultiUserDb::new(tiny_env(), tiny_relation(), 2);
    let db = Arc::new(ShardedMultiUserDb::from_db(db, cfg.shards));
    // Bootstrap before the plan goes in: creation legitimately passes
    // through the storage and manifest fault sites, and a crash there
    // just means "the db never existed".
    let durable =
        DurableDb::create(dir, db, cfg.wal_options()).map_err(|e| format!("bootstrap: {e}"))?;

    let mut workload = Workload::new(cfg.seed);
    let mut outcome = RunOutcome {
        ops_by_shard: vec![Vec::new(); cfg.shards],
        durable_lsn: vec![0; cfg.shards],
        crashed: false,
        hits: HashMap::new(),
    };

    let _quiet = QuietPanics::new();
    let guard = ctxpref_faults::install(Arc::clone(plan));
    'workload: for i in 0..cfg.ops {
        let op = workload.next_op();
        let shard = durable.db().shard_of(op.user());
        match catch_unwind(AssertUnwindSafe(|| durable.apply(op.clone()))) {
            Ok(Ok(ack)) => {
                outcome.ops_by_shard[shard].push(op);
                debug_assert_eq!(ack.lsn as usize, outcome.ops_by_shard[shard].len());
                if ack.durable {
                    outcome.durable_lsn[shard] = ack.lsn;
                }
            }
            Ok(Err(_)) | Err(_) => {
                // Injected error or panic mid-append: the op is in
                // flight — it holds the shard's next LSN iff its bytes
                // made it down intact, which only recovery can tell.
                outcome.ops_by_shard[shard].push(op);
                outcome.crashed = true;
                break 'workload;
            }
        }
        let flush_due =
            cfg.flush_every > 0 && (i + 1) % cfg.flush_every == 0 && !cfg.sync.is_per_record();
        let checkpoint_due = cfg.checkpoint_every > 0 && (i + 1) % cfg.checkpoint_every == 0;
        for step in 0..2 {
            let result = match step {
                0 if flush_due => catch_unwind(AssertUnwindSafe(|| durable.flush().map(|_| ()))),
                1 if checkpoint_due => {
                    catch_unwind(AssertUnwindSafe(|| durable.checkpoint().map(|_| ())))
                }
                _ => continue,
            };
            match result {
                Ok(Ok(())) => {
                    // Everything appended so far is now fsynced (a
                    // checkpoint flushes every shard before rotating).
                    for s in 0..cfg.shards {
                        outcome.durable_lsn[s] = outcome.ops_by_shard[s].len() as u64;
                    }
                }
                Ok(Err(_)) | Err(_) => {
                    outcome.crashed = true;
                    break 'workload;
                }
            }
        }
    }
    outcome.hits = plan.hit_counts();
    drop(guard);

    if cfg.lose_unsynced {
        // A power cut also takes the page cache with it.
        durable
            .drop_unsynced_tails()
            .map_err(|e| format!("drop unsynced tails: {e}"))?;
    }
    drop(durable); // The kill: no flush, no checkpoint, no goodbye.
    Ok(outcome)
}

/// Recover the directory (no plan installed) and check the acked
/// durability invariant against `outcome`. Returns records replayed.
fn check_recovery(dir: &Path, cfg: &FuzzConfig, outcome: &RunOutcome) -> Result<u64, String> {
    let ctx = |what: &str| format!("seed={} policy={:?} {what}", cfg.seed, cfg.sync);
    let (recovered, report) =
        DurableDb::recover(dir, cfg.wal_options()).map_err(|e| ctx(&format!("recovery: {e}")))?;

    let model = Model::new();
    for shard in 0..cfg.shards {
        let lsn = report.shard_lsns[shard];
        let attempted = outcome.ops_by_shard[shard].len() as u64;
        if outcome.durable_lsn[shard] > lsn {
            return Err(ctx(&format!(
                "LOST ACKED WRITE on shard {shard}: durably acked lsn \
                 {} but recovered only {lsn}",
                outcome.durable_lsn[shard]
            )));
        }
        if lsn > attempted {
            return Err(ctx(&format!(
                "PHANTOM WRITE on shard {shard}: recovered lsn {lsn} but only \
                 {attempted} ops were ever attempted"
            )));
        }
        for op in &outcome.ops_by_shard[shard][..lsn as usize] {
            // Only-valid workload: every recovered op must apply.
            model
                .apply(op)
                .map_err(|e| ctx(&format!("model replay rejected {op:?}: {e}")))?;
        }
    }
    model.matches(recovered.db()).map_err(|e| {
        ctx(&format!(
            "STATE DIVERGENCE: recovered db is not the acked prefix \
             ({e}; recovered_lsn={})",
            report.recovered_lsn()
        ))
    })?;

    // The recovered instance must be live: it accepts new mutations.
    recovered
        .add_user("post-recovery-probe")
        .map_err(|e| ctx(&format!("recovered db refused a new write: {e}")))?;
    Ok(report.replayed)
}

/// The crash plan for one site: a panic at the `k`-th hit, except at
/// write sites whose even hits are truncation decisions — there a torn
/// write (with a seeded keep-fraction) is injected instead, exercising
/// the torn-tail recovery path.
fn crash_plan(cfg: &FuzzConfig, site: &str, k: u64, frac: f64) -> Arc<FaultPlan> {
    let b = FaultPlan::builder(cfg.seed);
    let torn_site = site == sites::WAL_APPEND_WRITE && k.is_multiple_of(2);
    if torn_site || site == sites::STORAGE_SAVE_WRITE {
        // `storage.save.write` and the even hits of `wal.append.write`
        // are `truncated_len` decisions: only Truncate rules bite there.
        b.truncate_at(site, &[k], frac).build()
    } else {
        b.panic_at(site, &[k]).build()
    }
}

/// Run the full fuzz family for one seed: a clean calibration run plus
/// one crash run per registered durability site. Returns `Err` with a
/// reproducing description on the first invariant violation.
pub fn run_seed(dir: &Path, cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    // Calibration: empty plan, so every `hit` is counted but none fire.
    let counting = FaultPlan::builder(cfg.seed).build();
    let clean_dir = dir.join("clean");
    let outcome = run_workload(&clean_dir, cfg, &counting)?;
    if outcome.crashed {
        return Err(format!(
            "seed={}: clean run crashed without a fault plan",
            cfg.seed
        ));
    }
    let mut total_replayed =
        check_recovery(&clean_dir, cfg, &outcome).map_err(|e| format!("{e} [clean run]"))?;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x000c_4a54_c4a5);
    let mut report = FuzzReport {
        sites_tested: Vec::new(),
        sites_missed: Vec::new(),
        total_replayed: 0,
    };
    for &site in DURABILITY_SITES {
        let hits = outcome.hits.get(site).copied().unwrap_or(0);
        if hits == 0 {
            report.sites_missed.push(site.to_string());
            continue;
        }
        let k = 1 + rng.next_u64() % hits;
        let frac = rng.random_range(0..=9) as f64 / 10.0;
        let plan = crash_plan(cfg, site, k, frac);
        let run_dir = dir.join(site.replace('.', "-"));
        let crash_outcome = run_workload(&run_dir, cfg, &plan)
            .map_err(|e| format!("seed={} site={site} hit={k}: {e}", cfg.seed))?;
        // Truncation with frac near 1.0 keeps the whole record — the
        // run may legitimately complete without crashing; the recovery
        // check below still applies either way.
        total_replayed += check_recovery(&run_dir, cfg, &crash_outcome)
            .map_err(|e| format!("{e} [site={site} hit={k} frac={frac}]"))?;
        report.sites_tested.push(site.to_string());
        let _ = std::fs::remove_dir_all(&run_dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    report.total_replayed = total_replayed;
    Ok(report)
}
