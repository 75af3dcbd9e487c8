//! A node's fencing epoch and epoch pairs live in its checkpoint
//! manifest, beside the checkpoint they describe, and every manifest
//! write goes through one lock.
//!
//! * A resync crashed at any durability fault site it passes recovers
//!   the shard's contents and its position either both from before the
//!   resync or both from after it, never a mix, and a resync that fails
//!   leaves the live node serving what it had.
//! * Epochs adopted while a checkpoint runs survive it, and the
//!   checkpoint survives them.
//! * A node's directory holds no file besides the manifest for either.

use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_faults::sites::{DURABILITY_SITES, MANIFEST_SWAP, STORAGE_SAVE_OPEN};
use ctxpref_faults::FaultPlan;
use ctxpref_replication::{Envelope, LogPos, Message, ReplNode, Reply};
use ctxpref_testkit::TempDir;
use ctxpref_wal::{DurableDb, WalOptions};
use ctxpref_workload::reference::{tiny_env, tiny_relation};

const SHARDS: usize = 2;

fn create(dir: &Path) -> DurableDb {
    let core = Arc::new(ShardedMultiUserDb::new(
        tiny_env(),
        tiny_relation(),
        2,
        SHARDS,
    ));
    DurableDb::create(dir, core, WalOptions::default()).unwrap()
}

/// `n` user names that fold to `shard`, each starting with `prefix`.
fn names_on(db: &DurableDb, shard: usize, prefix: &str, n: usize) -> Vec<String> {
    let names = (0..).map(|i| format!("{prefix}{i}"));
    names
        .filter(|u| db.db().shard_of(u) == shard)
        .take(n)
        .collect()
}

/// What a resync may leave `shard` holding: its users and the position
/// the node reports for it.
type ShardState = (Vec<String>, LogPos);

fn shard_state(node: &ReplNode, shard: usize) -> ShardState {
    let mut users: Vec<String> = (node.db().db().stripe_users(shard).into_iter())
        .map(|(name, _)| name)
        .collect();
    users.sort();
    let beat = Envelope::new(9, node.epoch(), Message::Heartbeat);
    let Reply::Beat { positions, .. } = node.handle(&beat) else {
        panic!("a heartbeat is answered with a beat");
    };
    (users, positions[shard])
}

/// A primary at epoch 1 in `root/node` that logged two users on shard
/// 0, and the resync of shard 0 that a primary at epoch 2 would send
/// it: three other users, LSNs 1..=3 with epoch 2 from LSN 2.
fn resync_fixture(root: &Path) -> (ReplNode, Envelope) {
    let node = ReplNode::new(0, Arc::new(create(&root.join("node"))), 1, true).unwrap();
    for user in names_on(node.db(), 0, "pre", 2) {
        node.db().add_user(&user).unwrap();
    }
    let source = create(&root.join("source"));
    for user in names_on(&source, 0, "post", 3) {
        source.add_user(&user).unwrap();
    }
    let (users, last_lsn) = source.shard_cut(0);
    assert_eq!(last_lsn, 3);
    let msg = Message::Resync {
        shard: 0,
        users,
        last_lsn,
        epochs: vec![(1, 1), (2, 2)],
    };
    (node, Envelope::new(1, 1, msg))
}

#[test]
fn a_crashed_resync_recovers_contents_and_positions_together() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("repl-resync-crash");
    let before = |root: &Path| {
        let (node, resync) = resync_fixture(root);
        let pre = shard_state(&node, 0);
        assert_eq!(pre.1, LogPos { epoch: 1, lsn: 2 });
        (node, resync, pre)
    };

    // Calibration: an empty plan counts the sites a resync passes.
    let root = tmp.path().join("clean");
    let (node, resync, pre) = before(&root);
    let counting = FaultPlan::builder(0).build();
    let reply = counting.run(|| node.handle(&resync));
    assert!(matches!(reply, Reply::Progress { .. }), "{reply:?}");
    let post = shard_state(&node, 0);
    assert_eq!(post.1, LogPos { epoch: 2, lsn: 3 });
    let mut want = names_on(node.db(), 0, "post", 3);
    want.sort();
    assert_eq!(post.0, want);
    drop(node);
    let recovered = ReplNode::recover(0, &root.join("node"), WalOptions::default()).unwrap();
    assert_eq!(shard_state(&recovered, 0), post, "a finished resync");
    drop(recovered);

    let mut crashes = 0;
    for &site in DURABILITY_SITES {
        for hit in 1..=counting.hit_count(site) {
            let root = tmp.path().join(format!("{site}-{hit}"));
            let (node, resync, _) = before(&root);
            let plan = FaultPlan::builder(0).fail_at(site, &[hit]).build();
            let reply = plan.run(|| node.handle(&resync));
            if matches!(reply, Reply::Failed { .. }) {
                crashes += 1;
                // A failed resync published nothing: the live node
                // still serves the shard it had.
                assert_eq!(
                    shard_state(&node, 0),
                    pre,
                    "{site} hit {hit} ({reply:?}) left the live node changed"
                );
            }
            drop(node);
            let dir = root.join("node");
            let recovered = ReplNode::recover(0, &dir, WalOptions::default()).unwrap();
            let state = shard_state(&recovered, 0);
            assert!(
                state == pre || state == post,
                "{site} hit {hit} ({reply:?}) recovered {state:?}, \
                 neither {pre:?} nor {post:?}"
            );
        }
    }
    assert!(crashes > 0, "no fault site failed the resync");
}

#[test]
fn epochs_adopted_during_a_checkpoint_survive_it() {
    let _serial = ctxpref_faults::exclusive();
    let tmp = TempDir::new("repl-epoch-checkpoint");
    let node = Arc::new(ReplNode::new(0, Arc::new(create(tmp.path())), 1, true).unwrap());
    const ROUNDS: u64 = 4;
    // Every checkpoint stalls as it opens its snapshot file: after it
    // has read the manifest's generation, before its manifest swap.
    let hits: Vec<u64> = (1..=ROUNDS).collect();
    let stall = Duration::from_millis(250);
    let plan = FaultPlan::builder(0)
        .delay_at(STORAGE_SAVE_OPEN, &hits, stall)
        .build();
    let (generation, interleaved) = plan.run(|| {
        let checkpointer = {
            let node = Arc::clone(&node);
            thread::spawn(move || {
                for round in 1..=ROUNDS {
                    node.db().add_user(&format!("u{round}")).unwrap();
                    node.db().checkpoint().unwrap();
                }
                node.db().manifest().generation
            })
        };
        let mut interleaved = 0;
        for round in 1..=ROUNDS {
            while plan.hit_count(STORAGE_SAVE_OPEN) < round && !checkpointer.is_finished() {
                thread::yield_now();
            }
            node.adopt_epoch(1 + round).unwrap();
            // Adopted inside the stall: this round's checkpoint has not
            // swapped yet, so the swaps so far are `round` adoptions and
            // `round - 1` checkpoints.
            interleaved += u64::from(plan.hit_count(MANIFEST_SWAP) == 2 * round - 1);
        }
        (checkpointer.join().unwrap(), interleaved)
    });
    assert_eq!(generation, ROUNDS);
    assert!(interleaved > 0, "no epoch was adopted inside a checkpoint");
    assert_eq!(node.epoch(), 1 + ROUNDS);
    drop(node);

    let recovered = ReplNode::recover(0, tmp.path(), WalOptions::default()).unwrap();
    assert_eq!(recovered.epoch(), 1 + ROUNDS, "the last adopted epoch");
    let manifest = recovered.db().manifest();
    assert_eq!(manifest.generation, ROUNDS, "the last checkpoint");
    assert_eq!(manifest.epoch, 1 + ROUNDS);
    assert_eq!(recovered.db().db().user_count(), ROUNDS as usize);
    // The primary's pairs, set at its promotion, survive too.
    for shard in &manifest.shards {
        assert_eq!(shard.epochs, [(1, 1)]);
    }
    let mut files: Vec<String> = std::fs::read_dir(tmp.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| !name.starts_with("shard-"))
        .collect();
    files.sort();
    assert_eq!(files, ["LOCK", "MANIFEST", "checkpoint-4.db"]);
}
