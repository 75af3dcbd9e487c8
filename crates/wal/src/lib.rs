#![warn(missing_docs)]
//! Write-ahead logging, checkpoint manifests, and crash recovery for
//! the sharded serving core.
//!
//! The durability story, bottom to top:
//!
//! * `record` — log records, each one frame of the wire's byte format
//!   (`ctxpref_bytes`: `[len | checksum | payload]`, the frame
//!   checksum over length and payload) whose payload is `lsn ‖ op`,
//!   and [`WalOp`], the logged mutation vocabulary: one `vocabulary!`
//!   table, preferences travelling as ids.
//! * [`segment`] — per-shard segment files (`shard-<i>/seg-<n>.wal`)
//!   and the recovery scan with its torn-tail rule: damage at the very
//!   end of a shard's last segment is a crash signature and is
//!   truncated away; damage anywhere else is corruption and recovery
//!   refuses to guess.
//! * `wal` — the [`Wal`] itself: one mutex-guarded log per shard
//!   (shards match the serving core's stripes), with
//!   [`SyncPolicy::PerRecord`] fsync-per-append or
//!   [`SyncPolicy::GroupCommit`] batched flushes, plus size-triggered
//!   segment rotation.
//! * `manifest` — the atomically-swapped [`Manifest`] naming the
//!   current checkpoint generation and each shard's replay bounds: a
//!   version line and one frame. Every file swap goes through its
//!   [`swap_file`].
//! * [`snapshot`] — a whole database at rest, a checkpoint or a save:
//!   a magic line, a header frame, then one frame per user holding the
//!   ops that rebuild the user.
//! * `durable` — [`DurableDb`]: log-first mutations over the sharded
//!   core ([`DurableDb::apply`], and [`DurableDb::try_apply`] for a
//!   caller that must never wait or fsync), background-checkpointable
//!   ([`DurableDb::checkpoint`] snapshots stripe-by-stripe under the
//!   matching WAL shard mutex, rotates segments, swaps the manifest,
//!   and garbage-collects), and [`DurableDb::recover`] = checkpoint +
//!   replay.
//!
//! Fault sites (`wal.append.write`, `wal.append.sync`, `wal.rotate`,
//! `wal.read`, `wal.scrub`, `manifest.swap`, `checkpoint.read`, and a
//! snapshot's `storage.save.{open,write,sync,rename}` and
//! `storage.load.{open,read}`) are threaded through [`ctxpref_faults`];
//! with no plan installed they cost one atomic load.

mod durable;
mod error;
mod manifest;
mod record;
pub mod scrub;
pub mod segment;
pub mod snapshot;
mod wal;

pub use durable::{
    Ack, CheckpointReport, DurableDb, RecoveryReport, ReplApply, UserCut, LOCK_FILE,
};
pub use error::{DurableError, WalError};
pub use manifest::{swap_file, Manifest, ShardManifest, SwapSites};
pub use record::{Displaced, WalOp};
pub use scrub::{QuarantinedFile, ScrubReport, QUARANTINE_DIR};
pub use segment::ScannedRecord;
pub use wal::{AppendAck, ShardWalStatus, SyncPolicy, Wal, WalOptions, WalStatus, WalTotals};
