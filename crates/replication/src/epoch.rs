//! Lookups in a shard's `(epoch, first_lsn)` pairs: which epoch wrote
//! which of its LSNs (Kafka KIP-101's leader-epoch cache). The pairs,
//! like the node's fencing epoch, live in its durable directory's
//! checkpoint manifest ([`ctxpref_wal::ShardManifest::epochs`]), so a
//! deposed primary that restarts comes back *knowing* it was deposed,
//! and which epoch wrote each of its records.

use crate::message::LogPos;

/// The position at `lsn` of a shard whose pairs are `pairs`: epoch 0
/// for LSN 0, the empty prefix every log shares.
pub(crate) fn log_pos(pairs: &[(u64, u64)], lsn: u64) -> LogPos {
    let below = pairs.partition_point(|&(_, first)| first <= lsn);
    let epoch = below.checked_sub(1).map_or(0, |i| pairs[i].0);
    LogPos { epoch, lsn }
}

/// The pairs covering LSNs up to `last_lsn`.
pub(crate) fn prefix(pairs: &[(u64, u64)], last_lsn: u64) -> Vec<(u64, u64)> {
    pairs[..pairs.partition_point(|&(_, first)| first <= last_lsn)].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_answer_lookups() {
        // Epoch 1 wrote 1..=10, epoch 3 wrote 11..=14, epoch 5 from 15.
        let pairs = vec![(1, 1), (3, 11), (5, 15)];
        assert_eq!(
            [0, 1, 10, 11, 14, 15, 99].map(|l| log_pos(&pairs, l).epoch),
            [0, 1, 1, 3, 3, 5, 5]
        );
        assert_eq!(log_pos(&[], 5), LogPos { epoch: 0, lsn: 5 });
        assert_eq!(prefix(&pairs, 10), vec![(1, 1)]);
        assert_eq!(prefix(&pairs, 14), vec![(1, 1), (3, 11)]);
        assert_eq!(prefix(&pairs, 0), vec![]);
    }
}
