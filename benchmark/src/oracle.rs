//! The correctness oracle: a plain per-user `ContextualDb` — the
//! paper-faithful reference — fed the mutation history the front door
//! acknowledged. Users are independent, so each is replayed on its own
//! database, one at a time, after the measured phase.

use ctxpref_core::ContextualDb;
use ctxpref_relation::Value;

use crate::boundary::{rows_of, Rows};
use crate::workload::{Dataset, Op, Stream, INSERT_ATTR, STATES_PER_USER};

/// What the front door answered for one user's sweep states, in
/// `Dataset::user_state` order.
pub type Sweep = Vec<Rows>;

#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Answers compared against the oracle.
    pub compared: u64,
    /// Answers that were not row-identical to it.
    pub mismatched: u64,
}

/// Users the stream touches, ascending.
pub fn touched_users(ds: &Dataset, stream: &Stream) -> Vec<usize> {
    let mut touched = vec![false; ds.users.len()];
    for op in &stream.ops {
        touched[op.user()] = true;
    }
    (0..touched.len()).filter(|&u| touched[u]).collect()
}

fn oracle_for(ds: &Dataset, user: usize) -> ContextualDb {
    let mut db = ContextualDb::builder()
        .env(ds.env.clone())
        .relation(ds.relation.clone())
        .build()
        .expect("environment and relation given");
    for pref in ds.profile_of(user).iter() {
        db.insert_preference(pref.clone())
            .expect("base profiles are conflict-free");
    }
    db
}

fn oracle_rows(db: &ContextualDb, ds: &Dataset, state: u32) -> Rows {
    let answer = db
        .query_state(&ds.states[state as usize].state)
        .expect("the oracle answers every state");
    rows_of(ds, &answer.results)
}

fn apply(db: &mut ContextualDb, ds: &Dataset, op: Op) {
    match op {
        Op::Read { .. } => {}
        Op::Insert { item, .. } => {
            let it = &ds.inserts[item as usize];
            db.insert_preference_eq(&it.descriptor, INSERT_ATTR, Value::str(&it.value), it.score)
                .expect("stream inserts never conflict");
        }
        Op::Rescore { index, dip, .. } => db
            .update_preference_score(index as usize, ds.rescore_value(op.user(), index, dip))
            .expect("stream rescores never conflict"),
        Op::Remove { index, .. } => {
            db.remove_preference(index as usize)
                .expect("stream removes are in range");
        }
    }
}

/// Replay every touched user's history on their own oracle and compare:
/// each sampled read at its position in the history, then each sweep
/// (the live front door's, and after `durable_write` the recovered
/// service's) against the final state.
pub fn verify(
    ds: &Dataset,
    stream: &Stream,
    sampled: &[(u32, Rows)],
    sweeps: &[&[(usize, Sweep)]],
) -> Verdict {
    // Per user: the stream positions that matter to them, in order —
    // every write, and every sampled read (with its index in `sampled`).
    let mut events: Vec<Vec<(u32, Option<u32>)>> = vec![Vec::new(); ds.users.len()];
    let mut next_sample = 0;
    for (i, op) in stream.ops.iter().enumerate() {
        let i = i as u32;
        if !op.is_read() {
            events[op.user()].push((i, None));
        } else if sampled.get(next_sample).is_some_and(|(at, _)| *at == i) {
            events[op.user()].push((i, Some(next_sample as u32)));
            next_sample += 1;
        }
    }
    assert_eq!(next_sample, sampled.len(), "every sample is a stream read");

    let mut verdict = Verdict::default();
    let mut check = |got: &Rows, want: Rows| {
        verdict.compared += 1;
        verdict.mismatched += u64::from(*got != want);
    };
    let mut cursors = vec![0usize; sweeps.len()];
    for user in touched_users(ds, stream) {
        let mut db = oracle_for(ds, user);
        for &(at, sample) in &events[user] {
            match (stream.ops[at as usize], sample) {
                (Op::Read { state, .. }, Some(s)) => {
                    check(&sampled[s as usize].1, oracle_rows(&db, ds, state));
                }
                (op, _) => apply(&mut db, ds, op),
            }
        }
        for (sweep, cursor) in sweeps.iter().zip(&mut cursors) {
            // Sweeps list the touched users in the same ascending order.
            let Some((swept, answers)) = sweep.get(*cursor) else {
                continue;
            };
            if *swept != user {
                continue;
            }
            *cursor += 1;
            for (j, got) in answers.iter().enumerate().take(STATES_PER_USER) {
                check(got, oracle_rows(&db, ds, ds.user_state(user, j)));
            }
        }
    }
    for (sweep, cursor) in sweeps.iter().zip(&cursors) {
        assert_eq!(*cursor, sweep.len(), "every swept user was verified");
    }
    verdict
}
