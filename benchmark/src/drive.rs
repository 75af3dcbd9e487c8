//! Replaying a stream through one boundary: warm-up, then the measured
//! phase in equal laps, one thread, one call at a time — callers of
//! this system wait for their answer, so the loop is closed.
//!
//! **Why times are normalised, and taken from the steady laps.** On
//! the shared 2-vCPU sandbox the same code runs in regimes: for seconds
//! or minutes at a time every operation costs up to 1.6× more CPU (no
//! steal is reported; the host core is being shared). Identical runs
//! read ±10 % apart on a good day and ±30 % on a bad one, whichever
//! statistic of raw time was taken — and two earlier ledgers were
//! rejected for exactly that. So the machine's speed is measured too:
//! a fixed [`Probe`] runs before and after every lap, and every time
//! measured in a lap is scaled by `PROBE_REF_NS / probe` — what the
//! operation would have taken had the probe run at its reference
//! speed. Laps are then ranked by their normalised time per operation
//! and the metrics are taken over the laps ranked between the 10th and
//! the 40th percentile: below that band a lap got lucky against its
//! probe, above it the disturbance was not one the probe shares.
//! Throughput and CPU are totals over those laps; latencies are banded
//! percentiles of the (normalised) calls inside them. On identical runs
//! this holds within ±3 % where the raw numbers moved ±15 %.
//!
//! What it cannot see is a stall the program inflicts on fewer than six
//! laps in ten (a checkpoint, say): those show in the whole-run raw
//! means and tails printed beside the gated metrics, and in the
//! per-layer trace.

use crate::boundary::{Boundary, Rows, Tally};
use crate::probe::{Probe, PROBE_REF_NS};
use crate::stats::{banded_percentile, ns_to_us, percentile_supported};
use crate::sys::{cpu_time_us, now_ns};
use crate::workload::{Dataset, Op, Stream, CHECKPOINT_EVERY_WRITES, ORACLE_EVERY};

/// The band of laps, ranked by normalised time per operation, the
/// timed metrics are taken over, in percentile ranks.
const STEADY_LAPS: std::ops::Range<usize> = 10..40;

/// One recorded span of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the call's first operation in the stream.
    pub op_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What to keep while replaying.
#[derive(Debug, Clone, Copy, Default)]
pub struct Keep {
    /// A span per call (the traced run) instead of bare durations.
    pub spans: bool,
    /// The rows of every `ORACLE_EVERY`-th read, for the oracle.
    pub oracle_rows: bool,
}

/// One lap of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_us: u64,
    /// The probe's time around this lap: the mean of the run before it
    /// and the run after it.
    pub probe_ns: u64,
    /// Where this lap's calls start in `read_ns` / `write_ns`.
    reads_from: usize,
    writes_from: usize,
}

#[derive(Debug, Default)]
pub struct Replayed {
    /// Per call, `(nanoseconds per operation, operations)`, in call
    /// order, reads and writes apart.
    pub read_ns: Vec<(u64, u32)>,
    pub write_ns: Vec<(u64, u32)>,
    pub laps: Vec<Lap>,
    pub tally: Tally,
    /// Allocations of the whole process inside the measured spans.
    pub allocs: u64,
    /// Operations issued, warm-up included, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    /// `(stream index, rows)` of the sampled reads, in stream order.
    pub sampled: Vec<(u32, Rows)>,
    pub checkpoints_ns: Vec<u64>,
}

/// Run the warm-up part of `stream` (fills caches, materialises views;
/// nothing recorded but failures). Part of set-up.
pub fn warm_up(b: &mut dyn Boundary, ds: &Dataset, stream: &Stream, out: &mut Replayed) {
    let mut writes = 0;
    for call in stream.ops[..stream.warmup].chunks(stream.group) {
        out.attempted += call.len() as u64;
        if let Some(o) = b.call(ds, call, None) {
            out.failed += u64::from(o.failed);
        }
        checkpoint_if_due(b, call, &mut writes, None);
    }
}

fn checkpoint_if_due(
    b: &mut dyn Boundary,
    call: &[Op],
    writes: &mut usize,
    log: Option<&mut Vec<u64>>,
) {
    if call[0].is_read() {
        return;
    }
    let before = *writes / CHECKPOINT_EVERY_WRITES;
    *writes += call.len();
    if *writes / CHECKPOINT_EVERY_WRITES > before {
        if let (Some(ns), Some(log)) = (b.checkpoint(), log) {
            log.push(ns);
        }
    }
}

/// The measured phase: every call after the warm-up, cut into `laps`
/// equal laps.
pub fn measure(
    b: &mut dyn Boundary,
    ds: &Dataset,
    stream: &Stream,
    keep: Keep,
    laps: usize,
    probe: &mut Probe,
    out: &mut Replayed,
) {
    let measured = &stream.ops[stream.warmup..];
    let calls = measured.len() / stream.group;
    out.read_ns.reserve_exact(calls);
    out.write_ns.reserve_exact(calls);
    out.laps.reserve_exact(laps);
    if keep.spans {
        out.spans.reserve_exact(calls);
    }
    if keep.oracle_rows {
        out.sampled.reserve_exact(measured.len() / ORACLE_EVERY + 1);
    }
    out.checkpoints_ns
        .reserve_exact(measured.len() / CHECKPOINT_EVERY_WRITES + 1);
    let lap_len = measured.len() / laps;
    let mut writes = 0;
    let mut reads_seen = 0usize;
    let mut rows_buf: Vec<Rows> = Vec::with_capacity(stream.group);

    b.mark();
    let mut probe_before = probe.run();
    for (lap, lap_ops) in measured.chunks(lap_len).enumerate() {
        let (reads_from, writes_from) = (out.read_ns.len(), out.write_ns.len());
        let cpu0 = cpu_time_us();
        let wall0 = now_ns();
        for (i, call) in lap_ops.chunks(stream.group).enumerate() {
            let op_id = (stream.warmup + lap * lap_len + i * stream.group) as u32;
            let is_read = call[0].is_read();
            // A burst holds at most one sampling point: the burst is
            // shorter than the sampling distance.
            let sample_at = (keep.oracle_rows && is_read)
                .then(|| (0..call.len()).find(|j| (reads_seen + j).is_multiple_of(ORACLE_EVERY)))
                .flatten();
            let want_rows = sample_at.is_some();
            let outcome = b.call(ds, call, want_rows.then_some(&mut rows_buf));
            out.attempted += call.len() as u64;
            if let Some(o) = outcome {
                out.failed += u64::from(o.failed);
                out.allocs += o.allocs;
                let per_op = (
                    (o.end_ns - o.start_ns) / call.len() as u64,
                    call.len() as u32,
                );
                if is_read {
                    out.read_ns.push(per_op);
                } else {
                    out.write_ns.push(per_op);
                }
                if keep.spans {
                    out.spans.push(Span {
                        op_id,
                        start_ns: o.start_ns,
                        end_ns: o.end_ns,
                    });
                }
            }
            if is_read {
                reads_seen += call.len();
                out.tally.reads += call.len() as u64;
            } else {
                out.tally.writes += call.len() as u64;
            }
            if let Some(j) = sample_at {
                // A failed call may have returned fewer answers.
                if rows_buf.len() == call.len() {
                    out.sampled
                        .push((op_id + j as u32, std::mem::take(&mut rows_buf[j])));
                }
            }
            rows_buf.clear();
            checkpoint_if_due(b, call, &mut writes, Some(&mut out.checkpoints_ns));
        }
        let (wall_ns, cpu_us) = (now_ns() - wall0, cpu_time_us() - cpu0);
        let probe_after = probe.run();
        out.laps.push(Lap {
            ops: lap_ops.len() as u64,
            wall_ns,
            cpu_us,
            probe_ns: (probe_before + probe_after) / 2,
            reads_from,
            writes_from,
        });
        probe_before = probe_after;
    }
}

/// The timed view of a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    // Normalised, over the steady laps.
    pub ops_per_s: f64,
    pub read_p50_us: f64,
    pub read_p90_us: f64,
    pub write_p50_us: f64,
    pub cpu_us_per_op: f64,
    pub read_mean_us: f64,
    pub write_mean_us: f64,
    /// Mean probe time over the measured phase against the reference:
    /// 1.2 means the machine ran 20 % slower than the reference.
    pub machine_slowdown: f64,
    // Raw, over the whole measured phase.
    pub allocs_per_op: f64,
    pub all_ops_per_s: f64,
    pub all_read_mean_us: f64,
    pub all_write_mean_us: f64,
    pub read_p99_us: Option<f64>,
    pub read_p999_us: Option<f64>,
    pub write_p99_us: Option<f64>,
    pub read_calls: usize,
    pub write_calls: usize,
}

/// Mean nanoseconds per operation over calls of `(ns per op, ops)`.
fn mean_us(calls: &[(u64, u32)]) -> f64 {
    let (ns, ops) = calls.iter().fold((0u64, 0u64), |(ns, ops), &(per, n)| {
        (ns + per * u64::from(n), ops + u64::from(n))
    });
    ns as f64 / 1e3 / ops.max(1) as f64
}

fn sorted_ns(calls: impl Iterator<Item = (u64, u32)>) -> Vec<u64> {
    let mut v: Vec<u64> = calls.map(|(ns, _)| ns).collect();
    v.sort_unstable();
    v
}

/// A lap's calls with every time scaled by `factor`.
fn scaled(calls: &[(u64, u32)], factor: f64) -> impl Iterator<Item = (u64, u32)> + '_ {
    calls
        .iter()
        .map(move |&(ns, n)| ((ns as f64 * factor).round() as u64, n))
}

pub fn timed(r: &Replayed) -> Timed {
    if r.laps.is_empty() {
        return Timed::default();
    }
    let factor = |l: &Lap| PROBE_REF_NS as f64 / l.probe_ns.max(1) as f64;
    // Rank laps by normalised wall time per operation.
    let mut order: Vec<usize> = (0..r.laps.len()).collect();
    order.sort_by(|&a, &b| {
        let per = |l: &Lap| l.wall_ns as f64 * factor(l) / l.ops as f64;
        per(&r.laps[a]).total_cmp(&per(&r.laps[b]))
    });
    let n = order.len();
    let steady = &order[STEADY_LAPS.start * n / 100..(STEADY_LAPS.end * n).div_ceil(100)];
    let lap_calls = |calls: &'_ [(u64, u32)], lap: usize, from: fn(&Lap) -> usize| {
        let start = from(&r.laps[lap]);
        let end = r.laps.get(lap + 1).map_or(calls.len(), from);
        start..end
    };
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let (mut ops, mut wall_ns, mut cpu_us) = (0, 0.0, 0.0);
    for &lap in steady {
        let l = &r.laps[lap];
        let f = factor(l);
        reads.extend(scaled(
            &r.read_ns[lap_calls(&r.read_ns, lap, |l| l.reads_from)],
            f,
        ));
        writes.extend(scaled(
            &r.write_ns[lap_calls(&r.write_ns, lap, |l| l.writes_from)],
            f,
        ));
        ops += l.ops;
        wall_ns += l.wall_ns as f64 * f;
        cpu_us += l.cpu_us as f64 * f;
    }
    let steady_reads = sorted_ns(reads.iter().copied());
    let steady_writes = sorted_ns(writes.iter().copied());
    let all_reads = sorted_ns(r.read_ns.iter().copied());
    let all_writes = sorted_ns(r.write_ns.iter().copied());
    let all_ops: u64 = r.laps.iter().map(|l| l.ops).sum();
    let all_wall: u64 = r.laps.iter().map(|l| l.wall_ns).sum();
    let all_probe: u64 = r.laps.iter().map(|l| l.probe_ns).sum();
    let us = |ns: Option<u64>| ns.map(ns_to_us);
    Timed {
        ops_per_s: ops as f64 / (wall_ns / 1e9),
        read_p50_us: banded_percentile(&steady_reads, 0.5) / 1e3,
        read_p90_us: banded_percentile(&steady_reads, 0.9) / 1e3,
        write_p50_us: banded_percentile(&steady_writes, 0.5) / 1e3,
        cpu_us_per_op: cpu_us / ops as f64,
        read_mean_us: mean_us(&reads),
        write_mean_us: mean_us(&writes),
        machine_slowdown: all_probe as f64 / n as f64 / PROBE_REF_NS as f64,
        allocs_per_op: r.allocs as f64 / all_ops.max(1) as f64,
        all_ops_per_s: all_ops as f64 / (all_wall as f64 / 1e9),
        all_read_mean_us: mean_us(&r.read_ns),
        all_write_mean_us: mean_us(&r.write_ns),
        read_p99_us: us(percentile_supported(&all_reads, 0.99)),
        read_p999_us: us(percentile_supported(&all_reads, 0.999)),
        write_p99_us: us(percentile_supported(&all_writes, 0.99)),
        read_calls: all_reads.len(),
        write_calls: all_writes.len(),
    }
}

/// Time `work` with the probe run before and after it; the normalised
/// seconds it took.
pub fn normalised_seconds<T>(probe: &mut Probe, work: impl FnOnce() -> T) -> (f64, T) {
    let before = probe.run();
    let t0 = now_ns();
    let out = work();
    let ns = now_ns() - t0;
    let after = probe.run();
    let factor = PROBE_REF_NS as f64 / ((before + after) / 2).max(1) as f64;
    (ns as f64 * factor / 1e9, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Twenty laps of ten single-op read calls at `ns[lap]` each, the
    /// probe reading `probe[lap]`.
    fn replay_of(ns: impl Fn(usize) -> u64, probe: impl Fn(usize) -> u64) -> Replayed {
        let mut r = Replayed::default();
        for l in 0..20 {
            r.laps.push(Lap {
                ops: 10,
                wall_ns: ns(l) * 10,
                cpu_us: ns(l) * 10 / 1000,
                probe_ns: probe(l),
                reads_from: r.read_ns.len(),
                writes_from: 0,
            });
            r.read_ns.extend(std::iter::repeat_n((ns(l), 1), 10));
        }
        r.tally.reads = 200;
        r
    }

    #[test]
    fn a_slow_machine_reads_the_same_as_a_fast_one() {
        // The same program on a machine at reference speed, and on one
        // where everything — the probe too — takes half as long again.
        let fast = timed(&replay_of(|_| 1_000, |_| PROBE_REF_NS));
        let slow = timed(&replay_of(|_| 1_500, |_| PROBE_REF_NS * 3 / 2));
        assert!((fast.ops_per_s - 1e6).abs() < 1.0, "{fast:?}");
        assert!((slow.ops_per_s - fast.ops_per_s).abs() < 1.0);
        assert!((slow.read_p50_us - 1.0).abs() < 1e-6);
        assert!((slow.cpu_us_per_op - fast.cpu_us_per_op).abs() < 1e-6);
        assert!((slow.machine_slowdown - 1.5).abs() < 1e-9);
        // The raw whole-run numbers are left as measured.
        assert!((slow.all_read_mean_us - 1.5).abs() < 1e-9);
    }

    #[test]
    fn disturbed_laps_stay_out_of_the_steady_band() {
        // Laps 5..13 hit a disturbance the probe does not share; they
        // rank above the band, so no metric sees them.
        let r = replay_of(
            |l| if (5..13).contains(&l) { 4_000 } else { 1_000 },
            |_| PROBE_REF_NS,
        );
        let t = timed(&r);
        assert!((t.read_p90_us - 1.0).abs() < 1e-6, "{t:?}");
        assert!((t.ops_per_s - 1e6).abs() < 1.0);
        assert!(t.all_read_mean_us > 2.0, "the whole-run mean sees them");
        assert_eq!((t.read_calls, t.write_p50_us), (200, 0.0));
    }

    #[test]
    fn set_up_time_is_normalised_too() {
        let mut probe = Probe::start().expect("socket pair");
        let (s, out) = normalised_seconds(&mut probe, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(out, 7);
        // Whatever this machine's speed, 20 ms of sleep is 20 ms times a
        // factor the probe keeps within an order of magnitude of one.
        assert!(s > 0.002 && s < 0.2, "{s}");
    }

    #[test]
    fn bursts_weigh_in_by_their_operations() {
        assert_eq!(mean_us(&[(1_000, 32), (3_000, 32)]), 2.0);
        assert_eq!(mean_us(&[(1_000, 3), (5_000, 1)]), 2.0);
        assert_eq!(mean_us(&[]), 0.0);
    }

    #[test]
    fn checkpoints_fall_due_by_write_count() {
        struct Counting(usize);
        impl Boundary for Counting {
            fn call(
                &mut self,
                _: &Dataset,
                _: &[Op],
                _: Option<&mut Vec<Rows>>,
            ) -> Option<crate::boundary::Outcome> {
                None
            }
            fn checkpoint(&mut self) -> Option<u64> {
                self.0 += 1;
                Some(1)
            }
            fn finish(self: Box<Self>, _: Tally) -> Vec<crate::boundary::Metric> {
                Vec::new()
            }
        }
        let mut b = Counting(0);
        let write = [Op::Remove { user: 0, index: 0 }];
        let read = [Op::Read { user: 0, state: 0 }];
        let (mut writes, mut log) = (0, Vec::new());
        for _ in 0..2 * CHECKPOINT_EVERY_WRITES {
            checkpoint_if_due(&mut b, &write, &mut writes, Some(&mut log));
            checkpoint_if_due(&mut b, &read, &mut writes, Some(&mut log));
        }
        assert_eq!((b.0, log.len()), (2, 2));
    }
}
