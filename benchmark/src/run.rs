//! One benchmark run: the untraced run that yields the end-to-end
//! metrics and checks every answer, and the traced run that replays
//! the stream at each boundary of the ladder.

use std::path::{Path, PathBuf};

use ctxpref_net::Priority;
use ctxpref_service::{CtxPrefService, ServiceConfig};

use crate::boundary::{
    metric, rows_of, Boundary, CodecB, CoreB, Metric, NetB, ResolveB, RouterB, Rows, ServiceB,
    Tally, WalB,
};
use crate::contract::{per_layer, BOUNDARIES};
use crate::drive::{measure, normalised_seconds, timed, warm_up, Keep, Replayed, Span, Timed};
use crate::oracle::{touched_users, verify, Sweep};
use crate::probe::Probe;
use crate::stack::{durability, owners, wal_dir, DEADLINE};
use crate::stats::median;
use crate::sys::{fs_type, out_dir, peak_rss_mib};
use crate::workload::{
    generate, Dataset, Op, Stream, Workload, K, LAPS, SMOKE_DIVISOR, STATES_PER_USER,
    TRACE_DIVISOR, TRACE_LAPS,
};

/// Set-ups per untraced run; `setup_s` is the median of their
/// normalised times (see `drive`).
const SETUP_REPEATS: usize = 3;
/// One span in this many is written to the trace file.
const SPAN_SAMPLING: usize = 100;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: usize,
    pub smoke: bool,
}

#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the contract's JSON line carries.
    pub metrics: Vec<Metric>,
    /// Printed by name beside them, never gated.
    pub info: Vec<Metric>,
    pub wal_fs: String,
}

/// A scratch directory of this process inside the checkout, removed on
/// drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Self {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the run directory inside the checkout");
        Self(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn front_door(ds: &Dataset, dir: &Path) -> Box<dyn Boundary> {
    if ds.workload == Workload::BulkPipeline {
        Box::new(NetB::new(ds, dir))
    } else {
        Box::new(RouterB::new(ds, dir))
    }
}

fn divisor(args: &RunArgs, traced: bool) -> usize {
    let smoke = if args.smoke { SMOKE_DIVISOR } else { 1 };
    smoke * if traced { TRACE_DIVISOR } else { 1 }
}

/// Ask the front door for every touched user's sweep states.
fn sweep_front_door(
    door: &mut dyn Boundary,
    ds: &Dataset,
    users: &[usize],
    tally: &mut Replayed,
) -> Vec<(usize, Sweep)> {
    let per_call = if ds.workload.group() > 1 {
        STATES_PER_USER
    } else {
        1
    };
    let mut sweeps = Vec::with_capacity(users.len());
    for &u in users {
        let ops: Vec<Op> = (0..STATES_PER_USER)
            .map(|j| Op::Read {
                user: u as u32,
                state: ds.user_state(u, j),
            })
            .collect();
        let mut rows: Vec<Rows> = Vec::with_capacity(STATES_PER_USER);
        for call in ops.chunks(per_call) {
            tally.attempted += call.len() as u64;
            let o = door
                .call(ds, call, Some(&mut rows))
                .expect("reads have spans");
            tally.failed += u64::from(o.failed);
        }
        // A failed read leaves a hole; pad so the oracle counts it.
        rows.resize(STATES_PER_USER, Vec::new());
        sweeps.push((u, rows));
    }
    sweeps
}

/// Recover every cluster's durable directory and sweep the recovered
/// services directly.
fn sweep_recovered(
    ds: &Dataset,
    wal_dirs: &[PathBuf],
    users: &[usize],
    tally: &mut Replayed,
) -> Vec<(usize, Sweep)> {
    let owner = owners(ds);
    let services: Vec<CtxPrefService> = wal_dirs
        .iter()
        .map(|dir| {
            CtxPrefService::recover(ServiceConfig::default(), durability(dir))
                .expect("the benchmark's own log recovers")
                .0
        })
        .collect();
    users
        .iter()
        .map(|&u| {
            let svc = &services[owner[u] as usize];
            let rows = (0..STATES_PER_USER)
                .map(|j| {
                    tally.attempted += 1;
                    let state = &ds.states[ds.user_state(u, j) as usize].state;
                    let tier = Priority::Interactive;
                    match svc.query_topk_tiered(&ds.users[u], state, K, DEADLINE, tier) {
                        Ok(a) if !a.is_degraded() => rows_of(ds, &a.answer.results),
                        _ => {
                            tally.failed += 1;
                            Vec::new()
                        }
                    }
                })
                .collect();
            (u, rows)
        })
        .collect()
}

pub fn run_untraced(args: &RunArgs) -> Report {
    let w = args.workload;
    let run_dir = RunDir::new();
    let stream = {
        let ds = Dataset::build(w);
        generate(
            &ds,
            args.seed,
            w.measured_ops(args.seconds, divisor(args, false)),
        )
    };

    // The first set-up is the one measured; the repeats that time
    // set-up again come after it, so no earlier stack's memory is part
    // of the measured one's peak.
    let mut probe = Probe::start().expect("a socket pair for the probe");
    let set_up = |probe: &mut Probe, rep: usize| {
        normalised_seconds(probe, || {
            let ds = Dataset::build(w);
            let dir = run_dir.0.join(format!("setup{rep}"));
            let mut door = front_door(&ds, &dir);
            let mut r = Replayed::default();
            warm_up(door.as_mut(), &ds, &stream, &mut r);
            (ds, door, r, dir)
        })
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (s, (ds, mut door, mut r, dir)) = set_up(&mut probe, 0);
    setup_s.push(s);

    let keep = Keep {
        spans: false,
        oracle_rows: true,
    };
    measure(door.as_mut(), &ds, &stream, keep, LAPS, &mut probe, &mut r);
    let e2e = timed(&r);
    // Taken before the oracle runs: the peak is the system's, not the
    // checker's.
    let peak_rss = peak_rss_mib();

    let users = touched_users(&ds, &stream);
    let live = sweep_front_door(door.as_mut(), &ds, &users, &mut r);
    let wal_dirs: Vec<PathBuf> = (0..w.clusters())
        .filter(|_| w.durable())
        .map(|i| wal_dir(&dir, i))
        .collect();
    let wal_fs = fs_type(&run_dir.0);
    door.finish(r.tally);
    let recovered = (!wal_dirs.is_empty()).then(|| sweep_recovered(&ds, &wal_dirs, &users, &mut r));
    let mut sweeps: Vec<&[(usize, Sweep)]> = vec![&live];
    if let Some(rec) = &recovered {
        sweeps.push(rec);
    }
    let verdict = verify(&ds, &stream, &r.sampled, &sweeps);
    drop((live, recovered, ds));

    let (mut attempted, mut failed) = (r.attempted, r.failed);
    for rep in 1..SETUP_REPEATS {
        let (s, (_ds, door, warm, _dir)) = set_up(&mut probe, rep);
        setup_s.push(s);
        door.finish(Tally::default());
        attempted += warm.attempted;
        failed += warm.failed;
    }
    // A sweep read that failed is already counted; its empty rows also
    // mismatch, which double counts at worst — never under counts.
    failed += verdict.mismatched;
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", e2e.ops_per_s, "1/s"),
        metric("read_p50_us", e2e.read_p50_us, "us"),
        metric("read_p90_us", e2e.read_p90_us, "us"),
        metric("write_p50_us", e2e.write_p50_us, "us"),
        metric("cpu_us_per_op", e2e.cpu_us_per_op, "us"),
        metric("allocs_per_op", e2e.allocs_per_op, "1"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    let mut info = tails(&e2e);
    info.extend([
        metric("e2e.read_samples", e2e.read_calls as f64, "count"),
        metric("e2e.write_samples", e2e.write_calls as f64, "count"),
        metric("e2e.read_mean_us", e2e.all_read_mean_us, "us"),
        metric("e2e.write_mean_us", e2e.all_write_mean_us, "us"),
        metric("e2e.raw_ops_per_s", e2e.all_ops_per_s, "1/s"),
        metric("machine_slowdown", e2e.machine_slowdown, "1"),
        metric(
            "measured_ops",
            (r.tally.reads + r.tally.writes) as f64,
            "count",
        ),
        metric("warmup_ops", stream.warmup as f64, "count"),
        metric("oracle_compared", verdict.compared as f64, "count"),
        metric("oracle_mismatched", verdict.mismatched as f64, "count"),
        metric("checkpoints", r.checkpoints_ns.len() as f64, "count"),
    ]);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
        wal_fs,
    }
}

/// The whole-run tails of a front-door replay.
fn tails(e: &Timed) -> Vec<Metric> {
    // Absent when fewer than ten samples lie beyond the percentile.
    let tail = |name: &str, v: Option<f64>| metric(name, v.unwrap_or(0.0), "us");
    vec![
        tail("e2e.read_p99_us", e.read_p99_us),
        tail("e2e.read_p999_us", e.read_p999_us),
        tail("e2e.write_p99_us", e.write_p99_us),
    ]
}

/// The boundary for one rung of the ladder (`contract::BOUNDARIES`,
/// bottom-up). A rung a workload does not have (the log on an in-memory
/// workload, the router in front of the bulk client) is a pass-through:
/// it repeats the rung below and has no self time.
fn rung(name: &str, ds: &Dataset, dir: &Path) -> Option<Box<dyn Boundary>> {
    let bulk = ds.workload == Workload::BulkPipeline;
    match name {
        "resolve" => Some(Box::new(ResolveB::new(ds))),
        "core" => Some(Box::new(CoreB::new(ds))),
        "wal" => ds
            .workload
            .durable()
            .then(|| Box::new(WalB::new(ds, dir)) as Box<dyn Boundary>),
        "service" => Some(Box::new(ServiceB::new(ds, dir))),
        "codec" => Some(Box::new(CodecB::new(ds, dir))),
        "net" => Some(Box::new(NetB::new(ds, dir))),
        "router" => (!bulk).then(|| Box::new(RouterB::new(ds, dir)) as Box<dyn Boundary>),
        _ => unreachable!("a rung of BOUNDARIES"),
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RungCost {
    read_us: f64,
    write_us: f64,
    allocs_per_op: f64,
}

/// Replay `stream` at `b`; also whether its spans are self time only.
fn replay_rung(
    mut b: Box<dyn Boundary>,
    ds: &Dataset,
    stream: &Stream,
    keep: Keep,
    probe: &mut Probe,
) -> (Replayed, Vec<Metric>, bool) {
    let mut r = Replayed::default();
    warm_up(b.as_mut(), ds, stream, &mut r);
    measure(b.as_mut(), ds, stream, keep, TRACE_LAPS, probe, &mut r);
    let self_only = b.spans_self_only();
    let counters = b.finish(r.tally);
    (r, counters, self_only)
}

pub fn run_traced(args: &RunArgs) -> Report {
    let w = args.workload;
    let run_dir = RunDir::new();
    let ds = Dataset::build(w);
    let stream = generate(
        &ds,
        args.seed,
        w.measured_ops(args.seconds, divisor(args, true)),
    );
    let spans_only = Keep {
        spans: true,
        oracle_rows: false,
    };

    let mut probe = Probe::start().expect("a socket pair for the probe");
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut all_spans: Vec<(&str, Vec<Span>)> = Vec::new();
    let mut below = RungCost::default();
    let mut traced_door_p50 = 0.0;
    let mut traced_door_mean = 0.0;
    for name in BOUNDARIES {
        let cost = match rung(name, &ds, &run_dir.0.join(name)) {
            None => {
                all_spans.push((name, Vec::new()));
                below
            }
            Some(b) => {
                let (mut r, counters, self_only) =
                    replay_rung(b, &ds, &stream, spans_only, &mut probe);
                attempted += r.attempted;
                failed += r.failed;
                metrics.extend(counters);
                let e = timed(&r);
                traced_door_p50 = e.read_p50_us;
                traced_door_mean = e.read_mean_us;
                all_spans.push((name, std::mem::take(&mut r.spans)));
                let under = if self_only {
                    below
                } else {
                    RungCost::default()
                };
                RungCost {
                    read_us: under.read_us + e.read_mean_us,
                    // The resolver has no part in a write.
                    write_us: if r.write_ns.is_empty() {
                        0.0
                    } else {
                        under.write_us + e.write_mean_us
                    },
                    allocs_per_op: e.allocs_per_op,
                }
            }
        };
        metrics.extend([
            metric(format!("{name}.read_us"), cost.read_us, "us"),
            metric(format!("{name}.write_us"), cost.write_us, "us"),
            metric(
                format!("{name}.read_self_us"),
                cost.read_us - below.read_us,
                "us",
            ),
            metric(
                format!("{name}.write_self_us"),
                cost.write_us - below.write_us,
                "us",
            ),
            metric(format!("{name}.allocs_per_op"), cost.allocs_per_op, "1"),
        ]);
        below = cost;
    }

    // The same stream through the front door with tracing off: the
    // difference is what recording spans costs.
    let untraced = Keep::default();
    let (r, _, _) = replay_rung(
        front_door(&ds, &run_dir.0.join("untraced")),
        &ds,
        &stream,
        untraced,
        &mut probe,
    );
    attempted += r.attempted;
    failed += r.failed;
    let e = timed(&r);
    let overhead = if e.read_p50_us > 0.0 {
        (traced_door_p50 - e.read_p50_us) / e.read_p50_us * 100.0
    } else {
        0.0
    };
    metrics.push(metric("trace.overhead_pct", overhead, "%"));
    metrics.extend(tails(&e));
    // Exactly the declared set, in the declared order. A rung this
    // workload does not have (the log, on an in-memory workload)
    // reports zero for its own counters.
    let metrics: Vec<Metric> = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect();

    let info = vec![
        metric("trace.front_door_read_mean_us", traced_door_mean, "us"),
        metric("trace.untraced_read_mean_us", e.read_mean_us, "us"),
        metric("trace.untraced_read_p50_us", e.read_p50_us, "us"),
        metric(
            "measured_ops",
            (r.tally.reads + r.tally.writes) as f64,
            "count",
        ),
    ];
    let wal_fs = fs_type(&run_dir.0);
    write_trace(args, &metrics, &all_spans);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
        wal_fs,
    }
}

/// Write the summary and one span in `SPAN_SAMPLING` to
/// `benchmark/out/<workload>.trace.json`.
fn write_trace(args: &RunArgs, metrics: &[Metric], spans: &[(&str, Vec<Span>)]) {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"span_sampling\": {SPAN_SAMPLING},\n  \"summary\": {{",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.smoke
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            crate::json_number(m.value),
            m.unit
        );
    }
    s.push_str("\n  },\n  \"spans\": [");
    let mut first = true;
    for (i, (name, rung_spans)) in spans.iter().enumerate() {
        let parent = spans.get(i + 1).map(|(p, _)| *p);
        for sp in rung_spans.iter().step_by(SPAN_SAMPLING) {
            let sep = if first { "" } else { "," };
            first = false;
            let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                s,
                "{sep}\n    {{\"name\": \"{name}\", \"op_id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.op_id, sp.start_ns, sp.end_ns
            );
        }
    }
    s.push_str("\n  ]\n}\n");
    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", args.workload.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
