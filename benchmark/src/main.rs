//! `ctxpref-benchmark` — the standing perf ledger.
//!
//! One run = one workload, built from `--seed`, driven through the
//! real stack in-process from one thread over one connection, checked
//! against a plain `ContextualDb` oracle. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the stream at every layer
//! boundary and reports the per-layer ones. The last line of standard
//! output is the result as one JSON object.

mod boundary;
mod contract;
mod drive;
mod oracle;
mod probe;
mod run;
mod selfcheck;
mod stack;
mod stats;
mod sys;
mod workload;

use std::process::ExitCode;

use boundary::Metric;
use run::{Report, RunArgs};
use workload::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str =
    "usage: ctxpref-benchmark --workload <hot_topk|cold_resolve|durable_write|bulk_pipeline>
                         [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       ctxpref-benchmark --selfcheck [--seconds S]";

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: usize = 15;
const DEFAULT_SEED: u64 = 2007;

#[derive(Debug)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: usize,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            // `--trace 0|1` as the driver passes it; a bare `--trace`
            // means 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !cli.selfcheck && cli.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(cli)
}

/// A JSON number with all the digits measured; JSON has no NaN or
/// infinity, and no metric here should produce one.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_metric(m: &Metric) {
    println!("{:<40} {:>16.3} {}", m.name, m.value, m.unit);
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = sys::cpus_allowed();
    if cli.selfcheck {
        return selfcheck::run(cli.seconds, nproc);
    }

    // Before any thread exists, so every thread of the stack inherits
    // the one-CPU mask.
    let pinned_cpu = match sys::pin_to_last_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("error: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !sys::single_malloc_arena() {
        eprintln!("warning: the allocator refused M_ARENA_MAX=1; peak_rss_mb will be noisier");
    }
    let args = RunArgs {
        workload: cli.workload.expect("checked by parse"),
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
    };
    let report = if cli.trace {
        run::run_traced(&args)
    } else {
        run::run_untraced(&args)
    };

    println!("workload: {}", args.workload.name());
    println!("seed: {}", args.seed);
    println!("seconds: {}", args.seconds);
    println!("trace: {}", cli.trace);
    println!("smoke: {}", args.smoke);
    println!("nproc: {nproc}");
    println!("pinned_cpu: {pinned_cpu}");
    println!("wal_fs: {}", report.wal_fs);
    report.metrics.iter().for_each(print_metric);
    report.info.iter().for_each(print_metric);
    println!("attempted: {}", report.attempted);
    println!("failed: {}", report.failed);
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} failed operation(s)", report.failed);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "cold_resolve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::ColdResolve));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10, true));
        let c = cli(&["--workload", "hot_topk", "--trace", "0"]).unwrap();
        assert!(!c.trace);
        let c = cli(&["--trace", "--workload", "hot_topk", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--workload", "hot_topk", "--seconds", "0"]).is_err());
        assert!(cli(&["--workload", "hot_topk", "--frobnicate"]).is_err());
        assert!(cli(&["--selfcheck"]).is_ok());
    }

    #[test]
    fn numbers_stay_json() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
