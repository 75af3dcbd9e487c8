//! Mechanism-gate driver: WAL fsync policies, replication ack modes
//! with failover, scrub overhead on the append path, and the open-loop
//! overload storm. Each gate is a relative check against an injected
//! latency or fault — it proves a mechanism, not speed. Wall-clock
//! serving performance lives in the standing benchmark (`BENCHMARK.json`,
//! `benchmark/`), which these modes do not duplicate.
//!
//! ```text
//! cargo run -p ctxpref-bench --release --bin serving_bench -- --durability  # per-record fsync vs group commit
//! cargo run -p ctxpref-bench --release --bin serving_bench -- --replication # async vs quorum acks + failover
//! cargo run -p ctxpref-bench --release --bin serving_bench -- --scrub       # scrub overhead on the append path
//! cargo run -p ctxpref-bench --release --bin serving_bench -- --storm       # overload storm with fault timeline
//! cargo run -p ctxpref-bench --release --bin serving_bench -- --quick --storm # CI smoke (short window, no hard gate)
//! ```
//!
//! In a full run a failed check exits non-zero, so a regression in the
//! log's group-commit amortization, the ack policies, the scrubber's
//! cost or the shedding order fails loudly. `--quick` shrinks the
//! measurement window and reports without gating (short windows on
//! loaded CI machines are too noisy to gate on).

use std::time::Duration;

use ctxpref_bench::durability::{self, DurabilityBenchConfig};
use ctxpref_bench::replication::{self, ReplicationBenchConfig};
use ctxpref_bench::scrub::{self, ScrubBenchConfig};
use ctxpref_bench::storm::{self, StormBenchConfig};
use ctxpref_bench::ShapeCheck;

fn usage() -> ! {
    eprintln!("usage: serving_bench [--quick] --durability | --replication | --scrub | --storm");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut mode = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            // Exactly one mode; the dispatch below rejects unknown ones.
            _ if mode.is_none() => mode = Some(arg),
            _ => usage(),
        }
    }

    let (rendered, checks): (String, Vec<ShapeCheck>) = match mode.as_deref() {
        Some("--storm") => {
            let mut cfg = StormBenchConfig::default();
            if quick {
                cfg = cfg.quick();
            }
            let report = storm::run(cfg);
            (report.render(), report.checks)
        }
        Some("--scrub") => {
            let mut cfg = ScrubBenchConfig::default();
            if quick {
                cfg.window = Duration::from_millis(250);
            }
            let report = scrub::run(cfg);
            (report.render(), report.checks)
        }
        Some("--replication") => {
            let mut cfg = ReplicationBenchConfig::default();
            if quick {
                cfg.window = Duration::from_millis(250);
            }
            let report = replication::run(cfg);
            (report.render(), report.checks)
        }
        Some("--durability") => {
            let mut cfg = DurabilityBenchConfig::default();
            if quick {
                cfg.window = Duration::from_millis(250);
            }
            let report = durability::run(cfg);
            (report.render(), report.checks)
        }
        _ => usage(),
    };
    print!("{rendered}");

    if !quick && checks.iter().any(|c| !c.pass) {
        eprintln!("benchmark checks failed");
        std::process::exit(1);
    }
}
