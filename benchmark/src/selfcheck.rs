//! `--selfcheck`: does the benchmark agree with itself? Each workload
//! runs in two interleaved sets of five, every run in its own process
//! (peak memory is per process) and on its own seed — as the driver
//! runs it. Prints a markdown report; committed as `NOISE.md`.

use std::process::{Command, ExitCode};

use crate::contract::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workload::Workload;

const RUNS_PER_SET: usize = 5;

/// The value of `"name": {"value": X` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..].split_once("\"value\": ")?.1;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn header_in<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(": "))
        .unwrap_or("?")
}

pub fn run(seconds: usize, nproc: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0;
    let mut header_printed = false;
    for w in Workload::ALL {
        // values[metric][set] = that set's readings.
        let mut values = vec![[Vec::new(), Vec::new()]; END_TO_END.len()];
        for i in 0..2 * RUNS_PER_SET {
            let seed = (i + 1).to_string();
            // `output` waits for the child, so none outlives this call.
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed, "--trace", "0"])
                .args(["--seconds", &seconds.to_string()])
                .output();
            let out = match out {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!(
                        "error: {} seed {seed} exited with {}\n{}",
                        w.name(),
                        o.status,
                        String::from_utf8_lossy(&o.stderr)
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !header_printed {
                header_printed = true;
                println!(
                    "# Benchmark noise: two interleaved sets of {RUNS_PER_SET} runs per workload\n"
                );
                println!("- nproc: {nproc}");
                println!("- pinned_cpu: {}", header_in(&stdout, "pinned_cpu"));
                println!("- wal_fs: {}", header_in(&stdout, "wal_fs"));
                println!("- seconds: {seconds}");
                println!(
                    "- seeds: 1 to {} (odd seeds in set A, even in set B)\n",
                    2 * RUNS_PER_SET
                );
                println!(
                    "`spread` is the distance between the first and third quartile of all ten runs"
                );
                println!("as a share of their median; `drift` is how far set B's median is from set A's.");
                println!("A row fails when drift exceeds the bound, or (except `setup_s`) spread does.\n");
            }
            let line = stdout.lines().last().unwrap_or_default();
            for (m, spec) in END_TO_END.iter().enumerate() {
                match metric_in(line, spec.name) {
                    Some(v) => values[m][i % 2].push(v),
                    None => {
                        eprintln!("error: {} seed {seed} printed no {}", w.name(), spec.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("## {}\n", w.name());
        println!("| metric | unit | median A | median B | drift | spread | bound | |");
        println!("|---|---|---:|---:|---:|---:|---:|---|");
        for (spec, sets) in END_TO_END.iter().zip(&values) {
            let (a, b) = (median(&sets[0]), median(&sets[1]));
            let all: Vec<f64> = sets.concat();
            let drift = if a == 0.0 {
                0.0
            } else {
                (b - a).abs() / a.abs()
            };
            let spread = iqr_share(&all);
            let ok = drift <= spec.bound && (spec.name == "setup_s" || spread <= spec.bound);
            failures += usize::from(!ok);
            println!(
                "| `{}` | {} | {a:.3} | {b:.3} | {:.2} % | {:.2} % | {:.0} % | {} |",
                spec.name,
                spec.unit,
                drift * 100.0,
                spread * 100.0,
                spec.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
        println!();
    }
    if failures == 0 {
        println!("All metrics agree within their bounds.");
        ExitCode::SUCCESS
    } else {
        println!("{failures} metric(s) outside their bounds.");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "ops_per_s": {"value": 28000.5, "unit": "1/s"}}}"#;
        assert_eq!(metric_in(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(line, "ops_per_s"), Some(28000.5));
        assert_eq!(metric_in(line, "read_p50_us"), None);
        assert_eq!(header_in("a: 1\npinned_cpu: 3\n", "pinned_cpu"), "3");
    }
}
