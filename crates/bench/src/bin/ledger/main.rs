//! `ledger` — a perf claim as one command.
//!
//! ```text
//! cargo run --release -p ctxpref-bench --bin ledger -- \
//!     compare <parent-rev> <change-rev> [--workload W]... [--pairs N]
//!     [--max-pairs CAP] [--seed S] [--pr N] [--work-dir DIR]
//!     [-- BENCHMARK-ARGS...]
//! ```
//!
//! `compare` checks each revision out in turn as a `git worktree` at
//! one path under the work directory (default `target/ledger` of the
//! checkout it runs in) and builds its standing benchmark offline,
//! with the `cargo run` command its `BENCHMARK.json` declares turned
//! into `cargo build`, into a target directory of its own. Both builds
//! see the same source path: two checkouts at different paths compile
//! identical code into differently laid out binaries, which an A/A run
//! measured as up to 8 % apart on `bulk_pipeline`. It then runs each
//! side's executable, with the declared program arguments, `--workload
//! W --seed S` (default: every declared workload, 10 pairs, seed 2007)
//! and any arguments after `--`, from the worktree. Pairs alternate
//! which side runs first: odd pairs run the parent first. With
//! `--max-pairs CAP` a workload whose pairs leave some gated metric
//! "unresolved" takes one more pair at a time, until every gated metric
//! resolves or it has run CAP pairs ([`takes_another_pair`]), so each
//! workload runs the pairs it needs; the rules that give the verdicts
//! do not change. The last JSON line of each run is its result. The tool then prints one table row
//! per workload ([`report`]): for each end-to-end metric, the parent
//! and change medians, the change in the median, the parent's
//! interquartile range as a share of its median, the pairs the change
//! won and the verdict ([`verdict`] gives the rules; bounds come from
//! the parent's `BENCHMARK.json`). The raw
//! whole-run means `e2e.read_mean_us` and `e2e.write_mean_us` sit next
//! to the read and write percentiles, ungated. With `--pr N` every raw
//! run and verdict, and the pairs each workload ran, is written to
//! `BENCH_PR<N>.json` at the top of the checkout. The worktree is removed when the tool exits (a killed run
//! leaves it for `git worktree prune`); the build directories stay, so
//! a re-run rebuilds only what changed.
//!
//! Exit status: 0 when every run reported `"correct": true`, 1 when a
//! run failed or a step could not be done, 2 on a usage error.

mod json;
mod report;
mod verdict;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use verdict::{Better, Comparison, Verdict};

const USAGE: &str = "usage: ledger compare <parent-rev> <change-rev> [--workload W]... [--pairs N] [--max-pairs CAP] [--seed S] [--pr N] [--work-dir DIR] [-- BENCHMARK-ARGS...]";

const DEFAULT_PAIRS: usize = 10;
const DEFAULT_SEED: u64 = 2007;

#[derive(Debug, PartialEq)]
struct Args {
    parent: String,
    change: String,
    workloads: Vec<String>,
    pairs: usize,
    /// Pairs a workload may grow to while a gated metric is unresolved.
    max_pairs: Option<usize>,
    seed: u64,
    pr: Option<u32>,
    work_dir: Option<PathBuf>,
    /// Passed to every benchmark run after the workload and seed.
    extra: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("compare") {
        return Err("the only command is `compare`".to_string());
    }
    let mut revs = Vec::new();
    let mut parsed = Args {
        parent: String::new(),
        change: String::new(),
        workloads: Vec::new(),
        pairs: DEFAULT_PAIRS,
        max_pairs: None,
        seed: DEFAULT_SEED,
        pr: None,
        work_dir: None,
        extra: Vec::new(),
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workloads.push(value("--workload")?.clone()),
            "--pairs" => parsed.pairs = pair_count("--pairs", value("--pairs")?)?,
            "--max-pairs" => {
                parsed.max_pairs = Some(pair_count("--max-pairs", value("--max-pairs")?)?)
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--pr" => parsed.pr = Some(value("--pr")?.parse().map_err(|e| format!("--pr: {e}"))?),
            "--work-dir" => parsed.work_dir = Some(PathBuf::from(value("--work-dir")?)),
            "--" => {
                parsed.extra = it.by_ref().cloned().collect();
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            rev => revs.push(rev.to_string()),
        }
    }
    let [parent, change] = <[String; 2]>::try_from(revs)
        .map_err(|revs| format!("expected two revisions, got {}", revs.len()))?;
    parsed.parent = parent;
    parsed.change = change;
    Ok(parsed)
}

/// A pair count given to `flag`: a whole number of at least 1.
fn pair_count(flag: &str, text: &str) -> Result<usize, String> {
    match text.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

impl Args {
    /// The most pairs a workload may run.
    fn cap(&self) -> usize {
        self.pairs.max(self.max_pairs.unwrap_or(0))
    }
}

/// The stopping rule: whether a workload whose pairs so far ran `runs`
/// takes one more. It does until it has run `base` pairs; past that,
/// only while some gated metric is "unresolved" and fewer than `cap`
/// pairs ran. A metric no pair reported resolves nothing and keeps
/// nothing running.
fn takes_another_pair(gated: &[Gated], runs: &[Run], base: usize, cap: usize) -> bool {
    let ran = runs.iter().map(|r| r.pair).max().unwrap_or(0);
    if ran < base {
        return true;
    }
    ran < cap
        && gated.iter().any(|m| {
            Comparison::of(&report::pairs_of(runs, &m.name), m.better, m.bound)
                .is_some_and(|c| c.verdict == Verdict::Unresolved)
        })
}

/// One end-to-end metric `BENCHMARK.json` gates.
#[derive(Debug, Clone, PartialEq)]
struct Gated {
    name: String,
    better: Better,
    bound: f64,
}

/// What a revision's `BENCHMARK.json` declares.
#[derive(Debug, PartialEq)]
struct Declaration {
    command: Vec<String>,
    workloads: Vec<String>,
    gated: Vec<Gated>,
}

fn declaration(text: &str) -> Result<Declaration, String> {
    let json = Json::parse(text)?;
    let strings = |items: Option<&Json>, key: &str| -> Result<Vec<String>, String> {
        items
            .and_then(Json::as_array)
            .ok_or_else(|| format!("no {key} list"))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} entry is not a string"))
            })
            .collect()
    };
    let command = strings(json.get("command"), "command")?;
    if command.is_empty() {
        return Err("the command is empty".to_string());
    }
    let entries = |key: &str| {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("no {key} list"))
    };
    let names = entries("workloads")?
        .iter()
        .map(|w| w.get("name").cloned())
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload has no name")?;
    let workloads = strings(Some(&Json::Arr(names)), "workload name")?;
    let gated = entries("end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Gated {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err("an end_to_end metric lacks name, better or bound".to_string()),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Declaration {
        command,
        workloads,
        gated,
    })
}

/// A declared `cargo run` command split into the `cargo build` that
/// builds its program once — the same manifest, profile and flags —
/// and the arguments the program is run with. `None` for any other
/// command.
fn split_command(command: &[String]) -> Option<(Vec<String>, Vec<String>)> {
    if command.first()? != "cargo" || command.get(1)? != "run" {
        return None;
    }
    let dashes = command.iter().position(|arg| arg == "--");
    let (cargo, program) = command.split_at(dashes.unwrap_or(command.len()));
    let mut build = cargo.to_vec();
    build[1] = "build".to_string();
    Some((build, program.iter().skip(1).cloned().collect()))
}

/// The executable a `cargo build --message-format=json` run reports,
/// the last one if it built several.
fn executable(messages: &str) -> Option<PathBuf> {
    messages
        .lines()
        .rev()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .find_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
}

/// What one benchmark run reported.
#[derive(Debug, Default, PartialEq)]
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// The result line's metrics, in its order.
    metrics: Vec<(String, f64)>,
    /// Every other `name value unit` line the run printed, such as
    /// `e2e.read_mean_us`.
    info: Vec<(String, f64)>,
}

impl RunResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Read a run's standard output: its last line that opens a JSON
/// object is the result, and its metric lines are kept beside it.
fn parse_run(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|line| line.trim_start().starts_with('{'))
        .ok_or("the run printed no result line")?;
    let json = Json::parse(line.trim()).map_err(|e| format!("result line: {e}"))?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line: no {key}"))
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line: no metrics")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("result line: {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let info = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (name, value, _unit) = (words.next()?, words.next()?, words.next()?);
            if words.next().is_some() || metrics.iter().any(|(n, _)| n == name) {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok(RunResult {
        correct: json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result line: no correct")?,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        info,
    })
}

/// One side of the comparison: a revision and its built benchmark.
struct Side {
    label: &'static str,
    sha: String,
    declared: Declaration,
    executable: PathBuf,
    /// The declared program arguments, after the command's `--`.
    program_args: Vec<String>,
}

/// One benchmark run, as the ledger file records it.
struct Run {
    pair: usize,
    side: &'static str,
    /// 1 if this side ran first in its pair, else 2.
    order: usize,
    seconds: f64,
    outcome: Result<RunResult, String>,
}

/// Which side runs first in pair `pair` (counted from 1): the parent
/// on odd pairs, the change on even ones.
fn order(pair: usize) -> [usize; 2] {
    if pair % 2 == 1 {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// The worktree this run added, removed again when the run ends
/// however it ends, so the checkout's `git status` is as it was.
struct Worktree {
    repo: PathBuf,
    tree: PathBuf,
}

impl Worktree {
    /// Add a detached worktree at `tree`, replacing what an interrupted
    /// run left there.
    fn add(repo: &Path, tree: &Path, sha: &str) -> Result<Worktree, String> {
        if tree.exists() {
            let _ = git(repo, &["worktree", "remove", "--force", path_str(tree)?]);
            std::fs::remove_dir_all(tree)
                .map_err(|e| format!("removing {}: {e}", tree.display()))?;
        }
        git(repo, &["worktree", "prune"])?;
        git(repo, &["worktree", "add", "--detach", path_str(tree)?, sha])?;
        Ok(Worktree {
            repo: repo.to_path_buf(),
            tree: tree.to_path_buf(),
        })
    }

    /// Check `sha` out in the worktree, dropping what a build changed
    /// there (it may rewrite the benchmark's lock file).
    fn checkout(&self, sha: &str) -> Result<(), String> {
        git(
            &self.tree,
            &["checkout", "--quiet", "--force", "--detach", sha],
        )
        .map(drop)
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        if let Some(tree) = self.tree.to_str() {
            let _ = git(&self.repo, &["worktree", "remove", "--force", tree]);
        }
        let _ = git(&self.repo, &["worktree", "prune"]);
    }
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

/// Run `git -C repo args`, returning its trimmed standard output.
fn git(repo: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the comparison; `Ok(false)` when some run was not correct.
fn compare(args: &Args) -> Result<bool, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let repo = PathBuf::from(git(&cwd, &["rev-parse", "--show-toplevel"])?);
    let work = match &args.work_dir {
        Some(dir) => dir.clone(),
        None => repo.join("target").join("ledger"),
    };
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let work = work
        .canonicalize()
        .map_err(|e| format!("{}: {e}", work.display()))?;
    let revs = [("parent", &args.parent), ("change", &args.change)];
    let shas = revs
        .iter()
        .map(|(_, rev)| {
            git(
                &repo,
                &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let worktree = Worktree::add(&repo, &work.join("tree"), &shas[0])?;
    let mut sides = Vec::new();
    for ((label, _), sha) in revs.into_iter().zip(shas) {
        worktree.checkout(&sha)?;
        sides.push(build(
            &worktree.tree,
            &work.join(label).join("target"),
            label,
            sha,
        )?);
    }
    let workloads = if args.workloads.is_empty() {
        sides[0].declared.workloads.clone()
    } else {
        args.workloads.clone()
    };
    let gated = sides[0].declared.gated.clone();

    let mut all_correct = true;
    let mut report = Vec::new();
    for workload in &workloads {
        let (base, cap) = (args.pairs, args.cap());
        let mut runs = Vec::new();
        let mut pair = 0;
        while takes_another_pair(&gated, &runs, base, cap) {
            pair += 1;
            for (position, &s) in order(pair).iter().enumerate() {
                let run = run_once(
                    &sides[s],
                    &worktree.tree,
                    workload,
                    args,
                    pair,
                    position + 1,
                );
                let status = match &run.outcome {
                    Ok(r) if r.correct => "correct".to_string(),
                    Ok(_) => "NOT CORRECT".to_string(),
                    Err(e) => format!("FAILED: {e}"),
                };
                all_correct &= matches!(&run.outcome, Ok(r) if r.correct);
                eprintln!(
                    "[{workload} pair {pair} of {base}, up to {cap}] {} {status} ({:.1} s)",
                    run.side, run.seconds
                );
                runs.push(run);
            }
        }
        report.push((workload.clone(), runs));
    }
    drop(worktree);

    let extended = match args.max_pairs {
        Some(cap) => format!(", more while a gated metric is unresolved, up to {cap}"),
        None => String::new(),
    };
    println!(
        "parent {} · change {} · seed {} · {} pair(s) per workload{extended}{}",
        sides[0].sha,
        sides[1].sha,
        args.seed,
        args.pairs,
        if args.extra.is_empty() {
            String::new()
        } else {
            format!(" · benchmark args {}", args.extra.join(" "))
        }
    );
    println!();
    print!("{}", report::table(&gated, &report));
    if let Some(pr) = args.pr {
        let path = repo.join(format!("BENCH_PR{pr}.json"));
        std::fs::write(&path, report::ledger_json(args, &sides, &gated, &report))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if !all_correct {
        eprintln!("error: some runs were not correct; see the lines above");
    }
    Ok(all_correct)
}

/// Build the benchmark checked out at `tree` offline into `target`,
/// with the command its `BENCHMARK.json` declares.
fn build(tree: &Path, target: &Path, label: &'static str, sha: String) -> Result<Side, String> {
    let text = std::fs::read_to_string(tree.join("BENCHMARK.json"))
        .map_err(|e| format!("{label} {sha}: BENCHMARK.json: {e}"))?;
    let declared = declaration(&text).map_err(|e| format!("{label} BENCHMARK.json: {e}"))?;
    let (build, program_args) = split_command(&declared.command)
        .ok_or_else(|| format!("{label} BENCHMARK.json: the command is not `cargo run ...`"))?;
    eprintln!("building {label} {sha} ...");
    let out = Command::new(&build[0])
        .args(&build[1..])
        .arg("--message-format=json-render-diagnostics")
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", build.join(" ")))?;
    if !out.status.success() {
        return Err(format!("building {label} {sha} failed: {}", out.status));
    }
    let executable = executable(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| format!("building {label} {sha} reported no executable"))?;
    Ok(Side {
        label,
        sha,
        declared,
        executable,
        program_args,
    })
}

/// Run `side`'s benchmark once from `tree`, the checkout both sides
/// run from.
fn run_once(
    side: &Side,
    tree: &Path,
    workload: &str,
    args: &Args,
    pair: usize,
    order: usize,
) -> Run {
    let started = Instant::now();
    let output = Command::new(&side.executable)
        .args(&side.program_args)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(&args.extra)
        .current_dir(tree)
        .output();
    let seconds = started.elapsed().as_secs_f64();
    let outcome = match output {
        Err(e) => Err(format!("{}: {e}", side.executable.display())),
        Ok(out) => {
            let parsed = parse_run(&String::from_utf8_lossy(&out.stdout));
            match parsed {
                // A run that printed its result but exited non-zero is
                // still one whose result says "correct": false.
                Ok(result) => Ok(result),
                Err(e) => {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
                    Err(format!(
                        "{e} (exit {}; stderr ends: {})",
                        out.status,
                        tail.into_iter().rev().collect::<Vec<_>>().join(" / ")
                    ))
                }
            }
        }
    };
    Run {
        pair,
        side: side.label,
        order,
        seconds,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_compare_command() {
        let args = parse_args(&strings(&[
            "compare",
            "eb5e045",
            "HEAD",
            "--workload",
            "durable_write",
            "--pairs",
            "5",
            "--pr",
            "43",
            "--",
            "--smoke",
        ]))
        .unwrap();
        assert_eq!(
            (args.parent.as_str(), args.change.as_str()),
            ("eb5e045", "HEAD")
        );
        assert_eq!(args.workloads, ["durable_write"]);
        assert_eq!(
            (args.pairs, args.seed, args.pr),
            (5, DEFAULT_SEED, Some(43))
        );
        assert_eq!(args.extra, ["--smoke"]);

        for bad in [
            &["compare", "a"][..],
            &["compare", "a", "b", "c"],
            &["compare", "a", "b", "--pairs", "0"],
            &["compare", "a", "b", "--seed"],
            &["compare", "a", "b", "--fast"],
            &["diff", "a", "b"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parses_a_cap_on_added_pairs() {
        let args = parse_args(&strings(&[
            "compare",
            "a",
            "b",
            "--pairs",
            "10",
            "--max-pairs",
            "24",
        ]))
        .unwrap();
        assert_eq!((args.pairs, args.max_pairs, args.cap()), (10, Some(24), 24));
        // Without a cap, or with one below `--pairs`, no workload runs
        // past `--pairs`.
        let args = parse_args(&strings(&["compare", "a", "b", "--pairs", "12"])).unwrap();
        assert_eq!(args.cap(), 12);
        let args = parse_args(&strings(&["compare", "a", "b", "--max-pairs", "4"])).unwrap();
        assert_eq!(args.cap(), DEFAULT_PAIRS);
        for bad in [
            &["compare", "a", "b", "--max-pairs", "0"][..],
            &["compare", "a", "b", "--max-pairs", "x"],
            &["compare", "a", "b", "--max-pairs"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// Runs of one metric: pair `i` (from 1) has `parent[i - 1]` and
    /// `change[i - 1]`.
    fn runs_of(metric: &str, parent: &[f64], change: &[f64]) -> Vec<Run> {
        let run = |pair: usize, side: &'static str, value: f64| Run {
            pair,
            side,
            order: 1,
            seconds: 1.0,
            outcome: Ok(RunResult {
                correct: true,
                metrics: vec![(metric.to_string(), value)],
                ..RunResult::default()
            }),
        };
        (parent.iter().zip(change).enumerate())
            .flat_map(|(i, (&p, &c))| [run(i + 1, "parent", p), run(i + 1, "change", c)])
            .collect()
    }

    #[test]
    fn pairs_are_added_only_while_a_gated_metric_is_unresolved() {
        let gated = [Gated {
            name: "write_p50_us".to_string(),
            better: Better::Lower,
            bound: 0.15,
        }];
        // Tight on both sides: resolved ("unchanged") at 5 pairs.
        let tight = runs_of("write_p50_us", &[10.0, 10.1, 9.9, 10.0, 10.05], &[10.0; 5]);
        assert!(!takes_another_pair(&gated, &tight, 5, 20));
        // Below the base count a workload always takes another pair.
        assert!(takes_another_pair(&gated, &tight[..6], 5, 20));
        assert!(takes_another_pair(&gated, &[], 1, 1));
        // Spread wider than the bound: unresolved, so pairs are added
        // up to the cap, and not past it.
        let wide = [10.0, 14.0, 10.0, 14.0, 12.0];
        let spread = runs_of("write_p50_us", &wide, &wide);
        assert!(takes_another_pair(&gated, &spread, 5, 20));
        assert!(!takes_another_pair(&gated, &spread, 5, 5));
        let capped: Vec<f64> = wide.iter().cycle().take(20).copied().collect();
        assert!(!takes_another_pair(
            &gated,
            &runs_of("write_p50_us", &capped, &capped),
            5,
            20
        ));
        // A metric no run reported keeps nothing running.
        let other = runs_of("read_p50_us", &wide, &wide);
        assert!(!takes_another_pair(&gated, &other, 5, 20));
    }

    #[test]
    fn odd_pairs_run_the_parent_first() {
        assert_eq!(order(1), [0, 1]);
        assert_eq!(order(2), [1, 0]);
        assert_eq!(order(9), [0, 1]);
    }

    #[test]
    fn reads_the_checked_in_declaration() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let declared = declaration(text).unwrap();
        assert_eq!(declared.command[..2], ["cargo", "run"]);
        assert!(declared.workloads.iter().any(|w| w == "durable_write"));
        let read_p90 = declared
            .gated
            .iter()
            .find(|m| m.name == "read_p90_us")
            .unwrap();
        assert_eq!((read_p90.better, read_p90.bound), (Better::Lower, 0.15));
        let (build, program) = split_command(&declared.command).unwrap();
        assert_eq!(build[..2], ["cargo", "build"]);
        assert!(!build.iter().any(|a| a == "--"));
        assert!(build.iter().any(|a| a == "--offline"));
        assert!(program.is_empty());
        let (_, program) = split_command(&strings(&["cargo", "run", "--", "-v"])).unwrap();
        assert_eq!(program, ["-v"]);
        assert_eq!(split_command(&strings(&["./bench"])), None);
    }

    #[test]
    fn finds_the_executable_cargo_built() {
        let messages = "{\"reason\":\"compiler-artifact\",\"executable\":null}\n\
            not json\n\
            {\"reason\":\"compiler-artifact\",\"executable\":\"/w/target/release/bench\"}\n\
            {\"reason\":\"build-finished\",\"success\":true}\n";
        assert_eq!(
            executable(messages),
            Some(PathBuf::from("/w/target/release/bench"))
        );
        assert_eq!(executable("{\"reason\":\"build-finished\"}"), None);
    }

    #[test]
    fn reads_a_run_and_keeps_its_metric_lines() {
        let stdout = "workload: durable_write\n\
            seed: 2007\n\
            read_p90_us                                        19.512 us\n\
            e2e.read_mean_us                                   12.250 us\n\
            e2e.write_mean_us                                  14.000 us\n\
            attempted: 10\n\
            {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"read_p90_us\": {\"value\": 19.5123, \"unit\": \"us\"}}}\n";
        let run = parse_run(stdout).unwrap();
        assert!(run.correct);
        assert_eq!(run.value("read_p90_us"), Some(19.5123));
        assert_eq!(run.value("e2e.read_mean_us"), Some(12.25));
        assert_eq!(
            run.info.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["e2e.read_mean_us", "e2e.write_mean_us"]
        );
        assert!(parse_run("no result here\n").is_err());
        assert!(parse_run("{\"correct\": true}\n").is_err());
    }
}
