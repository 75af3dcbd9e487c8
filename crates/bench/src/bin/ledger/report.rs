//! What a comparison prints and writes: the CHANGES.md table and the
//! ledger file.

use std::fmt::Write as _;

use crate::json;
use crate::verdict::{Better, Comparison};
use crate::{Args, Gated, Run, Side};

/// A table column: a gated metric, or a raw mean shown beside the
/// last percentile of its kind.
enum Column<'a> {
    Gated(&'a Gated),
    Mean(String),
}

fn columns(gated: &[Gated]) -> Vec<Column<'_>> {
    let mut columns = Vec::new();
    for (i, metric) in gated.iter().enumerate() {
        columns.push(Column::Gated(metric));
        for kind in ["read", "write"] {
            let of_kind = |m: &Gated| m.name.starts_with(kind) && m.name.ends_with("_us");
            if of_kind(metric) && !gated[i + 1..].iter().any(of_kind) {
                columns.push(Column::Mean(format!("e2e.{kind}_mean_us")));
            }
        }
    }
    columns
}

/// The `(parent, change)` values of `metric` in every pair where both
/// runs reported it.
pub(crate) fn pairs_of(runs: &[Run], metric: &str) -> Vec<(f64, f64)> {
    let value = |pair: usize, side: &str| {
        runs.iter()
            .find(|r| r.pair == pair && r.side == side)
            .and_then(|r| r.outcome.as_ref().ok())
            .and_then(|r| r.value(metric))
    };
    let last = runs.iter().map(|r| r.pair).max().unwrap_or(0);
    (1..=last)
        .filter_map(|pair| Some((value(pair, "parent")?, value(pair, "change")?)))
        .collect()
}

fn comparison(runs: &[Run], column: &Column<'_>) -> Option<Comparison> {
    match column {
        Column::Gated(m) => Comparison::of(&pairs_of(runs, &m.name), m.better, m.bound),
        // A mean is shown, not gated: the cell prints no verdict.
        Column::Mean(name) => Comparison::of(&pairs_of(runs, name), Better::Lower, f64::INFINITY),
    }
}

/// A median as the table shows it.
fn shown(v: f64) -> String {
    if v.abs() >= 1000.0 {
        let digits = format!("{:.0}", v.abs());
        let mut grouped = String::new();
        for (i, c) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i) % 3 == 0 {
                grouped.push(',');
            }
            grouped.push(c);
        }
        format!("{}{grouped}", if v < 0.0 { "-" } else { "" })
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// One table cell: `parent → change (Δ; parent IQR %; won/pairs;
/// verdict)`.
fn cell(c: &Comparison, gated: bool) -> String {
    let mut s = format!(
        "{} → {} ({:+.1} %; {:.1}; {}/{}",
        shown(c.parent.median),
        shown(c.change.median),
        100.0 * c.delta(),
        100.0 * c.parent_iqr_share(),
        c.won,
        c.pairs
    );
    if gated {
        let _ = write!(s, "; {}", c.verdict.as_str());
    }
    s.push(')');
    s
}

/// The CHANGES.md table: one row per workload, one column per metric.
pub(crate) fn table(gated: &[Gated], report: &[(String, Vec<Run>)]) -> String {
    let columns = columns(gated);
    let mut out = String::from("| workload (pairs) |");
    for column in &columns {
        match column {
            Column::Gated(m) => {
                let _ = write!(out, " {} |", m.name);
            }
            Column::Mean(name) => {
                let _ = write!(out, " {name} |");
            }
        }
    }
    out.push_str("\n|---|");
    out.push_str(&"---|".repeat(columns.len()));
    out.push('\n');
    for (workload, runs) in report {
        let pairs = runs.iter().map(|r| r.pair).max().unwrap_or(0);
        let _ = write!(out, "| {workload} ({pairs}) |");
        for column in &columns {
            let text = comparison(runs, column)
                .map(|c| cell(&c, matches!(column, Column::Gated(_))))
                .unwrap_or_else(|| "—".to_string());
            let _ = write!(out, " {text} |");
        }
        out.push('\n');
    }
    out.push_str(
        "\nEach cell: parent median → change median (change in the median; parent IQR as % of \
         its median; pairs the change won; verdict).\n",
    );
    out
}

fn numbers(values: &[(String, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| format!("{}: {}", json::quote(name), json::number(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every raw run and verdict, as the file a PR commits. A verdict's
/// `parent` and `change` are `[q1, median, q3]` over the pairs.
pub(crate) fn ledger_json(
    args: &Args,
    sides: &[Side],
    gated: &[Gated],
    report: &[(String, Vec<Run>)],
) -> String {
    let strings = |items: &[String]| {
        let quoted: Vec<String> = items.iter().map(|s| json::quote(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"parent\": {},", json::quote(&sides[0].sha));
    let _ = writeln!(out, "  \"change\": {},", json::quote(&sides[1].sha));
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"pairs\": {},", args.pairs);
    if let Some(cap) = args.max_pairs {
        let _ = writeln!(out, "  \"max_pairs\": {cap},");
    }
    let _ = writeln!(
        out,
        "  \"command\": {},",
        strings(&sides[1].declared.command)
    );
    let _ = writeln!(out, "  \"benchmark_args\": {},", strings(&args.extra));
    out.push_str("  \"workloads\": [");
    for (w, (workload, runs)) in report.iter().enumerate() {
        out.push_str(if w == 0 { "\n" } else { ",\n" });
        let pairs = runs.iter().map(|r| r.pair).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "    {{\"workload\": {}, \"pairs\": {pairs},",
            json::quote(workload)
        );
        out.push_str("     \"verdicts\": {");
        let mut first = true;
        for metric in gated {
            let Some(c) =
                Comparison::of(&pairs_of(runs, &metric.name), metric.better, metric.bound)
            else {
                continue;
            };
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let _ = write!(
                out,
                "       {}: {{\"better\": \"{better}\", \"bound\": {}, \"parent\": [{}, {}, {}], \"change\": [{}, {}, {}], \"pairs\": {}, \"won\": {}, \"lost\": {}, \"verdict\": \"{}\"}}",
                json::quote(&metric.name),
                json::number(metric.bound),
                json::number(c.parent.q1),
                json::number(c.parent.median),
                json::number(c.parent.q3),
                json::number(c.change.q1),
                json::number(c.change.median),
                json::number(c.change.q3),
                c.pairs,
                c.won,
                c.lost,
                c.verdict.as_str()
            );
        }
        out.push_str("},\n     \"runs\": [");
        for (i, run) in runs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "       {{\"pair\": {}, \"side\": \"{}\", \"order\": {}, \"seconds\": {}, ",
                run.pair,
                run.side,
                run.order,
                json::number(run.seconds)
            );
            match &run.outcome {
                Ok(r) => {
                    let _ = write!(
                        out,
                        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {}}}",
                        r.correct,
                        json::number(r.attempted),
                        json::number(r.failed),
                        numbers(&r.metrics),
                        numbers(&r.info)
                    );
                }
                Err(e) => {
                    let _ = write!(out, "\"correct\": false, \"error\": {}}}", json::quote(e));
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declaration;

    #[test]
    fn means_sit_beside_the_last_percentile_of_their_kind() {
        let declared = declaration(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names: Vec<String> = columns(&declared.gated)
            .iter()
            .map(|c| match c {
                Column::Gated(m) => m.name.clone(),
                Column::Mean(name) => name.clone(),
            })
            .collect();
        let at = |name: &str| names.iter().position(|n| n == name).unwrap();
        assert_eq!(at("e2e.read_mean_us"), at("read_p90_us") + 1);
        assert_eq!(at("e2e.write_mean_us"), at("write_p50_us") + 1);
        assert_eq!(names.len(), declared.gated.len() + 2);
    }

    #[test]
    fn the_ledger_file_records_the_pairs_each_workload_ran() {
        let args = crate::parse_args(
            &["compare", "p", "c", "--pairs", "5", "--max-pairs", "7"].map(String::from),
        )
        .unwrap();
        let side = |label| Side {
            label,
            sha: label.to_string(),
            declared: declaration(include_str!("../../../../../BENCHMARK.json")).unwrap(),
            executable: "bench".into(),
            program_args: Vec::new(),
        };
        let run = |pair, side| Run {
            pair,
            side,
            order: 1,
            seconds: 1.0,
            outcome: Err("not run".to_string()),
        };
        let runs = |pairs| {
            (1..=pairs)
                .flat_map(|p| [run(p, "parent"), run(p, "change")])
                .collect()
        };
        let report = [("a".to_string(), runs(5)), ("b".to_string(), runs(7))];
        let sides = [side("parent"), side("change")];
        let text = ledger_json(&args, &sides, &sides[0].declared.gated, &report);
        let parsed = json::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("pairs").and_then(json::Json::as_f64), Some(5.0));
        assert_eq!(
            parsed.get("max_pairs").and_then(json::Json::as_f64),
            Some(7.0)
        );
        let workloads = parsed
            .get("workloads")
            .and_then(json::Json::as_array)
            .unwrap();
        let pairs: Vec<_> = (workloads.iter())
            .map(|w| w.get("pairs").and_then(json::Json::as_f64))
            .collect();
        assert_eq!(pairs, [Some(5.0), Some(7.0)]);
    }

    #[test]
    fn cells_show_medians_spread_wins_and_verdict() {
        let c = Comparison::of(
            &[
                (26.0, 19.0),
                (27.0, 20.0),
                (26.5, 19.5),
                (26.5, 19.6),
                (26.4, 19.4),
            ],
            Better::Lower,
            0.15,
        )
        .unwrap();
        assert_eq!(cell(&c, true), "26.50 → 19.50 (-26.4 %; 0.4; 5/5; better)");
        assert_eq!(shown(52028.4), "52,028");
        assert_eq!(shown(1234567.0), "1,234,567");
        assert_eq!(shown(2.1474), "2.147");
    }
}
