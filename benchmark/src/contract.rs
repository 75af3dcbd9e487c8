//! The metric tables `BENCHMARK.json` declares, as the binary knows
//! them: the self-check needs the bounds, and a test holds the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

pub const END_TO_END: [EndToEndSpec; 8] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.15),
    e2e("read_p50_us", "us", true, 0.15),
    e2e("read_p90_us", "us", true, 0.15),
    e2e("write_p50_us", "us", true, 0.15),
    e2e("cpu_us_per_op", "us", true, 0.15),
    e2e("allocs_per_op", "1", true, 0.02),
    e2e("peak_rss_mb", "MiB", true, 0.05),
];

/// The boundaries of the ladder, bottom-up.
pub const BOUNDARIES: [&str; 7] = [
    "resolve", "core", "wal", "service", "codec", "net", "router",
];

/// `(name, unit, lower is better)` of every per-layer metric a traced
/// run reports.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out = Vec::new();
    for b in BOUNDARIES {
        for m in ["read_us", "write_us", "read_self_us", "write_self_us"] {
            out.push((format!("{b}.{m}"), "us", true));
        }
        out.push((format!("{b}.allocs_per_op"), "1", true));
    }
    let counts: [(&str, &'static str, bool); 25] = [
        ("resolve.cells_per_read", "count", true),
        ("core.view_hit_ratio", "1", false),
        ("core.qcache_hit_ratio", "1", false),
        ("core.view_patches_per_write", "count", false),
        ("core.view_rebuilds_per_write", "count", true),
        ("core.qcache_invalidations_per_write", "count", true),
        ("wal.bytes_per_write", "B", true),
        ("wal.appends_per_write", "count", true),
        ("wal.checkpoint_ms", "ms", true),
        ("wal.recover_s", "s", true),
        ("service.rung_view_share", "1", false),
        ("service.rung_cached_share", "1", false),
        ("service.rung_exact_share", "1", true),
        ("service.degraded", "count", true),
        ("service.lock_wait_us_per_op", "us", true),
        ("service.shed", "count", true),
        ("service.deadline_exceeded", "count", true),
        ("codec.request_bytes_per_op", "B", true),
        ("codec.response_bytes_per_op", "B", true),
        ("net.frames_in_per_op", "count", true),
        ("net.frames_out_per_op", "count", true),
        ("trace.overhead_pct", "%", true),
        ("e2e.read_p99_us", "us", true),
        ("e2e.read_p999_us", "us", true),
        ("e2e.write_p99_us", "us", true),
    ];
    out.extend(counts.iter().map(|&(n, u, l)| (n.to_string(), u, l)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of one array of `BENCHMARK.json`, as
    /// `(name, unit, better, bound)`. Enough of a parser for a file this
    /// package owns.
    fn section(json: &str, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[body.find('[').unwrap() + 1..];
        let body = &body[..body.find(']').unwrap()];
        let field = |obj: &str, name: &str| -> Option<String> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = obj[at..].split_once(':')?.1.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"').to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").unwrap(),
                    field(obj, "unit").unwrap(),
                    field(obj, "better").unwrap(),
                    field(obj, "bound").map(|b| b.parse().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let better = |lower: bool| if lower { "lower" } else { "higher" };

        let declared = section(&json, "end_to_end");
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    s.unit.to_string(),
                    better(s.lower_is_better).to_string(),
                    Some(s.bound),
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared = section(&json, "per_layer");
        let ours: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, l)| (n, u.to_string(), better(l).to_string(), None))
            .collect();
        assert_eq!(declared, ours);

        let names: Vec<String> = section_names(&json, "workloads");
        let ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ours);
    }

    fn section_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[body.find('[').unwrap() + 1..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = rest.split_once(':').unwrap().1.trim_start();
                rest[1..].split('"').next().unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        for s in END_TO_END {
            assert!(s.bound <= setup.bound && s.bound <= 0.25, "{}", s.name);
        }
    }
}
