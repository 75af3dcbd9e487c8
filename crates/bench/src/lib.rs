#![warn(missing_docs)]
//! Reproduction harness for the evaluation of *"Adding Context to
//! Preferences"* (Section 5).
//!
//! One module per table/figure; each returns a structured result with a
//! `render()` method (the rows/series the paper reports) and
//! `shape_checks()` — the qualitative claims that must hold even though
//! absolute numbers come from a different substrate:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — usability study |
//! | [`fig5`] | Figure 5 — profile-tree size, real profile |
//! | [`fig6`] | Figure 6 — tree size, synthetic profiles + skew sweep |
//! | [`fig7`] | Figure 7 — cell accesses during context resolution |
//! | [`complexity`] | Section 3.3 / 4.4 complexity claims |
//! | [`qcache_exp`] | Context query tree ablation (Section 7 item (b)) |
//! | [`dag_exp`] | DAG-compression ablation (shared subtrees, §3.3) |
//! | [`ties_exp`] | Distance-function tie-rate ablation (§5.1 discussion) |
//!
//! Run everything with `cargo run -p ctxpref-bench --bin repro --release -- all`.
//!
//! The `ledger` binary compares two revisions on the standing
//! benchmark in alternating pairs and prints a verdict per metric.
//!
//! The serving stack's mechanism checks live beside the code they
//! check, as tests that count fault-site hits rather than time an
//! injected delay: group commit in `ctxpref-wal`'s `wal.rs` unit tests,
//! the scrubber beside `DurableDb`'s, ack modes in
//! `crates/replication/tests/chaos.rs`, tiered shedding in
//! `crates/service/tests/overload.rs`. Wall-clock serving figures are
//! the standing benchmark's (`BENCHMARK.json`, `benchmark/`).

pub mod complexity;
pub mod dag_exp;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod qcache_exp;
pub mod table1;
pub mod tablefmt;
pub mod ties_exp;

/// A named boolean shape check ("who wins, by roughly what factor").
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Short name of the claim.
    pub name: String,
    /// Whether the measurement supports the claim.
    pub pass: bool,
    /// The measured numbers backing the verdict.
    pub detail: String,
}

impl ShapeCheck {
    /// Build a check from its parts.
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// Render shape checks as `[PASS]` / `[FAIL]` lines.
pub fn render_checks(checks: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    out
}
