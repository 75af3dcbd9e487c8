#![warn(missing_docs)]
//! Workloads for the evaluation of *"Adding Context to Preferences"*
//! (Section 5).
//!
//! The paper evaluates with (a) a real points-of-interest database of
//! Athens and Thessaloniki plus a real 522-preference profile, and (b)
//! synthetic profiles over three context parameters with controlled
//! domain sizes and value distributions. Neither real artifact is
//! available, so this crate builds faithful synthetic stand-ins (see
//! `DESIGN.md` §4 for the substitution argument):
//!
//! * [`mod@reference`] — the paper's reference hierarchies (Figures 1–2)
//!   extended to two cities, and a deterministic POI database generator.
//! * [`real_profile`] — a profile generator reproducing the published
//!   statistics of the "real profile": 522 preferences over three
//!   context parameters with active domains of 4, 17 and 100 values.
//! * [`synthetic`] — the synthetic profiles of Section 5.2: uniform or
//!   Zipf-distributed context values over parameters with 50/100/1000
//!   (or arbitrary) domain sizes, plus query generators.
//! * [`user_study`] — a simulated re-run of the Table 1 usability study
//!   with 10 simulated users derived from 12 demographic default
//!   profiles.
//! * [`streams`] — context streams (dwell blocks, random walks) for
//!   evaluating the context query tree under realistic locality.
//! * [`Zipf`] — a seedable Zipf(α) sampler (α = 0 degenerates to
//!   uniform), implemented here because `rand_distr` is not among the
//!   approved dependencies.

mod zipf;

pub mod real_profile;
pub mod reference;
pub mod streams;
pub mod synthetic;
pub mod user_study;

pub use zipf::Zipf;

/// A score in [0.05, 0.95] derived from a state/clause fingerprint —
/// identical (state, clause) pairs always score identically, so
/// generated profiles can never contain Definition-6 conflicts. An
/// FNV-1a walk over the key's words: the generated profiles, and so
/// every figure `repro` prints, derive from these scores.
pub(crate) fn deterministic_score(key: &[u32]) -> f64 {
    let mut h = ctxpref_bytes::FNV_OFFSET;
    for &k in key {
        h ^= u64::from(k).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(ctxpref_bytes::FNV_PRIME);
    }
    0.05 + (h % 91) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn deterministic_score_golden_values() {
        let scores = [&[][..], &[0], &[1, 2, 3], &[7, 0, 99, 4]].map(super::deterministic_score);
        assert_eq!(
            scores,
            [0.8400000000000001, 0.39999999999999997, 0.41, 0.19]
        );
    }
}
