//! How one metric compares across alternating pairs of runs, and the
//! verdict the rules give it.
//!
//! * **better** — the change wins at least nine tenths of the pairs
//!   (ties count for neither side), and its median beats the parent's
//!   by more than the parent's interquartile range;
//! * **worse** — the change's median is worse than the parent's by
//!   more than the metric's bound (a share of the parent median) and
//!   by more than the parent's interquartile range;
//! * **unresolved** — neither, and either side's interquartile range
//!   is wider than the bound, so "unchanged" cannot be told; also
//!   every verdict drawn from fewer than [`MIN_PAIRS`] pairs, whose
//!   quartiles say nothing;
//! * **unchanged** — otherwise.

/// Fewer pairs than this give no verdict but "unresolved".
pub(crate) const MIN_PAIRS: usize = 5;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Spread {
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
}

impl Spread {
    /// Quartiles by linear interpolation between closest ranks; `None`
    /// for an empty sample.
    pub(crate) fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Some(Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        })
    }

    pub(crate) fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// One metric over the pairs of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Comparison {
    pub(crate) parent: Spread,
    pub(crate) change: Spread,
    /// Pairs in which both runs reported the metric.
    pub(crate) pairs: usize,
    /// Pairs the change won and lost; ties count for neither.
    pub(crate) won: usize,
    pub(crate) lost: usize,
    pub(crate) verdict: Verdict,
}

impl Comparison {
    /// Compare `(parent, change)` pairs of one metric. `None` when no
    /// pair has both values.
    pub(crate) fn of(pairs: &[(f64, f64)], better: Better, bound: f64) -> Option<Comparison> {
        let parent = Spread::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())?;
        let change = Spread::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>())?;
        // How much better the change is, in the metric's own unit.
        let gain = |p: f64, c: f64| match better {
            Better::Lower => p - c,
            Better::Higher => c - p,
        };
        let won = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
        let lost = pairs.iter().filter(|&&(p, c)| gain(p, c) < 0.0).count();
        let median_gain = gain(parent.median, change.median);
        let share = |x: f64| {
            if parent.median != 0.0 {
                x / parent.median.abs()
            } else if x == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        };
        // Nine tenths of the pairs, rounded up: 9 of 10, 5 of 5.
        let needed = (pairs.len() * 9).div_ceil(10);
        let verdict = if pairs.len() < MIN_PAIRS {
            Verdict::Unresolved
        } else if won >= needed && median_gain > parent.iqr() {
            Verdict::Better
        } else if share(-median_gain) > bound && -median_gain > parent.iqr() {
            Verdict::Worse
        } else if share(parent.iqr().max(change.iqr())) > bound {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
        Some(Comparison {
            parent,
            change,
            pairs: pairs.len(),
            won,
            lost,
            verdict,
        })
    }

    /// The change's median relative to the parent's, as a signed share.
    pub(crate) fn delta(&self) -> f64 {
        (self.change.median - self.parent.median) / self.parent.median.abs()
    }

    /// The parent's interquartile range as a share of its median.
    pub(crate) fn parent_iqr_share(&self) -> f64 {
        self.parent.iqr() / self.parent.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(Spread::of(&[7.0]).unwrap().iqr(), 0.0);
        assert_eq!(Spread::of(&[]), None);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_parent_spread() {
        let parent = [27.0, 26.5, 26.8, 27.2, 26.6, 26.9, 27.1, 26.7, 27.0, 26.8];
        let change = [19.5, 19.2, 19.8, 19.4, 19.6, 19.3, 19.7, 19.5, 19.4, 19.6];
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.15).unwrap();
        assert_eq!((c.won, c.lost, c.verdict), (10, 0, Verdict::Better));
        assert!((c.delta() + 0.2737).abs() < 1e-3, "{}", c.delta());

        // One more pair lost: 8 of 10 is not enough.
        let mut change = change;
        change[0] = 28.0;
        change[1] = 28.0;
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.15).unwrap();
        assert_eq!((c.won, c.lost), (8, 2));
        assert_ne!(c.verdict, Verdict::Better);

        // Every pair won, but by less than the parent's own spread.
        let parent = [10.0, 14.0, 10.0, 14.0, 12.0];
        let change = [9.9, 13.9, 9.9, 13.9, 11.9];
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.5).unwrap();
        assert_eq!(c.won, 5);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_counts_the_other_way() {
        let parent = [100.0, 101.0, 99.0, 100.5, 100.2];
        let change = [113.0, 114.0, 112.0, 113.5, 113.2];
        let c = Comparison::of(&pairs(&parent, &change), Better::Higher, 0.15).unwrap();
        assert_eq!(c.verdict, Verdict::Better);
        let c = Comparison::of(&pairs(&change, &parent), Better::Higher, 0.10).unwrap();
        assert_eq!((c.won, c.lost, c.verdict), (0, 5, Verdict::Worse));
        // Beyond the parent's spread but inside the bound: no verdict
        // either way.
        let c = Comparison::of(&pairs(&change, &parent), Better::Higher, 0.15).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let parent = [10.0, 13.0, 10.5, 12.5, 11.0];
        let change = [10.2, 12.8, 10.6, 12.4, 11.1];
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.15).unwrap();
        assert!(c.parent_iqr_share() > 0.15);
        assert_eq!(c.verdict, Verdict::Unresolved);
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.25).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn too_few_pairs_give_no_verdict() {
        let parent = [27.0, 26.5, 26.8, 27.2];
        let change = [19.5, 19.2, 19.8, 19.4];
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.15).unwrap();
        assert_eq!((c.won, c.verdict), (4, Verdict::Unresolved));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = [32.5, 32.5, 32.5, 32.5, 32.5];
        let c = Comparison::of(&pairs(&same, &same), Better::Lower, 0.02).unwrap();
        assert_eq!((c.won, c.lost, c.verdict), (0, 0, Verdict::Unchanged));
        assert_eq!(c.delta(), 0.0);
    }

    #[test]
    fn a_worse_median_past_the_bound_is_worse() {
        let parent = [40.0, 40.1, 39.9, 40.0, 40.2];
        let change = [40.9, 41.0, 40.8, 40.9, 41.1];
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.02).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        let c = Comparison::of(&pairs(&parent, &change), Better::Lower, 0.05).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }
}
