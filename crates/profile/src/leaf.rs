//! The leaf level of the profile tree: its entries, and how a leaf
//! holds them.

use crate::preference::AttributeClause;

/// One `[attribute θ value, interest_score]` entry of a leaf node.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// The attribute clause `A θ a`.
    pub clause: AttributeClause,
    /// The interest score in `[0, 1]`.
    pub score: f64,
}

/// The entries of one leaf. Most leaves hold one entry for good, so a
/// lone entry sits in the leaf's arena slot itself: a new leaf
/// allocates nothing, and only a second entry moves them to a `Vec`.
/// An empty leaf (a new or freed slot) is an empty `Many`.
#[derive(Debug, Clone)]
pub(crate) enum Leaf {
    One(LeafEntry),
    Many(Vec<LeafEntry>),
}

impl Leaf {
    pub(crate) const EMPTY: Leaf = Leaf::Many(Vec::new());

    pub(crate) fn entries(&self) -> &[LeafEntry] {
        match self {
            Self::One(entry) => std::slice::from_ref(entry),
            Self::Many(entries) => entries,
        }
    }

    pub(crate) fn entries_mut(&mut self) -> &mut [LeafEntry] {
        match self {
            Self::One(entry) => std::slice::from_mut(entry),
            Self::Many(entries) => entries,
        }
    }

    pub(crate) fn push(&mut self, entry: LeafEntry) {
        match self {
            Self::Many(entries) if !entries.is_empty() => entries.push(entry),
            Self::Many(_) => *self = Self::One(entry),
            Self::One(_) => {
                let Self::One(first) = std::mem::replace(self, Self::EMPTY) else {
                    unreachable!("matched above")
                };
                *self = Self::Many(vec![first, entry]);
            }
        }
    }

    /// Remove the entry at `i`, moving the last entry into its place as
    /// `Vec::swap_remove` does; a single survivor goes back inline.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        match self {
            Self::One(_) => *self = Self::EMPTY,
            Self::Many(entries) => {
                entries.swap_remove(i);
                if entries.len() == 1 {
                    let last = entries.pop().expect("one entry");
                    *self = Self::One(last);
                }
            }
        }
    }
}

impl From<&[LeafEntry]> for Leaf {
    fn from(entries: &[LeafEntry]) -> Self {
        match entries {
            [entry] => Self::One(entry.clone()),
            _ => Self::Many(entries.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use ctxpref_relation::AttrId;

    use super::*;

    fn entry(score: f64) -> LeafEntry {
        LeafEntry {
            clause: AttributeClause::eq(AttrId(0), "park".into()),
            score,
        }
    }

    fn scores(leaf: &Leaf) -> Vec<f64> {
        leaf.entries().iter().map(|e| e.score).collect()
    }

    #[test]
    fn a_lone_entry_sits_inline_and_a_second_moves_both_to_a_vec() {
        // The `Vec` fits beside the entry's niche: a slot costs no more
        // than the one entry most leaves hold.
        assert_eq!(size_of::<Leaf>(), size_of::<LeafEntry>());
        let mut leaf = Leaf::EMPTY;
        assert!(leaf.entries().is_empty());
        leaf.push(entry(0.1));
        assert!(matches!(leaf, Leaf::One(_)));
        leaf.push(entry(0.2));
        leaf.push(entry(0.3));
        assert_eq!(scores(&leaf), [0.1, 0.2, 0.3]);
        leaf.entries_mut()[1].score = 0.25;
        // `swap_remove` moves the last entry into the gap, as `Vec`'s.
        leaf.swap_remove(0);
        assert_eq!(scores(&leaf), [0.3, 0.25]);
        leaf.swap_remove(1);
        assert!(
            matches!(leaf, Leaf::One(_)),
            "a lone survivor goes back inline"
        );
        assert_eq!(scores(&leaf), [0.3]);
        leaf.swap_remove(0);
        assert!(leaf.entries().is_empty());
        assert_eq!(scores(&Leaf::from(&[entry(0.4)][..])), [0.4]);
        assert!(matches!(Leaf::from(&[entry(0.4)][..]), Leaf::One(_)));
    }
}
