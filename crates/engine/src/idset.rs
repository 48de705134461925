//! Dense entity-id sets.
//!
//! Entity ids are small dense integers (positions in the store's entity
//! array), so the sets the executor passes around — ids satisfying a
//! variable's predicate, ids bound by earlier patterns — are bitmaps:
//! membership is one word load (it is tested per scanned event), building
//! one from a column of bindings is a pass of bit-ors, and iteration is
//! ascending, hence deterministic.

use threatraptor_audit::entity::EntityId;

/// A set of entity ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Adds `id`; returns whether it was new.
    pub fn insert(&mut self, id: EntityId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(new);
        new
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: EntityId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    EntityId((i * 64) as u32 + bit)
                })
            })
        })
    }
}

impl FromIterator<EntityId> for IdSet {
    fn from_iter<I: IntoIterator<Item = EntityId>>(iter: I) -> IdSet {
        let mut set = IdSet::default();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_len() {
        let mut s = IdSet::default();
        assert!(s.is_empty());
        assert!(!s.contains(EntityId(0)));
        assert!(s.insert(EntityId(130)));
        assert!(!s.insert(EntityId(130)));
        assert!(s.insert(EntityId(0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(EntityId(130)) && s.contains(EntityId(0)));
        assert!(!s.contains(EntityId(129)) && !s.contains(EntityId(100_000)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![EntityId(0), EntityId(130)]
        );
    }

    proptest! {
        /// Agrees with an ordered set on membership, size and order.
        #[test]
        fn agrees_with_btreeset(ids in prop::collection::vec(0u32..600, 0..80)) {
            let set: IdSet = ids.iter().map(|&i| EntityId(i)).collect();
            let want: BTreeSet<u32> = ids.iter().copied().collect();
            prop_assert_eq!(set.len(), want.len());
            prop_assert_eq!(
                set.iter().map(|e| e.0).collect::<Vec<_>>(),
                want.iter().copied().collect::<Vec<_>>()
            );
            for probe in 0..600 {
                prop_assert_eq!(set.contains(EntityId(probe)), want.contains(&probe));
            }
        }
    }
}
