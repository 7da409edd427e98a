//! A list that holds one element inline.
//!
//! The served path's lists are mostly of one: a key select's one match,
//! a one-object change-set, a one-key transaction's one argument.
//! [`OneOrMany`] holds such a list inside itself, with no allocation,
//! and any other count in one vector, so it costs what a `Vec` costs
//! only when there is more than one element.

/// A list of `T`: one element inline, any other count in one vector,
/// which never holds exactly one. Derefs to the slice; equality,
/// order, hashing and `Debug` read the elements alone, as a `Vec`'s do.
#[derive(Clone)]
pub struct OneOrMany<T>(Repr<T>);

/// The two forms of a [`OneOrMany`]; its length alone picks the form.
#[derive(Clone)]
enum Repr<T> {
    One(T),
    /// No element, or at least two.
    Many(Vec<T>),
}

impl<T> Default for OneOrMany<T> {
    fn default() -> Self {
        OneOrMany(Repr::Many(Vec::new()))
    }
}

impl<T> OneOrMany<T> {
    /// Whether the list keeps its element inline.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::One(_))
    }

    /// Append `x`: a second element moves both into a vector.
    pub fn push(&mut self, x: T) {
        self.0 = match std::mem::take(self).0 {
            Repr::Many(v) if v.is_empty() => Repr::One(x),
            Repr::One(held) => Repr::Many(vec![held, x]),
            Repr::Many(mut v) => {
                v.push(x);
                Repr::Many(v)
            }
        };
    }

    /// Keep the first of each run of elements with equal keys.
    pub fn dedup_by_key<K: PartialEq>(&mut self, key: impl FnMut(&mut T) -> K) {
        if let Repr::Many(v) = &mut self.0 {
            v.dedup_by_key(key);
            if v.len() == 1 {
                self.0 = Repr::One(v.pop().expect("one element"));
            }
        }
    }
}

impl<T> From<Vec<T>> for OneOrMany<T> {
    fn from(mut v: Vec<T>) -> Self {
        if v.len() == 1 {
            OneOrMany(Repr::One(v.pop().expect("one element")))
        } else {
            OneOrMany(Repr::Many(v))
        }
    }
}

impl<T> FromIterator<T> for OneOrMany<T> {
    /// Collects one element without a vector.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else { return OneOrMany::default() };
        let Some(second) = iter.next() else { return OneOrMany(Repr::One(first)) };
        OneOrMany(Repr::Many([first, second].into_iter().chain(iter).collect()))
    }
}

impl<T> std::ops::Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::One(x) => std::slice::from_ref(x),
            Repr::Many(v) => v,
        }
    }
}

impl<T> std::ops::DerefMut for OneOrMany<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::One(x) => std::slice::from_mut(x),
            Repr::Many(v) => v,
        }
    }
}

impl<T: PartialEq> PartialEq for OneOrMany<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for OneOrMany<T> {}

impl<T: PartialOrd> PartialOrd for OneOrMany<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord> Ord for OneOrMany<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: std::hash::Hash> std::hash::Hash for OneOrMany<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OneOrMany<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every way to build a list agrees with the vector of the same
    /// elements, and one element is inline whichever way it came.
    #[test]
    fn forms_agree_with_a_vec() {
        for n in 0..5u32 {
            let v: Vec<u32> = (0..n).collect();
            let collected: OneOrMany<u32> = v.iter().copied().collect();
            let mut pushed = OneOrMany::default();
            v.iter().for_each(|&x| pushed.push(x));
            for list in [collected, pushed, OneOrMany::from(v.clone())] {
                assert_eq!(*list, *v);
                assert_eq!(list.is_inline(), n == 1);
                assert_eq!(format!("{list:?}"), format!("{v:?}"));
            }
        }
        let mut runs: OneOrMany<u32> = [7, 7, 7].into_iter().collect();
        runs.dedup_by_key(|x| *x);
        assert!(runs.is_inline() && *runs == [7]);
        let (one, two): (OneOrMany<u32>, OneOrMany<u32>) = (vec![1].into(), vec![1, 2].into());
        assert!(one < two && one != two && one == [1].into_iter().collect());
    }
}
