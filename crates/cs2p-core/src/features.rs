//! Session features and feature-set combinatorics.
//!
//! Table 2 of the paper lists the per-session features the iQiyi dataset
//! carries: client IP (we use its /16 prefix, as in the paper's Figure 4b
//! and the LM-client baseline), ISP, AS, province, city and server. The
//! clustering step (§5.1) searches over *all* `2^n` subsets of these
//! features, so features are kept schema-driven: a [`FeatureSchema`] names
//! the columns, a [`FeatureVector`] holds one session's values, and a
//! [`FeatureSet`] is a bitmask selecting a subset of columns.
//!
//! The same machinery serves the FCC-like dataset (§7.2), which has a
//! different, richer schema — nothing here hard-codes the iQiyi columns.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of features a schema may carry. The cluster search and
/// the engine's lookup index both enumerate all `2^n - 1` subsets: with
/// 200 sessions of random 4-valued columns, `ClusterFinder::new` takes
/// 0.15 s at 12 columns, 2.8 s at 16 and 16 s at 18, and
/// `PredictionEngine::from_parts` 0.02 s, 0.9 s and 12 s.
pub(crate) const MAX_FEATURES: usize = 16;

/// Width of the [`FeatureSet`] bitmask.
const MASK_BITS: usize = u32::BITS as usize;

/// Names the feature columns of a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSchema {
    names: Vec<String>,
}

impl FeatureSchema {
    /// Creates a schema from column names. Panics when empty or when more
    /// than `MAX_FEATURES` (16) columns are given.
    pub fn new<S: Into<String>>(names: Vec<S>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "schema needs at least one feature");
        assert!(
            names.len() <= MAX_FEATURES,
            "schema limited to {MAX_FEATURES} features"
        );
        FeatureSchema { names }
    }

    /// The iQiyi schema of Table 2: ClientIP /16 prefix, ISP, AS, Province,
    /// City, Server.
    pub fn iqiyi() -> Self {
        FeatureSchema::new(vec![
            "ClientIPPrefix",
            "ISP",
            "AS",
            "Province",
            "City",
            "Server",
        ])
    }

    /// Number of feature columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the schema has no columns (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a named column, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The feature set containing every column.
    pub fn full_set(&self) -> FeatureSet {
        FeatureSet::full(self.len())
    }

    /// All `2^n - 1` non-empty feature subsets, ordered by increasing
    /// popcount so more-specific sets come later (by mask within a
    /// popcount).
    pub fn all_nonempty_subsets(&self) -> Vec<FeatureSet> {
        let mut sets: Vec<FeatureSet> = (1..=self.full_set().0).map(FeatureSet).collect();
        sets.sort_unstable_by_key(|s| (s.len(), s.0));
        sets
    }
}

/// One session's feature values, aligned with a [`FeatureSchema`].
///
/// Values are opaque categorical ids (`u32`); equality is what matters,
/// not magnitude.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureVector(pub Vec<u32>);

impl FeatureVector {
    /// Number of feature values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value of column `i`.
    pub fn get(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// True when `self` and `other` agree on every column in `set`.
    pub fn matches(&self, other: &FeatureVector, set: FeatureSet) -> bool {
        debug_assert_eq!(self.len(), other.len());
        set.iter().all(|i| self.0[i] == other.0[i])
    }

    /// Projects the columns selected by `set`, in ascending column order —
    /// the cluster key for `Agg(M, s)`.
    pub fn project(&self, set: FeatureSet) -> Vec<u32> {
        set.iter().map(|i| self.0[i]).collect()
    }
}

/// A subset of feature columns, as a bitmask (bit `i` = column `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureSet(pub u32);

impl FeatureSet {
    /// The empty set (matches every session — the global model).
    pub const EMPTY: FeatureSet = FeatureSet(0);

    /// The set containing columns `0..n`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MASK_BITS);
        if n == MASK_BITS {
            FeatureSet(u32::MAX)
        } else {
            FeatureSet((1u32 << n) - 1)
        }
    }

    /// Builds a set from column indices.
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut mask = 0u32;
        for &i in indices {
            assert!(i < MASK_BITS);
            mask |= 1 << i;
        }
        FeatureSet(mask)
    }

    /// Number of selected columns.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no column is selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when column `i` is selected.
    pub fn contains(self, i: usize) -> bool {
        i < MASK_BITS && self.0 & (1 << i) != 0
    }

    /// Iterates selected column indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i
            })
        })
    }

    /// Renders the set against a schema, e.g. `{ISP, City}`.
    pub fn describe(self, schema: &FeatureSchema) -> String {
        let names: Vec<&str> = self
            .iter()
            .filter(|&i| i < schema.len())
            .map(|i| schema.names()[i].as_str())
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FeatureSet({:#b})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqiyi_schema_matches_table2() {
        let s = FeatureSchema::iqiyi();
        assert_eq!(s.len(), 6);
        assert_eq!(s.index_of("ISP"), Some(1));
        assert_eq!(s.index_of("Server"), Some(5));
        assert_eq!(s.index_of("Bogus"), None);
    }

    #[test]
    fn all_subsets_count_and_order() {
        let s = FeatureSchema::new(vec!["a", "b", "c"]);
        let subsets = s.all_nonempty_subsets();
        assert_eq!(subsets.len(), 7); // 2^3 - 1
                                      // Sorted by popcount: singletons first, full set last.
        assert_eq!(subsets[0].len(), 1);
        assert_eq!(subsets.last().unwrap().len(), 3);
        assert_eq!(*subsets.last().unwrap(), s.full_set());
    }

    #[test]
    fn feature_set_membership() {
        let set = FeatureSet::from_indices(&[0, 2, 5]);
        assert!(set.contains(0));
        assert!(!set.contains(1));
        assert!(set.contains(5));
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn matching_respects_selected_columns_only() {
        let a = FeatureVector(vec![1, 2, 3, 4]);
        let b = FeatureVector(vec![1, 9, 3, 9]);
        let set02 = FeatureSet::from_indices(&[0, 2]);
        let set01 = FeatureSet::from_indices(&[0, 1]);
        assert!(a.matches(&b, set02));
        assert!(!a.matches(&b, set01));
        assert!(a.matches(&b, FeatureSet::EMPTY));
    }

    #[test]
    fn projection_is_cluster_key() {
        let v = FeatureVector(vec![10, 20, 30, 40]);
        let set = FeatureSet::from_indices(&[1, 3]);
        assert_eq!(v.project(set), vec![20, 40]);
        assert_eq!(v.project(FeatureSet::EMPTY), Vec::<u32>::new());
    }

    #[test]
    fn describe_names_columns() {
        let s = FeatureSchema::iqiyi();
        let set = FeatureSet::from_indices(&[1, 4]);
        assert_eq!(set.describe(&s), "{ISP, City}");
    }

    #[test]
    fn full_set_of_max_width() {
        let set = FeatureSet::full(32);
        assert_eq!(set.len(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn empty_schema_panics() {
        FeatureSchema::new(Vec::<String>::new());
    }

    fn columns(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn the_widest_schema_indexes_every_subset() {
        let subsets = FeatureSchema::new(columns(MAX_FEATURES)).all_nonempty_subsets();
        assert_eq!(subsets.len(), (1 << MAX_FEATURES) - 1);
        assert_eq!(subsets[0], FeatureSet(1));
        assert_eq!(subsets.last().unwrap().len(), MAX_FEATURES);
    }

    #[test]
    #[should_panic(expected = "schema limited to 16 features")]
    fn a_schema_wider_than_the_limit_panics() {
        FeatureSchema::new(columns(MAX_FEATURES + 1));
    }
}
