//! Property-based tests over the core clustering and prediction machinery.

use cs2p_core::cluster::{ClusterConfig, ClusterFinder, ClusterSpec};
use cs2p_core::features::{FeatureSchema, FeatureSet, FeatureVector};
use cs2p_core::{ClusterModel, Dataset, PredictionEngine, Provenance, Session, TimeWindow};
use proptest::prelude::*;

/// Strategy: a small dataset of sessions over a 2-feature schema.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            0u32..4,       // feature a
            0u32..3,       // feature b
            0u64..100_000, // start time
            prop::collection::vec(0.05f64..30.0, 1..20),
        ),
        1..60,
    )
    .prop_map(|rows| {
        let schema = FeatureSchema::new(vec!["a", "b"]);
        let sessions = rows
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, t, tp))| Session::new(i as u64, FeatureVector(vec![a, b]), t, 6, tp))
            .collect();
        Dataset::new(schema, sessions)
    })
}

proptest! {
    #[test]
    fn feature_set_iteration_roundtrips(indices in prop::collection::btree_set(0usize..16, 0..8)) {
        let v: Vec<usize> = indices.iter().copied().collect();
        let set = FeatureSet::from_indices(&v);
        let back: Vec<usize> = set.iter().collect();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn matching_is_reflexive_and_projection_consistent(
        values in prop::collection::vec(0u32..50, 1..8),
        mask in 0u32..256
    ) {
        let fv = FeatureVector(values.clone());
        let set = FeatureSet(mask & ((1 << values.len()) - 1));
        prop_assert!(fv.matches(&fv, set));
        // Two vectors match on `set` iff their projections are equal.
        let mut other = values.clone();
        if !other.is_empty() {
            other[0] ^= 1;
        }
        let ov = FeatureVector(other);
        prop_assert_eq!(
            fv.matches(&ov, set),
            fv.project(set) == ov.project(set)
        );
    }

    #[test]
    fn aggregate_members_always_match_and_precede(d in arb_dataset(), mask in 0u32..4, t in 0u64..120_000) {
        let cfg = ClusterConfig {
            min_cluster_size: 1,
            candidate_windows: vec![TimeWindow::All],
            ..Default::default()
        };
        let finder = ClusterFinder::new(&d, cfg);
        let target = FeatureVector(vec![1, 1]);
        let spec = ClusterSpec {
            set: FeatureSet(mask & 0b11),
            window: TimeWindow::All,
        };
        for i in finder.aggregate(spec, &target, t) {
            let s = d.get(i);
            prop_assert!(s.start_time < t);
            prop_assert!(s.features.matches(&target, spec.set));
        }
    }

    #[test]
    fn estimation_pool_is_sorted_recent_first(d in arb_dataset(), t in 1u64..150_000) {
        let finder = ClusterFinder::new(&d, ClusterConfig::default());
        let target = d.get(0).features.clone();
        let pool = finder.estimation_pool(&target, t);
        let times: Vec<u64> = pool.iter().map(|&i| d.get(i).start_time).collect();
        prop_assert!(times.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(times.iter().all(|&x| x < t));
    }

    #[test]
    fn find_best_spec_cluster_meets_threshold_or_falls_back(
        d in arb_dataset(),
        min in 1usize..20
    ) {
        let cfg = ClusterConfig {
            min_cluster_size: min,
            candidate_windows: vec![TimeWindow::All],
            ..Default::default()
        };
        let finder = ClusterFinder::new(&d, cfg);
        let target = d.get(0).features.clone();
        let result = finder.find_best_spec(&target, 200_000);
        if !result.used_global_fallback {
            prop_assert!(
                result.cluster_size >= min,
                "spec {:?} cluster {} < min {}",
                result.spec,
                result.cluster_size,
                min
            );
        } else {
            prop_assert_eq!(result.spec, ClusterSpec::GLOBAL);
        }
    }

    #[test]
    fn error_summary_values_are_ordered(
        sessions in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 1..20), 1..30)
    ) {
        if let Some(s) = cs2p_core::ErrorSummary::from_sessions(&sessions) {
            prop_assert!(s.median_of_median <= s.p75_of_median + 1e-12);
            prop_assert!(s.p75_of_median <= s.p90_of_median + 1e-12);
            prop_assert!(s.median_of_median <= s.median_of_p90 + 1e-12);
            prop_assert!(s.n_sessions <= sessions.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Most-similar lookup against the index it replaced
// ---------------------------------------------------------------------------

/// The engine's first lookup index, kept here as the oracle: every combo
/// filed under every non-empty subset with its projected values as a
/// heap-allocated key, a shared key going to the combo whose model rests
/// on strictly more sessions.
struct VecKeyedIndex<'a> {
    combos: &'a [(FeatureVector, Option<usize>)],
    index: std::collections::HashMap<(FeatureSet, Vec<u32>), usize>,
    subset_order: Vec<FeatureSet>,
}

impl<'a> VecKeyedIndex<'a> {
    fn new(
        width: usize,
        combos: &'a [(FeatureVector, Option<usize>)],
        model_sessions: &[usize],
        global_sessions: usize,
    ) -> Self {
        let schema = FeatureSchema::new((0..width).map(|i| format!("f{i}")).collect());
        let mut subset_order = schema.all_nonempty_subsets();
        subset_order.sort_by_key(|s| std::cmp::Reverse(s.len()));
        let reliability = |mi: Option<usize>| mi.map_or(global_sessions, |i| model_sessions[i]);
        let mut index = std::collections::HashMap::new();
        for (ci, (features, mi)) in combos.iter().enumerate() {
            for &set in &subset_order {
                let slot = index.entry((set, features.project(set))).or_insert(ci);
                if reliability(*mi) > reliability(combos[*slot].1) {
                    *slot = ci;
                }
            }
        }
        VecKeyedIndex {
            combos,
            index,
            subset_order,
        }
    }

    /// `(model_index, provenance)` for `features`.
    fn lookup(&self, features: &FeatureVector) -> (Option<usize>, Provenance) {
        self.subset_order
            .iter()
            .find_map(|&set| self.index.get(&(set, features.project(set))))
            .and_then(|&ci| self.combos[ci].1)
            .map_or((None, Provenance::Global), |mi| {
                (Some(mi), Provenance::Cluster)
            })
    }
}

/// A cluster model resting on `n_sessions` sessions (the HMM is a
/// placeholder: lookup never reads it).
fn placeholder_model(n_sessions: usize) -> ClusterModel {
    use cs2p_ml::gaussian::Gaussian;
    use cs2p_ml::hmm::{Emission, Hmm};
    use cs2p_ml::matrix::Matrix;
    ClusterModel {
        spec: ClusterSpec::GLOBAL,
        key: vec![],
        initial_median: 1.0,
        hmm: Hmm::new(
            vec![1.0],
            Matrix::from_rows(&[vec![1.0]]),
            vec![Emission::Gaussian(Gaussian::new(1.0, 0.5))],
        ),
        n_sessions,
    }
}

/// `(width, combos (possibly repeating a vector), per-model sessions,
/// global sessions, queries)`. Values come from a three-letter alphabet,
/// so combos share projections on most subsets; session counts come from
/// three values, so shared keys often tie; queries draw a fourth letter
/// no combo has, so some match only partly or not at all. One width in
/// nine is the wider schema of 11 features.
#[allow(clippy::type_complexity)]
fn arb_lookup_case(
) -> impl Strategy<Value = (usize, Vec<(Vec<u32>, u8)>, Vec<usize>, usize, Vec<Vec<u32>>)> {
    (0usize..9)
        .prop_map(|w| if w == 0 { 11 } else { w })
        .prop_flat_map(|width| {
            (
                Just(width),
                prop::collection::vec((prop::collection::vec(0u32..3, width), 0u8..6), 1..24),
                prop::collection::vec((1usize..4).prop_map(|k| 10 * k), 4),
                (1usize..4).prop_map(|k| 10 * k),
                prop::collection::vec(prop::collection::vec(0u32..4, width), 1..16),
            )
        })
}

proptest! {
    /// The fingerprint index answers every query exactly as the
    /// `Vec`-keyed index did: same model index, same provenance, on
    /// trained combos, partial matches and total misses. A repeated full
    /// feature vector is still rejected.
    #[test]
    fn fingerprint_lookup_matches_the_vec_keyed_index(case in arb_lookup_case()) {
        let (width, raw, model_sessions, global_sessions, queries) = case;
        // Choices 4 and 5 send the combo to the global model.
        let combos: Vec<(FeatureVector, Option<usize>)> = raw
            .into_iter()
            .map(|(values, choice)| (FeatureVector(values), (choice < 4).then_some(choice as usize)))
            .collect();
        let build = |combos: Vec<(FeatureVector, Option<usize>)>| {
            PredictionEngine::from_parts(
                FeatureSchema::new((0..width).map(|i| format!("f{i}")).collect()),
                model_sessions.iter().map(|&n| placeholder_model(n)).collect(),
                placeholder_model(global_sessions),
                combos,
            )
        };

        let mut unique = combos.clone();
        let mut seen = std::collections::HashSet::new();
        unique.retain(|(features, _)| seen.insert(features.clone()));
        if unique.len() < combos.len() {
            let rejected = std::panic::catch_unwind(|| build(combos.clone()));
            prop_assert!(rejected.is_err(), "a repeated combo was accepted");
        }

        let oracle = VecKeyedIndex::new(width, &unique, &model_sessions, global_sessions);
        let engine = build(unique.clone());
        let unmatched = FeatureVector(vec![u32::MAX; width]);
        let probes = unique
            .iter()
            .map(|(features, _)| features.clone())
            .chain(queries.into_iter().map(FeatureVector))
            .chain([unmatched]);
        for query in probes {
            let got = engine.lookup_detailed(&query);
            prop_assert_eq!(
                (got.model_index, got.provenance),
                oracle.lookup(&query),
                "query {:?}",
                query
            );
        }
    }
}
