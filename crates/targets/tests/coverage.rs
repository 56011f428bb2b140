//! `Coverage` against a reference model: every method and `FromIterator`
//! must agree with a plain ordered set of line numbers, whatever size the
//! bitmap was created with and however far past that size lines land.

use glade_targets::Coverage;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// How a coverage set is created before its lines are recorded: unsized,
/// or sized for a source file of that many lines (one word, and the
/// sizes of the smallest and the largest program).
fn sizing() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), Just(Some(63)), Just(Some(394)), Just(Some(1103))]
}

/// Line numbers biased to the word edges, up to far past any program's
/// bitmap.
fn line() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        0u32..200,
        0u32..1200,
        0u32..10_000,
    ]
}

fn lines() -> impl Strategy<Value = (Option<usize>, Vec<u32>)> {
    (sizing(), proptest::collection::vec(line(), 0..40))
}

/// The coverage of recording `lines` in order, and its reference model.
fn build((size, lines): &(Option<usize>, Vec<u32>)) -> (Coverage, BTreeSet<u32>) {
    let mut cov = size.map_or_else(Coverage::new, Coverage::with_lines);
    for &l in lines {
        cov.hit(l);
    }
    (cov, lines.iter().copied().collect())
}

/// Checks every observer of `cov` against `model`.
fn agrees(cov: &Coverage, model: &BTreeSet<u32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(cov.len(), model.len());
    prop_assert_eq!(cov.is_empty(), model.is_empty());
    prop_assert_eq!(cov.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    for &l in model {
        for probe in [l.saturating_sub(1), l, l + 1, l + 64] {
            prop_assert_eq!(cov.contains(probe), model.contains(&probe), "line {}", probe);
        }
    }
    prop_assert!(!cov.contains(u32::MAX));
    prop_assert_eq!(format!("{cov:?}"), format!("{model:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn observers_and_from_iter_match_the_model(a in lines()) {
        let (cov, model) = build(&a);
        agrees(&cov, &model)?;
        let collected: Coverage = a.1.iter().copied().collect();
        agrees(&collected, &model)?;
        prop_assert_eq!(&collected, &cov);
        let round_trip: Coverage = cov.iter().collect();
        prop_assert_eq!(&round_trip, &cov);
    }

    #[test]
    fn merge_matches_union(a in lines(), b in lines()) {
        let ((mut cov, ma), (cb, mb)) = (build(&a), build(&b));
        cov.merge(&cb);
        agrees(&cov, &ma.union(&mb).copied().collect())?;
    }

    #[test]
    fn difference_matches_model(a in lines(), b in lines()) {
        let ((ca, ma), (cb, mb)) = (build(&a), build(&b));
        let model: BTreeSet<u32> = ma.difference(&mb).copied().collect();
        let diff = ca.difference(&cb);
        agrees(&diff, &model)?;
        prop_assert_eq!(&diff, &model.iter().copied().collect::<Coverage>());
        // Clearing every bit leaves a set equal to the empty one, whatever
        // its word length.
        let mut superset = cb.clone();
        superset.merge(&ca);
        for cleared in [ca.difference(&ca), ca.difference(&superset)] {
            prop_assert!(cleared.is_empty());
            prop_assert_eq!(&cleared, &Coverage::new());
            prop_assert_eq!(&Coverage::new(), &cleared);
        }
    }

    #[test]
    fn would_grow_matches_model(a in lines(), b in lines()) {
        let ((ca, ma), (cb, mb)) = (build(&a), build(&b));
        prop_assert_eq!(ca.would_grow(&cb), !mb.is_subset(&ma));
        prop_assert_eq!(cb.would_grow(&ca), !ma.is_subset(&mb));
        prop_assert!(!ca.would_grow(&ca));
    }

    #[test]
    fn equality_matches_model_across_sizes(a in lines(), b in lines(), size in sizing()) {
        let ((ca, ma), (cb, mb)) = (build(&a), build(&b));
        prop_assert_eq!(ca == cb, ma == mb);
        // The same lines recorded into a bitmap of another size.
        let (resized, _) = build(&(size, a.1.clone()));
        prop_assert_eq!(&resized, &ca);
        prop_assert_eq!(&ca, &resized);
    }
}

#[test]
fn a_cleared_long_bitmap_equals_an_empty_short_one() {
    let mut long = Coverage::with_lines(1103);
    let mut longer = Coverage::new();
    for l in [0, 63, 64, 9_999] {
        long.hit(l);
        longer.hit(l);
    }
    longer.hit(20_000);
    let cleared = long.difference(&longer);
    assert!(cleared.is_empty());
    assert_eq!(cleared.len(), 0);
    assert_eq!(cleared, Coverage::new());
    assert_eq!(Coverage::new(), cleared);
    assert_ne!(cleared, [0u32].into_iter().collect::<Coverage>());
    assert_eq!(Coverage::with_lines(10_000), Coverage::new());
}
