//! Order statistics and interval arithmetic used to summarise runs and
//! traces.
//!
//! Intervals are half-open `[start, end)` pairs of nanoseconds since the
//! trace epoch. A layer's *self time* is its span's length minus the part
//! of that span covered by the union of its children (children may overlap
//! when they run on several threads, so they are merged before measuring).

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the definition NumPy calls "linear"); `None` when empty.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default "exclusive" method); `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        // Position i*(m+1)/4, split into whole part j and remainder/4.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Merges possibly overlapping intervals into sorted, disjoint ones.
pub fn union(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of disjoint intervals.
pub fn total_len(disjoint: &[(u64, u64)]) -> u64 {
    disjoint.iter().map(|(s, e)| e - s).sum()
}

/// Length of the overlap between two sets of disjoint, sorted intervals
/// (as returned by [`union`]).
pub fn overlap_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Self time of a set of parent spans: the time covered by the parents
/// minus the part of it also covered by any child span.
pub fn self_time(parents: &[(u64, u64)], children: &[(u64, u64)]) -> u64 {
    let parents = union(parents);
    total_len(&parents) - overlap_len(&parents, &union(children))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.9), Some(46.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn union_merges_overlapping_and_touching_intervals() {
        assert_eq!(union(&[(5, 8), (1, 3), (2, 4), (8, 9), (20, 20)]), vec![(1, 4), (5, 9)]);
        assert_eq!(total_len(&union(&[(0, 10), (2, 3), (9, 12)])), 12);
        assert!(union(&[]).is_empty());
    }

    #[test]
    fn overlap_of_disjoint_sets() {
        let a = union(&[(0, 10), (20, 30)]);
        let b = union(&[(5, 25), (29, 40)]);
        assert_eq!(overlap_len(&a, &b), 5 + 5 + 1);
        assert_eq!(overlap_len(&a, &[]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two threads of children overlap inside one parent: the covered
        // time counts once, and a child outside the parent is ignored.
        let parent = [(100, 200)];
        let children = [(110, 150), (120, 160), (190, 230), (300, 400)];
        assert_eq!(self_time(&parent, &children), 100 - 50 - 10);
        assert_eq!(self_time(&parent, &[]), 100);
        assert_eq!(self_time(&parent, &[(0, 1000)]), 0);
        // Overlapping parents (two tenants) are merged before subtracting.
        assert_eq!(self_time(&[(0, 10), (5, 20)], &[(8, 12)]), 16);
    }
}
