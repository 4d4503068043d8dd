//! The slow twin of `rmm_geom::coverset`: the cover-set kernels as they
//! were before the cover-angle table, recomputing every cover angle
//! (square root, arccosine, arctangent) for every subset they test, and
//! merging arcs through an allocating sort. Kept verbatim so that the
//! library's fast kernels can be diffed against it.

use rmm_geom::coverset::EXACT_MCS_LIMIT;
use rmm_geom::{cover_angle, Arc, CoverAngle, Point, EPS, TAU};

/// The arc union with the allocating sort-and-merge the library used
/// before it kept its intervals sorted.
#[derive(Default)]
struct ArcSet {
    arcs: Vec<Arc>,
}

impl ArcSet {
    fn new() -> Self {
        ArcSet::default()
    }

    fn push(&mut self, arc: Arc) {
        if !arc.is_empty() {
            self.arcs.push(arc);
        }
    }

    fn clear(&mut self) {
        self.arcs.clear();
    }

    fn merged_intervals(&self) -> Vec<[f64; 2]> {
        let mut intervals: Vec<[f64; 2]> = Vec::with_capacity(self.arcs.len() * 2);
        for arc in &self.arcs {
            let (first, second) = arc.to_linear_intervals();
            intervals.push(first);
            if let Some(second) = second {
                intervals.push(second);
            }
        }
        intervals.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("angles are finite"));
        let mut merged: Vec<[f64; 2]> = Vec::with_capacity(intervals.len());
        for iv in intervals {
            match merged.last_mut() {
                Some(last) if iv[0] <= last[1] + EPS => {
                    if iv[1] > last[1] {
                        last[1] = iv[1];
                    }
                }
                _ => merged.push(iv),
            }
        }
        merged
    }

    fn covers_full_circle(&self) -> bool {
        if self.arcs.iter().any(|a| a.is_full()) {
            return true;
        }
        let merged = self.merged_intervals();
        merged.len() == 1 && merged[0][0] <= EPS && merged[0][1] >= TAU - EPS
    }
}

/// Whether `subset ⊆ set` is a cover set of `set` under the angle-based
/// test: every node of `set` not in `subset` must have its disk covered by
/// the disks of `subset`.
pub fn is_cover_set(points: &[Point], set: &[usize], subset: &[usize], r: f64) -> bool {
    let mut arcs = ArcSet::new();
    'outer: for &p in set {
        if subset.contains(&p) {
            continue;
        }
        arcs.clear();
        for &q in subset {
            match cover_angle(&points[p], &points[q], r) {
                CoverAngle::Full => continue 'outer,
                CoverAngle::Partial(a) => arcs.push(a),
                CoverAngle::Empty => {}
            }
        }
        if !arcs.covers_full_circle() {
            return false;
        }
    }
    true
}

/// Greedy minimal cover set: start from `set` and repeatedly discard a
/// node as long as the surviving subset is still an angle-certified cover
/// set of the *original* set. The result is a cover set of `set` that is
/// *minimal* (no single node can be removed), though not always
/// *minimum*. Worst case `O(n³ log n)`; `n` here is a neighbor count, so
/// small.
///
/// The full re-certification per removal matters: checking only the
/// removal candidate against the survivors would admit sequences where an
/// earlier-removed node relied on a later-removed one. The union of disks
/// still covers it (coverage is preserved under such chains), but the
/// angle-based scheme of Theorem 4 — which is what LAMM and its peers can
/// actually evaluate — may no longer certify it. Keeping every
/// intermediate subset certified matches the paper's Theorem 1 statement.
///
/// Removal order: nodes are tried nearest-to-centroid first, since interior
/// nodes are the ones most likely to be redundant, which empirically gets
/// close to the minimum.
pub fn greedy_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let mut current: Vec<usize> = set.to_vec();
    if current.len() <= 1 {
        return current;
    }
    // Centroid of the set.
    let (mut cx, mut cy) = (0.0, 0.0);
    for &i in &current {
        cx += points[i].x;
        cy += points[i].y;
    }
    let centroid = Point::new(cx / current.len() as f64, cy / current.len() as f64);
    let mut order: Vec<usize> = current.clone();
    order.sort_by(|&a, &b| {
        points[a]
            .dist_sq(&centroid)
            .partial_cmp(&points[b].dist_sq(&centroid))
            .expect("coordinates are finite")
            .then(a.cmp(&b))
    });

    let mut trial: Vec<usize> = Vec::with_capacity(current.len());
    for cand in order {
        if current.len() == 1 {
            break;
        }
        trial.clear();
        trial.extend(current.iter().copied().filter(|&x| x != cand));
        if is_cover_set(points, set, &trial, r) {
            std::mem::swap(&mut current, &mut trial);
        }
    }
    current
}

/// Minimum cover set of `set` (the paper's `MCS(S)`).
///
/// For `|set| ≤ EXACT_MCS_LIMIT` this searches subsets in increasing size
/// order and returns a true minimum (under the angle-based coverage test);
/// beyond that it falls back to [`greedy_cover_set`].
pub fn min_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let n = set.len();
    if n <= 1 {
        return set.to_vec();
    }
    if n > EXACT_MCS_LIMIT {
        return greedy_cover_set(points, set, r);
    }
    // Subsets by increasing popcount; first hit is a minimum cover set.
    let mut masks: Vec<u32> = (1u32..(1u32 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());
    let mut subset: Vec<usize> = Vec::with_capacity(n);
    for mask in masks {
        subset.clear();
        for (bit, &idx) in set.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                subset.push(idx);
            }
        }
        if is_cover_set(points, set, &subset, r) {
            return subset.clone();
        }
    }
    set.to_vec() // unreachable: the full set always covers itself
}

/// The paper's `UPDATE(S, S_ACK)`: the nodes of `set` whose disk is *not*
/// completely covered by the disks of `acked` — i.e. the receivers that
/// still need service in the next LAMM round. Nodes present in `acked`
/// cover themselves and so never appear in the result.
pub fn update_uncovered(points: &[Point], set: &[usize], acked: &[usize], r: f64) -> Vec<usize> {
    let mut remaining = Vec::new();
    let mut arcs = ArcSet::new();
    'outer: for &p in set {
        arcs.clear();
        for &q in acked {
            match cover_angle(&points[p], &points[q], r) {
                CoverAngle::Full => continue 'outer,
                CoverAngle::Partial(a) => arcs.push(a),
                CoverAngle::Empty => {}
            }
        }
        if !arcs.covers_full_circle() {
            remaining.push(p);
        }
    }
    remaining
}
