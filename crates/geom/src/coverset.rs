//! Cover sets (Definition 1), `MCS(S)` and `UPDATE(S, S_ACK)`.
//!
//! All functions operate on indices into a caller-provided slice of
//! positions so that MAC protocols can keep talking about station ids.
//!
//! Substitution note (documented in `DESIGN.md`): the paper delegates the
//! `O(n^{4/3})` minimum-cover-set algorithm to an unpublished reference
//! \[18\]. We provide an **exact** search for small sets and a **greedy
//! removal** scheme (minimal, not necessarily minimum, cover sets) for
//! larger ones; both are correct cover sets per Definition 1 as certified
//! by the Theorem 4 angle test, so protocol *behaviour* is preserved —
//! only the asymptotic cost of the (off-line) computation differs.
//!
//! Cost: each call computes the cover angle of every ordered pair of its
//! set once (an `n × n` table, `n²` square roots, arccosines and
//! arctangents). Every candidate subset is then tested from the table
//! with no trigonometry: bitmask filters first, then the exact
//! full-circle merge of [`ArcSet`] in reused buffers.

use crate::angle::{Arc, TAU};
use crate::arcs::ArcSet;
use crate::cover::{cover_angle, CoverAngle};
use crate::point::Point;
use crate::EPS;

/// Largest set size for which [`min_cover_set`] performs the exact
/// minimum search before falling back to the greedy scheme.
pub const EXACT_MCS_LIMIT: usize = 10;

/// Evenly spaced directions at which [`Coverage`] pre-computes which
/// arcs reach each direction.
const PROBES: usize = 8;

/// The cover angles of one call: for each member of a set (a row) what
/// each candidate coverer (a column) contributes to covering its disk.
/// Subsets of columns are bitsets of `words` 64-bit words; every per-row
/// column set below is one such bitset.
struct Coverage {
    rows: usize,
    cols: usize,
    words: usize,
    /// Columns whose cover angle of the row is `Full`.
    full: Vec<u64>,
    /// Columns whose cover angle of the row is `Partial`.
    partial: Vec<u64>,
    /// `arcs[row * cols + col]`, for the partial columns.
    arcs: Vec<Arc>,
    /// Per row and probe direction, the partial columns whose arc comes
    /// within `2·EPS` of that direction.
    probes: Vec<u64>,
    /// Scratch of the exact test.
    union: ArcSet,
    pending: Vec<usize>,
    /// The row that failed the last test. Rows are tried from it on,
    /// since the subsets tested in turn differ little and tend to fail on
    /// the same row.
    first: usize,
}

impl Coverage {
    fn new(points: &[Point], rows: &[usize], cols: &[usize], r: f64) -> Self {
        let words = cols.len().div_ceil(64).max(1);
        let mut c = Coverage {
            rows: rows.len(),
            cols: cols.len(),
            words,
            full: vec![0; rows.len() * words],
            partial: vec![0; rows.len() * words],
            arcs: vec![Arc::full(); rows.len() * cols.len()],
            probes: vec![0; rows.len() * PROBES * words],
            union: ArcSet::new(),
            pending: Vec::with_capacity(rows.len()),
            first: 0,
        };
        for (row, &p) in rows.iter().enumerate() {
            for (col, &q) in cols.iter().enumerate() {
                let (word, bit) = (col / 64, 1u64 << (col % 64));
                match cover_angle(&points[p], &points[q], r) {
                    CoverAngle::Full => c.full[row * words + word] |= bit,
                    CoverAngle::Partial(arc) => {
                        c.partial[row * words + word] |= bit;
                        c.arcs[row * c.cols + col] = arc;
                        let (first, second) = arc.to_linear_intervals();
                        for probe in 0..PROBES {
                            let dir = probe as f64 * TAU / PROBES as f64;
                            let reaches =
                                |iv: [f64; 2]| iv[0] - 2.0 * EPS <= dir && dir <= iv[1] + 2.0 * EPS;
                            if reaches(first) || second.is_some_and(reaches) {
                                c.probes[(row * PROBES + probe) * words + word] |= bit;
                            }
                        }
                    }
                    CoverAngle::Empty => {}
                }
            }
        }
        c
    }

    /// Whether the columns in `subset` cover the disk of every row: the
    /// Theorem 4 test of [`is_cover_set`]. A row whose own point is in
    /// `subset` is covered by its `Full` cover angle (a member, or a
    /// duplicate or co-located copy of one, covers itself).
    fn certifies(&mut self, subset: &[u64]) -> bool {
        let words = self.words;
        self.pending.clear();
        for row in (self.first..self.rows).chain(0..self.first) {
            if meets(subset, &self.full[row * words..(row + 1) * words]) {
                continue;
            }
            if !self.may_cover(row, subset) {
                self.first = row;
                return false;
            }
            self.pending.push(row);
        }
        for i in 0..self.pending.len() {
            let row = self.pending[i];
            self.union.clear();
            for col in ones(subset, &self.partial[row * words..(row + 1) * words]) {
                self.union.push(self.arcs[row * self.cols + col]);
            }
            if !self.union.covers_full_circle() {
                self.first = row;
                return false;
            }
        }
        true
    }

    /// Necessary conditions for the partial arcs of `subset` to cover the
    /// disk of `row`: false only where the exact merge is false too.
    fn may_cover(&self, row: usize, subset: &[u64]) -> bool {
        let words = self.words;
        // A covering union leaves no direction more than EPS (plus
        // rounding) from an arc: the merge bridges only gaps of at most
        // EPS between intervals and at either end of [0, 2π].
        let reached = |probe: usize| {
            let at = (row * PROBES + probe) * words;
            meets(subset, &self.probes[at..at + words])
        };
        if !(0..PROBES).all(reached) {
            return false;
        }
        // `k` arcs split into at most `2k` linear intervals, so by the
        // same argument a covering union has total length at least
        // 2π − (2k + 1)·EPS; one more EPS absorbs rounding in the sum.
        let (mut k, mut length) = (0usize, 0.0);
        for col in ones(subset, &self.partial[row * words..(row + 1) * words]) {
            k += 1;
            length += self.arcs[row * self.cols + col].extent;
        }
        length >= TAU - (2 * k + 2) as f64 * EPS
    }
}

/// Whether two bitsets share a member.
fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The members of both bitsets, in increasing order.
fn ones<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter().zip(b).enumerate().flat_map(|(w, (x, y))| {
        let mut bits = x & y;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// The bitset holding every column below `n`.
fn all_of(n: usize, words: usize) -> Vec<u64> {
    (0..words)
        .map(|w| match n.saturating_sub(w * 64) {
            0 => 0,
            k if k >= 64 => u64::MAX,
            k => (1u64 << k) - 1,
        })
        .collect()
}

/// Whether `subset ⊆ set` is a cover set of `set` under the angle-based
/// test: every node of `set` not in `subset` must have its disk covered by
/// the disks of `subset`. Costs one `|set| × |subset|` cover-angle table.
pub fn is_cover_set(points: &[Point], set: &[usize], subset: &[usize], r: f64) -> bool {
    let mut coverage = Coverage::new(points, set, subset, r);
    let all = all_of(subset.len(), coverage.words);
    coverage.certifies(&all)
}

/// Greedy minimal cover set: start from `set` and repeatedly discard a
/// node as long as the surviving subset is still an angle-certified cover
/// set of the *original* set. The result is a cover set of `set` that is
/// *minimal* (no single node can be removed), though not always
/// *minimum*. Cost: one `n × n` cover-angle table, then `n` subset tests
/// of `O(n² log n)` comparisons each, `O(n³ log n)` in all; `n` here is a
/// neighbor count, so small.
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
/// close to the minimum. Removing a node removes every copy of its index.
pub fn greedy_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    if set.len() <= 1 {
        return set.to_vec();
    }
    // Centroid of the set.
    let (mut cx, mut cy) = (0.0, 0.0);
    for &i in set {
        cx += points[i].x;
        cy += points[i].y;
    }
    let centroid = Point::new(cx / set.len() as f64, cy / set.len() as f64);
    let mut order: Vec<usize> = set.to_vec();
    order.sort_by(|&a, &b| {
        points[a]
            .dist_sq(&centroid)
            .partial_cmp(&points[b].dist_sq(&centroid))
            .expect("coordinates are finite")
            .then(a.cmp(&b))
    });

    let mut coverage = Coverage::new(points, set, set, r);
    // Survivors as a bitset of positions into `set`.
    let mut current = all_of(set.len(), coverage.words);
    let mut trial = current.clone();
    for cand in order {
        if current.iter().map(|w| w.count_ones()).sum::<u32>() == 1 {
            break;
        }
        trial.copy_from_slice(&current);
        for pos in (0..set.len()).filter(|&pos| set[pos] == cand) {
            trial[pos / 64] &= !(1 << (pos % 64));
        }
        // An unchanged subset is already certified.
        if trial != current && coverage.certifies(&trial) {
            std::mem::swap(&mut current, &mut trial);
        }
    }
    ones(&current, &current).map(|pos| set[pos]).collect()
}

/// Minimum cover set of `set` (the paper's `MCS(S)`).
///
/// For `|set| ≤ EXACT_MCS_LIMIT` this searches subsets in increasing size
/// order (and, within a size, in increasing bitmask order over positions
/// in `set`) and returns a true minimum under the angle-based coverage
/// test; beyond that it falls back to [`greedy_cover_set`]. The search
/// computes one `n × n` cover-angle table and then tests up to `2ⁿ − 1`
/// subsets without trigonometry.
///
/// ```
/// use rmm_geom::{min_cover_set, Point};
/// // Two co-located receivers: one of them suffices.
/// let pts = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
/// let mcs = min_cover_set(&pts, &[0, 1], 0.2);
/// assert_eq!(mcs.len(), 1);
/// ```
pub fn min_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let n = set.len();
    if n <= 1 {
        return set.to_vec();
    }
    if n > EXACT_MCS_LIMIT {
        return greedy_cover_set(points, set, r);
    }
    let mut coverage = Coverage::new(points, set, set, r);
    let end = 1u64 << n;
    for size in 1..=n {
        // Gosper's hack: the masks with `size` bits, in increasing order.
        let mut mask = (1u64 << size) - 1;
        while mask < end {
            if coverage.certifies(&[mask]) {
                return ones(&[mask], &[mask]).map(|pos| set[pos]).collect();
            }
            let low = mask & mask.wrapping_neg();
            let ripple = mask + low;
            mask = (((ripple ^ mask) >> 2) / low) | ripple;
        }
    }
    set.to_vec() // unreachable: the full set always covers itself
}

/// The paper's `UPDATE(S, S_ACK)`: the nodes of `set` whose disk is *not*
/// completely covered by the disks of `acked` — i.e. the receivers that
/// still need service in the next LAMM round. Nodes present in `acked`
/// cover themselves and so never appear in the result.
///
/// ```
/// use rmm_geom::{update_uncovered, Point};
/// let pts = vec![Point::new(0.5, 0.5), Point::new(0.65, 0.5)];
/// // Only node 1 ACKed; node 0's disk is not covered by node 1 alone.
/// assert_eq!(update_uncovered(&pts, &[0, 1], &[1], 0.2), vec![0]);
/// // An empty ACK set leaves everything outstanding.
/// assert_eq!(update_uncovered(&pts, &[0, 1], &[], 0.2), vec![0, 1]);
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::TAU;

    const R: f64 = 0.2;

    /// A ring of `n` points at distance `d` around `center`.
    fn ring(center: Point, d: f64, n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / n as f64;
                center.offset(d * a.cos(), d * a.sin())
            })
            .collect()
    }

    #[test]
    fn full_set_is_cover_set_of_itself() {
        let pts = ring(Point::new(0.5, 0.5), 0.1, 6);
        let set: Vec<usize> = (0..6).collect();
        assert!(is_cover_set(&pts, &set, &set, R));
    }

    #[test]
    fn empty_subset_covers_only_empty_set() {
        let pts = vec![Point::new(0.5, 0.5)];
        assert!(is_cover_set(&pts, &[], &[], R));
        assert!(!is_cover_set(&pts, &[0], &[], R));
    }

    #[test]
    fn colocated_duplicate_is_redundant() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
        assert!(is_cover_set(&pts, &[0, 1], &[0], R));
        let mcs = min_cover_set(&pts, &[0, 1], R);
        assert_eq!(mcs.len(), 1);
    }

    #[test]
    fn surrounded_interior_node_is_redundant() {
        // Center node surrounded by a tight ring of 6 at distance 0.05:
        // each ring node's cover angle for the center is wide, and the
        // ring covers the center's disk.
        let mut pts = ring(Point::new(0.5, 0.5), 0.05, 6);
        pts.push(Point::new(0.5, 0.5)); // index 6: interior node
        let set: Vec<usize> = (0..7).collect();
        let subset: Vec<usize> = (0..6).collect();
        assert!(is_cover_set(&pts, &set, &subset, R));
        let mcs = min_cover_set(&pts, &set, R);
        assert!(mcs.len() <= 6);
        assert!(is_cover_set(&pts, &set, &mcs, R));
    }

    #[test]
    fn spread_out_nodes_all_required() {
        // Nodes pairwise farther than R apart: nothing covers anything, so
        // the minimum cover set is the whole set.
        let pts = vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.1),
            Point::new(0.1, 0.9),
            Point::new(0.9, 0.9),
        ];
        let set: Vec<usize> = (0..4).collect();
        let mcs = min_cover_set(&pts, &set, R);
        assert_eq!(mcs.len(), 4);
    }

    #[test]
    fn greedy_result_is_cover_set() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.08, 8);
        pts.extend(ring(Point::new(0.5, 0.5), 0.03, 5));
        let set: Vec<usize> = (0..pts.len()).collect();
        let greedy = greedy_cover_set(&pts, &set, R);
        assert!(is_cover_set(&pts, &set, &greedy, R));
        assert!(greedy.len() < set.len(), "inner ring should be redundant");
    }

    #[test]
    fn exact_mcs_never_larger_than_greedy() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.06, 7);
        pts.push(Point::new(0.5, 0.5));
        pts.push(Point::new(0.52, 0.5));
        let set: Vec<usize> = (0..pts.len()).collect();
        let exact = min_cover_set(&pts, &set, R);
        let greedy = greedy_cover_set(&pts, &set, R);
        assert!(exact.len() <= greedy.len());
        assert!(is_cover_set(&pts, &set, &exact, R));
    }

    #[test]
    fn singleton_set_is_its_own_mcs() {
        let pts = vec![Point::new(0.2, 0.2)];
        assert_eq!(min_cover_set(&pts, &[0], R), vec![0]);
        assert_eq!(greedy_cover_set(&pts, &[0], R), vec![0]);
    }

    #[test]
    fn update_removes_acked_and_covered() {
        // Interior node covered by ring; if the whole ring ACKs, the
        // interior node is covered and drops out.
        let mut pts = ring(Point::new(0.5, 0.5), 0.05, 6);
        pts.push(Point::new(0.5, 0.5));
        let set: Vec<usize> = (0..7).collect();
        let acked: Vec<usize> = (0..6).collect();
        let rem = update_uncovered(&pts, &set, &acked, R);
        assert!(rem.is_empty());
    }

    #[test]
    fn update_keeps_uncovered_nodes() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.65, 0.5)];
        // Only node 1 acked; node 0's disk is not covered by node 1 alone.
        let rem = update_uncovered(&pts, &[0, 1], &[1], R);
        assert_eq!(rem, vec![0]);
    }

    #[test]
    fn update_with_no_acks_keeps_everything() {
        let pts = ring(Point::new(0.5, 0.5), 0.05, 4);
        let set: Vec<usize> = (0..4).collect();
        assert_eq!(update_uncovered(&pts, &set, &[], R), set);
    }

    #[test]
    fn mcs_of_large_set_falls_back_to_greedy() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.08, 10);
        pts.extend(ring(Point::new(0.5, 0.5), 0.02, 6));
        let set: Vec<usize> = (0..pts.len()).collect();
        assert!(set.len() > EXACT_MCS_LIMIT);
        let mcs = min_cover_set(&pts, &set, R);
        assert!(is_cover_set(&pts, &set, &mcs, R));
    }
}
