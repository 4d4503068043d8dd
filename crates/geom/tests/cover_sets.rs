//! The cover-set kernels against their slow twin, and the shape of the
//! exact search against the greedy one.
//!
//! `reference` holds the kernels as they were before the cover-angle
//! table: every subset test recomputes its cover angles and merges
//! through an allocating sort. The fast kernels must return identical
//! results on every instance, so LAMM's batches cannot change.

mod reference;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::coverset::EXACT_MCS_LIMIT;
use rmm_geom::{greedy_cover_set, is_cover_set, min_cover_set, update_uncovered, Point, TAU};

/// One random instance: positions, the set to cover (indices into the
/// positions) and the radius.
struct Instance {
    points: Vec<Point>,
    set: Vec<usize>,
    r: f64,
}

/// Up to 24 members scattered over a disk of radius 0.05–0.3 around a
/// random center, with r ∈ {0.1, 0.2}. Some instances add co-located
/// points, a three-node ring at distance r (give or take a few EPS, where
/// arcs abut and the merge's slack decides), duplicate indices or a
/// reversed index order.
fn instance(rng: &mut SmallRng) -> Instance {
    let r = if rng.random_bool(0.5) { 0.1 } else { 0.2 };
    let spread: f64 = rng.random_range(0.05..=0.3);
    let center = Point::new(rng.random_range(0.3..0.7), rng.random_range(0.3..0.7));
    let n = rng.random_range(0..=24usize);
    let mut points: Vec<Point> = (0..n)
        .map(|_| {
            let a: f64 = rng.random_range(0.0..TAU);
            let d = spread * rng.random::<f64>().sqrt();
            center.offset(d * a.cos(), d * a.sin())
        })
        .collect();
    if n >= 2 && rng.random_bool(0.3) {
        for _ in 0..rng.random_range(1..=n / 2) {
            let from = rng.random_range(0..n);
            let to = rng.random_range(0..n);
            points[to] = points[from];
        }
    }
    if n >= 4 && rng.random_bool(0.2) {
        let nudge = [-1e-8, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-8][rng.random_range(0..7usize)];
        let d = r + nudge;
        let hub = points[0];
        // Arcs of a ring at distance r meet at `turn + π/3 + k·2π/3`;
        // half the rings put a meeting point on a multiple of π/4.
        let turn = if rng.random_bool(0.5) {
            rng.random_range(0..8usize) as f64 * TAU / 8.0 - TAU / 6.0
        } else {
            rng.random_range(0.0..TAU)
        };
        for (k, point) in points[1..4].iter_mut().enumerate() {
            let a = turn + k as f64 * TAU / 3.0;
            *point = hub.offset(d * a.cos(), d * a.sin());
        }
    }
    let mut set: Vec<usize> = (0..n).collect();
    if n >= 2 && rng.random_bool(0.2) {
        for _ in 0..rng.random_range(1..=3usize) {
            let dup = set[rng.random_range(0..set.len())];
            let at = rng.random_range(0..=set.len());
            set.insert(at, dup);
        }
    }
    if rng.random_bool(0.3) {
        set.reverse();
    }
    Instance { points, set, r }
}

/// A random sub-list of `set`, in set order.
fn random_subset(rng: &mut SmallRng, set: &[usize]) -> Vec<usize> {
    set.iter()
        .copied()
        .filter(|_| rng.random_bool(0.4))
        .collect()
}

#[test]
fn fast_cover_sets_match_the_reference() {
    const INSTANCES: usize = 12_000;
    let mut rng = SmallRng::seed_from_u64(0x6d63_7321);
    let (mut exact, mut greedy) = (0, 0);
    for case in 0..INSTANCES {
        let Instance { points, set, r } = instance(&mut rng);
        let p = &points;
        if set.len() > 1 && set.len() <= EXACT_MCS_LIMIT {
            exact += 1;
        } else if set.len() > EXACT_MCS_LIMIT {
            greedy += 1;
        }
        let mcs = min_cover_set(p, &set, r);
        assert_eq!(
            mcs,
            reference::min_cover_set(p, &set, r),
            "case {case}: min_cover_set of {set:?}"
        );
        let gcs = greedy_cover_set(p, &set, r);
        assert_eq!(
            gcs,
            reference::greedy_cover_set(p, &set, r),
            "case {case}: greedy_cover_set of {set:?}"
        );
        let subset = random_subset(&mut rng, &set);
        for s in [&mcs, &gcs, &subset] {
            assert_eq!(
                is_cover_set(p, &set, s, r),
                reference::is_cover_set(p, &set, s, r),
                "case {case}: is_cover_set of {s:?} for {set:?}"
            );
            assert_eq!(
                update_uncovered(p, &set, s, r),
                reference::update_uncovered(p, &set, s, r),
                "case {case}: update_uncovered of {s:?} for {set:?}"
            );
        }
    }
    assert!(
        exact >= INSTANCES / 4 && greedy >= INSTANCES / 4,
        "exact {exact}, greedy {greedy}"
    );
}

/// The exact search is never larger than greedy, and greedy stays within
/// 20% of it, on 200 random 8-receiver sets inside one disk of radius R.
#[test]
fn greedy_stays_within_a_fifth_of_the_minimum() {
    const R: f64 = 0.2;
    let mut rng = SmallRng::seed_from_u64(3);
    let mut exact_total = 0usize;
    let mut greedy_total = 0usize;
    for _ in 0..200 {
        let pts: Vec<Point> = (0..8)
            .map(|_| loop {
                let x: f64 = rng.random_range(-R..=R);
                let y: f64 = rng.random_range(-R..=R);
                if x * x + y * y <= R * R {
                    break Point::new(0.5 + x, 0.5 + y);
                }
            })
            .collect();
        let set: Vec<usize> = (0..8).collect();
        let exact = min_cover_set(&pts, &set, R).len();
        let greedy = greedy_cover_set(&pts, &set, R).len();
        assert!(
            exact <= greedy,
            "exact MCS can never be larger: {exact} vs {greedy}"
        );
        exact_total += exact;
        greedy_total += greedy;
    }
    assert!(
        (greedy_total as f64) <= exact_total as f64 * 1.2,
        "greedy blow-up: {greedy_total} vs {exact_total}"
    );
}
