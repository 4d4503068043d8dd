//! The traffic generator against its slow twin.
//!
//! `reference` holds the generator as it was before the integer
//! threshold: a float sample compared against the rate. The fast
//! generator must produce identical arrivals at every rate — the rates
//! the benchmarks and the paper use, the ends of `[0, 1]`, and the
//! neighbouring floats of each — and on topologies where some stations
//! have no neighbours, so every golden digest and simulated metric stays
//! as it was.

mod reference;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use reference::ReferenceTrafficGen;
use rmm_geom::Point;
use rmm_sim::Topology;
use rmm_workload::{uniform_square, TrafficGen, TrafficMix};

/// The next representable `f64` above (`up`) or below a finite,
/// non-negative `x`.
fn next_float(x: f64, up: bool) -> f64 {
    match (x == 0.0, up) {
        (true, true) => f64::from_bits(1),
        (true, false) => -f64::from_bits(1),
        (false, true) => f64::from_bits(x.to_bits() + 1),
        (false, false) => f64::from_bits(x.to_bits() - 1),
    }
}

/// Every probed rate in `[0, 1]`: the base rates and their float
/// neighbours.
fn rates() -> Vec<f64> {
    let base = [0.0, 2f64.powi(-53), 5e-5, 5e-4, 5e-3, 0.5, 1.0];
    let mut rates: Vec<f64> = base
        .iter()
        .flat_map(|&r| [next_float(r, false), r, next_float(r, true)])
        .filter(|r| (0.0..=1.0).contains(r))
        .collect();
    rates.dedup();
    rates
}

/// A random square with isolated stations: a sparse uniform field
/// plus stations placed far outside it.
fn with_isolated(n: usize, seed: u64) -> Topology {
    let field = uniform_square(n, 0.08, seed);
    let mut points = field.positions().to_vec();
    points.extend((0..5).map(|k| Point::new(10.0 + 3.0 * k as f64, -10.0)));
    Topology::new(points, 0.08)
}

#[test]
fn fast_traffic_matches_the_reference() {
    let topologies = [
        uniform_square(60, 0.2, 3),
        with_isolated(40, 4),
        Topology::new(vec![Point::new(0.5, 0.5)], 0.2),
    ];
    assert!(
        (0..topologies[1].len()).any(|i| topologies[1]
            .neighbors(rmm_sim::NodeId(i as u32))
            .is_empty()),
        "the isolated topology has no isolated station"
    );
    let mut arrivals = 0usize;
    for rate in rates() {
        for (t, topo) in topologies.iter().enumerate() {
            for seed in [1u64, 2, 0xdead_beef] {
                let mut fast = TrafficGen::new(rate, TrafficMix::default(), seed);
                let mut slow = ReferenceTrafficGen::new(rate, TrafficMix::default(), seed);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for now in 0..400 {
                    fast.tick(topo, now, &mut got);
                    slow.tick(topo, now, &mut want);
                    assert_eq!(
                        got, want,
                        "rate {rate:e} topology {t} seed {seed}: arrivals diverged at slot {now}"
                    );
                    arrivals += got.len();
                }
            }
        }
    }
    assert!(arrivals > 0, "no rate generated any traffic");
}

/// The integer threshold rests on the vendored `rand`'s float sample
/// being `(next_u64() >> 11) · 2⁻⁵³`. A `rand` whose float sample is
/// built differently fails here instead of drifting the traffic stream
/// silently.
#[test]
fn float_sample_is_the_top_53_bits_of_a_draw() {
    let mut a = SmallRng::seed_from_u64(9);
    let mut b = a.clone();
    for _ in 0..100_000 {
        let x: f64 = a.random();
        let k = b.next_u64() >> 11;
        assert_eq!(x, k as f64 * 2f64.powi(-53));
    }
}
