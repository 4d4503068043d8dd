//! The slow twin of `rmm_workload::TrafficGen`: the per-station draw as
//! it was before the integer threshold, a float sample compared against
//! the rate, with the generator read through `self` on every station.
//! Kept verbatim so that the library's generator can be diffed against
//! it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_mac::TrafficKind;
use rmm_sim::{NodeId, Slot, Topology};
use rmm_workload::traffic::Arrival;
use rmm_workload::TrafficMix;

/// Per-slot Bernoulli arrivals drawn with `random::<f64>() < rate`.
pub struct ReferenceTrafficGen {
    rate: f64,
    mix: TrafficMix,
    rng: SmallRng,
}

impl ReferenceTrafficGen {
    /// Same seeding as `TrafficGen::new`.
    pub fn new(rate: f64, mix: TrafficMix, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        ReferenceTrafficGen {
            rate,
            mix,
            rng: SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_dead_beef),
        }
    }

    /// Generates this slot's arrivals across all stations.
    pub fn tick(&mut self, topo: &Topology, _now: Slot, out: &mut Vec<Arrival>) {
        out.clear();
        for i in 0..topo.len() {
            if self.rng.random::<f64>() >= self.rate {
                continue;
            }
            let node = NodeId(i as u32);
            let neighbors = topo.neighbors(node);
            if neighbors.is_empty() {
                continue;
            }
            let kind = self.mix.draw(&mut self.rng);
            let receivers = match kind {
                TrafficKind::Unicast => {
                    vec![neighbors[self.rng.random_range(0..neighbors.len())]]
                }
                TrafficKind::Broadcast => neighbors.to_vec(),
                TrafficKind::Multicast => {
                    let size = self.rng.random_range(1..=neighbors.len());
                    // Partial Fisher–Yates over a scratch copy.
                    let mut pool = neighbors.to_vec();
                    for j in 0..size {
                        let k = self.rng.random_range(j..pool.len());
                        pool.swap(j, k);
                    }
                    pool.truncate(size);
                    pool
                }
            };
            out.push(Arrival {
                node,
                kind,
                receivers,
            });
        }
    }
}
