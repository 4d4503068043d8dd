//! Traffic generation: Bernoulli per-node arrivals with the paper's
//! unicast / multicast / broadcast mix.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rmm_mac::TrafficKind;
use rmm_sim::{NodeId, Slot, Topology};
use serde::{Deserialize, Serialize};

/// Message-type mix (must sum to ≤ 1; the remainder generates nothing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Fraction of unicast messages (paper: 0.2).
    pub unicast: f64,
    /// Fraction of multicast messages (paper: 0.4).
    pub multicast: f64,
    /// Fraction of broadcast messages (paper: 0.4).
    pub broadcast: f64,
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix {
            unicast: 0.2,
            multicast: 0.4,
            broadcast: 0.4,
        }
    }
}

impl TrafficMix {
    /// Draws a message kind from the mix.
    pub fn draw(&self, rng: &mut SmallRng) -> TrafficKind {
        let x: f64 = rng.random::<f64>() * (self.unicast + self.multicast + self.broadcast);
        if x < self.unicast {
            TrafficKind::Unicast
        } else if x < self.unicast + self.multicast {
            TrafficKind::Multicast
        } else {
            TrafficKind::Broadcast
        }
    }
}

/// Per-slot Bernoulli arrival generator.
///
/// Each slot, each station generates a message with probability `rate`
/// (paper: 5·10⁻⁴ per node per slot). Receiver selection, per the paper's
/// model (the request "indicates the set of neighbors required to reach
/// all the members of the intended multicast group"):
///
/// * unicast → one uniformly-chosen neighbor,
/// * multicast → a uniformly-sized random subset of the neighbors
///   (size drawn from `1..=degree`),
/// * broadcast → all neighbors.
///
/// Stations with no neighbors generate no traffic.
///
/// The per-station draw is an integer compare. A uniform `f64` sample
/// is `k · 2⁻⁵³` with `k = next_u64() >> 11 < 2⁵³`, and both the
/// product and `rate · 2⁵³` are exact, so `k · 2⁻⁵³ < rate` holds iff
/// `k < ⌈rate · 2⁵³⌉` — for every rate in `[0, 1]`, ends included. The
/// generator therefore consumes and decides exactly as the float
/// compare `random::<f64>() < rate` would, draw for draw.
#[derive(Debug)]
pub struct TrafficGen {
    /// `⌈rate · 2⁵³⌉`: a station fires iff its 53-bit draw is below it.
    threshold: u64,
    mix: TrafficMix,
    rng: SmallRng,
}

/// One generated arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Originating station.
    pub node: NodeId,
    /// Traffic class.
    pub kind: TrafficKind,
    /// Intended receivers.
    pub receivers: Vec<NodeId>,
}

impl TrafficGen {
    /// Creates a generator.
    pub fn new(rate: f64, mix: TrafficMix, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        TrafficGen {
            threshold: (rate * (1u64 << 53) as f64).ceil() as u64,
            mix,
            rng: SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_dead_beef),
        }
    }

    /// Generates this slot's arrivals across all stations.
    pub fn tick(&mut self, topo: &Topology, _now: Slot, out: &mut Vec<Arrival>) {
        out.clear();
        // A local copy of the generator stays in registers across the
        // miss scan; it is written back once per slot.
        let mut rng = self.rng.clone();
        for i in 0..topo.len() {
            if rng.next_u64() >> 11 >= self.threshold {
                continue;
            }
            let node = NodeId(i as u32);
            let neighbors = topo.neighbors(node);
            if neighbors.is_empty() {
                continue;
            }
            let kind = self.mix.draw(&mut rng);
            let receivers = match kind {
                TrafficKind::Unicast => {
                    vec![neighbors[rng.random_range(0..neighbors.len())]]
                }
                TrafficKind::Broadcast => neighbors.to_vec(),
                TrafficKind::Multicast => {
                    let size = rng.random_range(1..=neighbors.len());
                    // Partial Fisher–Yates over a scratch copy.
                    let mut pool = neighbors.to_vec();
                    for j in 0..size {
                        let k = rng.random_range(j..pool.len());
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
        self.rng = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::uniform_square;

    #[test]
    fn mix_draw_respects_ratios() {
        let mix = TrafficMix::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            match mix.draw(&mut rng) {
                TrafficKind::Unicast => counts[0] += 1,
                TrafficKind::Multicast => counts[1] += 1,
                TrafficKind::Broadcast => counts[2] += 1,
            }
        }
        let total = 30_000.0;
        assert!((counts[0] as f64 / total - 0.2).abs() < 0.02);
        assert!((counts[1] as f64 / total - 0.4).abs() < 0.02);
        assert!((counts[2] as f64 / total - 0.4).abs() < 0.02);
    }

    #[test]
    fn arrival_rate_matches_configuration() {
        let topo = uniform_square(100, 0.2, 3);
        let mut gen = TrafficGen::new(0.01, TrafficMix::default(), 5);
        let mut out = Vec::new();
        let mut total = 0usize;
        let slots = 2_000;
        for t in 0..slots {
            gen.tick(&topo, t, &mut out);
            total += out.len();
        }
        // Expect ≈ rate · nodes · slots (isolated nodes generate none; at
        // this density nearly all nodes have neighbors).
        let expect = 0.01 * 100.0 * slots as f64;
        assert!(
            (total as f64) > expect * 0.85 && (total as f64) < expect * 1.15,
            "total {total}, expected ≈ {expect}"
        );
    }

    #[test]
    fn receivers_are_always_neighbors() {
        let topo = uniform_square(60, 0.2, 9);
        let mut gen = TrafficGen::new(0.05, TrafficMix::default(), 9);
        let mut out = Vec::new();
        for t in 0..500 {
            gen.tick(&topo, t, &mut out);
            for a in &out {
                assert!(!a.receivers.is_empty());
                for r in &a.receivers {
                    assert!(
                        topo.neighbors(a.node).contains(r),
                        "{r} not a neighbor of {}",
                        a.node
                    );
                }
                // No duplicates.
                let mut rs = a.receivers.clone();
                rs.sort();
                rs.dedup();
                assert_eq!(rs.len(), a.receivers.len());
            }
        }
    }

    #[test]
    fn unicast_has_one_receiver_broadcast_has_all() {
        let topo = uniform_square(60, 0.2, 10);
        let mut gen = TrafficGen::new(0.05, TrafficMix::default(), 10);
        let mut out = Vec::new();
        let mut seen_unicast = false;
        let mut seen_broadcast = false;
        for t in 0..2_000 {
            gen.tick(&topo, t, &mut out);
            for a in &out {
                match a.kind {
                    TrafficKind::Unicast => {
                        assert_eq!(a.receivers.len(), 1);
                        seen_unicast = true;
                    }
                    TrafficKind::Broadcast => {
                        assert_eq!(a.receivers.len(), topo.neighbors(a.node).len());
                        seen_broadcast = true;
                    }
                    TrafficKind::Multicast => {
                        assert!(a.receivers.len() <= topo.neighbors(a.node).len());
                    }
                }
            }
        }
        assert!(seen_unicast && seen_broadcast);
    }

    /// At the draws either side of the threshold, the integer compare
    /// decides as the float compare on the same draw: rates the stream
    /// would take ~2⁵³ draws to probe are checked at their boundary.
    #[test]
    fn threshold_decides_as_the_float_compare() {
        let unit = 2f64.powi(-53);
        for rate in [0.0, unit, 3.0 * unit, 5e-5, 5e-4, 0.1, 0.5, 1.0 - unit, 1.0] {
            let t = TrafficGen::new(rate, TrafficMix::default(), 0).threshold;
            for k in [t.saturating_sub(1), t, t + 1] {
                let k = k.min((1 << 53) - 1);
                assert_eq!(k < t, (k as f64 * unit) < rate, "rate {rate:e} draw {k}");
            }
        }
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let topo = uniform_square(50, 0.2, 2);
        let mut gen = TrafficGen::new(0.0, TrafficMix::default(), 2);
        let mut out = Vec::new();
        for t in 0..100 {
            gen.tick(&topo, t, &mut out);
            assert!(out.is_empty());
        }
    }
}
