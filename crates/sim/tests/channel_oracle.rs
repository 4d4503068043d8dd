//! Differential oracle for the incremental channel: random topologies
//! and launch schedules driven through both [`Channel`] (incremental
//! interference bookkeeping) and [`ReferenceChannel`] (naive full
//! rescan) with cloned RNG streams, asserting every observable agrees
//! slot by slot — outcomes, RNG position, carrier sense (per station and
//! as the engine's 64-station busy masks), half-duplex state, occupancy,
//! and the airtime ledger.
//!
//! The driver follows the engine's phase order (resolve and all busy
//! queries for a slot before that slot's launches, prune last): the
//! incremental channel's O(1) carrier watermark is exact only under
//! that ordering, and it is the only ordering the engine ever uses.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::Point;
use rmm_sim::channel::reference::ReferenceChannel;
use rmm_sim::{Capture, Channel, Dest, Frame, FrameKind, MsgId, NodeId, Slot, Topology};

/// Every bit of every busy-mask word against the reference's
/// per-station carrier sense, whole words and single-station
/// selections alike; bits past the last station must be clear. Returns
/// the number of busy stations.
fn assert_busy_masks(fast: &Channel, naive: &ReferenceChannel, topo: &Topology, now: Slot) -> u32 {
    let n = topo.len();
    let mut busy = 0;
    for w in 0..n.div_ceil(64) + 1 {
        let mask = fast.busy_mask(w, u64::MAX, now);
        busy += mask.count_ones();
        for b in 0..64 {
            let i = 64 * w + b;
            let want = i < n && naive.busy_prev_slot(NodeId(i as u32), now, topo);
            assert_eq!(mask >> b & 1 != 0, want, "busy mask bit {i} at slot {now}");
            assert_eq!(fast.busy_mask(w, 1 << b, now), u64::from(want) << b);
        }
    }
    busy
}

/// One random launch at `now` from a station with nothing on the air,
/// mirrored into both channels.
fn launch(
    fast: &mut Channel,
    naive: &mut ReferenceChannel,
    topo: &Topology,
    now: Slot,
    rng: &mut SmallRng,
) {
    let src = NodeId(rng.random_range(0..topo.len() as u32));
    if fast.is_transmitting(src, now) {
        return;
    }
    let msg = MsgId::new(src, now as u32);
    let frame = Frame::data(
        src,
        Dest::Node(NodeId(0)),
        0,
        msg,
        rng.random_range(1..6u32),
    );
    fast.begin_tx(frame.clone(), now, topo);
    naive.begin_tx(frame, now);
}

/// The busy masks on multi-word networks: the empty channel before
/// the first launch binds it, partial last words, and the watermarks
/// rebuilt by `retune` after every station moved.
#[test]
fn busy_masks_match_the_reference_across_words_and_retunes() {
    for n in [1usize, 63, 64, 65, 129] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let place = |rng: &mut SmallRng| {
            let pts = (0..n)
                .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect();
            Topology::new(pts, 0.3)
        };
        let mut topo = place(&mut rng);
        let mut fast = Channel::new(Capture::None);
        let mut naive = ReferenceChannel::new(Capture::None);
        let (mut rng_fast, mut rng_naive) =
            (SmallRng::seed_from_u64(1), SmallRng::seed_from_u64(1));
        let mut busy = [0; 2];
        for now in 0..120 {
            if now == 60 {
                topo = place(&mut rng);
                fast.retune(&topo, now);
            }
            fast.resolve_ended(now, &topo, &mut rng_fast);
            naive.resolve_ended(now, &topo, &mut rng_naive);
            busy[usize::from(now >= 60)] += assert_busy_masks(&fast, &naive, &topo, now);
            if (10..100).contains(&now) && rng.random_bool(0.4) {
                launch(&mut fast, &mut naive, &topo, now, &mut rng);
            }
            fast.prune(now, &topo);
            naive.prune(now);
        }
        assert!(
            busy[0] > 0 && busy[1] > 0,
            "n={n}: the medium was never busy"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn incremental_channel_matches_naive_reference(
        positions in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4..16),
        schedule in prop::collection::vec(
            (0u64..80, any::<u8>(), any::<u8>(), any::<u8>()),
            1..60,
        ),
        fer_sel in 0usize..3,
        plain_capture in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = Topology::new(pts, 0.35);
        let capture = if plain_capture { Capture::None } else { Capture::ZorziRao };
        let fer = [0.0, 0.15, 0.6][fer_sel];

        let mut fast = Channel::new(capture);
        fast.set_fer(fer);
        let mut naive = ReferenceChannel::new(capture);
        naive.set_fer(fer);
        let mut rng_fast = SmallRng::seed_from_u64(seed);
        let mut rng_naive = rng_fast.clone();

        let mut launched = 0u32;
        // Past the last scheduled slot plus the longest frame, both
        // channels must have drained completely.
        for now in 0..96 {
            let out_fast = fast.resolve_ended(now, &topo, &mut rng_fast);
            let out_naive = naive.resolve_ended(now, &topo, &mut rng_naive);
            prop_assert_eq!(&out_fast, &out_naive, "outcome diverged at slot {}", now);
            prop_assert!(rng_fast == rng_naive, "RNG streams diverged at slot {}", now);
            for i in 0..topo.len() {
                let node = NodeId(i as u32);
                prop_assert_eq!(
                    fast.busy_prev_slot(node, now, &topo),
                    naive.busy_prev_slot(node, now, &topo),
                    "carrier sense diverged at node {} slot {}", node, now
                );
                prop_assert_eq!(
                    fast.is_transmitting(node, now),
                    naive.is_transmitting(node, now),
                    "half-duplex state diverged at node {} slot {}", node, now
                );
            }
            prop_assert_eq!(
                fast.any_active(now),
                naive.any_active(now),
                "occupancy diverged at slot {}", now
            );
            assert_busy_masks(&fast, &naive, &topo, now);

            for &(t, src_sel, kind_sel, dur) in &schedule {
                if t != now {
                    continue;
                }
                let src = NodeId((src_sel as usize % topo.len()) as u32);
                // Half-duplex: the MAC never launches from a station
                // that still has a frame on the air (this also filters
                // duplicate same-slot schedule entries for one source).
                if fast.is_transmitting(src, now) {
                    continue;
                }
                let neighbors = topo.neighbors(src);
                let dest = if neighbors.is_empty() || kind_sel % 3 == 0 {
                    Dest::Node(NodeId((dur as usize % topo.len()) as u32))
                } else {
                    Dest::group(neighbors.to_vec())
                };
                let msg = MsgId::new(src, launched);
                launched += 1;
                let frame = if kind_sel % 2 == 0 {
                    Frame::control(FrameKind::Rts, src, dest, u32::from(dur % 8), msg)
                } else {
                    Frame::data(src, dest, u32::from(dur % 8), msg, 1 + u32::from(kind_sel % 5))
                };
                fast.begin_tx(frame.clone(), now, &topo);
                naive.begin_tx(frame, now);
            }
            fast.prune(now, &topo);
            naive.prune(now);
        }
        prop_assert_eq!(fast.ledger(), naive.ledger(), "airtime ledgers diverged");
        prop_assert!(!fast.any_active(96), "channel failed to drain");
    }
}
