//! The simulation runner: one seeded run, and parallel sweeps across
//! seeds (the paper averages 100 runs per data point).

use crate::churn::EpochMetrics;
use crate::mobility::{MobilityConfig, RandomWaypoint};
use crate::observe::{PhaseTimings, RunManifest};
use crate::placement::uniform_square;
use crate::scenario::Scenario;
use crate::traffic::TrafficGen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::Point;
use rmm_mac::{FrameKindCounts, MacNode, Outcome, ProtocolKind, SentRecord};
use rmm_sim::{AirtimeBreakdown, Engine, MsgId, NodeId, Slot, Topology, Trace};
use rmm_stats::{MessageMetric, ProfileReport, RunMetrics};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Dedicated seed stream for the burst-error channel ("burst").
const BURST_SEED: u64 = 0x0062_7572_7374;

/// Dedicated seed stream for beacon-position noise ("noise").
const NOISE_SEED: u64 = 0x006e_6f69_7365;

/// Gaussian sample via Box–Muller (keeps the dependency set small).
fn gaussian(rng: &mut SmallRng, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One liveness-watchdog finding: a sender that sat on an active message
/// for a whole watchdog window without putting a single frame on the
/// air. A healthy MAC always either transmits or times the message out,
/// so a stall indicates a wedged protocol state machine (or a retry
/// policy with no bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallReport {
    /// The wedged sender.
    pub node: NodeId,
    /// The message it is stuck on.
    pub msg: MsgId,
    /// When the message arrived at the MAC.
    pub arrival: Slot,
    /// When its service began.
    pub started: Slot,
    /// The sender's last transmission of any kind, if it ever sent one.
    pub last_tx: Option<Slot>,
    /// The watchdog check that caught it.
    pub detected_at: Slot,
    /// The configured watchdog window (slots).
    pub window: u64,
}

/// Files a [`StallReport`] for every node holding an active message that
/// has not transmitted for at least `window` slots. Read-only: safe to
/// call between engine steps without perturbing the run. Each `(node,
/// msg)` pair is reported at most once. Nodes whose injected faults
/// currently block transmission are skipped: a crashed or muted sender
/// is *known* impaired, not a wedged protocol.
fn check_stalls(
    engine: &Engine,
    nodes: &[MacNode],
    now: Slot,
    window: u64,
    stalls: &mut Vec<StallReport>,
) {
    for node in nodes {
        let id = node.core().id;
        if engine.faults().blocks_tx(id, now) {
            continue;
        }
        let Some((msg, arrival, started)) = node.active_msg() else {
            continue;
        };
        let last_tx = engine.last_tx(id);
        let progress = last_tx.map_or(started, |l| l.max(started));
        if now.saturating_sub(progress) >= window
            && !stalls.iter().any(|s| s.node == id && s.msg == msg)
        {
            stalls.push(StallReport {
                node: id,
                msg,
                arrival,
                started,
                last_tx,
                detected_at: now,
                window,
            });
        }
    }
}

/// Assembles ground-truth per-message delivery metrics from the senders'
/// records and the receivers' ledgers. Only messages whose full timeout
/// window fits inside the run are counted, so late arrivals don't read
/// as spurious failures. Receivers impaired by the fault plan — or out
/// of the group per the churn plan — at any point in the message's
/// service window count as unreachable, feeding the
/// reachable-vs-faulted metric split.
fn collect_messages(nodes: &[MacNode], scenario: &Scenario) -> Vec<MessageMetric> {
    let cutoff = scenario.sim_slots.saturating_sub(scenario.timing.timeout);
    let mut messages = Vec::new();
    for node in nodes {
        for rec in node.records() {
            if rec.arrival > cutoff {
                continue;
            }
            let window_end = rec.arrival.saturating_add(scenario.timing.timeout);
            let (mut delivered, mut reachable, mut delivered_reachable) = (0, 0, 0);
            for r in &rec.intended {
                let got = nodes[r.index()].received().contains(&rec.msg);
                delivered += usize::from(got);
                if !scenario.faults.impaired_during(*r, rec.arrival, window_end)
                    && scenario.churn.member_during(*r, rec.arrival, window_end)
                {
                    reachable += 1;
                    delivered_reachable += usize::from(got);
                }
            }
            messages.push(MessageMetric {
                is_group: rec.is_group(),
                intended: rec.intended.len(),
                delivered,
                reachable,
                delivered_reachable,
                completed: rec.outcome.is_completed(),
                timed_out: matches!(rec.outcome, Outcome::TimedOut(_)),
                contention_phases: rec.contention_phases,
                completion_time: rec.completion_time(),
                arrival: rec.arrival,
            });
        }
    }
    messages
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Seed that produced the run.
    pub seed: u64,
    /// Mean number of neighbors in the sampled topology (density axis).
    pub mean_degree: f64,
    /// Aggregates over multicast + broadcast messages.
    pub group_metrics: RunMetrics,
    /// Aggregates over unicast messages.
    pub unicast_metrics: RunMetrics,
    /// Per-message records (population already cut to messages whose full
    /// timeout window fit in the run).
    pub messages: Vec<MessageMetric>,
    /// Total collision events observed at receivers.
    pub collisions: u64,
    /// Frames transmitted during the run, by kind.
    pub frames: FrameKindCounts,
    /// Fraction of slots with at least one transmission on the air
    /// somewhere in the network.
    pub utilization: f64,
    /// Exact per-slot channel airtime classification (idle / data /
    /// control / collision) from the channel's ledger.
    pub airtime: AirtimeBreakdown,
    /// Liveness-watchdog findings (empty unless `scenario.stall_window`
    /// is set and some sender made no forward progress for a window).
    pub stalls: Vec<StallReport>,
    /// Group-delivery metrics split by membership epoch (empty unless
    /// `scenario.churn` schedules membership changes).
    pub churn_epochs: Vec<EpochMetrics>,
    /// Run provenance: scenario, protocol, seed, and wall-clock phases.
    pub manifest: RunManifest,
}

/// What a run records besides its result, and how it steps the engine.
/// None of the options changes the simulation: tracing, profiling and
/// record keeping only observe, and the naive stepper is bit-exact with
/// the fast path (the differential suite checks all four).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Step every slot instead of fast-forwarding dead air with
    /// `Engine::advance_to` (the reference for differential testing).
    pub naive: bool,
    /// Record the full protocol event trace.
    pub trace: bool,
    /// Time the engine phases (the timers include the cost of tracing
    /// when both are on).
    pub profile: bool,
    /// Keep every sender's raw service records (`record.msg.src`
    /// identifies the sender), for invariant checkers.
    pub records: bool,
}

/// One run: its result plus whatever [`RunOpts`] asked to record.
#[derive(Debug)]
pub struct Run {
    /// The run's result.
    pub result: RunResult,
    /// The event trace, when [`RunOpts::trace`] was set.
    pub trace: Option<Trace>,
    /// The engine phase timers, when [`RunOpts::profile`] was set.
    pub profile: Option<ProfileReport>,
    /// Every sender's service records, when [`RunOpts::records`] was set
    /// (empty otherwise).
    pub records: Vec<SentRecord>,
}

/// Executes one seeded run of `scenario` under `protocol` on the
/// event-horizon fast path (bit-exact with [`run_one_naive`]).
pub fn run_one(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> RunResult {
    run(scenario, protocol, seed, RunOpts::default()).result
}

/// [`run_one`] with naive slot-by-slot stepping: the reference the
/// differential suite diffs the fast path against.
pub fn run_one_naive(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> RunResult {
    let opts = RunOpts {
        naive: true,
        ..RunOpts::default()
    };
    run(scenario, protocol, seed, opts).result
}

/// Random-waypoint motion and the beacon view stations act on. Ground
/// truth moves every `config.update_period` slots; stations refresh
/// their neighbor tables and advertised positions only every
/// `config.beacon_period` slots, so in between they act on *stale*
/// beacon state — the realistic failure mode for neighbor-list-based
/// multicast.
struct Motion {
    config: MobilityConfig,
    waypoint: RandomWaypoint,
    /// The topology as of the last beacon exchange.
    beacon: Topology,
    radius: f64,
    position_noise: f64,
    noise_rng: SmallRng,
}

impl Motion {
    /// Applies the motion and beacon events due at slot `t`. External
    /// events must land at their exact slot, so the fast path catches
    /// the engine up before mutating the world it simulates.
    fn at_slot(&mut self, t: Slot, engine: &mut Engine, nodes: &mut [MacNode], fast: bool) {
        if t == 0 {
            return;
        }
        if t.is_multiple_of(self.config.update_period) {
            if fast {
                engine.advance_to(nodes, t);
            }
            self.waypoint.step(self.config.update_period);
            engine.set_topology(self.waypoint.topology(self.radius));
        }
        if t.is_multiple_of(self.config.beacon_period) {
            if fast {
                engine.advance_to(nodes, t);
            }
            self.beacon = engine.topology().clone();
            let advertised =
                advertised_positions(&self.beacon, self.position_noise, &mut self.noise_rng);
            for node in nodes.iter_mut() {
                node.refresh_neighbors(&self.beacon, Arc::clone(&advertised));
                // The refresh mutates stations outside the engine:
                // invalidate their cached wakeup hints.
                if fast {
                    engine.wake(node.core().id);
                }
            }
        }
    }
}

/// The positions stations advertise in their beacons: the true ones,
/// each coordinate offset by Gaussian noise of std deviation `sigma`
/// when it is positive (GPS error).
fn advertised_positions(topo: &Topology, sigma: f64, rng: &mut SmallRng) -> Arc<Vec<Point>> {
    if sigma <= 0.0 {
        return Arc::new(topo.positions().to_vec());
    }
    Arc::new(
        topo.positions()
            .iter()
            .map(|p| p.offset(gaussian(rng, sigma), gaussian(rng, sigma)))
            .collect(),
    )
}

/// Executes one seeded run of `scenario` under `protocol`, recording
/// what `opts` asks for. Every run, static or mobile, traced or not,
/// goes through this one loop.
pub fn run(scenario: &Scenario, protocol: ProtocolKind, seed: u64, opts: RunOpts) -> Run {
    let fast = !opts.naive;
    let t_setup = Instant::now();
    let topo = uniform_square(scenario.n_nodes, scenario.radius, seed);
    let mean_degree = topo.mean_degree();
    // Stations advertise noisy GPS positions in their beacons; the
    // channel keeps using the true geometry.
    let mut noise_rng = SmallRng::seed_from_u64(seed ^ NOISE_SEED);
    let mut nodes = if scenario.position_noise > 0.0 {
        let advertised = advertised_positions(&topo, scenario.position_noise, &mut noise_rng);
        MacNode::build_network_with_positions(&topo, advertised, protocol, scenario.timing, seed)
    } else {
        MacNode::build_network(&topo, protocol, scenario.timing, seed)
    };
    let mut motion = scenario.mobility.map(|config| Motion {
        config,
        waypoint: RandomWaypoint::new(topo.positions().to_vec(), config, seed),
        beacon: topo.clone(),
        radius: scenario.radius,
        position_noise: scenario.position_noise,
        noise_rng,
    });
    let mut engine = Engine::new(topo, scenario.capture, seed.wrapping_add(0x5eed));
    if scenario.fer > 0.0 {
        engine.set_fer(scenario.fer);
    }
    if !scenario.faults.is_empty() {
        engine.set_faults(scenario.faults.clone());
    }
    if let Some(model) = scenario.burst {
        engine.set_burst(model, seed ^ BURST_SEED);
    }
    if opts.trace {
        engine.enable_trace();
    }
    if opts.profile {
        engine.enable_profiling();
    }
    let mut traffic = TrafficGen::new(scenario.msg_rate, scenario.mix, seed);
    let mut arrivals = Vec::new();
    let mut stalls = Vec::new();
    let setup_us = t_setup.elapsed().as_micros() as u64;

    let t_simulate = Instant::now();
    // The traffic stream is drawn per slot either way (stream identity);
    // the fast path only wakes the engine for slots with arrivals and
    // lets `advance_to` fast-forward the dead air in between.
    for t in 0..scenario.sim_slots {
        // Requests are addressed to the neighbors the sender *believes*
        // it has: under mobility, the beacon view, not the ground truth.
        let view = match motion.as_mut() {
            Some(m) => {
                m.at_slot(t, &mut engine, &mut nodes, fast);
                &m.beacon
            }
            None => engine.topology(),
        };
        traffic.tick(view, t, &mut arrivals);
        // Membership churn rewrites the arrival list *after* the traffic
        // draws, so the RNG stream is identical with or without a plan.
        scenario.churn.filter_arrivals(t, &mut arrivals);
        if fast {
            if !arrivals.is_empty() {
                engine.advance_to(&mut nodes, t);
                for a in &arrivals {
                    nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), t);
                    // The enqueue perturbs the station from outside the
                    // engine: force its next on_slot past any stale hint.
                    engine.wake(a.node);
                }
            }
        } else {
            for a in &arrivals {
                nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), t);
            }
        }
        // The watchdog inspects the network at multiples of its window,
        // before slot `t` is simulated (the fast path catches the engine
        // up first; chunked `advance_to` is bit-exact, so enabling the
        // watchdog never changes the run itself).
        if let Some(w) = scenario.stall_window {
            if t > 0 && t % w == 0 {
                if fast {
                    engine.advance_to(&mut nodes, t);
                }
                check_stalls(&engine, &nodes, t, w, &mut stalls);
            }
        }
        if !fast {
            engine.step(&mut nodes);
        }
    }
    if fast {
        engine.advance_to(&mut nodes, scenario.sim_slots);
    }
    for node in &mut nodes {
        node.drain_unfinished(scenario.sim_slots);
    }
    let simulate_us = t_simulate.elapsed().as_micros() as u64;

    let t_collect = Instant::now();
    let messages = collect_messages(&nodes, scenario);
    let group: Vec<MessageMetric> = messages.iter().filter(|m| m.is_group).cloned().collect();
    let unicast: Vec<MessageMetric> = messages.iter().filter(|m| !m.is_group).cloned().collect();
    let mut frames = FrameKindCounts::default();
    for node in &nodes {
        frames.add(&node.counters().sent_by_kind);
    }
    let records = if opts.records {
        nodes
            .iter()
            .flat_map(|n| n.records().iter().cloned())
            .collect()
    } else {
        Vec::new()
    };
    let churn_epochs = scenario
        .churn
        .epoch_metrics(&messages, scenario.reliability_threshold);
    let collect_us = t_collect.elapsed().as_micros() as u64;
    let result = RunResult {
        seed,
        mean_degree,
        group_metrics: RunMetrics::compute(&group, scenario.reliability_threshold),
        unicast_metrics: RunMetrics::compute(&unicast, scenario.reliability_threshold),
        messages,
        collisions: engine.channel().collisions_total,
        utilization: engine.channel().busy_slots as f64 / scenario.sim_slots as f64,
        airtime: engine.channel().ledger().breakdown(scenario.sim_slots),
        frames,
        stalls,
        churn_epochs,
        manifest: RunManifest {
            scenario: scenario.clone(),
            protocol,
            seed,
            slot_budget: scenario.sim_slots,
            traced: opts.trace,
            wall_clock: PhaseTimings {
                setup_us,
                simulate_us,
                collect_us,
            },
        },
    };
    Run {
        result,
        profile: engine.take_profile(),
        trace: engine.take_trace(),
        records,
    }
}

/// Executes `scenario.n_runs` seeded runs in parallel (one OS thread per
/// available core) and returns them ordered by seed.
pub fn run_many(scenario: &Scenario, protocol: ProtocolKind) -> Vec<RunResult> {
    run_many_jobs(scenario, protocol, 0, 0)
}

/// [`run_many`] with a seed offset, for experiments that must not share
/// topologies across sweep points, and an explicit worker count (`0` =
/// one per available core). Each run derives all randomness from its own
/// seed, and the fleet pool merges results back in seed order, so the
/// output is identical at any worker count.
pub fn run_many_jobs(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed_base: u64,
    workers: usize,
) -> Vec<RunResult> {
    let seeds: Vec<u64> = (0..scenario.n_runs as u64).map(|s| s + seed_base).collect();
    let workers = rmm_fleet::resolve_workers(workers, seeds.len());
    rmm_fleet::run_parallel(workers, &seeds, |_w, &seed| {
        run_one(scenario, protocol, seed)
    })
}

/// Means of the headline per-run metrics across `results` (delivery rate,
/// contention phases, completion time), over group traffic. Internally a
/// seed-keyed partial merge with a canonical-order finalize, so the same
/// set of runs yields the bit-identical mean regardless of the order the
/// slice happens to be in.
pub fn mean_group_metrics(results: &[RunResult]) -> RunMetrics {
    let mut merge = rmm_stats::RunMetricsMerge::new();
    for r in results {
        merge.absorb(r.seed, r.group_metrics);
    }
    merge.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario {
            n_nodes: 40,
            sim_slots: 2_000,
            n_runs: 3,
            msg_rate: 1e-3,
            ..Scenario::default()
        }
    }

    #[test]
    fn watchdog_flags_a_silent_sender_and_skips_fault_blocked_nodes() {
        use rmm_mac::MacTiming;
        use rmm_sim::{Capture, FaultPlan, Topology};

        // Two nodes in range; node 0 multicasts to node 1 with an
        // effectively infinite service timeout, so the message is still
        // active long after its last transmission.
        let build = |faults: FaultPlan| {
            let topo = Topology::new(vec![Point::new(0.4, 0.5), Point::new(0.6, 0.5)], 0.3);
            let timing = MacTiming {
                timeout: 1_000_000,
                retry_limit: u32::MAX,
                dest_retry_limit: u32::MAX,
                ..Default::default()
            };
            let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmw, timing, 9);
            let mut engine = Engine::new(topo, Capture::ZorziRao, 9);
            engine.set_faults(faults);
            nodes[0].enqueue(rmm_mac::TrafficKind::Multicast, vec![NodeId(1)], 0);
            engine.run(&mut nodes, 50);
            (engine, nodes)
        };

        let (engine, nodes) = build(FaultPlan::new().crash(NodeId(1), 0));
        let last = engine.last_tx(NodeId(0)).expect("sender transmitted");
        let mut stalls = Vec::new();
        // Inside the window: quiet.
        check_stalls(&engine, &nodes, last + 10, 200, &mut stalls);
        assert!(stalls.is_empty(), "{stalls:?}");
        // A full window with no transmission: reported, exactly once.
        check_stalls(&engine, &nodes, last + 200, 200, &mut stalls);
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!(stalls[0].node, NodeId(0));
        assert_eq!(stalls[0].last_tx, Some(last));
        check_stalls(&engine, &nodes, last + 400, 200, &mut stalls);
        assert_eq!(stalls.len(), 1, "same (node, msg) reported twice");

        // The same silence from a TX-muted sender is expected impairment,
        // not a wedged FSM: never reported.
        let (engine, nodes) = build(
            FaultPlan::new()
                .mute(NodeId(0), 0, 1_000_000)
                .crash(NodeId(1), 0),
        );
        assert_eq!(engine.last_tx(NodeId(0)), None);
        let mut stalls = Vec::new();
        check_stalls(&engine, &nodes, 10_000, 200, &mut stalls);
        assert!(stalls.is_empty(), "{stalls:?}");
    }

    #[test]
    fn run_one_is_deterministic() {
        let s = small();
        let a = run_one(&s, ProtocolKind::Bmmm, 5);
        let b = run_one(&s, ProtocolKind::Bmmm, 5);
        assert_eq!(a.messages.len(), b.messages.len());
        assert_eq!(a.collisions, b.collisions);
        assert_eq!(a.group_metrics.delivery_rate, b.group_metrics.delivery_rate);
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let s = small();
        let a = run_one(&s, ProtocolKind::Bmmm, 5);
        let b = run_one(&s, ProtocolKind::Bmmm, 6);
        assert!(a.mean_degree != b.mean_degree || a.messages.len() != b.messages.len());
    }

    #[test]
    fn run_many_matches_run_one() {
        let s = small();
        let many = run_many(&s, ProtocolKind::Ieee80211);
        assert_eq!(many.len(), 3);
        let lone = run_one(&s, ProtocolKind::Ieee80211, 1);
        assert_eq!(many[1].messages.len(), lone.messages.len());
        assert_eq!(
            many[1].group_metrics.delivery_rate,
            lone.group_metrics.delivery_rate
        );
        assert_eq!(many[1].seed, 1);
    }

    #[test]
    fn traffic_actually_flows() {
        let s = small();
        let r = run_one(&s, ProtocolKind::Bmmm, 2);
        assert!(
            r.group_metrics.messages > 10,
            "only {} messages",
            r.group_metrics.messages
        );
        assert!(r.unicast_metrics.messages > 0);
        assert!(r.group_metrics.delivery_rate > 0.0);
    }

    #[test]
    fn mean_group_metrics_averages() {
        let s = small();
        let results = run_many(&s, ProtocolKind::Bmmm);
        let mean = mean_group_metrics(&results);
        let manual: f64 = results
            .iter()
            .map(|r| r.group_metrics.delivery_rate)
            .sum::<f64>()
            / results.len() as f64;
        assert!((mean.delivery_rate - manual).abs() < 1e-12);
    }

    #[test]
    fn run_many_jobs_is_worker_count_invariant() {
        let s = Scenario {
            n_runs: 5,
            ..small()
        };
        let serial = run_many_jobs(&s, ProtocolKind::Bmmm, 100, 1);
        let serial_mean = mean_group_metrics(&serial);
        for workers in [2, 8] {
            let par = run_many_jobs(&s, ProtocolKind::Bmmm, 100, workers);
            assert_eq!(par.len(), serial.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.collisions, b.collisions);
                assert_eq!(a.frames, b.frames);
                assert_eq!(
                    a.group_metrics.delivery_rate.to_bits(),
                    b.group_metrics.delivery_rate.to_bits(),
                    "workers = {workers}"
                );
                assert_eq!(
                    a.group_metrics.avg_completion_time.to_bits(),
                    b.group_metrics.avg_completion_time.to_bits()
                );
            }
            let par_mean = mean_group_metrics(&par);
            assert_eq!(
                serial_mean.delivery_rate.to_bits(),
                par_mean.delivery_rate.to_bits()
            );
        }
    }

    #[test]
    fn mean_group_metrics_is_order_independent() {
        let s = small();
        let mut results = run_many(&s, ProtocolKind::Bmw);
        let forward = mean_group_metrics(&results);
        results.reverse();
        let backward = mean_group_metrics(&results);
        assert_eq!(
            forward.delivery_rate.to_bits(),
            backward.delivery_rate.to_bits()
        );
        assert_eq!(
            forward.avg_contention_phases.to_bits(),
            backward.avg_contention_phases.to_bits()
        );
        assert_eq!(forward.messages, backward.messages);
    }

    #[test]
    fn merged_run_registries_are_order_independent() {
        let s = small();
        let results = run_many(&s, ProtocolKind::Bmmm);
        let regs: Vec<rmm_stats::MetricsRegistry> = results
            .iter()
            .map(|r| crate::observe::collect_metrics(&[], &r.messages))
            .collect();
        let mut forward = rmm_stats::MetricsRegistry::new();
        for reg in &regs {
            forward.merge(reg);
        }
        let mut backward = rmm_stats::MetricsRegistry::new();
        for reg in regs.iter().rev() {
            backward.merge(reg);
        }
        assert_eq!(
            serde_json::to_string(&forward).unwrap(),
            serde_json::to_string(&backward).unwrap()
        );
    }
}
