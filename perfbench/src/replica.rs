//! The traced replica of `rmm_workload::run_one`: the same calls into
//! the same public functions, in the same order, with a span around
//! each layer boundary. It covers the plain scenarios the benchmark
//! runs (no position noise, faults, burst errors, watchdog or churn);
//! the benchmark checks every replica against `run_one` bit for bit.

use crate::spans::{Recorder, SpanId};
use rmm_mac::{FrameKindCounts, MacNode, ProtocolKind};
use rmm_sim::Engine;
use rmm_stats::Phase;
use rmm_stats::{MessageMetric, RunMetrics};
use rmm_workload::observe::{PhaseTimings, RunManifest};
use rmm_workload::{uniform_square, RunResult, Scenario, TrafficGen};
use std::time::Instant;

/// Counts taken at the layer boundaries of one replica run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub slots: u64,
    pub arrivals: u64,
    pub enqueues: u64,
    pub advance_calls: u64,
    pub skipped: u64,
    pub collisions: u64,
    pub busy_slots: u64,
    pub collision_slots: u64,
    pub frames_sent: u64,
    pub completed_msgs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn absorb(&mut self, o: &Counts) {
        self.slots += o.slots;
        self.arrivals += o.arrivals;
        self.enqueues += o.enqueues;
        self.advance_calls += o.advance_calls;
        self.skipped += o.skipped;
        self.collisions += o.collisions;
        self.busy_slots += o.busy_slots;
        self.collision_slots += o.collision_slots;
        self.frames_sent += o.frames_sent;
        self.completed_msgs += o.completed_msgs;
        self.bytes += o.bytes;
    }
}

/// Whether `run_one` on this scenario takes exactly the path the
/// replica mirrors.
pub fn is_plain(s: &Scenario) -> bool {
    s.position_noise == 0.0
        && s.fer == 0.0
        && s.faults.is_empty()
        && s.burst.is_none()
        && s.stall_window.is_none()
        && s.churn.is_empty()
}

/// The runner's message collection, over the same public records.
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
                timed_out: matches!(rec.outcome, rmm_mac::Outcome::TimedOut(_)),
                contention_phases: rec.contention_phases,
                completion_time: rec.completion_time(),
                arrival: rec.arrival,
            });
        }
    }
    messages
}

/// Runs one cell as `run_one` does, recording spans under `parent`.
pub fn run(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> (RunResult, Counts) {
    assert!(
        is_plain(scenario),
        "the replica mirrors plain scenarios only"
    );
    let cell = rec.open("runner.cell", parent);
    let mut counts = Counts::default();

    let t0 = Instant::now();
    let topo = uniform_square(scenario.n_nodes, scenario.radius, seed);
    let t1 = Instant::now();
    let mut nodes = MacNode::build_network(&topo, protocol, scenario.timing, seed);
    let t2 = Instant::now();
    let mean_degree = topo.mean_degree();
    let mut engine = Engine::new(topo, scenario.capture, seed.wrapping_add(0x5eed));
    // Stride 1: every phase of every slot is timed, so the six phase
    // totals are exact rather than sampled estimates.
    engine.enable_profiling_stride(1);
    let mut traffic = TrafficGen::new(scenario.msg_rate, scenario.mix, seed);
    let t3 = Instant::now();
    rec.record("setup.topology", Some(cell), t0, t1);
    rec.record("setup.network", Some(cell), t1, t2);
    rec.record("setup.engine", Some(cell), t2, t3);
    let setup_us = (t3 - t0).as_micros() as u64;

    let sim = rec.aggregate("runner.loop", Some(cell));
    let tick = rec.aggregate("traffic.tick", Some(sim));
    let advance = rec.aggregate("engine.advance", Some(sim));
    let enqueue = rec.aggregate("mac.enqueue", Some(sim));
    let drain = rec.aggregate("mac.drain", Some(sim));
    let mut arrivals = Vec::new();
    let t_sim = Instant::now();
    for t in 0..scenario.sim_slots {
        let a = Instant::now();
        traffic.tick(engine.topology(), t, &mut arrivals);
        scenario.churn.filter_arrivals(t, &mut arrivals);
        let b = Instant::now();
        rec.add(tick, a, b);
        if !arrivals.is_empty() {
            engine.advance_to(&mut nodes, t);
            let c = Instant::now();
            rec.add(advance, b, c);
            for arr in &arrivals {
                nodes[arr.node.index()].enqueue(arr.kind, arr.receivers.clone(), t);
                engine.wake(arr.node);
            }
            rec.add(enqueue, c, Instant::now());
            counts.advance_calls += 1;
            counts.arrivals += arrivals.len() as u64;
        }
    }
    let a = Instant::now();
    engine.advance_to(&mut nodes, scenario.sim_slots);
    let b = Instant::now();
    rec.add(advance, a, b);
    counts.advance_calls += 1;
    for node in &mut nodes {
        node.drain_unfinished(scenario.sim_slots);
    }
    let t_end = Instant::now();
    rec.add(drain, b, t_end);
    rec.add(sim, t_sim, t_end);
    let simulate_us = (t_end - t_sim).as_micros() as u64;
    counts.enqueues = counts.arrivals;
    counts.slots = scenario.sim_slots;
    counts.skipped = engine.slots_skipped();
    let profile = engine.take_profile().expect("profiling was enabled");
    for phase in Phase::ALL {
        let stat = profile
            .phase(phase.name())
            .expect("every phase is reported");
        rec.synthetic(phase_span(phase), advance, stat.ns, stat.calls);
    }

    let t_collect = Instant::now();
    let messages = collect_messages(&nodes, scenario);
    let group: Vec<MessageMetric> = messages.iter().filter(|m| m.is_group).cloned().collect();
    let unicast: Vec<MessageMetric> = messages.iter().filter(|m| !m.is_group).cloned().collect();
    let mut frames = FrameKindCounts::default();
    for node in &nodes {
        frames.add(&node.counters().sent_by_kind);
        counts.frames_sent += node.counters().frames_sent;
    }
    let churn_epochs = scenario
        .churn
        .epoch_metrics(&messages, scenario.reliability_threshold);
    let group_metrics = RunMetrics::compute(&group, scenario.reliability_threshold);
    let unicast_metrics = RunMetrics::compute(&unicast, scenario.reliability_threshold);
    let channel = engine.channel();
    let airtime = channel.ledger().breakdown(scenario.sim_slots);
    counts.collisions = channel.collisions_total;
    counts.busy_slots = channel.busy_slots;
    counts.collision_slots = airtime.collision_slots;
    counts.completed_msgs = messages.iter().filter(|m| m.completed).count() as u64;
    let collect_us = t_collect.elapsed().as_micros() as u64;
    let result = RunResult {
        seed,
        mean_degree,
        group_metrics,
        unicast_metrics,
        messages,
        collisions: channel.collisions_total,
        utilization: channel.busy_slots as f64 / scenario.sim_slots as f64,
        airtime,
        frames,
        stalls: Vec::new(),
        churn_epochs,
        manifest: RunManifest {
            scenario: scenario.clone(),
            protocol,
            seed,
            slot_budget: scenario.sim_slots,
            traced: false,
            wall_clock: PhaseTimings {
                setup_us,
                simulate_us,
                collect_us,
            },
        },
    };
    let t_ser = Instant::now();
    rec.record("collect.metrics", Some(cell), t_collect, t_ser);
    let bytes = serde_json::to_string(&result).expect("run result serializes");
    rec.record("collect.serialize", Some(cell), t_ser, Instant::now());
    counts.bytes = bytes.len() as u64;
    rec.close(cell);
    (result, counts)
}

fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::CarrierSense => "engine.carrier_sense",
        Phase::Resolve => "engine.resolve",
        Phase::Deliver => "engine.deliver",
        Phase::FsmDispatch => "engine.fsm_dispatch",
        Phase::TxLaunch => "engine.tx_launch",
        Phase::HorizonScan => "engine.horizon_scan",
    }
}
