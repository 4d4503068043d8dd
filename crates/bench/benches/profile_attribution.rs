//! Self-profiling attribution: where engine wall-clock goes, per phase,
//! on an idle-dominated and a busy (saturated) workload — and what the
//! profiling itself costs.
//!
//! A custom harness in the `engine_horizon` mold: for each scenario it
//! runs the fast path with profiling off and on, cross-checks that the
//! simulated outcomes are identical (profiling is a pure observer),
//! medians the wall-clock over reps to get the profiling overhead, and
//! writes per-phase ns/calls/fractions plus the channel airtime
//! breakdown to `BENCH_profile.json`.
//!
//! Env knobs: `BENCH_SMOKE=1` shrinks reps/slots for CI smoke runs;
//! `BENCH_PROFILE_OUT` overrides the output path (default
//! `results/BENCH_profile.json` at the workspace root).

use rmm::mac::ProtocolKind;
use rmm::workload::{run, run_one, RunOpts, Scenario};
use serde::Serialize;
use std::time::Instant;

struct Spec {
    name: &'static str,
    scenario: Scenario,
}

fn specs(smoke: bool) -> Vec<Spec> {
    let slots = |n: u64| if smoke { n / 10 } else { n };
    vec![
        Spec {
            name: "idle_dominated",
            scenario: Scenario {
                n_nodes: 100,
                sim_slots: slots(20_000),
                msg_rate: 5e-5,
                n_runs: 1,
                ..Scenario::default()
            },
        },
        Spec {
            name: "busy_network",
            scenario: Scenario {
                n_nodes: 100,
                sim_slots: slots(10_000),
                msg_rate: 5e-3,
                n_runs: 1,
                ..Scenario::default()
            },
        },
    ]
}

use rmm_bench::{median, percentile};

#[derive(Debug, Serialize)]
struct PhaseRow {
    phase: String,
    ns: u64,
    calls: u64,
    fraction: f64,
}

#[derive(Debug, Serialize)]
struct ScenarioReport {
    name: &'static str,
    nodes: usize,
    sim_slots: u64,
    msg_rate: f64,
    reps: usize,
    /// Median wall-clock of the plain (unprofiled) run, milliseconds.
    plain_ms: f64,
    /// Median wall-clock of the profiled run, milliseconds.
    profiled_ms: f64,
    /// 95th-percentile wall-clock of the plain run, milliseconds
    /// (nearest rank — with few reps this is the worst rep, so
    /// single-rep noise spikes are visible instead of folded into the
    /// median).
    plain_p95_ms: f64,
    /// 95th-percentile wall-clock of the profiled run, milliseconds.
    profiled_p95_ms: f64,
    /// Profiling cost relative to the plain run, percent (of medians).
    overhead_pct: f64,
    /// Per-phase attribution, summed over the profiled reps.
    phases: Vec<PhaseRow>,
    /// Channel airtime breakdown (identical across reps by determinism).
    airtime: rmm::sim::AirtimeBreakdown,
    /// Whether profiled and unprofiled runs simulated the same thing.
    outcomes_match: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: &'static str,
    smoke: bool,
    host: rmm_bench::HostMeta,
    scenarios: Vec<ScenarioReport>,
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let reps = if smoke { 3 } else { 7 };
    let seed = 42u64;
    let protocol = ProtocolKind::Bmmm;
    let mut scenarios = Vec::new();
    for spec in specs(smoke) {
        let scenario = &spec.scenario;
        let mut plain_ms = Vec::new();
        let mut profiled_ms = Vec::new();
        let mut merged = rmm::stats::ProfileReport::default();
        let mut outcomes_match = true;
        let mut airtime = None;
        for _ in 0..reps {
            let start = Instant::now();
            let plain = run_one(scenario, protocol, seed);
            plain_ms.push(start.elapsed().as_secs_f64() * 1e3);

            let start = Instant::now();
            let opts = RunOpts {
                profile: true,
                ..RunOpts::default()
            };
            let run = run(scenario, protocol, seed, opts);
            profiled_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let (profiled, report) = (run.result, run.profile.expect("profiling was enabled"));

            outcomes_match &= plain.airtime == profiled.airtime
                && plain.collisions == profiled.collisions
                && serde_json::to_string(&plain.group_metrics).expect("metrics serialize")
                    == serde_json::to_string(&profiled.group_metrics).expect("metrics serialize");
            merged.merge(&report);
            airtime = Some(profiled.airtime);
        }
        let plain_med = median(&plain_ms);
        let profiled_med = median(&profiled_ms);
        let phases = merged
            .phases
            .iter()
            .map(|p| PhaseRow {
                phase: p.name.clone(),
                ns: p.ns,
                calls: p.calls,
                fraction: p.ns as f64 / merged.total_ns.max(1) as f64,
            })
            .collect();
        let report = ScenarioReport {
            name: spec.name,
            nodes: scenario.n_nodes,
            sim_slots: scenario.sim_slots,
            msg_rate: scenario.msg_rate,
            reps,
            plain_ms: plain_med,
            profiled_ms: profiled_med,
            plain_p95_ms: percentile(&plain_ms, 0.95),
            profiled_p95_ms: percentile(&profiled_ms, 0.95),
            overhead_pct: 100.0 * (profiled_med - plain_med) / plain_med.max(1e-9),
            phases,
            airtime: airtime.expect("at least one rep"),
            outcomes_match,
        };
        let hottest = report
            .phases
            .iter()
            .max_by_key(|p| p.ns)
            .expect("phases non-empty");
        eprintln!(
            "[profile_attribution] {:<15} plain {:>7.1} ms | profiled {:>7.1} ms | overhead {:>5.1}% | hottest {} ({:.1}%) | deterministic: {}",
            report.name,
            report.plain_ms,
            report.profiled_ms,
            report.overhead_pct,
            hottest.phase,
            hottest.fraction * 100.0,
            report.outcomes_match,
        );
        assert!(
            report.outcomes_match,
            "{}: profiling perturbed the simulation",
            report.name
        );
        scenarios.push(report);
    }
    let report = Report {
        bench: "profile_attribution",
        smoke,
        host: rmm_bench::host_meta(),
        scenarios,
    };
    let out = std::env::var("BENCH_PROFILE_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../results/BENCH_profile.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write BENCH_profile.json");
    eprintln!("[profile_attribution] wrote {out}");
}
