//! Differential determinism suite for the event-horizon fast path.
//!
//! [`run_one`] steps the engine with `Engine::advance_to`, which
//! fast-forwards through dead air using `Station::next_wakeup` hints;
//! [`run_one_naive`] steps every slot. The two must be **bit-exact**:
//! identical `RunResult`s (modulo wall-clock provenance), identical
//! trace event streams, and identical `MetricsRegistry` output — for
//! every protocol kind, across seeds, in both calm and saturated
//! networks, and under mobility.

use rmm_fleet::Fnv1a;
use rmm_mac::{ProtocolKind, SentRecord};
use rmm_sim::{FaultPlan, GilbertElliott, NodeId, Trace, TraceEvent};
use rmm_workload::{
    collect_metrics, run, run_one, run_one_naive, ChurnPlan, MobilityConfig, PhaseTimings, RunOpts,
    RunResult, Scenario,
};

const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];

const ALL_PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Ieee80211,
    ProtocolKind::TangGerla,
    ProtocolKind::Bsma,
    ProtocolKind::Bmw,
    ProtocolKind::Bmmm,
    ProtocolKind::Lamm,
    ProtocolKind::LeaderBased,
    ProtocolKind::BmmmUncoordinated,
];

/// Serializes a result with the (nondeterministic) wall-clock phase
/// timings zeroed, so equality means byte-identical simulation output.
fn canonical(mut r: RunResult) -> String {
    r.manifest.wall_clock = PhaseTimings::default();
    serde_json::to_string(&r).expect("RunResult serializes")
}

/// One traced run on the fast path or the naive stepper.
fn run_traced(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    naive: bool,
) -> (RunResult, Trace) {
    let opts = RunOpts {
        naive,
        trace: true,
        ..RunOpts::default()
    };
    let run = run(scenario, protocol, seed, opts);
    (run.result, run.trace.expect("tracing was enabled"))
}

fn assert_bit_exact(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    label: &str,
) -> (RunResult, Trace) {
    let (fast, fast_trace) = run_traced(scenario, protocol, seed, false);
    let (naive, naive_trace) = run_traced(scenario, protocol, seed, true);
    assert_eq!(
        fast_trace.events(),
        naive_trace.events(),
        "[{label}] {protocol:?} seed {seed}: trace diverged"
    );
    assert_eq!(
        canonical(fast.clone()),
        canonical(naive),
        "[{label}] {protocol:?} seed {seed}: RunResult diverged"
    );
    let fast_metrics = collect_metrics(fast_trace.events(), &fast.messages);
    let naive_metrics = collect_metrics(naive_trace.events(), &fast.messages);
    assert_eq!(
        serde_json::to_string(&fast_metrics).expect("registry serializes"),
        serde_json::to_string(&naive_metrics).expect("registry serializes"),
        "[{label}] {protocol:?} seed {seed}: metrics diverged"
    );
    (fast, fast_trace)
}

/// Every protocol kind, ≥5 seeds, moderate load: the headline guarantee.
#[test]
fn fast_stepping_is_bit_exact_for_all_protocols() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    let mut traffic_seen = false;
    for protocol in ALL_PROTOCOLS {
        for seed in SEEDS {
            let (result, _) = assert_bit_exact(&scenario, protocol, seed, "load");
            traffic_seen |= !result.messages.is_empty();
        }
    }
    assert!(traffic_seen, "suite exercised no traffic at all");
}

/// Idle-dominated runs are where the fast path actually skips: long
/// gaps between arrivals stress the contention/NAV replay math.
#[test]
fn fast_stepping_is_bit_exact_when_idle_dominated() {
    let scenario = Scenario {
        n_nodes: 30,
        sim_slots: 6_000,
        n_runs: 1,
        msg_rate: 1e-4,
        ..Scenario::default()
    };
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Bsma, ProtocolKind::Bmw] {
        for seed in [11, 12] {
            assert_bit_exact(&scenario, protocol, seed, "idle");
        }
    }
}

/// Channel imperfections (frame errors, capture) draw from the engine
/// RNG; skipping a slot that consumed a draw would desynchronize the
/// stream and everything after it.
#[test]
fn fast_stepping_preserves_channel_rng_stream() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        fer: 0.05,
        ..Scenario::default()
    };
    for seed in [21, 22, 23] {
        assert_bit_exact(&scenario, ProtocolKind::Bmmm, seed, "fer");
    }
}

/// Fault injection and the burst-error channel are the newest pressure
/// on the fast path: crashes re-route frames, the burst chains consume
/// their own RNG stream per reception, give-ups change FSM control flow,
/// and the watchdog forces extra `advance_to` calls at window
/// boundaries. All of it must stay bit-exact — and actually fire.
#[test]
fn fast_stepping_is_bit_exact_under_faults() {
    // The service timeout is stretched and the per-destination budget
    // tightened so senders actually reach the give-up path before the
    // message times out.
    let timing = rmm_mac::MacTiming {
        timeout: 500,
        dest_retry_limit: 3,
        ..Default::default()
    };
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_500,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(
        FaultPlan::new()
            .crash(rmm_sim::NodeId(3), 400)
            .crash(rmm_sim::NodeId(11), 900)
            .deaf(rmm_sim::NodeId(5), 200, 1_200)
            .mute(rmm_sim::NodeId(7), 600, 1_800),
    )
    .with_burst(GilbertElliott::new(0.05, 0.25))
    .with_stall_window(500);
    let mut give_ups = 0usize;
    let mut faulted_receiver_seen = false;
    for protocol in ALL_PROTOCOLS {
        for seed in [41, 42] {
            let (result, trace) = assert_bit_exact(&scenario, protocol, seed, "faults");
            give_ups += trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::GiveUp { .. }))
                .count();
            faulted_receiver_seen |= result.messages.iter().any(|m| m.reachable < m.intended);
        }
    }
    assert!(give_ups > 0, "fault scenario produced no give-up events");
    assert!(
        faulted_receiver_seen,
        "no message ever had a faulted receiver"
    );
}

/// Reboot faults and membership churn are the chaos harness's pressure
/// points on the fast path: the engine must land on every
/// reboot-completion slot to cold-reset the MAC, and the membership
/// filter rewrites receiver lists at churn boundaries — in both
/// stepping modes, identically.
#[test]
fn fast_stepping_is_bit_exact_under_reboot_and_churn() {
    let timing = rmm_mac::MacTiming {
        timeout: 300,
        ..Default::default()
    };
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_500,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(
        FaultPlan::new()
            .reboot(NodeId(3), 300, 900)
            .reboot(NodeId(9), 1_200, 1_900)
            .crash(NodeId(15), 800),
    )
    .with_churn(
        ChurnPlan::new()
            .leave(NodeId(5), 600)
            .join(NodeId(5), 1_600)
            .leave(NodeId(12), 1_000),
    )
    .with_stall_window(600);
    let mut epoch_traffic = 0usize;
    for protocol in ALL_PROTOCOLS {
        for seed in [51, 52] {
            let (result, _) = assert_bit_exact(&scenario, protocol, seed, "reboot+churn");
            assert!(!result.churn_epochs.is_empty(), "churn produced no epochs");
            epoch_traffic += result
                .churn_epochs
                .iter()
                .map(|e| e.group_metrics.messages)
                .sum::<usize>();
        }
    }
    assert!(epoch_traffic > 0, "churn epochs collected no messages");
}

/// Plumbing inertness: a fault/churn plan whose events all lie beyond
/// the simulated horizon must not perturb the run at all — the
/// membership filter and fault hooks draw no RNG of their own. Only the
/// provenance manifest (which embeds the scenario) and the epoch table
/// (which follows the plan) may differ.
#[test]
fn armed_but_idle_chaos_plumbing_is_rng_inert() {
    let base = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    let armed = base
        .clone()
        .with_faults(FaultPlan::new().deaf(NodeId(4), 100_000, 120_000))
        .with_churn(
            ChurnPlan::new()
                .leave(NodeId(6), 100_000)
                .join(NodeId(6), 120_000),
        );
    for protocol in ALL_PROTOCOLS {
        for seed in [61, 62] {
            let mut plain = run_one(&base, protocol, seed);
            let mut idle = run_one(&armed, protocol, seed);
            plain.manifest.wall_clock = PhaseTimings::default();
            idle.manifest = plain.manifest.clone();
            idle.churn_epochs = plain.churn_epochs.clone();
            assert_eq!(
                serde_json::to_string(&plain).expect("RunResult serializes"),
                serde_json::to_string(&idle).expect("RunResult serializes"),
                "[inert] {protocol:?} seed {seed}: idle plan perturbed the run"
            );
        }
    }
}

/// The engine's phase profiler is a pure observer: it draws no RNG and
/// perturbs no dynamics, so a profiled run must be byte-identical to an
/// unprofiled one for every protocol — while still recording laps for
/// every engine phase it claims to cover.
#[test]
fn profiling_is_bit_exact_for_all_protocols() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    for protocol in ALL_PROTOCOLS {
        for seed in [1, 2] {
            let plain = run_one(&scenario, protocol, seed);
            let profile = RunOpts {
                profile: true,
                ..RunOpts::default()
            };
            let profiled = run(&scenario, protocol, seed, profile);
            let report = profiled.profile.expect("profiling was enabled");
            let profiled = profiled.result;
            assert_eq!(
                canonical(plain),
                canonical(profiled),
                "[prof] {protocol:?} seed {seed}: profiling perturbed the run"
            );
            assert!(
                report.total_ns > 0,
                "[prof] {protocol:?} seed {seed}: profiler recorded nothing"
            );
            for phase in [
                "carrier_sense",
                "resolve",
                "deliver",
                "fsm_dispatch",
                "tx_launch",
                "horizon_scan",
            ] {
                let stat = report.phase(phase).expect("every phase reported");
                assert!(
                    stat.calls > 0,
                    "[prof] {protocol:?} seed {seed}: phase {phase} never lapped"
                );
            }
            // Profiling a *traced* run must not disturb the event stream
            // either (the `rmm prof` path).
            let prof_trace = run(
                &scenario,
                protocol,
                seed,
                RunOpts {
                    trace: true,
                    ..profile
                },
            )
            .trace
            .expect("tracing was enabled");
            let (_, trace) = run_traced(&scenario, protocol, seed, false);
            assert_eq!(
                prof_trace.events(),
                trace.events(),
                "[prof] {protocol:?} seed {seed}: trace diverged under profiling"
            );
        }
    }
}

/// Mobility injects topology swaps and beacon refreshes mid-run; the
/// fast path must land the engine on exactly those slots.
#[test]
fn fast_stepping_is_bit_exact_under_mobility() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        mobility: Some(MobilityConfig::default()),
        ..Scenario::default()
    };
    for seed in [31, 32] {
        let fast = run_one(&scenario, ProtocolKind::Bmmm, seed);
        let naive = run_one_naive(&scenario, ProtocolKind::Bmmm, seed);
        assert_eq!(
            canonical(fast),
            canonical(naive),
            "mobile seed {seed}: RunResult diverged"
        );
    }
}

/// Mobile runs take the same loop as static ones, so tracing,
/// profiling and beacon-position noise reach them too: the trace stays
/// bit-exact between the steppers, neither observer perturbs the run,
/// and LAMM acts on the noisy positions its beacons advertise.
#[test]
fn mobile_runs_trace_profile_and_honour_position_noise() {
    let clean = Scenario {
        n_nodes: 60,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        ..Scenario::default()
    }
    .with_mobility(MobilityConfig {
        speed_min: 0.0,
        speed_max: 2e-4,
        update_period: 50,
        beacon_period: 200,
    });
    let noisy = clean.clone().with_position_noise(0.05);
    for protocol in ALL_PROTOCOLS {
        let (mut traced, _) = assert_bit_exact(&noisy, protocol, 33, "mobile");
        let plain = run_one(&noisy, protocol, 33);
        let profiled = RunOpts {
            profile: true,
            ..RunOpts::default()
        };
        let profiled = run(&noisy, protocol, 33, profiled).result;
        assert_eq!(
            canonical(plain.clone()),
            canonical(profiled),
            "[mobile] {protocol:?}: profiling perturbed the run"
        );
        traced.manifest.traced = false;
        assert_eq!(
            canonical(plain),
            canonical(traced),
            "[mobile] {protocol:?}: tracing perturbed the run"
        );
    }
    let (clean_run, noisy_run) = (
        run_one(&clean, ProtocolKind::Lamm, 33),
        run_one(&noisy, ProtocolKind::Lamm, 33),
    );
    assert_ne!(
        serde_json::to_string(&clean_run.messages).expect("messages serialize"),
        serde_json::to_string(&noisy_run.messages).expect("messages serialize"),
        "position noise left the mobile LAMM run untouched"
    );
}

/// Station counts that put the engine's 64-station dispatch words on
/// either side of every boundary: a lone station, one word exactly, one
/// station short of and one past a word, two words plus one, and the
/// 400-station floor.
const WORD_EDGES: [usize; 6] = [1, 63, 64, 65, 129, 400];

/// A scenario at constant mean degree (the paper's 100 stations at
/// r = 0.2), so the larger counts stay as sparse as the benchmark floor.
fn at_word_edge(n: usize) -> Scenario {
    Scenario {
        n_nodes: n,
        radius: (0.2 * (100.0 / n as f64).sqrt()).min(1.5),
        sim_slots: 1_200,
        n_runs: 1,
        msg_rate: 1e-3,
        ..Scenario::default()
    }
}

/// Asserts `run_one == run_one_naive` byte for byte; returns the number
/// of messages the run generated.
fn assert_fast_matches_naive(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    label: &str,
) -> usize {
    let fast = run_one(scenario, protocol, seed);
    let naive = run_one_naive(scenario, protocol, seed);
    let messages = fast.messages.len();
    assert_eq!(
        canonical(fast),
        canonical(naive),
        "[{label}] {protocol:?} n={} seed {seed}: RunResult diverged",
        scenario.n_nodes
    );
    messages
}

/// The selective dispatcher walks stations one 64-bit word at a time;
/// partial last words, a word boundary inside a neighbourhood and a
/// fault, reboot or churn event on a boundary station must not change
/// a single bit against naive stepping.
#[test]
fn fast_stepping_is_bit_exact_across_word_boundaries() {
    for n in WORD_EDGES {
        for protocol in ALL_PROTOCOLS {
            let messages = assert_fast_matches_naive(&at_word_edge(n), protocol, 71, "words");
            assert!(n == 1 || messages > 0, "{protocol:?} n={n}: no traffic");
        }
    }
    for n in [65, 129] {
        let last = NodeId(n as u32 - 1);
        let chaos = Scenario {
            timing: rmm_mac::MacTiming {
                timeout: 300,
                ..Default::default()
            },
            ..at_word_edge(n)
        }
        .with_faults(
            FaultPlan::new()
                .reboot(NodeId(63), 200, 700)
                .reboot(NodeId(64), 400, 900)
                .crash(last, 600)
                .deaf(NodeId(0), 100, 500),
        )
        .with_churn(
            ChurnPlan::new()
                .leave(NodeId(62), 300)
                .join(NodeId(62), 800)
                .leave(last, 500),
        )
        .with_stall_window(400);
        let mobile = at_word_edge(n).with_mobility(MobilityConfig {
            speed_min: 0.0,
            speed_max: 5e-4,
            update_period: 50,
            beacon_period: 200,
        });
        for protocol in ALL_PROTOCOLS {
            let chaotic = assert_fast_matches_naive(&chaos, protocol, 72, "words+chaos");
            let moving = assert_fast_matches_naive(&mobile, protocol, 73, "words+mobility");
            assert!(chaotic > 0 && moving > 0, "{protocol:?} n={n}: no traffic");
        }
    }
}

/// One golden cell on the fast path: the result, the trace and every
/// sender's records. The golden digests predate traced mobile runs, so
/// mobility cells pin the result alone.
fn golden_cell(
    scenario: &Scenario,
    mobility: Option<MobilityConfig>,
    protocol: ProtocolKind,
    seed: u64,
) -> (RunResult, Option<Trace>, Vec<SentRecord>) {
    let on_static = mobility.is_none();
    let scenario = Scenario {
        mobility,
        ..scenario.clone()
    };
    let opts = RunOpts {
        trace: on_static,
        records: on_static,
        ..RunOpts::default()
    };
    let run = run(&scenario, protocol, seed, opts);
    (run.result, run.trace, run.records)
}

/// FNV digest of a result's JSON with the provenance manifest left out:
/// the manifest embeds the scenario, whose shape may grow.
fn result_digest(result: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    if let serde_json::Value::Object(map) = serde_json::to_value(result) {
        for (key, value) in map.iter().filter(|(k, _)| k.as_str() != "manifest") {
            h.write_str(key);
            h.write_str(&serde_json::to_string(value).expect("value serializes"));
        }
    }
    h.finish()
}

fn json_digest<T: serde::Serialize>(items: &[T]) -> u64 {
    let mut h = Fnv1a::new();
    for item in items {
        h.write_str(&serde_json::to_string(item).expect("item serializes"));
    }
    h.finish()
}

/// The four golden scenarios: plain, beacon-position noise, the fault
/// machinery together (faults, burst channel, churn, watchdog), and
/// random-waypoint mobility.
fn golden_scenarios() -> Vec<(&'static str, Scenario, Option<MobilityConfig>)> {
    let plain = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    let faulted = Scenario {
        timing: rmm_mac::MacTiming {
            timeout: 400,
            dest_retry_limit: 3,
            ..Default::default()
        },
        ..plain.clone()
    }
    .with_faults(
        FaultPlan::new()
            .crash(NodeId(3), 300)
            .deaf(NodeId(5), 200, 900)
            .mute(NodeId(7), 400, 1_100)
            .reboot(NodeId(9), 500, 800),
    )
    .with_burst(GilbertElliott::new(0.05, 0.25))
    .with_churn(
        ChurnPlan::new()
            .leave(NodeId(12), 400)
            .join(NodeId(12), 1_000),
    )
    .with_stall_window(300);
    let mobility = MobilityConfig {
        speed_min: 0.0,
        speed_max: 2e-4,
        update_period: 50,
        beacon_period: 200,
    };
    // LAMM reads positions only through its cover sets, which need a
    // denser network than `plain` to differ from BMMM's.
    let dense = Scenario {
        n_nodes: 60,
        ..plain.clone()
    };
    vec![
        ("plain", plain, None),
        ("noise", dense.clone().with_position_noise(0.05), None),
        ("faults", faulted, None),
        ("mobility", dense, Some(mobility)),
    ]
}

/// Digests of every protocol on the four golden scenarios, pinned
/// before the runner's entry points were folded into one: `(scenario,
/// protocol, result, trace, records)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("plain", "802.11", 0xf61b2b8494acf1d3, 0x1187a3bfbedd0b5f, 0xe8e148b1422629c2),
    ("plain", "TG-RTS", 0xcd7ec4e8568162bc, 0xf997e5723d8e3c69, 0x2f2a6cca7d732acc),
    ("plain", "BSMA", 0x92b95bd49013b2da, 0x43cf42c2917339b4, 0xd7787b5e51e250f9),
    ("plain", "BMW", 0x1fe588f5682e738e, 0x5310559378de6194, 0xfe69852e714eb507),
    ("plain", "BMMM", 0xa4f9e1ee3bb81edf, 0xe02456897dae6054, 0x2d5ed532ddbf32a6),
    ("plain", "LAMM", 0xa4f9e1ee3bb81edf, 0xea74cbc878adebb1, 0x2d5ed532ddbf32a6),
    ("plain", "Leader", 0x35264edf5db8a62a, 0x230c6c7a74f4d3f1, 0xa551a0e6865dc8c2),
    ("plain", "BMMM-U", 0x127c54dc5cf52910, 0x43b787f2b63aa866, 0xada8392674082695),
    ("noise", "802.11", 0x8e236b80556779d5, 0x3833b5cddd64fd5e, 0xf281397ec72b075c),
    ("noise", "TG-RTS", 0x42ea1da06841c436, 0xa1aaa6f099190cb5, 0xdc80eb82e7538c95),
    ("noise", "BSMA", 0x1f96225a4bde6da4, 0xcd1c1c51cb949614, 0x0d62784c08918812),
    ("noise", "BMW", 0x23313568dcc50eac, 0x54fab3c10b03ac10, 0x4e68a06e5770efe6),
    ("noise", "BMMM", 0x64596d76a67b37a0, 0xb037eb6210125090, 0xe8d7b44d8c97d160),
    ("noise", "LAMM", 0xe6e19214a1ae2169, 0xecbbffcf1dfb0f3c, 0x50957e291672bc03),
    ("noise", "Leader", 0xad9112da8280cbbb, 0x02c87ee5debe0a5d, 0xd4bf37c6ead8a4f0),
    ("noise", "BMMM-U", 0xb5c8b1d7f529a3e5, 0xd54947a7bedfa389, 0x8e715c14bb508617),
    ("faults", "802.11", 0x8dce4aec0d005a18, 0xcee9169ef2eb775a, 0x1447565ec4ef2ca3),
    ("faults", "TG-RTS", 0x8c1e24178bdc7b31, 0x262b3dc85af8156a, 0x6fe5d580d1b42a8f),
    ("faults", "BSMA", 0x578c3e316d09c029, 0x8a6dd130878b4da2, 0xe52d9ec6b826d9e9),
    ("faults", "BMW", 0xfaefba80c2cdad8b, 0xe3df758a3fa23087, 0xcb68f5827124c9dd),
    ("faults", "BMMM", 0x77a8a95aa6567038, 0x3c28ffcc19498d09, 0x0257c5a3b4db4e34),
    ("faults", "LAMM", 0x77a8a95aa6567038, 0x6c771029b86281a3, 0x0257c5a3b4db4e34),
    ("faults", "Leader", 0xb0cb6d56b2f75847, 0x9b43d783045ec02f, 0x77909cfa0687daa9),
    ("faults", "BMMM-U", 0xc9f42dc352ee2f37, 0x200ed0783bab6721, 0xeea18323914e0b4f),
    ("mobility", "802.11", 0x6ac27986af7ffc05, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "TG-RTS", 0x7f31de6af52b8453, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "BSMA", 0x3bb02c7b504714f2, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "BMW", 0xfc97a1237984bce8, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "BMMM", 0x0abafdbc07954f8d, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "LAMM", 0x1bdaa96e784b4aa7, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "Leader", 0xc7fbd582377de9b8, 0x0000000000000000, 0xcbf29ce484222325),
    ("mobility", "BMMM-U", 0x68962d6fc2daac08, 0x0000000000000000, 0xcbf29ce484222325),
];

/// Pins the runner's output for every protocol on the golden scenarios,
/// so restructuring the runner can be checked against the code it
/// replaced. On a mismatch the test prints the full table it computed.
#[test]
fn runner_output_matches_golden_digests() {
    let mut got = Vec::new();
    for (label, scenario, mobility) in golden_scenarios() {
        for protocol in ALL_PROTOCOLS {
            let (result, trace, records) = golden_cell(&scenario, mobility, protocol, 7);
            let trace_digest = trace.map_or(0, |t| json_digest(t.events()));
            got.push((
                label,
                protocol.name(),
                result_digest(&result),
                trace_digest,
                json_digest(&records),
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(l, p, r, t, s)| format!("    ({l:?}, {p:?}, {r:#018x}, {t:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        GOLDEN,
        "golden digests differ; computed:\n{table}"
    );
}
