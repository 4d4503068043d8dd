//! Extension experiments beyond the paper's own figures:
//!
//! * `overhead` — per-message control-frame counts by kind (the Section 5
//!   claim that LAMM "significantly reduces the number of RTS, CTS, RAK
//!   and ACK frames"),
//! * `fer` — delivery and LAMM's Theorem 3 under random frame errors
//!   (stressing the paper's collisions-only-loss assumption),
//! * `noise` — LAMM under GPS position error,
//! * `mobility` — all protocols under random-waypoint motion with stale
//!   beacon-learned neighbor tables.

use crate::common::{emit, f2, f3, run_grid, Options, PAPER_PROTOCOLS};
use crate::sweeps::{run_cells, Cell};
use rmm_fleet::JobId;
use rmm_mac::ProtocolKind;
use rmm_route::{DiscoveryConfig, RouteSim};
use rmm_sim::FaultPlan;
use rmm_stats::{Summary, Table};
use rmm_workload::{MobilityConfig, Scenario};
use serde::{Deserialize, Serialize};

fn base(options: &Options) -> Scenario {
    Scenario {
        n_runs: options.runs,
        sim_slots: options.slots,
        ..Scenario::default()
    }
}

/// Control-frame overhead by kind and per completed multicast.
pub fn overhead(options: &Options) {
    let scenario = base(options);
    let mut table = Table::new([
        "protocol",
        "RTS",
        "CTS",
        "DATA",
        "ACK",
        "RAK",
        "NAK",
        "ctrl/completed msg",
    ]);
    let mut protos = vec![ProtocolKind::Ieee80211, ProtocolKind::TangGerla];
    protos.extend(PAPER_PROTOCOLS);
    let cells: Vec<Cell> = protos
        .iter()
        .map(|&p| Cell {
            point: p.name().to_string(),
            scenario: scenario.clone(),
            protocol: p,
            seed_base: 50_000,
        })
        .collect();
    let per_proto = run_cells(options, "overhead", &cells);
    for (p, results) in protos.iter().zip(per_proto) {
        let mut frames = rmm_mac::FrameKindCounts::default();
        let mut completed = 0usize;
        for r in &results {
            frames.add(&r.frames);
            completed += r
                .messages
                .iter()
                .filter(|m| m.is_group && m.completed)
                .count();
        }
        let per_msg = if completed == 0 {
            0.0
        } else {
            frames.control_total() as f64 / completed as f64
        };
        table.row([
            p.name().to_string(),
            frames.rts.to_string(),
            frames.cts.to_string(),
            frames.data.to_string(),
            frames.ack.to_string(),
            frames.rak.to_string(),
            frames.nak.to_string(),
            f2(per_msg),
        ]);
    }
    emit(
        options,
        "overhead",
        "Control-frame overhead (Section 5: LAMM reduces RTS/CTS/RAK/ACK \
         counts relative to BMMM; 802.11 has none and no reliability)",
        &table,
    );
}

/// Fraction of completed group messages that under-delivered (a Theorem 3
/// violation when it happens to LAMM).
fn violation_rate(results: &[rmm_workload::RunResult]) -> f64 {
    let (mut bad, mut total) = (0usize, 0usize);
    for r in results {
        for m in r.messages.iter().filter(|m| m.is_group && m.completed) {
            total += 1;
            if m.delivered < m.intended {
                bad += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    }
}

/// Delivery and guarantee erosion under random frame errors.
pub fn fer(options: &Options) {
    let mut table = Table::new([
        "fer",
        "BMMM rate",
        "LAMM rate",
        "BMW rate",
        "BMMM violations",
        "LAMM violations",
    ]);
    let fers = [0.0, 0.02, 0.05, 0.1, 0.2];
    let protos = [ProtocolKind::Bmmm, ProtocolKind::Lamm, ProtocolKind::Bmw];
    let mut cells = Vec::new();
    for &fer in &fers {
        let scenario = base(options).with_fer(fer);
        for &p in &protos {
            cells.push(Cell {
                point: format!("fer={fer}/{}", p.name()),
                scenario: scenario.clone(),
                protocol: p,
                seed_base: 60_000,
            });
        }
    }
    let mut per_cell = run_cells(options, "ext_fer", &cells).into_iter();
    for &fer in &fers {
        let bmmm = per_cell.next().expect("BMMM cell");
        let lamm = per_cell.next().expect("LAMM cell");
        let bmw = per_cell.next().expect("BMW cell");
        let rate = |rs: &[rmm_workload::RunResult]| {
            Summary::of(
                &rs.iter()
                    .map(|r| r.group_metrics.delivery_rate)
                    .collect::<Vec<_>>(),
            )
            .mean
        };
        table.row([
            f2(fer),
            f3(rate(&bmmm)),
            f3(rate(&lamm)),
            f3(rate(&bmw)),
            f3(violation_rate(&bmmm)),
            f3(violation_rate(&lamm)),
        ]);
    }
    emit(
        options,
        "ext_fer",
        "Frame-error sweep: BMMM/BMW keep their guarantee (ACK implies \
         delivery); LAMM's coverage closures start missing receivers once \
         losses are not collision-caused (Theorem 3's stated assumption)",
        &table,
    );
}

/// LAMM under GPS position noise.
pub fn noise(options: &Options) {
    let mut table = Table::new(["sigma", "LAMM rate", "LAMM violations", "BMMM rate"]);
    let sigmas = [0.0, 0.01, 0.02, 0.05, 0.1];
    let mut cells = Vec::new();
    for &sigma in &sigmas {
        let scenario = base(options).with_position_noise(sigma);
        for &p in &[ProtocolKind::Lamm, ProtocolKind::Bmmm] {
            cells.push(Cell {
                point: format!("sigma={sigma}/{}", p.name()),
                scenario: scenario.clone(),
                protocol: p,
                seed_base: 70_000,
            });
        }
    }
    let mut per_cell = run_cells(options, "ext_noise", &cells).into_iter();
    for &sigma in &sigmas {
        let lamm = per_cell.next().expect("LAMM cell");
        let bmmm = per_cell.next().expect("BMMM cell");
        let rate = |rs: &[rmm_workload::RunResult]| {
            Summary::of(
                &rs.iter()
                    .map(|r| r.group_metrics.delivery_rate)
                    .collect::<Vec<_>>(),
            )
            .mean
        };
        table.row([
            f3(sigma),
            f3(rate(&lamm)),
            f3(violation_rate(&lamm)),
            f3(rate(&bmmm)),
        ]);
    }
    emit(
        options,
        "ext_noise",
        "GPS noise sweep (radius 0.2): how much beacon position error \
         LAMM's geometric closure tolerates (BMMM, position-free, as the \
         control)",
        &table,
    );
}

/// One route-discovery attempt's outcome (the fleet-job result for one
/// `(rate, protocol, seed)` cell of the `route` grid).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RouteProbe {
    /// A ≥3-hop origin/target pair existed in the sampled topology.
    trial: bool,
    /// The RREQ flood reached the target.
    reached: bool,
}

/// Route discovery (RREQ flooding) over each MAC protocol — the paper's
/// motivating AODV/DSR workload — across background load levels.
pub fn route(options: &Options) {
    let mut table = Table::new(["rate", "802.11", "BSMA", "BMW", "BMMM", "LAMM"]);
    let protocols = [
        rmm_mac::ProtocolKind::Ieee80211,
        rmm_mac::ProtocolKind::Bsma,
        rmm_mac::ProtocolKind::Bmw,
        rmm_mac::ProtocolKind::Bmmm,
        rmm_mac::ProtocolKind::Lamm,
    ];
    let rates = [5e-4, 1e-3, 2e-3];
    let mut cells: Vec<(Scenario, ProtocolKind)> = Vec::new();
    let mut jobs: Vec<(JobId, usize)> = Vec::new();
    let mut hash_parts: Vec<String> = Vec::new();
    for &rate in &rates {
        let scenario = Scenario {
            msg_rate: rate,
            n_nodes: 50,
            n_runs: options.runs,
            ..Scenario::default()
        };
        for &p in &protocols {
            let ci = cells.len();
            for seed in 0..options.runs as u64 {
                jobs.push((
                    JobId::new("ext_route", format!("rate={rate}/{}", p.name()), seed),
                    ci,
                ));
            }
            hash_parts.push(format!(
                "{}|{}",
                p.name(),
                serde_json::to_string(&scenario).expect("scenario serializes"),
            ));
            cells.push((scenario.clone(), p));
        }
    }
    let probes: Vec<RouteProbe> = run_grid(options, "ext_route", &hash_parts, &jobs, |id, &ci| {
        let (scenario, p) = &cells[ci];
        let mut sim = RouteSim::new(scenario, *p, id.seed);
        let Some((origin, target)) = sim.pick_distant_pair(3) else {
            return RouteProbe {
                trial: false,
                reached: false,
            };
        };
        RouteProbe {
            trial: true,
            reached: sim
                .discover(origin, target, DiscoveryConfig::default())
                .reached,
        }
    });
    let mut per_cell: Vec<(usize, usize)> = vec![(0, 0); cells.len()];
    for ((_, ci), probe) in jobs.iter().zip(&probes) {
        if probe.trial {
            per_cell[*ci].0 += 1;
            per_cell[*ci].1 += usize::from(probe.reached);
        }
    }
    let mut stats = per_cell.into_iter();
    for &rate in &rates {
        let mut row = vec![format!("{rate:.0e}")];
        for _ in &protocols {
            let (trials, reached) = stats.next().expect("cell per protocol");
            row.push(if trials == 0 {
                "—".to_string()
            } else {
                f3(reached as f64 / trials as f64)
            });
        }
        table.row(row);
    }
    emit(
        options,
        "ext_route",
        "Route discovery rate (≥3-hop RREQ floods, 50 nodes) vs background          load: the paper's motivating AODV/DSR workload on each MAC",
        &table,
    );
}

/// Mobility with stale beacon-learned neighbor tables.
pub fn mobility(options: &Options) {
    let mut table = Table::new(["max speed", "BSMA", "BMW", "BMMM", "LAMM"]);
    let speeds = [0.0, 1e-5, 5e-5, 2e-4];
    let mut cells: Vec<Cell> = Vec::new();
    for &vmax in &speeds {
        let scenario = base(options).with_mobility(MobilityConfig {
            speed_min: 0.0,
            speed_max: vmax,
            update_period: 100,
            beacon_period: 500,
        });
        for &p in &PAPER_PROTOCOLS {
            cells.push(Cell {
                point: format!("vmax={vmax}/{}", p.name()),
                scenario: scenario.clone(),
                protocol: p,
                seed_base: 90_000,
            });
        }
    }
    let mut per_cell = run_cells(options, "ext_mobility", &cells).into_iter();
    for &vmax in &speeds {
        let mut row = vec![format!("{vmax:.0e}")];
        for _ in PAPER_PROTOCOLS {
            let rates: Vec<f64> = per_cell
                .next()
                .expect("cell per protocol")
                .iter()
                .map(|r| r.group_metrics.delivery_rate)
                .collect();
            row.push(f3(Summary::of(&rates).mean));
        }
        table.row(row);
    }
    emit(
        options,
        "ext_mobility",
        "Random-waypoint mobility (beacons every 500 slots): stale \
         neighbor tables erode every protocol; reliable protocols spend \
         their timeout retrying departed receivers",
        &table,
    );
}

/// Graceful degradation with crashed receivers: raw delivery collapses
/// with the crash count (dead receivers can never ACK), while delivery
/// measured over *reachable* receivers stays high — the retry budgets
/// spend bounded effort on the dead and keep serving the living. The
/// liveness watchdog runs armed throughout; any stall is a bug.
pub fn faults(options: &Options) {
    let mut table = Table::new([
        "protocol",
        "crashes",
        "delivered frac",
        "delivered frac (reachable)",
        "stalls",
    ]);
    let mut stalls_total = 0usize;
    let crash_counts = [0usize, 2, 4, 8];
    let mut cells = Vec::new();
    for p in PAPER_PROTOCOLS {
        for &crashes in &crash_counts {
            let scenario = base(options)
                .with_faults(FaultPlan::random_crashes(
                    Scenario::default().n_nodes,
                    crashes,
                    0,
                    4242,
                ))
                .with_stall_window(1_000);
            cells.push(Cell {
                point: format!("{}/crashes={crashes}", p.name()),
                scenario,
                protocol: p,
                seed_base: 70_000,
            });
        }
    }
    let mut per_cell = run_cells(options, "ext_faults", &cells).into_iter();
    for p in PAPER_PROTOCOLS {
        for &crashes in &crash_counts {
            let results = per_cell.next().expect("cell per crash count");
            let raw: Vec<f64> = results
                .iter()
                .map(|r| r.group_metrics.avg_delivered_frac)
                .collect();
            let reachable: Vec<f64> = results
                .iter()
                .map(|r| r.group_metrics.avg_reachable_frac)
                .collect();
            let stalls: usize = results.iter().map(|r| r.stalls.len()).sum();
            stalls_total += stalls;
            table.row([
                p.name().to_string(),
                crashes.to_string(),
                f3(Summary::of(&raw).mean),
                f3(Summary::of(&reachable).mean),
                stalls.to_string(),
            ]);
        }
    }
    emit(
        options,
        "ext_faults",
        "Crashed receivers: raw delivery tracks the dead node count while \
         reachable-basis delivery holds; watchdog stalls must stay zero",
        &table,
    );
    assert_eq!(stalls_total, 0, "liveness watchdog reported stalls");
}
