//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **capture model** — BSMA's delivery rate under no capture, the
//!   calibrated Zorzi–Rao curve, and physically-derived Rayleigh fading
//!   (capture only matters where CTS/NAK frames pile up),
//! * **NAV** — BMMM with Duration-based yielding disabled, measuring
//!   what the virtual carrier sense buys,
//! * **cover-set algorithm** — the exact MCS search's cost (its sizes
//!   against greedy are asserted in `rmm-geom`'s tests).

use criterion::{criterion_group, criterion_main, Criterion};
use rmm::geom::{min_cover_set, Point};
use rmm::prelude::*;
use rmm::workload::{mean_group_metrics, run_many};
use std::hint::black_box;

fn scenario() -> Scenario {
    Scenario {
        n_nodes: 60,
        sim_slots: 2_000,
        n_runs: 2,
        ..Scenario::default()
    }
}

fn capture_ablation(c: &mut Criterion) {
    let mut rates = Vec::new();
    for (name, capture) in [
        ("none", Capture::None),
        ("zorzi-rao", Capture::ZorziRao),
        ("rayleigh-10dB", Capture::Rayleigh { z0: 10.0 }),
    ] {
        let s = Scenario {
            capture,
            ..scenario()
        };
        let m = mean_group_metrics(&run_many(&s, ProtocolKind::Bsma));
        eprintln!(
            "[ablation_capture] BSMA under {name}: delivery={:.3} phases={:.2}",
            m.delivery_rate, m.avg_contention_phases
        );
        rates.push((name, m.delivery_rate, m.avg_contention_phases));
    }
    // Capture is what keeps BSMA alive: with no capture it must spend
    // more contention phases than with the Zorzi–Rao curve.
    let phases_of = |n: &str| rates.iter().find(|(m, _, _)| *m == n).unwrap().2;
    assert!(
        phases_of("none") > phases_of("zorzi-rao"),
        "no-capture BSMA should burn more contention phases"
    );
    // And BMMM does not care: it never produces synchronized pile-ups.
    let s_none = Scenario {
        capture: Capture::None,
        ..scenario()
    };
    let s_zr = Scenario {
        capture: Capture::ZorziRao,
        ..scenario()
    };
    let bmmm_none = mean_group_metrics(&run_many(&s_none, ProtocolKind::Bmmm));
    let bmmm_zr = mean_group_metrics(&run_many(&s_zr, ProtocolKind::Bmmm));
    eprintln!(
        "[ablation_capture] BMMM: none={:.3} zorzi-rao={:.3} (capture-insensitive)",
        bmmm_none.delivery_rate, bmmm_zr.delivery_rate
    );
    assert!((bmmm_none.delivery_rate - bmmm_zr.delivery_rate).abs() < 0.08);

    let s = Scenario {
        capture: Capture::None,
        ..scenario()
    };
    let mut g = c.benchmark_group("ablation_capture");
    g.sample_size(10);
    g.bench_function("bsma_no_capture_run", |b| {
        b.iter(|| run_one(black_box(&s), ProtocolKind::Bsma, 1))
    });
    g.finish();
}

fn nav_ablation(c: &mut Criterion) {
    let with_nav = scenario();
    let mut without_nav = scenario();
    without_nav.timing.nav_enabled = false;
    let on = mean_group_metrics(&run_many(&with_nav, ProtocolKind::Bmmm));
    let off = mean_group_metrics(&run_many(&without_nav, ProtocolKind::Bmmm));
    eprintln!(
        "[ablation_nav] BMMM delivery with NAV={:.3}, without NAV={:.3}",
        on.delivery_rate, off.delivery_rate
    );
    // Virtual carrier sense should not hurt; at these densities it
    // usually helps by protecting batches from hidden bystanders.
    assert!(on.delivery_rate + 0.05 >= off.delivery_rate);

    let mut g = c.benchmark_group("ablation_nav");
    g.sample_size(10);
    g.bench_function("bmmm_no_nav_run", |b| {
        b.iter(|| run_one(black_box(&without_nav), ProtocolKind::Bmmm, 1))
    });
    g.finish();
}

/// Times the exact MCS search on one 8-receiver set. Its shape against
/// the greedy scheme is asserted by `rmm-geom`'s
/// `greedy_stays_within_a_fifth_of_the_minimum` test.
fn mcs_ablation(c: &mut Criterion) {
    const R: f64 = 0.2;
    c.bench_function("ablation_mcs_exact_8", |b| {
        let pts: Vec<Point> = (0..8)
            .map(|i| {
                let a = i as f64;
                Point::new(0.5 + 0.05 * a.cos(), 0.5 + 0.05 * a.sin())
            })
            .collect();
        let set: Vec<usize> = (0..8).collect();
        b.iter(|| min_cover_set(black_box(&pts), black_box(&set), R))
    });
}

fn rak_ablation(c: &mut Criterion) {
    // The paper's core Section 4 design point: coordinated (RAK train)
    // vs uncoordinated (simultaneous, colliding) ACK collection.
    let s = scenario();
    let coordinated = mean_group_metrics(&run_many(&s, ProtocolKind::Bmmm));
    let uncoordinated = mean_group_metrics(&run_many(&s, ProtocolKind::BmmmUncoordinated));
    eprintln!(
        "[ablation_rak] delivery with RAK={:.3}, without RAK={:.3};          phases {:.2} vs {:.2}",
        coordinated.delivery_rate,
        uncoordinated.delivery_rate,
        coordinated.avg_contention_phases,
        uncoordinated.avg_contention_phases
    );
    assert!(
        coordinated.delivery_rate > uncoordinated.delivery_rate + 0.1,
        "removing the RAK train must hurt delivery substantially"
    );
    assert!(
        uncoordinated.avg_contention_phases > coordinated.avg_contention_phases,
        "uncoordinated ACK bursts must burn extra contention phases"
    );

    let mut g = c.benchmark_group("ablation_rak");
    g.sample_size(10);
    g.bench_function("bmmm_uncoordinated_run", |b| {
        b.iter(|| run_one(black_box(&s), ProtocolKind::BmmmUncoordinated, 1))
    });
    g.finish();
}

criterion_group!(
    benches,
    capture_ablation,
    nav_ablation,
    mcs_ablation,
    rak_ablation
);
criterion_main!(benches);
