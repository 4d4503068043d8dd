//! The three batch workloads: a cell set (protocol × seed) of one
//! scenario, run through the fleet pool the way `rmm run --runs` and
//! `experiments` run it, over and over until the time is up.

use crate::provenance::sim_digest;
use crate::replica::{self, Counts};
use crate::report::Report;
use crate::serve_mix::direct_calls;
use crate::spans::{save_spans, Recorder, SelfTimes, SpanId};
use crate::stats::{median, percentile, reportable_tail, SplitMix};
use rmm_fleet::pool::run_observed;
use rmm_fleet::run_parallel;
use rmm_mac::ProtocolKind;
use rmm_workload::{run_one, run_one_naive, RunResult, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A batch workload: `protocols` × a seed range of one scenario. The
/// run cycles through `SETS` cell sets, each with its own seeds drawn
/// from the benchmark seed; together they fix the simulated metrics.
pub struct Batch {
    pub scenario: Scenario,
    pub sets: Vec<Vec<(ProtocolKind, u64)>>,
    pub workers: usize,
}

/// Distinct cell sets per run: a pass runs one set, and the simulated
/// metrics average over all of them.
const SETS: usize = 6;

fn sets(
    seed: u64,
    protocols: &[ProtocolKind],
    seeds_per_set: usize,
) -> Vec<Vec<(ProtocolKind, u64)>> {
    let mut rng = SplitMix::new(seed);
    (0..SETS)
        .map(|_| {
            let seeds: Vec<u64> = (0..seeds_per_set).map(|_| rng.next_u64() >> 32).collect();
            protocols
                .iter()
                .flat_map(|&p| seeds.iter().map(move |&s| (p, s)))
                .collect()
        })
        .collect()
}

/// The batch workloads by name.
pub fn spec(workload: &str, seed: u64) -> Option<Batch> {
    match workload {
        // The paper's Table 2 point, every protocol, two fleet workers.
        "table2_sweep" => Some(Batch {
            scenario: Scenario::default(),
            sets: sets(seed, &ProtocolKind::EVERY, 8),
            workers: 2,
        }),
        // Ten times the paper's load: the channel and the engine's
        // stepped slots dominate, almost nothing is skipped.
        "saturated" => Some(Batch {
            scenario: Scenario {
                msg_rate: 5e-3,
                ..Scenario::default()
            },
            sets: sets(seed, &[ProtocolKind::Bmmm, ProtocolKind::Lamm], 8),
            workers: 1,
        }),
        // 400 stations at the paper's density (radius halved), a tenth
        // of its load, long runs: most slots are skipped, so traffic
        // draws and set-up carry a large share of the time.
        "sparse_floor" => Some(Batch {
            scenario: Scenario {
                n_nodes: 400,
                radius: 0.1,
                msg_rate: 5e-5,
                sim_slots: 40_000,
                ..Scenario::default()
            },
            sets: sets(
                seed,
                &[
                    ProtocolKind::Ieee80211,
                    ProtocolKind::Bmw,
                    ProtocolKind::Bmmm,
                    ProtocolKind::Lamm,
                ],
                3,
            ),
            workers: 1,
        }),
        _ => None,
    }
}

/// Runs one cell, turning a panic into `None`.
fn guarded(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> Option<RunResult> {
    catch_unwind(AssertUnwindSafe(|| run_one(scenario, protocol, seed))).ok()
}

/// One closed-loop pass over a cell set on the fleet pool.
fn run_set(b: &Batch, cells: &[(ProtocolKind, u64)]) -> (Vec<Option<RunResult>>, f64) {
    let t = Instant::now();
    let results = run_parallel(b.workers, cells, |_, &(p, s)| guarded(&b.scenario, p, s));
    (results, t.elapsed().as_secs_f64())
}

/// Before timing: the first cell under the event-horizon fast path and
/// under naive stepping must simulate the same thing.
fn check_fast_vs_naive(b: &Batch, rep: &mut Report) {
    let (p, s) = b.sets[0][0];
    let fast = sim_digest(&run_one(&b.scenario, p, s));
    let naive = sim_digest(&run_one_naive(&b.scenario, p, s));
    rep.check(fast == naive, || {
        format!(
            "{} seed {s}: run_one and run_one_naive digests differ",
            p.name()
        )
    });
}

/// The end-to-end run: closed-loop passes, cycling through the cell
/// sets, until `seconds` have been measured (at least one pass per
/// set). A set's first pass supplies its simulated metrics and the
/// digests every later pass over it must reproduce.
pub fn run(b: &Batch, seconds: f64, rep: &mut Report) {
    check_fast_vs_naive(b, rep);
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut first: Vec<(f64, f64)> = Vec::new();
    let mut want: Vec<Vec<u64>> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || rates.len() < SETS {
        let k = rates.len() % SETS;
        let cells = &b.sets[k];
        let (results, wall) = run_set(b, cells);
        rates.push((cells.len() as u64 * b.scenario.sim_slots) as f64 / wall);
        let setup_us: u64 = results
            .iter()
            .flatten()
            .map(|r| r.manifest.wall_clock.setup_us)
            .sum();
        setups.push(setup_us as f64 * 1e-6);
        let digests: Vec<Option<u64>> =
            results.iter().map(|r| r.as_ref().map(sim_digest)).collect();
        for (i, (d, (p, s))) in digests.iter().zip(cells).enumerate() {
            let ok = match want.get(k) {
                Some(w) => *d == Some(w[i]),
                None => d.is_some(),
            };
            rep.check(ok, || {
                format!(
                    "{} seed {s}: run panicked or differs from its first pass",
                    p.name()
                )
            });
        }
        if want.len() == k {
            want.push(digests.into_iter().map(|d| d.unwrap_or(0)).collect());
            first.extend(results.iter().flatten().map(group_pair));
        }
    }
    rep.metric("setup_s", median(&setups).expect("passes ran"), "s");
    rep.metric(
        "sim_slots_per_s",
        median(&rates).expect("passes ran"),
        "slots/s",
    );
    group_metrics(&first, rep);
    rep.metric("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
    rep.note(format!(
        "{} passes over {SETS} sets of {} cells, {} fleet worker(s); medians over passes",
        rates.len(),
        b.sets[0].len(),
        b.workers
    ));
}

/// A cell's simulated group metrics: delivery rate and mean completion
/// time.
pub fn group_pair(r: &RunResult) -> (f64, f64) {
    (
        r.group_metrics.delivery_rate,
        r.group_metrics.avg_completion_time,
    )
}

/// The simulated end-to-end metrics: means over cells of the group
/// delivery rate and the mean group completion time.
pub fn group_metrics(cells: &[(f64, f64)], rep: &mut Report) {
    let n = cells.len().max(1) as f64;
    let delivery: f64 = cells.iter().map(|c| c.0).sum();
    let completion: f64 = cells.iter().map(|c| c.1).sum();
    rep.metric("group_delivery_rate", delivery / n, "ratio");
    rep.metric("group_completion_slots", completion / n, "slots");
}

/// Per-worker trace state for one traced pass.
struct WorkerTrace {
    rec: Recorder,
    root: SpanId,
    job: Option<SpanId>,
    last_finish: Option<Instant>,
    counts: Counts,
    job_ms: Vec<f64>,
    wait_ms: Vec<f64>,
}

/// What the traced passes add up to.
#[derive(Default)]
pub struct Traced {
    recorders: Vec<Recorder>,
    counts: Counts,
    job_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    busy_s: f64,
    capacity_s: f64,
    tail_idle_s: f64,
    passes: usize,
    /// Wall time of the untraced and of the traced passes.
    plain_s: f64,
    traced_s: f64,
}

/// One traced pass: every cell through the replica, on the fleet pool
/// with start/finish hooks.
fn traced_pass(
    b: &Batch,
    cells: &[(ProtocolKind, u64)],
    origin: Instant,
    thread_base: usize,
    acc: &mut Traced,
) -> Vec<RunResult> {
    let t_start = Instant::now();
    let states: Vec<Mutex<WorkerTrace>> = (0..b.workers)
        .map(|w| {
            let mut rec = Recorder::new(origin, thread_base + w);
            let root = rec.open("bench.worker", None);
            Mutex::new(WorkerTrace {
                rec,
                root,
                job: None,
                last_finish: None,
                counts: Counts::default(),
                job_ms: Vec::new(),
                wait_ms: Vec::new(),
            })
        })
        .collect();
    let lock = |w: usize| states[w].lock().expect("worker trace poisoned");
    let results = run_observed(
        b.workers,
        cells,
        |w, &(p, s)| {
            let mut st = lock(w);
            let st = &mut *st;
            let (result, counts) = replica::run(&b.scenario, p, s, &mut st.rec, st.job);
            st.counts.absorb(&counts);
            result
        },
        |w, _| {
            let mut st = lock(w);
            let root = st.root;
            st.job = Some(st.rec.open("fleet.job", Some(root)));
            st.wait_ms.push(t_start.elapsed().as_secs_f64() * 1e3);
        },
        |w, _, _| {
            let mut st = lock(w);
            let job = st.job.take().expect("job span open");
            st.rec.close(job);
            let span = &st.rec.spans[job];
            let ms = span.busy_ns as f64 * 1e-6;
            st.job_ms.push(ms);
            st.last_finish = Some(Instant::now());
        },
    );
    let t_end = Instant::now();
    let wall = (t_end - t_start).as_secs_f64();
    let mut first_idle = t_end;
    for state in states {
        let mut st = state.into_inner().expect("worker trace poisoned");
        let idle_from = st.last_finish.unwrap_or(t_start);
        first_idle = first_idle.min(idle_from);
        let root = st.root;
        st.rec.record("fleet.idle", Some(root), idle_from, t_end);
        st.rec.close(root);
        acc.busy_s += st.job_ms.iter().sum::<f64>() * 1e-3;
        acc.counts.absorb(&st.counts);
        acc.job_ms.extend(st.job_ms);
        acc.wait_ms.extend(st.wait_ms);
        acc.recorders.push(st.rec);
    }
    acc.capacity_s += wall * b.workers as f64;
    acc.tail_idle_s += (t_end - first_idle).as_secs_f64();
    acc.passes += 1;
    results
}

/// Untraced and traced passes alternate, cycling through `b`'s sets,
/// until `seconds` have passed (at least one pass); every replica must
/// reproduce `run_one` exactly.
pub fn traced_passes(b: &Batch, seconds: f64, origin: Instant, rep: &mut Report) -> Traced {
    let mut acc = Traced::default();
    let start = Instant::now();
    while acc.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let cells = &b.sets[acc.passes % b.sets.len()];
        let (want, wall) = run_set(b, cells);
        acc.plain_s += wall;
        let t = Instant::now();
        let got = traced_pass(b, cells, origin, acc.recorders.len(), &mut acc);
        acc.traced_s += t.elapsed().as_secs_f64();
        for ((w, g), (p, s)) in want.iter().zip(&got).zip(cells) {
            let same = w.as_ref().is_some_and(|w| {
                w.collisions == g.collisions
                    && w.airtime.busy_slots() == g.airtime.busy_slots()
                    && w.frames == g.frames
                    && sim_digest(w) == sim_digest(g)
            });
            rep.check(same, || {
                format!("{} seed {s}: traced replica differs from run_one", p.name())
            });
        }
    }
    acc
}

/// Reports the layer, fleet and validity metrics of the traced passes,
/// with the serve-layer spans of `direct` counted into the self times.
/// Returns every recorder, for the span file.
pub fn report_traced(acc: Traced, direct: Recorder, rep: &mut Report) -> Vec<Recorder> {
    let passes = acc.passes as f64;
    let mut recorders = acc.recorders;
    recorders.push(direct);
    let st = SelfTimes::of(&recorders);
    layer_metrics(&st, &acc.counts, passes, rep);
    let per = |x: f64| x / passes;
    rep.metric(
        "fleet.job_ms_p50",
        percentile(&acc.job_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    rep.metric(
        "fleet.job_ms_p90",
        percentile(&acc.job_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    rep.metric(
        "fleet.worker_busy_frac",
        acc.busy_s / acc.capacity_s,
        "ratio",
    );
    rep.metric("fleet.tail_idle_s", per(acc.tail_idle_s), "s");
    rep.metric(
        "fleet.queue_wait_ms_p50",
        percentile(&acc.wait_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    rep.metric(
        "trace.overhead_frac",
        acc.traced_s / acc.plain_s - 1.0,
        "ratio",
    );
    rep.metric("trace.unattributed_frac", st.unattributed_frac(), "ratio");
    rep.note(format!(
        "{} traced passes, {} jobs; per-layer seconds and counts are per pass",
        acc.passes,
        acc.job_ms.len()
    ));
    if let Some(p) = reportable_tail(acc.job_ms.len()) {
        let tail = percentile(&acc.job_ms, p).expect("samples");
        rep.note(format!(
            "fleet job time tail: p{p} = {tail:.2} ms of {} jobs",
            acc.job_ms.len()
        ));
    }
    rep.note(format!("self time by layer: {}", st.summary()));
    rep.note(format!(
        "fleet idle (in the fleet layer above): {:.1}% of worker time",
        100.0 * st.name("fleet.idle") / st.root_s
    ));
    recorders
}

/// The traced run: traced passes until `seconds` have passed, then
/// direct calls into the serve layer on one cell per protocol.
pub fn run_traced(
    b: &Batch,
    workload: &str,
    seed: u64,
    seconds: f64,
    work: &Path,
    spans: &Path,
    rep: &mut Report,
) {
    let origin = Instant::now();
    let acc = traced_passes(b, seconds, origin, rep);
    let mut sample: Vec<(ProtocolKind, u64)> = Vec::new();
    for &(p, s) in &b.sets[0] {
        if sample.iter().all(|&(q, _)| q != p) {
            sample.push((p, s));
        }
    }
    let thread = acc.recorders.len();
    let Some((direct, _)) = direct_calls(&b.scenario, &sample, work, origin, thread, rep) else {
        return;
    };
    let recorders = report_traced(acc, direct, rep);
    save_spans(spans, workload, seed, &recorders, rep);
}

/// The metrics of the layers below the fleet, from self times and
/// counts summed over `per` passes (or cells), reported per pass.
pub fn layer_metrics(st: &SelfTimes, c: &Counts, per: f64, rep: &mut Report) {
    let per = |x: f64| x / per;
    for name in [
        "setup.topology",
        "setup.network",
        "setup.engine",
        "traffic.tick",
        "mac.enqueue",
    ] {
        rep.metric(format!("{name}_s"), per(st.name(name)), "s");
    }
    rep.metric("traffic.arrivals", per(c.arrivals as f64), "count");
    rep.metric("mac.enqueues", per(c.enqueues as f64), "count");
    rep.metric("engine.advance_s", per(st.name("engine.advance")), "s");
    rep.metric("engine.advance_calls", per(c.advance_calls as f64), "count");
    rep.metric(
        "engine.skip_ratio",
        c.skipped as f64 / c.slots as f64,
        "ratio",
    );
    for phase in [
        "horizon_scan",
        "carrier_sense",
        "resolve",
        "deliver",
        "fsm_dispatch",
        "tx_launch",
    ] {
        rep.metric(
            format!("engine.{phase}_s"),
            per(st.name(&format!("engine.{phase}"))),
            "s",
        );
    }
    rep.metric("channel.collisions", per(c.collisions as f64), "count");
    rep.metric(
        "channel.busy_frac",
        c.busy_slots as f64 / c.slots as f64,
        "ratio",
    );
    rep.metric(
        "channel.collision_airtime_frac",
        c.collision_slots as f64 / c.slots as f64,
        "ratio",
    );
    rep.metric("mac.frames_sent", per(c.frames_sent as f64), "count");
    rep.metric(
        "mac.frames_per_completed_msg",
        c.frames_sent as f64 / c.completed_msgs.max(1) as f64,
        "ratio",
    );
    rep.metric("collect.metrics_s", per(st.name("collect.metrics")), "s");
    rep.metric(
        "collect.serialize_s",
        per(st.name("collect.serialize")),
        "s",
    );
    rep.metric("collect.bytes", per(c.bytes as f64), "bytes");
}
