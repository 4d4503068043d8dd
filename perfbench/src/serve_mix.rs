//! The served mix: an in-process `rmm serve` daemon (two workers, an
//! on-disk cache that starts empty) under open-loop Poisson load from
//! two generator threads over two loopback connections.
//!
//! The load follows the usage the repository documents for the service
//! (EXPERIMENTS.md "Serving the simulator" and the CI serve gate): a
//! sweep of cells shaped like `rmm submit soak` (every protocol in turn,
//! consecutive seeds) is sent cold, then sent again and answered from
//! the cache, then the next sweep follows. Every cell is at the bench
//! scale (60 stations, 2 000 slots). One request per sweep asks for the
//! full event trace (a large response). Latency runs from each
//! request's *due* time. The client opens its sockets as
//! `rmm_serve::client` does, with no socket options, so every wait the
//! repository's own client would see is in the figures. The throughput
//! comes from closed-loop passes of the same sweep pair, sent as fast
//! as the daemon answers. After the load, every response is checked
//! byte for byte against the serial in-process oracle.

use crate::batch::{group_metrics, group_pair, report_traced, traced_passes, Batch};
use crate::provenance::sim_digest;
use crate::report::Report;
use crate::spans::{save_spans, Recorder, SelfTimes};
use crate::stats::{
    median, p99_checked, poisson_schedule, slo_search, step_meets_slo, SplitMix, Timing,
};
use rmm_fleet::Fnv1a;
use rmm_mac::ProtocolKind;
use rmm_serve::{
    cache_key, compute_cell, fetch_metrics, parse_metric, run_response_lines, CacheStore, Request,
    RunRequest, ServeConfig, Server,
};
use rmm_workload::{scenario_schema_hash, Scenario};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Cells in one sweep: the size of the soak the CI serve gate sends
/// cold and then again with `--expect-cached`.
const SWEEP: usize = 64;
/// Offered load of the latency phase, requests per second. Not taken
/// from usage (none is documented): well under the `slo_rps` of about
/// 1 000 req/s this benchmark measured when it was added, so the server
/// is loaded but keeps up.
const FIXED_RATE: f64 = 300.0;
/// The latency phase takes this share of the run, and runs on until it
/// has planned at least this many cold and repeat requests, so both
/// `_p99` metrics have 10 samples beyond.
const LATENCY_SHARE: f64 = 0.5;
const CLASS_TARGET: usize = 1_200;
/// The SLO: a step passes while at most 1% of its untraced requests
/// take longer than this (p99 ≤ limit) and its backlog does not grow.
/// Traced requests are bulk downloads; they load the server but the
/// latency limit is not set for them.
const LATENCY_LIMIT_S: f64 = 0.100;
/// The SLO search: first rate, growth per step, cap, bisections, and
/// the length of one step.
const SLO_START: f64 = 250.0;
const SLO_GROWTH: f64 = 1.4;
const SLO_MAX: f64 = 5_000.0;
const SLO_REFINE: usize = 3;
const SLO_STEP_S: f64 = 1.2;
/// The closed-loop throughput passes take this share of the run, and at
/// least `MIN_PASSES` passes.
const THROUGHPUT_SHARE: f64 = 0.25;
const MIN_PASSES: usize = 8;
/// Restarts timed for `setup_s`: the daemon restarting on the cache the
/// latency phase filled, as the CI serve gate's "Cache survives a
/// restart" step does. A start on an empty cache is under a millisecond
/// and swings with the host's disk and scheduler far beyond any bound.
const SETUP_RESTARTS: usize = 9;
/// Cells the traced run also computes directly and replays traced.
const DIRECT_CELLS: usize = 48;

fn scenario() -> Scenario {
    Scenario {
        n_nodes: 60,
        sim_slots: 2_000,
        n_runs: 1,
        ..Scenario::default()
    }
}

/// One planned request: when it is due and what it asks for.
struct Planned {
    due: f64,
    protocol: ProtocolKind,
    seed: u64,
    trace: bool,
    fresh: bool,
}

/// The requests of one load phase, due at `due`: sweeps of `SWEEP`
/// cells, each sent cold and then repeated. A cold sweep's cell `i` is
/// protocol `i mod 8` with the next fresh seed, traced for `i = 0`, as
/// `rmm submit soak --trace-every 64` would ask for it.
fn plan(due: &[f64], next_seed: &mut u64) -> Vec<Planned> {
    let mut out: Vec<Planned> = Vec::with_capacity(due.len());
    for (i, &t) in due.iter().enumerate() {
        let (sweep, k) = (i / SWEEP, i % SWEEP);
        if sweep % 2 == 1 {
            let src = &out[i - SWEEP];
            let (protocol, seed, trace) = (src.protocol, src.seed, src.trace);
            out.push(Planned {
                due: t,
                protocol,
                seed,
                trace,
                fresh: false,
            });
        } else {
            *next_seed += 1;
            out.push(Planned {
                due: t,
                protocol: ProtocolKind::EVERY[k % ProtocolKind::EVERY.len()],
                seed: *next_seed,
                trace: k == 0,
                fresh: true,
            });
        }
    }
    out
}

/// The latency phase's plan: Poisson arrivals at `FIXED_RATE` for
/// `duration` seconds, extended until both classes reach `CLASS_TARGET`.
fn fixed_plan(rng: &mut SplitMix, next_seed: &mut u64, duration: f64) -> Vec<Planned> {
    let mut horizon = duration;
    loop {
        let mut r = rng.clone();
        let mut s = *next_seed;
        let due = poisson_schedule(&mut r, FIXED_RATE, horizon);
        let p = plan(&due, &mut s);
        let fresh = p.iter().filter(|q| q.fresh && !q.trace).count();
        let repeat = p.iter().filter(|q| !q.fresh && !q.trace).count();
        if fresh >= CLASS_TARGET && repeat >= CLASS_TARGET {
            *rng = r;
            *next_seed = s;
            return p;
        }
        horizon *= 1.1;
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Default)]
struct Outcome {
    sent: f64,
    done: Option<f64>,
    cached: bool,
    error: bool,
    lines: usize,
    digest: u64,
}

/// Reads the id and variant off a response line without parsing the
/// payload: `{"Variant":{"id":N,...`.
fn scan(line: &str) -> Option<(&str, u64)> {
    let rest = line.strip_prefix("{\"")?;
    let variant = &rest[..rest.find('"')?];
    let at = line.find("\"id\":")? + 5;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    Some((variant, digits.parse().ok()?))
}

/// Drives one phase: two connections, each with a generator thread that
/// sends its requests at their due times and a reader thread that
/// collects the response streams.
fn drive(addr: SocketAddr, scenario: &Scenario, plan: &[Planned]) -> Vec<Outcome> {
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let req = RunRequest {
                id: id as u64,
                protocol: p.protocol.name().to_string(),
                scenario: scenario.clone(),
                seed: p.seed,
                trace: p.trace,
                profile: false,
            };
            let mut line = serde_json::to_string(&Request::Run(req)).expect("request serializes");
            line.push('\n');
            line
        })
        .collect();
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn in 0..2usize {
            let mine: Vec<usize> = (conn..plan.len()).step_by(2).collect();
            let lines = &lines;
            handles.push(scope.spawn(move || -> Vec<(usize, Outcome)> {
                let mut got: HashMap<u64, Outcome> = HashMap::new();
                let conn = TcpStream::connect(addr).and_then(|s| Ok((s.try_clone()?, s)));
                let Ok((mut write_half, stream)) = conn else {
                    let refused = Outcome {
                        error: true,
                        ..Outcome::default()
                    };
                    return mine.iter().map(|&i| (i, refused.clone())).collect();
                };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
                let sender = {
                    let mine = mine.clone();
                    scope.spawn(move || -> Vec<f64> {
                        let mut sent = Vec::with_capacity(mine.len());
                        for &i in &mine {
                            let due = Duration::from_secs_f64(plan[i].due);
                            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            sent.push(t0.elapsed().as_secs_f64());
                            if write_half.write_all(lines[i].as_bytes()).is_err() {
                                break;
                            }
                        }
                        sent
                    })
                };
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let mut hashes: HashMap<u64, Fnv1a> = HashMap::new();
                let mut done = 0;
                while done < mine.len() {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let text = line.trim_end_matches('\n');
                    let Some((variant, id)) = scan(text) else {
                        break;
                    };
                    hashes.entry(id).or_default().write_str(text);
                    let o = got.entry(id).or_default();
                    o.lines += 1;
                    if variant == "Result" || variant == "Error" {
                        o.done = Some(t0.elapsed().as_secs_f64());
                        o.error = variant == "Error";
                        o.cached = text.contains(&format!("\"id\":{id},\"cached\":true"));
                        done += 1;
                    }
                }
                let _ = reader.get_mut().shutdown(std::net::Shutdown::Both);
                let sent = sender.join().expect("generator thread panicked");
                mine.iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        let mut o = got.remove(&(i as u64)).unwrap_or_default();
                        o.sent = sent.get(k).copied().unwrap_or(f64::NAN);
                        o.digest = hashes.remove(&(i as u64)).map_or(0, |h| h.finish());
                        if o.done.is_none() {
                            o.error = true;
                        }
                        (i, o)
                    })
                    .collect()
            }));
        }
        for h in handles {
            for (i, o) in h.join().expect("connection thread panicked") {
                outcomes[i] = o;
            }
        }
    });
    outcomes
}

/// Open-loop timings of the phase's requests (`interactive`: only the
/// untraced ones, which the SLO covers).
fn timings(plan: &[Planned], outcomes: &[Outcome], interactive: bool) -> Vec<Timing> {
    plan.iter()
        .zip(outcomes)
        .filter(|(p, _)| !(interactive && p.trace))
        .map(|(p, o)| Timing {
            due: p.due,
            sent: if o.sent.is_finite() { o.sent } else { p.due },
            done: if o.error { None } else { o.done },
        })
        .collect()
}

/// A phase kept for the byte check after the load.
struct Phase {
    plan: Vec<Planned>,
    outcomes: Vec<Outcome>,
}

/// The serial oracle, `rmm_serve::local_lines`, memoized per distinct
/// cell: `compute_cell` once, then `run_response_lines` per request,
/// with the terminal line's `cached` flag as the server set it (as the
/// repository's soak check does). Checks every request of every phase
/// on two threads once the server is down, keeping one cell per thread
/// in memory at a time. Returns the simulated group metrics
/// ([`group_pair`]) of the first phase's distinct cells, in a fixed order.
fn verify(scenario: &Scenario, phases: &[Phase], rep: &mut Report) -> Vec<(f64, f64)> {
    type Cell = (ProtocolKind, u64, bool);
    let mut by_cell: HashMap<Cell, Vec<(usize, usize)>> = HashMap::new();
    for (k, ph) in phases.iter().enumerate() {
        for (id, p) in ph.plan.iter().enumerate() {
            by_cell
                .entry((p.protocol, p.seed, p.trace))
                .or_default()
                .push((k, id));
        }
    }
    let mut cells: Vec<(Cell, Vec<(usize, usize)>)> = by_cell.into_iter().collect();
    cells.sort_by_key(|((p, s, t), _)| (p.name(), *s, *t));
    type Checked = (Vec<Result<(), String>>, Vec<(f64, f64)>);
    let check = |part: &[(Cell, Vec<(usize, usize)>)]| -> Checked {
        let (mut out, mut groups) = (Vec::new(), Vec::new());
        for ((protocol, seed, trace), requests) in part {
            let cell = compute_cell(scenario, *protocol, *seed, *trace, false);
            if requests.iter().any(|&(k, _)| k == 0) {
                groups.push(group_pair(&cell.result));
            }
            for &(k, id) in requests {
                let o = &phases[k].outcomes[id];
                let what = || {
                    format!(
                        "request {id} of phase {k} ({} seed {seed})",
                        protocol.name()
                    )
                };
                if o.error {
                    out.push(Err(format!("{}: no result", what())));
                    continue;
                }
                let mut want = run_response_lines(id as u64, &cell, false);
                if o.cached {
                    let last = want.pop().expect("terminal line");
                    want.push(last.replacen("\"cached\":false", "\"cached\":true", 1));
                }
                let mut h = Fnv1a::new();
                for line in &want {
                    h.write_str(line);
                }
                out.push(if want.len() == o.lines && h.finish() == o.digest {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: response differs from the local oracle",
                        what()
                    ))
                });
            }
        }
        (out, groups)
    };
    let (a, b) = cells.split_at(cells.len() / 2);
    let (results, groups) = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(a));
        let (mut results, mut groups) = check(b);
        let (mut first, mut first_groups) = other.join().expect("oracle thread panicked");
        first.append(&mut results);
        first_groups.append(&mut groups);
        (first, first_groups)
    });
    for r in results {
        rep.check(r.is_ok(), || r.err().unwrap_or_default());
    }
    groups
}

fn start_server(cache: &Path) -> std::io::Result<Server> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_conns: 16,
        queue_cap: 4096,
        cache_path: Some(cache.to_path_buf()),
        quiet: true,
    })
}

/// Starts a server with a fresh cache and times it until the first
/// `Pong`.
fn timed_start(cache: &Path) -> std::io::Result<(Server, f64)> {
    let t = Instant::now();
    let server = start_server(cache)?;
    let mut stream = TcpStream::connect(server.addr())?;
    let ping = serde_json::to_string(&Request::Ping).expect("request serializes");
    stream.write_all(format!("{ping}\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("server closed before Pong"));
        }
        if line.contains("Pong") {
            break;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let mut rest = Vec::new();
    let _ = reader.get_mut().shutdown(std::net::Shutdown::Write);
    let _ = reader.read_to_end(&mut rest);
    Ok((server, secs))
}

fn stop(server: Server) {
    server.begin_shutdown();
    server.join();
}

/// Starts the server that takes the load, on an empty cache.
fn load_server(cache: &Path, rep: &mut Report) -> Option<(Server, f64)> {
    match timed_start(cache) {
        Ok(started) => Some(started),
        Err(e) => {
            rep.check(false, || format!("server start: {e}"));
            None
        }
    }
}

/// `setup_s` samples: `SETUP_RESTARTS` restarts on `cache`, each
/// stopped before the next; the last server stays up and is returned.
fn restarts(cache: &Path, rep: &mut Report) -> (Vec<f64>, Option<Server>) {
    let mut samples = Vec::with_capacity(SETUP_RESTARTS);
    let mut last = None;
    for k in 0..SETUP_RESTARTS {
        if let Some(server) = last.take() {
            stop(server);
        }
        match timed_start(cache) {
            Ok((server, secs)) => {
                samples.push(secs);
                last = Some(server);
            }
            Err(e) => rep.check(false, || format!("server restart {k}: {e}")),
        }
    }
    (samples, last)
}

/// Latencies in ms, from the due time, of the answered requests `keep`
/// selects.
fn latencies_ms(
    plan: &[Planned],
    outcomes: &[Outcome],
    keep: impl Fn(&Planned, &Outcome) -> bool,
) -> Vec<f64> {
    plan.iter()
        .zip(outcomes)
        .filter(|(p, o)| !o.error && keep(p, o))
        .filter_map(|(p, o)| o.done.map(|d| (d - p.due) * 1e3))
        .collect()
}

/// Latencies of the untraced requests answered cold (`cached` false) or
/// from the cache.
fn class(plan: &[Planned], outcomes: &[Outcome], cached: bool) -> Vec<f64> {
    latencies_ms(plan, outcomes, |p, o| !p.trace && o.cached == cached)
}

/// One closed-loop throughput pass, as `rmm submit soak` and then
/// `rmm submit soak --expect-cached` run it: a sweep of `SWEEP` fresh
/// untraced cells sent at once, then, once all are answered, the same
/// sweep again, answered from the cache. Returns both phases and the
/// pass's wall time.
fn closed_pass(addr: SocketAddr, scenario: &Scenario, next_seed: &mut u64) -> ([Phase; 2], f64) {
    let mut cold = plan(&[0.0; 2 * SWEEP], next_seed);
    for p in &mut cold {
        p.trace = false;
    }
    let repeat = cold.split_off(SWEEP);
    let t = Instant::now();
    let cold_out = drive(addr, scenario, &cold);
    let repeat_out = drive(addr, scenario, &repeat);
    let wall = t.elapsed().as_secs_f64();
    let phases = [
        Phase {
            plan: cold,
            outcomes: cold_out,
        },
        Phase {
            plan: repeat,
            outcomes: repeat_out,
        },
    ];
    (phases, wall)
}

/// Prints a figure that is not one of the workload's metrics as a note.
fn note_figure(rep: &mut Report, name: &str, value: f64, unit: &str) {
    rep.note(format!("{name} = {value:.3} {unit}"));
}

/// Cold and hit latency medians and 99th percentiles, as notes; a
/// `_p99` with too few samples behind it fails the run.
fn latency_notes(rep: &mut Report, cold: &[f64], hit: &[f64]) {
    for (class, values) in [("cold", cold), ("hit", hit)] {
        let p50 = median(values).unwrap_or(f64::NAN);
        note_figure(rep, &format!("serve.{class}_ms_p50"), p50, "ms");
        p99_note(rep, &format!("serve.{class}_ms_p99"), values, "ms");
    }
}

fn p99_note(rep: &mut Report, name: &str, values: &[f64], unit: &str) {
    match p99_checked(name, values) {
        Ok(v) => note_figure(rep, name, v, unit),
        Err(e) => rep.fail(e),
    }
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, work: &Path, rep: &mut Report) {
    let scenario = scenario();
    let cache = work.join("cache.jsonl");
    let Some((server, cold_start)) = load_server(&cache, rep) else {
        return;
    };
    let addr = server.addr();
    let mut rng = SplitMix::new(seed);
    let mut next_seed = (seed & 0xffff_ffff) << 20;
    let fixed = fixed_plan(&mut rng, &mut next_seed, LATENCY_SHARE * seconds);
    let outcomes = drive(addr, &scenario, &fixed);
    let cold = class(&fixed, &outcomes, false);
    let hit = class(&fixed, &outcomes, true);
    // Memory is read here: the cache holds exactly this phase's cells,
    // which the seed fixes, while the SLO search below adds as many as
    // its noisy path happens to try.
    let peak_rss = crate::sys::peak_rss_mb();
    let mut phases = vec![Phase {
        plan: fixed,
        outcomes,
    }];
    stop(server);
    let cache_mb = std::fs::metadata(&cache).map_or(f64::NAN, |m| m.len() as f64 / 1e6);
    let (setups, server) = restarts(&cache, rep);
    let Some(server) = server else {
        return;
    };
    let addr = server.addr();

    // Closed-loop passes give the throughput: simulated slots of the
    // cells a pass serves over its wall time, median over passes.
    let (mut rates, passes_from) = (Vec::new(), Instant::now());
    while rates.len() < MIN_PASSES
        || passes_from.elapsed().as_secs_f64() < THROUGHPUT_SHARE * seconds
    {
        let (pass, wall) = closed_pass(addr, &scenario, &mut next_seed);
        rates.push((2 * SWEEP) as f64 * scenario.sim_slots as f64 / wall);
        phases.extend(pass);
    }

    // The stepped SLO search comes last, in steps of a
    // fixed length (a fortieth of the run, at most `SLO_STEP_S`), so
    // the search does not depend on how fast the latency phase went.
    let step_s = (seconds / 40.0).clamp(0.4, SLO_STEP_S);
    let mut steps_note = Vec::new();
    let (slo, _) = slo_search(SLO_START, SLO_GROWTH, SLO_MAX, SLO_REFINE, |rate| {
        let due = poisson_schedule(&mut rng, rate, step_s);
        let plan = plan(&due, &mut next_seed);
        let outcomes = drive(addr, &scenario, &plan);
        let ok = step_meets_slo(&timings(&plan, &outcomes, true), LATENCY_LIMIT_S);
        steps_note.push(format!("{rate:.0}{}", if ok { "+" } else { "-" }));
        phases.push(Phase { plan, outcomes });
        ok
    });
    stop(server);
    let groups = verify(&scenario, &phases, rep);

    rep.metric("setup_s", median(&setups).expect("restarts ran"), "s");
    rep.metric(
        "sim_slots_per_s",
        median(&rates).expect("passes ran"),
        "slots/s",
    );
    rep.metric("peak_rss_mb", peak_rss, "MB");
    group_metrics(&groups, rep);
    note_figure(rep, "slo_rps", slo, "req/s");
    latency_notes(rep, &cold, &hit);
    let traced = latencies_ms(&phases[0].plan, &phases[0].outcomes, |p, _| p.trace);
    rep.note(format!(
        "latency phase at {FIXED_RATE} req/s: {} cold, {} hit, {} traced (p50 {:.2} ms), {} distinct cells; setup from {} restarts on {:.1} MB of cache; start on the empty cache {:.3} ms",
        cold.len(),
        hit.len(),
        traced.len(),
        median(&traced).unwrap_or(f64::NAN),
        groups.len(),
        setups.len(),
        cache_mb,
        cold_start * 1e3
    ));
    rep.note(format!(
        "{} closed-loop passes of {SWEEP} cold and {SWEEP} cached cells; median over passes",
        rates.len()
    ));
    rep.note(format!(
        "SLO p99 <= {} ms, steps of {step_s:.2} s: {}",
        LATENCY_LIMIT_S * 1e3,
        steps_note.join(" ")
    ));
}

/// Direct calls into the serve layer on `cells`: `compute_cell`, a put
/// into and a get from an on-disk `CacheStore`, and `run_response_lines`,
/// each in a span of its own on `thread`. Reports the mean time of each
/// call and returns the spans and the mean `compute_cell` time in ms
/// (`None`, with the run failed, when the cache cannot be opened).
pub fn direct_calls(
    scenario: &Scenario,
    cells: &[(ProtocolKind, u64)],
    work: &Path,
    origin: Instant,
    thread: usize,
    rep: &mut Report,
) -> Option<(Recorder, f64)> {
    let mut direct = Recorder::new(origin, thread);
    // The root covers only the timed calls, not the checks between them.
    let droot = direct.aggregate("bench.direct", None);
    let store = match CacheStore::open(
        Some(&work.join("direct-cache.jsonl")),
        scenario_schema_hash(),
    ) {
        Ok(store) => store,
        Err(e) => {
            rep.fail(format!("opening the direct cache: {e}"));
            return None;
        }
    };
    for (id, &(protocol, seed)) in cells.iter().enumerate() {
        let key = cache_key(protocol, scenario, seed, false, false);
        let t0 = Instant::now();
        let cell = compute_cell(scenario, protocol, seed, false, false);
        let t1 = Instant::now();
        store.put(&key, seed, &cell);
        let t2 = Instant::now();
        let back = store.get(&key);
        let t3 = Instant::now();
        let lines = run_response_lines(id as u64, &cell, true);
        let t4 = Instant::now();
        direct.record("serve.compute_cell", Some(droot), t0, t1);
        direct.record("serve.cache_put", Some(droot), t1, t2);
        direct.record("serve.cache_get", Some(droot), t2, t3);
        direct.record("serve.render", Some(droot), t3, t4);
        direct.add(droot, t0, t4);
        rep.check(
            back.is_some_and(|b| sim_digest(&b.result) == sim_digest(&cell.result))
                && !lines.is_empty(),
            || {
                format!(
                    "{} seed {seed}: cache round trip changed the cell",
                    protocol.name()
                )
            },
        );
    }
    let st = SelfTimes::of(std::slice::from_ref(&direct));
    let n = cells.len().max(1) as f64;
    let compute_ms = st.name("serve.compute_cell") / n * 1e3;
    rep.metric("serve.compute_cell_ms", compute_ms, "ms");
    rep.metric(
        "serve.cache_put_us",
        st.name("serve.cache_put") / n * 1e6,
        "us",
    );
    rep.metric(
        "serve.cache_get_us",
        st.name("serve.cache_get") / n * 1e6,
        "us",
    );
    rep.metric("serve.render_us", st.name("serve.render") / n * 1e6, "us");
    rep.note(format!(
        "serve.* direct calls: means over {} cells",
        cells.len()
    ));
    Some((direct, compute_ms))
}

/// The traced run: the latency phase with a span per request, a metrics
/// scrape, then direct calls into the serve layer and traced replicas
/// of a sample of the served cells on a two-worker fleet pool.
pub fn run_traced(seed: u64, seconds: f64, work: &Path, spans: &Path, rep: &mut Report) {
    let scenario = scenario();
    let Some((server, _)) = load_server(&work.join("cache.jsonl"), rep) else {
        return;
    };
    let addr = server.addr();
    let mut rng = SplitMix::new(seed);
    let mut next_seed = (seed & 0xffff_ffff) << 20;
    let fixed = fixed_plan(&mut rng, &mut next_seed, LATENCY_SHARE * seconds);
    let origin = Instant::now();
    let outcomes = drive(addr, &scenario, &fixed);
    let scrape = fetch_metrics(addr);
    stop(server);

    // Request spans: one per request, from send to terminal line.
    let mut load = Recorder::new(origin, 0);
    let root = load.aggregate("loadgen", None);
    for (id, o) in outcomes.iter().enumerate() {
        if let Some(done) = o.done {
            let at = |s: f64| origin + Duration::from_secs_f64(s.max(0.0));
            let span = load.record("serve.request", Some(root), at(o.sent), at(done));
            load.set_request(span, id as u64);
            load.add(root, at(o.sent), at(done));
        }
    }
    // What only a served load has is printed as notes: every workload
    // reports the same per-layer metrics.
    let lags: Vec<f64> = timings(&fixed, &outcomes, false)
        .iter()
        .map(|t| t.lag() * 1e3)
        .collect();
    p99_note(rep, "loadgen.lag_ms_p99", &lags, "ms");
    match scrape {
        Ok(text) => {
            let get = |n: &str| parse_metric(&text, n).unwrap_or(0) as f64;
            let (hits, misses) = (
                get("rmm_serve_cache_hits_total"),
                get("rmm_serve_cache_misses_total"),
            );
            let ratio = hits / (hits + misses).max(1.0);
            note_figure(rep, "serve.cache_hit_ratio", ratio, "ratio");
            let runs = get("rmm_serve_engine_runs_total");
            note_figure(rep, "serve.engine_runs", runs, "count");
        }
        Err(e) => rep.fail(format!("metrics scrape: {e}")),
    }

    // Direct calls into the serve layer on the first fresh cells, then
    // traced replicas of the same cells, against untraced run_one.
    let sample: Vec<(ProtocolKind, u64)> = fixed
        .iter()
        .filter(|p| p.fresh && !p.trace)
        .take(DIRECT_CELLS)
        .map(|p| (p.protocol, p.seed))
        .collect();
    let Some((direct, compute_ms)) = direct_calls(&scenario, &sample, work, origin, 1, rep) else {
        return;
    };
    let cold = class(&fixed, &outcomes, false);
    latency_notes(rep, &cold, &class(&fixed, &outcomes, true));
    note_figure(
        rep,
        "serve.queue_wait_ms_p50 (derived: cold p50 - compute_cell)",
        median(&cold).unwrap_or(f64::NAN) - compute_ms,
        "ms",
    );
    let replicas = Batch {
        scenario: scenario.clone(),
        sets: vec![sample],
        workers: 2,
    };
    let acc = traced_passes(&replicas, 0.0, origin, rep);
    let mut all = vec![load];
    all.extend(report_traced(acc, direct, rep));
    rep.note(format!(
        "{} requests in the traced latency phase; one traced pass over the {DIRECT_CELLS} direct-call cells",
        fixed.len(),
    ));
    save_spans(spans, "serve_mix", seed, &all, rep);
    verify(
        &scenario,
        &[Phase {
            plan: fixed,
            outcomes,
        }],
        rep,
    );
}
