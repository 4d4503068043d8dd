//! `rmm-perfbench`: the end-to-end and per-layer benchmark of the rmm
//! simulator, its fleet pool and its serve daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_sweep|saturated|sparse_floor|serve_mix|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics from spans
//! the benchmark records around its calls into each layer. Every run
//! checks the program's outputs, prints a provenance block, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! It exits nonzero when an output check fails.

mod batch;
mod provenance;
mod replica;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod sys;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = ["table2_sweep", "saturated", "sparse_floor", "serve_mix"];

/// Scratch files live inside the working directory (the checkout root).
const WORK_DIR: &str = ".bench_work";
/// The benchmark's manifest, at the checkout root.
const MANIFEST: &str = "BENCHMARK.json";
/// Span logs of traced runs are kept after the run.
const SPAN_DIR: &str = ".bench_spans";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child process that runs the workload (see `main`).
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--child" => args.child = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.child && args.workload == "all" {
        return Err("--child runs a single workload".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(args: &Args, work: &Path) -> Report {
    let mut rep = Report::default();
    let spans = Path::new(SPAN_DIR);
    if let Some(b) = batch::spec(&args.workload, args.seed) {
        if args.trace {
            batch::run_traced(
                &b,
                &args.workload,
                args.seed,
                args.seconds,
                work,
                spans,
                &mut rep,
            );
        } else {
            batch::run(&b, args.seconds, &mut rep);
        }
    } else if args.trace {
        serve_mix::run_traced(args.seed, args.seconds, work, spans, &mut rep);
    } else {
        serve_mix::run(args.seed, args.seconds, work, &mut rep);
    }
    let bad: Vec<String> = rep
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| format!("{name} is not a finite number"))
        .collect();
    rep.failures.extend(bad);
    check_manifest(&rep, args.trace).unwrap_or_else(|e| rep.fail(e));
    rep
}

/// The metrics a run prints must be exactly the ones `BENCHMARK.json`
/// lists for its mode (`end_to_end` untraced, `per_layer` traced), each
/// in its listed unit.
fn check_manifest(rep: &Report, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("reading {MANIFEST}: {e}"))?;
    let manifest: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {MANIFEST}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let mut want: Vec<(String, String)> = manifest[key]
        .as_array()
        .ok_or_else(|| format!("{MANIFEST} has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    let mut got: Vec<(String, String)> = rep
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.clone()))
        .collect();
    want.sort();
    got.sort();
    if got == want {
        return Ok(());
    }
    let missing: Vec<&str> = want
        .iter()
        .filter(|m| !got.contains(m))
        .map(|m| m.0.as_str())
        .collect();
    let extra: Vec<&str> = got
        .iter()
        .filter(|m| !want.contains(m))
        .map(|m| m.0.as_str())
        .collect();
    Err(format!(
        "metrics differ from {MANIFEST} {key}: missing or in another unit [{}], not listed [{}]",
        missing.join(", "),
        extra.join(", ")
    ))
}

/// This program, set to run one workload in a child process.
fn child_command(exe: &Path, workload: &str, args: &Args) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child", "1"]);
    cmd
}

/// `--workload all`: each workload in its own child process, so each
/// one's peak memory is its own.
fn run_all(args: &Args, exe: &Path) -> ExitCode {
    let mut ok = true;
    let mut merged = Report::default();
    for workload in WORKLOADS {
        let out = child_command(exe, workload, args).output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let lines: Vec<&str> = text.lines().collect();
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("{line}");
        }
        ok &= out.status.success();
        match lines
            .last()
            .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        {
            Some(v) => {
                merged.attempted += v["attempted"].as_u64().unwrap_or(0);
                merged.failed += v["failed"].as_u64().unwrap_or(0);
                if v["correct"].as_bool() != Some(true) {
                    merged.fail(format!("{workload} reported incorrect output"));
                }
                if let Some(metrics) = v["metrics"].as_object() {
                    for (name, m) in metrics.iter() {
                        let value = m["value"].as_f64().unwrap_or(f64::NAN);
                        let unit = m["unit"].as_str().unwrap_or("");
                        merged.metric(format!("{workload}.{name}"), value, unit);
                    }
                }
            }
            None => merged.fail(format!("{workload} printed no result line")),
        }
    }
    println!("{}", merged.json());
    if ok && merged.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rmm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.child {
        // The workload always runs in a child process: its peak memory is
        // then its own, not that of whatever started this one (`cargo
        // run` execs into this program, and Linux keeps the exec'ing
        // process's peak in `getrusage`).
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("rmm-perfbench: cannot locate own executable: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.workload == "all" {
            return run_all(&args, &exe);
        }
        return match child_command(&exe, &args.workload, &args).status() {
            Ok(status) if status.success() => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("rmm-perfbench: cannot start the workload: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work: PathBuf =
        Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("rmm-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let fingerprint = provenance::behaviour_fingerprint();
    let rep = run_workload(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    print!("{}", rep.human(&args.workload));
    println!(
        "  seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance::block(&fingerprint));
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
