//! Where a number came from: host, build, source and behaviour.
//!
//! The behaviour fingerprint is a digest of the simulated outputs of one
//! small fixed cell per protocol. Two builds with the same fingerprint
//! simulate those cells identically, so a speed difference between them
//! is not bought by simulating something else.

use rmm_fleet::{hex, Fnv1a};
use rmm_mac::ProtocolKind;
use rmm_serve::canonical_result;
use rmm_workload::{run_one, RunResult, Scenario};
use std::path::Path;
use std::process::Command;

/// Digest of everything a run simulated: its canonical result
/// (wall-clock provenance zeroed) serialized to JSON.
pub fn sim_digest(result: &RunResult) -> u64 {
    let json = serde_json::to_string(&canonical_result(result.clone())).expect("result serializes");
    let mut h = Fnv1a::new();
    h.write_str(&json);
    h.finish()
}

/// The fixed cell the fingerprint simulates under every protocol.
fn fingerprint_scenario() -> Scenario {
    Scenario {
        n_nodes: 30,
        sim_slots: 1_500,
        msg_rate: 2e-3,
        n_runs: 1,
        ..Scenario::default()
    }
}

pub fn behaviour_fingerprint() -> String {
    let scenario = fingerprint_scenario();
    let mut h = Fnv1a::new();
    for protocol in ProtocolKind::EVERY {
        h.write_str(protocol.name());
        h.write_u64(sim_digest(&run_one(&scenario, protocol, 1)));
    }
    hex(h.finish())
}

/// Digest of the source the benchmark builds: every `.rs`, `Cargo.toml`
/// and `Cargo.lock` under `crates/`, `vendor/` and `perfbench/`, plus
/// the root manifest and lock file, in sorted path order. It names the
/// code even in a checkout without git metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv1a::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write_str(&f.strip_prefix(root).unwrap_or(f).to_string_lossy());
            h.write_str(&String::from_utf8_lossy(&bytes));
        }
    }
    hex(h.finish())
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The provenance block as one JSON object.
pub fn block(fingerprint: &str) -> String {
    let root = Path::new(".");
    let (commit, dirty) = if root.join(".git").exists() {
        let commit = git(&["rev-parse", "HEAD"]);
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        (commit, dirty)
    } else {
        (None, None)
    };
    let quote = |s: Option<String>| s.map_or("null".to_string(), |s| format!("\"{}\"", esc(&s)));
    format!(
        "{{\"cores\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"build_profile\":\"{}\",\"git_commit\":{},\"git_dirty\":{},\"source_digest\":\"{}\",\"behaviour_fingerprint\":\"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        esc(&crate::sys::cpu_model()),
        esc(&crate::sys::kernel_release()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        quote(commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        source_digest(root),
        fingerprint,
    )
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
