//! The wire protocol: JSON Lines over TCP, one request or response
//! object per line.
//!
//! Requests and responses are externally-tagged serde enums, so a run
//! request looks like
//!
//! ```text
//! {"Run":{"id":1,"protocol":"bmmm","scenario":{...},"seed":7,"trace":true,"profile":false}}
//! ```
//!
//! and the server answers with a `Started` line, the streamed
//! `Event`/`Profile` lines the request asked for, and a final `Result`
//! (or `Error`) line carrying the same `id`. Responses to different
//! in-flight requests on one connection may interleave; the lines for
//! one `id` always arrive in order. Everything in a `Result` is
//! **canonical** (wall-clock provenance zeroed, see
//! [`canonical_result`]), which is what makes a served response
//! byte-identical to a local serial run of the same cell — and lets the
//! cache replay it verbatim.

use rmm_mac::ProtocolKind;
use rmm_sim::TraceEvent;
use rmm_stats::ProfileReport;
use rmm_workload::observe::PhaseTimings;
use rmm_workload::{run, RunOpts, RunResult, Scenario};
use serde::{Deserialize, Serialize};

/// Wire-protocol version, folded into the cache header so a protocol
/// change can never replay cells written under another framing.
pub const PROTO_VERSION: u32 = 1;

/// One simulation cell to run (or fetch from cache).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Client-chosen correlation id echoed on every response line.
    pub id: u64,
    /// Protocol name (display name or CLI alias, case-insensitive).
    pub protocol: String,
    /// Full scenario for the run.
    pub scenario: Scenario,
    /// Seed of the run (a request is always a single cell; use many
    /// requests for a sweep).
    pub seed: u64,
    /// Stream the run's `TraceEvent` log back as `Event` lines.
    pub trace: bool,
    /// Attach the engine's phase-timer attribution report. Profile
    /// timings are wall-clock and therefore *not* byte-reproducible; a
    /// cached cell replays the timings of the run that produced it.
    pub profile: bool,
}

/// A client request line.
///
/// One short-lived value per parsed line; the `Run` payload dwarfing
/// the flag-only variants costs nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run (or serve from cache) one simulation cell.
    Run(RunRequest),
    /// Fetch the Prometheus metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop accepting connections, finish
    /// in-flight work, flush the cache, exit.
    Shutdown,
}

/// A server response line.
///
/// Transient per-line values; `Result`'s payload dominating the
/// stream-control variants is expected and harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The run request was accepted (cache hit or scheduled).
    Started {
        /// Correlation id from the request.
        id: u64,
    },
    /// One streamed trace event of a `trace: true` run.
    Event {
        /// Correlation id from the request.
        id: u64,
        /// The protocol event.
        event: TraceEvent,
    },
    /// The engine phase-timer report of a `profile: true` run.
    Profile {
        /// Correlation id from the request.
        id: u64,
        /// Attribution report (wall-clock; not byte-reproducible).
        profile: ProfileReport,
    },
    /// Terminal success line of a run request.
    Result {
        /// Correlation id from the request.
        id: u64,
        /// Whether the cell came from the result cache without touching
        /// the engine.
        cached: bool,
        /// The canonical run result (wall-clock provenance zeroed).
        result: RunResult,
    },
    /// Prometheus text exposition, answering `Metrics`.
    Metrics {
        /// The rendered snapshot.
        text: String,
    },
    /// Liveness reply, answering `Ping`.
    Pong {
        /// Server wire-protocol version.
        version: u32,
    },
    /// Acknowledges `Shutdown`; the server stops accepting work.
    Draining,
    /// Terminal failure line (`id` absent for connection-level errors).
    Error {
        /// Correlation id, when the error belongs to one request.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

/// Everything one completed cell produced: the canonical result plus
/// the optional trace/profile attachments. This is the unit the cache
/// stores, keyed by content hash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeCell {
    /// Canonical run result.
    pub result: RunResult,
    /// Event log, when the producing request asked for a trace.
    pub trace: Option<Vec<TraceEvent>>,
    /// Phase-timer report, when the producing request asked for one.
    pub profile: Option<ProfileReport>,
}

/// Zeroes the wall-clock provenance — the only scheduling-dependent
/// bytes in a [`RunResult`] — so served, cached, and locally computed
/// results compare byte-for-byte.
pub fn canonical_result(mut result: RunResult) -> RunResult {
    result.manifest.wall_clock = PhaseTimings::default();
    result
}

/// Executes one cell with the request's trace and profile flags,
/// canonicalizing the result.
pub fn compute_cell(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    trace: bool,
    profile: bool,
) -> ServeCell {
    let opts = RunOpts {
        trace,
        profile,
        ..RunOpts::default()
    };
    let run = run(scenario, protocol, seed, opts);
    ServeCell {
        result: canonical_result(run.result),
        trace: run.trace.map(|t| t.events().to_vec()),
        profile: run.profile,
    }
}

/// Renders the full response-line sequence for one served cell:
/// `Started`, the `Event` stream, the `Profile` report, and the
/// terminal `Result`. The server streams exactly these lines and the
/// client oracle recomputes exactly these lines, so byte-identity is by
/// construction.
pub fn run_response_lines(id: u64, cell: &ServeCell, cached: bool) -> Vec<String> {
    let mut lines = Vec::with_capacity(2 + cell.trace.as_ref().map_or(0, Vec::len));
    lines.push(encode(&Response::Started { id }));
    if let Some(events) = &cell.trace {
        for event in events {
            lines.push(encode(&Response::Event {
                id,
                event: event.clone(),
            }));
        }
    }
    if let Some(profile) = &cell.profile {
        lines.push(encode(&Response::Profile {
            id,
            profile: profile.clone(),
        }));
    }
    lines.push(encode(&Response::Result {
        id,
        cached,
        result: cell.result.clone(),
    }));
    lines
}

/// Serializes one response line.
pub fn encode(response: &Response) -> String {
    serde_json::to_string(response).expect("response serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            n_nodes: 10,
            sim_slots: 300,
            n_runs: 1,
            ..Scenario::default()
        }
    }

    #[test]
    fn requests_round_trip() {
        let req = Request::Run(RunRequest {
            id: 7,
            protocol: "bmmm".into(),
            scenario: tiny(),
            seed: 3,
            trace: true,
            profile: false,
        });
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(req, back);
        for req in [Request::Metrics, Request::Ping, Request::Shutdown] {
            let line = serde_json::to_string(&req).unwrap();
            assert_eq!(req, serde_json::from_str::<Request>(&line).unwrap());
        }
    }

    #[test]
    fn canonical_results_are_byte_stable_across_runs() {
        let s = tiny();
        let a = compute_cell(&s, ProtocolKind::Bmmm, 5, false, false);
        let b = compute_cell(&s, ProtocolKind::Bmmm, 5, false, false);
        assert_eq!(
            serde_json::to_string(&a.result).unwrap(),
            serde_json::to_string(&b.result).unwrap(),
            "wall-clock is zeroed, everything else is seed-determined"
        );
    }

    #[test]
    fn traced_cell_matches_a_local_traced_run() {
        let s = tiny();
        let cell = compute_cell(&s, ProtocolKind::Lamm, 9, true, false);
        let opts = RunOpts {
            trace: true,
            ..RunOpts::default()
        };
        let run = run(&s, ProtocolKind::Lamm, 9, opts);
        let (result, trace) = (run.result, run.trace.unwrap());
        assert_eq!(cell.trace.as_deref().unwrap(), trace.events());
        assert_eq!(
            serde_json::to_string(&cell.result).unwrap(),
            serde_json::to_string(&canonical_result(result)).unwrap()
        );
    }

    #[test]
    fn response_lines_start_and_end_correctly() {
        let cell = compute_cell(&tiny(), ProtocolKind::Bmw, 1, true, false);
        let lines = run_response_lines(4, &cell, false);
        assert!(lines.first().unwrap().contains("\"Started\""));
        assert!(lines.last().unwrap().contains("\"Result\""));
        assert_eq!(lines.len(), 2 + cell.trace.as_ref().unwrap().len());
        // The cached replay differs only in the `cached` flag.
        let cached = run_response_lines(4, &cell, true);
        assert_eq!(lines.len(), cached.len());
        assert_eq!(lines[..lines.len() - 1], cached[..lines.len() - 1]);
        assert_ne!(lines.last(), cached.last());
    }
}
