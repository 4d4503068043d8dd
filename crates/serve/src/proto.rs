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
//! and the server answers with a `Started` line, the
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

/// A served cell in serialized form: the `result` JSON, the event JSONs
/// packed back to back in one buffer with their end offsets, and the
/// profile JSON. Every response line of the cell and its cache manifest
/// line are spliced from these pieces, so a cache hit serializes
/// nothing and a cold run serializes its cell once.
///
/// The compact JSON writer is compositional (a value nested in an
/// object is written exactly as it is written alone), so the splices
/// equal their serde twins byte for byte: [`CellBytes::render`] equals
/// [`run_response_lines`] and [`CellBytes::cell_json`] equals
/// `serde_json::to_string(&cell)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBytes {
    result: String,
    events: String,
    /// End offset in `events` of each event; `None` for an untraced
    /// cell (which differs from a traced cell with no events).
    event_ends: Option<Vec<usize>>,
    profile: Option<String>,
}

// The framing of each response line around its id and its body:
// `head`, id, `mid`, body, `LINE_END`.
const STARTED: (&str, &str) = ("{\"Started\":{\"id\":", "");
const EVENT: (&str, &str) = ("{\"Event\":{\"id\":", ",\"event\":");
const PROFILE: (&str, &str) = ("{\"Profile\":{\"id\":", ",\"profile\":");
const RESULT: [(&str, &str); 2] = [
    ("{\"Result\":{\"id\":", ",\"cached\":false,\"result\":"),
    ("{\"Result\":{\"id\":", ",\"cached\":true,\"result\":"),
];
const LINE_END: &str = "}}\n";

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("cell serializes")
}

impl CellBytes {
    /// Serializes a cell into its pieces.
    pub fn of(cell: &ServeCell) -> CellBytes {
        let (mut events, mut event_ends) = (String::new(), None);
        if let Some(trace) = &cell.trace {
            let mut ends = Vec::with_capacity(trace.len());
            for event in trace {
                events.push_str(&json(event));
                ends.push(events.len());
            }
            events.shrink_to_fit();
            event_ends = Some(ends);
        }
        CellBytes {
            result: json(&cell.result),
            events,
            event_ends,
            profile: cell.profile.as_ref().map(json),
        }
    }

    /// Parses a stored cell JSON (a cache manifest entry) into pieces.
    pub fn parse(cell_json: &str) -> Result<CellBytes, serde_json::Error> {
        serde_json::from_str(cell_json).map(|cell| CellBytes::of(&cell))
    }

    /// Parses the pieces back into a cell.
    pub fn to_cell(&self) -> Result<ServeCell, serde_json::Error> {
        let trace = self.event_ends.as_ref();
        let trace = trace.map(|_| self.events().map(serde_json::from_str).collect());
        let profile = self.profile.as_deref().map(serde_json::from_str);
        Ok(ServeCell {
            result: serde_json::from_str(&self.result)?,
            trace: trace.transpose()?,
            profile: profile.transpose()?,
        })
    }

    /// The event JSONs in order.
    fn events(&self) -> impl Iterator<Item = &str> {
        let ends = self.event_ends.as_deref().unwrap_or_default();
        let starts = std::iter::once(0).chain(ends.iter().copied());
        starts
            .zip(ends)
            .map(|(start, &end)| &self.events[start..end])
    }

    fn event_count(&self) -> usize {
        self.event_ends.as_ref().map_or(0, Vec::len)
    }

    /// The cell's JSON as the cache manifest stores it, spliced from the
    /// pieces: byte-identical to `serde_json::to_string(&cell)`.
    pub fn cell_json(&self) -> String {
        let profile = self.profile.as_deref().unwrap_or("null");
        let len = self.result.len() + self.events.len() + self.event_count() + profile.len() + 40;
        let mut out = String::with_capacity(len);
        out.push_str("{\"result\":");
        out.push_str(&self.result);
        out.push_str(",\"trace\":");
        if self.event_ends.is_some() {
            out.push('[');
            for (i, event) in self.events().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(event);
            }
            out.push(']');
        } else {
            out.push_str("null");
        }
        out.push_str(",\"profile\":");
        out.push_str(profile);
        out.push('}');
        out
    }

    /// Renders every response line of the cell for request `id`, each
    /// ending in a newline: the lines of [`run_response_lines`], spliced
    /// into one buffer without serializing anything.
    pub fn render(&self, id: u64, cached: bool) -> String {
        let id = id.to_string();
        let result = RESULT[usize::from(cached)];
        let framing =
            |(head, mid): (&str, &str)| head.len() + id.len() + mid.len() + LINE_END.len();
        let len = framing(STARTED)
            + self.event_count() * framing(EVENT)
            + self.events.len()
            + self
                .profile
                .as_ref()
                .map_or(0, |p| framing(PROFILE) + p.len())
            + framing(result)
            + self.result.len();
        let mut out = String::with_capacity(len);
        let mut line = |(head, mid): (&str, &str), body: &str| {
            out.push_str(head);
            out.push_str(&id);
            out.push_str(mid);
            out.push_str(body);
            out.push_str(LINE_END);
        };
        line(STARTED, "");
        for event in self.events() {
            line(EVENT, event);
        }
        if let Some(profile) = &self.profile {
            line(PROFILE, profile);
        }
        line(result, &self.result);
        debug_assert_eq!(out.len(), len);
        out
    }
}

/// Renders the full response-line sequence for one served cell:
/// `Started`, the `Event` stream, the `Profile` report, and the
/// terminal `Result`. This is the serde twin of [`CellBytes::render`],
/// which the server writes: the client oracle recomputes exactly these
/// lines, and the splice is tested against them byte for byte.
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
    fn spliced_lines_match_the_serde_twin() {
        let s = tiny();
        for protocol in ProtocolKind::EVERY {
            for (trace, profile) in [(false, false), (true, false), (false, true), (true, true)] {
                let cell = compute_cell(&s, protocol, 2, trace, profile);
                let bytes = CellBytes::of(&cell);
                let what = format!("{} trace={trace} profile={profile}", protocol.name());
                let json = serde_json::to_string(&cell).unwrap();
                assert_eq!(bytes.cell_json(), json, "{what}: stored cell JSON");
                assert_eq!(CellBytes::parse(&json).unwrap(), bytes, "{what}: parse");
                let back = bytes.to_cell().unwrap();
                assert_eq!(
                    serde_json::to_string(&back).unwrap(),
                    json,
                    "{what}: to_cell"
                );
                for id in [0, 1, u64::MAX] {
                    for cached in [false, true] {
                        let want: String = run_response_lines(id, &cell, cached)
                            .iter()
                            .map(|line| format!("{line}\n"))
                            .collect();
                        assert_eq!(
                            bytes.render(id, cached),
                            want,
                            "{what} id={id} cached={cached}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_trace_is_not_an_absent_one() {
        let mut cell = compute_cell(&tiny(), ProtocolKind::Bmw, 1, false, false);
        cell.trace = Some(Vec::new());
        let bytes = CellBytes::of(&cell);
        assert_eq!(bytes.cell_json(), serde_json::to_string(&cell).unwrap());
        assert_eq!(bytes.to_cell().unwrap().trace, Some(Vec::new()));
        assert_ne!(
            bytes,
            CellBytes::of(&ServeCell {
                trace: None,
                ..cell
            })
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
