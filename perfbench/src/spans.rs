//! In-memory spans for the traced run, recorded by the benchmark around
//! its calls into each layer's public functions.
//!
//! A span has a name, a start, an end and a parent; spans of one served
//! request also carry the request id. Calls made once per slot would
//! give millions of spans, so such a call site keeps one *aggregate*
//! span per cell: `calls` executions between its first start and last
//! end, whose durations sum to `busy_ns`. For a plain span `busy_ns` is
//! `end - start` and `calls` is 1. A span's self time is its busy time
//! minus its children's busy time; the layer of a span is its name up
//! to the first dot. Spans are kept per thread and written out as JSON
//! Lines at the end.

use crate::report::Report;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub request: Option<u64>,
}

/// One thread's spans, timed against a shared origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: usize) -> Self {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a plain span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, parent, now, now, 0, 0)
    }

    /// Closes a plain span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.calls = 1;
    }

    /// Records a completed plain span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (a, b) = (self.ns(start), self.ns(end));
        self.push(name, parent, a, b, b - a, 1)
    }

    /// Opens an empty aggregate span; [`Recorder::add`] extends it.
    pub fn aggregate(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.push(name, parent, u64::MAX, 0, 0, 0)
    }

    /// Adds one execution, from `start` to `end`, to an aggregate span.
    #[inline]
    pub fn add(&mut self, id: SpanId, start: Instant, end: Instant) {
        let (a, b) = (self.ns(start), self.ns(end));
        let s = &mut self.spans[id];
        s.start_ns = s.start_ns.min(a);
        s.end_ns = s.end_ns.max(b);
        s.busy_ns += b - a;
        s.calls += 1;
    }

    /// A child whose time was measured inside its parent by the program
    /// itself (the engine's phase timers): it inherits the parent's
    /// interval and carries the measured busy time and call count.
    pub fn synthetic(&mut self, name: &'static str, parent: SpanId, busy_ns: u64, calls: u64) {
        let (a, b) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.push(name, Some(parent), a, b, busy_ns, calls);
    }

    pub fn set_request(&mut self, id: SpanId, request: u64) {
        self.spans[id].request = Some(request);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
            request: None,
        });
        self.spans.len() - 1
    }

    /// Self time per span: busy time minus the children's busy time.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }
}

/// The program's layers. Only spans named for one of them carry layer
/// time; the benchmark's own spans (`bench.*` roots, the replica's
/// `runner.*` cell and slot loop) and the `fleet.job` wrapper, whose
/// self time is the benchmark's hook work, leave theirs unattributed.
pub const LAYERS: [&str; 8] = [
    "setup", "traffic", "mac", "engine", "channel", "collect", "fleet", "serve",
];

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn attributed(name: &str) -> bool {
    name != "fleet.job" && LAYERS.contains(&layer_of(name))
}

/// Self time in seconds per span name and per layer, over any number
/// of recorders.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Self time of every span that has a parent, by name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Busy time of the root spans (those without a parent).
    pub root_s: f64,
    /// Self time of the spans of the program's layers.
    pub layer_s: f64,
}

impl SelfTimes {
    pub fn of(recorders: &[Recorder]) -> SelfTimes {
        let mut out = SelfTimes::default();
        for rec in recorders {
            for (s, own) in rec.spans.iter().zip(rec.self_ns()) {
                let secs = own as f64 * 1e-9;
                if s.parent.is_none() {
                    out.root_s += s.busy_ns as f64 * 1e-9;
                } else {
                    *out.by_name.entry(s.name).or_default() += secs;
                }
                if attributed(s.name) {
                    out.layer_s += secs;
                }
            }
        }
        out
    }

    pub fn name(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of `layer`: its spans (`layer` or `layer.*`), less the
    /// `fleet.job` wrapper.
    pub fn layer(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| attributed(n) && layer_of(n) == layer)
            .map(|(_, s)| s)
            .sum()
    }

    /// Self time per layer, for the human-readable summary.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = LAYERS
            .iter()
            .filter(|l| self.layer(l) > 0.0)
            .map(|l| format!("{l} {:.1}%", 100.0 * self.layer(l) / self.root_s))
            .collect();
        parts.push(format!(
            "unattributed {:.2}%",
            100.0 * self.unattributed_frac()
        ));
        parts.join(", ")
    }

    /// 1 − Σ layer self time ÷ root busy time.
    pub fn unattributed_frac(&self) -> f64 {
        if self.root_s == 0.0 {
            return 0.0;
        }
        1.0 - self.layer_s / self.root_s
    }
}

/// Writes a traced run's spans to `<dir>/spans-<workload>-seed<seed>.jsonl`
/// and notes where, failing the run if they cannot be written.
pub fn save_spans(dir: &Path, workload: &str, seed: u64, recorders: &[Recorder], rep: &mut Report) {
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    match write_jsonl(&path, recorders) {
        Ok(()) => rep.note(format!("spans written to {}", path.display())),
        Err(e) => rep.fail(format!("writing {}: {e}", path.display())),
    }
}

/// Writes every span of every recorder as one JSON object per line.
fn write_jsonl(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for rec in recorders {
        for (i, s) in rec.spans.iter().enumerate() {
            if s.calls == 0 {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"request\":{request}}}",
                rec.thread, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_root() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 0);
        let t = |ms: u64| origin + Duration::from_millis(ms);
        let root = rec.record("cell", None, t(0), t(100));
        rec.record("setup.topology", Some(root), t(0), t(10));
        let agg = rec.aggregate("engine.advance", Some(root));
        rec.add(agg, t(20), t(40));
        rec.add(agg, t(50), t(70));
        rec.synthetic("engine.resolve", agg, 15_000_000, 7);
        let recorders = [rec];
        let st = SelfTimes::of(&recorders);
        assert!((st.name("engine.advance") - 0.025).abs() < 1e-9);
        assert!((st.layer("engine") - 0.040).abs() < 1e-9);
        assert!((st.layer("setup") - 0.010).abs() < 1e-9);
        assert!((st.root_s - 0.100).abs() < 1e-9);
        // 100 ms of root, 50 ms covered by layer spans.
        assert!((st.unattributed_frac() - 0.5).abs() < 1e-9);
        let rec = &recorders[0];
        assert_eq!(rec.spans[agg].calls, 2);
        assert_eq!(rec.spans[agg].busy_ns, 40_000_000);
    }

    #[test]
    fn benchmark_spans_are_unattributed() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 0);
        let t = |ms: u64| origin + Duration::from_millis(ms);
        let root = rec.record("bench.worker", None, t(0), t(100));
        let job = rec.record("fleet.job", Some(root), t(0), t(80));
        let cell = rec.record("runner.cell", Some(job), t(5), t(75));
        let sim = rec.record("runner.loop", Some(cell), t(10), t(70));
        rec.record("traffic.tick", Some(sim), t(10), t(30));
        rec.record("fleet.idle", Some(root), t(80), t(100));
        let st = SelfTimes::of(&[rec]);
        // Layer time: 20 ms of traffic and 20 ms of fleet idling; the
        // job wrapper, the cell and the slot loop are the benchmark's.
        assert!((st.layer("traffic") - 0.020).abs() < 1e-9);
        assert!((st.layer("fleet") - 0.020).abs() < 1e-9);
        assert!((st.unattributed_frac() - 0.6).abs() < 1e-9);
        assert!((st.name("runner.loop") - 0.040).abs() < 1e-9);
    }
}
