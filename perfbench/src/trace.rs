//! Spans recorded around the benchmark's own calls into the program.
//!
//! Spans live in memory (transaction spans in per-worker buffers sized
//! before each pass) and are written once, as JSON lines, when the
//! benchmark exits.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span describes, beyond its name.
#[derive(Debug, Clone, Copy)]
pub enum Attrs {
    /// A measurement round: build, passes, snapshots, checks.
    Round { round: usize },
    /// `Tpcc::build` / `SmallBank::build`.
    Setup,
    /// One `run_pipelined` driver pass.
    Run { pass: &'static str, txns_per_worker: u64, os_threads: usize },
    /// One per-type transaction call.
    Txn { label: &'static str, node: u16, worker: usize, vtime_ns: u64 },
    /// A counter snapshot (`stats_report` plus every location cache).
    Snapshot { at: &'static str },
    /// The correctness gate.
    Check,
}

/// One timed interval on the host clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within a run; 0 is never used.
    pub id: u64,
    /// The enclosing span's id (0 = none).
    pub parent: u64,
    /// Host ns since the tracer's epoch.
    pub start_ns: u64,
    /// Host ns since the tracer's epoch.
    pub end_ns: u64,
    /// Name and attributes.
    pub attrs: Attrs,
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        match self.attrs {
            Attrs::Round { .. } => "round",
            Attrs::Setup => "setup",
            Attrs::Run { .. } => "run",
            Attrs::Txn { .. } => "txn",
            Attrs::Snapshot { .. } => "snapshot",
            Attrs::Check => "check",
        }
    }

    /// Host duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            self.id,
            self.parent,
            self.name(),
            self.start_ns,
            self.end_ns
        );
        let _ = match self.attrs {
            Attrs::Round { round } => write!(s, "\"round\":{round}"),
            Attrs::Setup | Attrs::Check => Ok(()),
            Attrs::Run { pass, txns_per_worker, os_threads } => write!(
                s,
                "\"pass\":\"{pass}\",\"txns_per_worker\":{txns_per_worker},\"os_threads\":{os_threads}"
            ),
            Attrs::Txn { label, node, worker, vtime_ns } => write!(
                s,
                "\"label\":\"{label}\",\"node\":{node},\"worker\":{worker},\"vtime_ns\":{vtime_ns}"
            ),
            Attrs::Snapshot { at } => write!(s, "\"at\":\"{at}\""),
        };
        s.push_str("}}");
        s
    }
}

/// Span ids, the host epoch, and the run's collected spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Host ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span with a pre-assigned `id`.
    pub fn span_with_id<T>(&self, id: u64, parent: u64, attrs: Attrs, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        self.push(vec![Span { id, parent, start_ns, end_ns: self.now_ns(), attrs }]);
        out
    }

    /// Runs `f` inside a fresh span.
    pub fn span<T>(&self, parent: u64, attrs: Attrs, f: impl FnOnce() -> T) -> T {
        self.span_with_id(self.id(), parent, attrs, f)
    }

    /// Moves finished spans into the run's collection.
    pub fn push(&self, mut spans: Vec<Span>) {
        self.spans.lock().expect("span store poisoned").append(&mut spans);
    }

    /// Writes every collected span as one JSON object per line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in spans.iter() {
            writeln!(out, "{}", s.json())?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::default();
        let outer = t.id();
        t.span_with_id(outer, 0, Attrs::Round { round: 3 }, || {
            t.span(outer, Attrs::Snapshot { at: "before" }, || ());
        });
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        let (inner, round) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, round.id);
        assert!(round.start_ns <= inner.start_ns && inner.end_ns <= round.end_ns);
        assert_eq!(
            inner.json(),
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"snapshot\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{\"at\":\"before\"}}}}",
                inner.id, round.id, inner.start_ns, inner.end_ns
            )
        );
    }
}
