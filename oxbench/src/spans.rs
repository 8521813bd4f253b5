//! The benchmark's own trace: spans recorded around calls into each layer.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. Every span carries a name, start and end (ns since the run's
//! clock epoch), its parent span id (0 for a root), and the id of the op
//! it belongs to, plus the worker thread, run index and level code. The
//! program itself is not instrumented: every span here wraps a call into a
//! public function of a layer crate.

use oxterm_telemetry::JsonWriter;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// No level code (spans that are not tied to one level).
pub const NO_CODE: i64 = -1;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub worker: u64,
    pub run: u64,
    pub code: i64,
}

/// The run's monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

static NEXT_WORKER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static WORKER: u64 = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

/// A process-unique id for the calling worker thread.
pub fn worker_id() -> u64 {
    WORKER.with(|w| *w)
}

/// In-memory span store; a disabled log records nothing.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(on: bool) -> Self {
        SpanLog {
            on,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0 when disabled).
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    pub fn push(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let mut w = JsonWriter::new();
            w.begin_object()
                .u64("id", s.id)
                .u64("parent", s.parent)
                .u64("op", s.op)
                .string("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("worker", s.worker)
                .u64("run", s.run)
                .f64("code", s.code as f64)
                .end_object();
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}
