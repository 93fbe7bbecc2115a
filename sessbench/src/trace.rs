//! Driver-side spans: one span per call the benchmark makes into a
//! layer's public function, kept in memory and written out at exit.
//!
//! Spans nest as `setup` → layer call and `epoch` → `step` → layer call. A layer's time is the sum
//! of its spans; `driver.other_ms` is the epoch time no layer span covers.

use crate::clock::cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One timed interval, in CPU nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Driver step the span belongs to (0 during set-up).
    pub step: u64,
}

/// In-memory span recorder. When disabled every call is a plain
/// pass-through, so an untraced run pays one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
    /// Work counted inside epochs (events run, updates published), so
    /// per-unit rates divide span time by the work done in those spans.
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: cpu_ns(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Turn recording on or off between sessions (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        cpu_ns() - self.origin
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        if name == "step" {
            self.step += 1;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time one layer call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Count `n` units of work named `name` if recording inside an epoch.
    pub fn count(&mut self, name: &'static str, n: u64) {
        let in_epoch = self.open.first().is_some_and(|&i| self.spans[i].name == "epoch");
        if self.enabled && in_epoch {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn in_epochs_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Sum of the durations of spans named `name` that lie inside a span
    /// named `ancestor` (`epoch` for the timed steps, `setup` for set-up).
    pub fn total_ns_under(&self, name: &str, ancestor: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.under(s, ancestor))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    fn under(&self, s: &Span, ancestor: &str) -> bool {
        let mut p = s.parent;
        while let Some(i) = p {
            if self.spans[i].name == ancestor {
                return true;
            }
            p = self.spans[i].parent;
        }
        false
    }

    /// Write every span as one JSON array (name, start/end ns, parent
    /// index, step id).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"step\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, parent, s.step
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
