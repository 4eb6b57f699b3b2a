//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span carries its name, the grammar it ran on (if any), the op it
//! belongs to, its parent span and its start and end. Spans stay in
//! memory and are written out when the run ends; nothing is recorded
//! inside the library. When the tracer is disabled, `begin` and `end`
//! return at once without reading the clock, so a traced run can
//! alternate traced and untraced rounds of the same ops and report
//! the difference as the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::inputs::GRAMMARS;

/// Grammar index of a span that is not about one grammar.
pub const NO_GRAMMAR: u8 = u8::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    grammar: u8,
    op: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            op: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; only between ops, never inside a
    /// span.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new op: later spans belong to it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens span `name` on grammar `grammar` (or [`NO_GRAMMAR`]) as a
    /// child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, grammar: u8) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            grammar,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("span end without a begin");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Durations in µs of every span named `name` on `grammar`.
    pub fn durations_us(&self, name: &str, grammar: u8) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.grammar == grammar)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: count, total µs and self µs (total minus the
    /// time covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut table = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += total as f64 / 1e3;
            row.2 += total.saturating_sub(child) as f64 / 1e3;
        }
        table
    }

    /// Writes every span as one CSV line to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,span,parent,name,grammar,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let grammar = GRAMMARS.get(s.grammar as usize).copied().unwrap_or("");
            writeln!(
                w,
                "{},{i},{parent},{},{grammar},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
