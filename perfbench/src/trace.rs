//! In-memory spans around the calls the benchmark makes into each
//! layer's public functions.
//!
//! A disabled [`Tracer`] runs the wrapped call and records nothing, so
//! the untraced run pays one branch per call. An enabled one records,
//! per span, its name, the operation it belongs to (one analysis, one
//! edit, one query), its parent, its start and end, and — for library
//! calls — the peak heap it reached above its start. Spans are written
//! out only when the run ends ([`Tracer::write`]).

use crate::stats::median;
use crate::{Report, MIB};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use vsfs_adt::mem::MemScope;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call or operation name, e.g. `Svfg::build`.
    pub name: &'static str,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Peak live heap above the call's start (library calls only).
    pub peak_bytes: usize,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open grouping span, closed by [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; otherwise a pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or passes calls through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            peak_bytes: 0,
        };
        self.spans.push(span);
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Starts a new operation and opens its grouping span. Grouping
    /// spans record no heap peak, because their library calls reset it.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.op += 1;
        Open(Some(self.push(name)))
    }

    /// Closes a grouping span.
    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs one library call under a span that records its time and
    /// peak heap.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let i = self.push(name);
        let scope = MemScope::start();
        let out = f();
        self.spans[i].peak_bytes = scope.peak_bytes();
        self.spans[i].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Durations in seconds of the spans named `name`, in order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Peak heap bytes of the spans named `name`, in order.
    pub fn peaks(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.peak_bytes as f64).collect()
    }

    /// Reports the median duration of the spans named `span` as metric
    /// `busy` and, when given, their median peak heap as metric `peak`.
    pub fn layer(
        &self,
        report: &mut Report,
        busy: &'static str,
        peak: Option<&'static str>,
        span: &str,
    ) {
        let secs = self.seconds(span);
        report.metric(busy, median(&secs).unwrap_or(0.0), "s", secs.len());
        if let Some(peak) = peak {
            let peaks = self.peaks(span);
            report.metric(peak, median(&peaks).unwrap_or(0.0) / MIB, "MiB", peaks.len());
        }
    }

    /// Reports `queries.pts_ns` and `queries.alias_ns`: the median
    /// durations of the `AliasQueries` calls.
    pub fn query_layers(&self, report: &mut Report) {
        for (metric, span) in [
            ("queries.pts_ns", "AliasQueries::pointee_names"),
            ("queries.alias_ns", "AliasQueries::may_alias"),
        ] {
            let ns: Vec<f64> = self.seconds(span).iter().map(|s| s * 1e9).collect();
            report.metric(metric, median(&ns).unwrap_or(0.0), "ns", ns.len());
        }
    }

    /// Durations in seconds of the spans named `name`, keyed by
    /// operation.
    pub fn seconds_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += s.seconds();
        }
        out
    }

    /// Writes every span (with its self time: duration minus the part
    /// its children cover) and the counters as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or the file written.
    pub fn write(
        &self,
        path: &Path,
        counters: &BTreeMap<&'static str, u64>,
    ) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"peak_bytes\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
                s.peak_bytes
            )
            .expect("writing to a String cannot fail");
        }
        let pairs: Vec<String> = counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        writeln!(out, "{{\"counters\": {{{}}}}}", pairs.join(", "))
            .expect("writing to a String cannot fail");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
