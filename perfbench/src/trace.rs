//! Host-time spans recorded around public layer calls, kept in memory and
//! written out when the run ends: a Chrome trace-event file and a per-layer
//! table (count, total, self time, share of the enclosing root span).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` indexes the enclosing span; `call` is the id
/// of the root span (a workload call or the probe phase) it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_call: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_call: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. A span opened with no span
    /// around it is a root and starts a new call id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let call = match parent {
            Some(p) => self.spans[p].call,
            None => {
                self.next_call += 1;
                self.next_call
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            call,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Number of spans recorded so far; pass it to [`Tracer::durations_ns`]
    /// to look only at spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations of the spans named `name` recorded since `mark`.
    pub fn durations_ns(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .collect()
    }

    fn root_of(&self, mut index: usize) -> usize {
        while let Some(p) = self.spans[index].parent {
            index = p;
        }
        index
    }

    /// The per-layer table: one row per (root kind, span name) with count,
    /// total and self milliseconds, and self time as a share of the total
    /// time of the roots of that kind.
    pub fn table(&self) -> Vec<LayerRow> {
        let self_ns = self.self_ns();
        let mut root_total: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent.is_none()) {
            *root_total.entry(span.name).or_default() += span.duration_ns();
        }
        let mut rows: BTreeMap<(&'static str, &'static str), LayerRow> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = self.spans[self.root_of(i)].name;
            let row = rows.entry((root, span.name)).or_insert_with(|| LayerRow {
                root,
                name: span.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
                share: 0.0,
            });
            row.count += 1;
            row.total_ms += span.duration_ns() as f64 / 1e6;
            row.self_ms += self_ns[i] as f64 / 1e6;
        }
        rows.into_values()
            .map(|mut row| {
                row.share = row.self_ms * 1e6 / root_total[row.root].max(1) as f64;
                row
            })
            .collect()
    }

    /// Writes every span as a Chrome trace-event ("X" complete event) JSON
    /// file, loadable in Perfetto or `chrome://tracing`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"call\":{},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.call,
                self_ns[i] as f64 / 1e3,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

pub struct LayerRow {
    pub root: &'static str,
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub share: f64,
}
