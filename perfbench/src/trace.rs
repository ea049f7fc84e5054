//! The traced run's span recorder and the per-layer ledger built from it.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions and kept in memory until the repetition
//! ends. A span whose `count` exceeds one is an aggregate: its duration
//! is the sum of `count` calls (per-step and per-tap timings are folded
//! into one such span per chunk, so memory stays bounded however many
//! events a run processes).
//!
//! A span covers `threads` threads for its duration: the runner's
//! fan-out span on the probe grid covers every worker, and the job spans
//! under it are its children. A layer's self time is its spans' covered
//! thread-time minus the part their child spans cover; the ledger sums
//! self time per layer, and what no layer covers is the unattributed
//! remainder. By construction the layers plus the remainder add up to
//! the root span's thread-time: the traced wall time, with the parallel
//! phase counted once per worker.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Layer name for the benchmark's own bookkeeping: counted as
/// unattributed time.
pub const HARNESS: &str = "";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// The workspace layer the call went into.
    pub layer: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op or chunk id the span belongs to.
    pub op: u64,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
    /// Threads the span covers.
    pub threads: u32,
}

impl Span {
    fn thread_ns(&self) -> u128 {
        u128::from(self.end.saturating_sub(self.start)) * u128::from(self.threads)
    }
}

/// In-memory span store for one traced repetition.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The shared time origin (worker threads stamp against it too).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Open a single-thread span starting now.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        self.open_on(name, layer, parent, 1)
    }

    /// Open a span starting now that covers `threads` threads.
    pub fn open_on(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        threads: u32,
    ) -> usize {
        let now = self.now();
        self.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent,
            op: 0,
            count: 1,
            threads,
        })
    }

    /// Close a span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Tag a span with the op or chunk it belongs to.
    pub fn set_op(&mut self, id: usize, op: u64) {
        self.spans[id].op = op;
    }

    /// Record a finished span; returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record an aggregate of `count` calls totalling `total_ns`,
    /// anchored at `start`, under `parent` and tagged with its op.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        start: u64,
        total_ns: u64,
        count: u64,
    ) -> usize {
        self.push(Span {
            name,
            layer,
            start,
            end: start + total_ns,
            parent: Some(parent),
            op: self.spans[parent].op,
            count,
            threads: 1,
        })
    }

    /// Adopt spans recorded elsewhere (a worker thread) under `parent`.
    /// Their parent indices are local to `spans`; roots attach to
    /// `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: usize) {
        let base = self.spans.len();
        for mut s in spans {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            self.spans.push(s);
        }
    }

    /// The ledger: self thread-time per layer under `root`.
    ///
    /// A span's thread-time is its duration times its threads, widened
    /// by any child that covers more threads than it does (the fan-out
    /// under a single-thread root); its self time is that minus its
    /// children's thread-time.
    pub fn ledger(&self, root: usize) -> Ledger {
        let n = self.spans.len();
        let mut cap = vec![0u128; n];
        let mut child_cap = vec![0u128; n];
        // Children are always recorded after their parent, so one
        // reverse pass sees every child before its parent.
        for i in (0..n).rev() {
            let s = &self.spans[i];
            cap[i] += s.thread_ns();
            if let Some(p) = s.parent {
                let parent_threads = u128::from(self.spans[p].threads);
                let dur = u128::from(s.end.saturating_sub(s.start));
                cap[p] += cap[i].saturating_sub(dur * parent_threads);
                child_cap[p] += cap[i];
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut negative = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !self.under(i, root) {
                continue;
            }
            let own = cap[i] as f64 - child_cap[i] as f64;
            if own < 0.0 {
                negative.push(format!("{}#{i}", s.name));
            }
            *layers.entry(s.layer).or_insert(0.0) += own / 1e9;
        }
        let unattributed = layers.remove(HARNESS).unwrap_or(0.0);
        Ledger {
            wall_s: cap[root] as f64 / 1e9,
            layers,
            unattributed_s: unattributed,
            negative,
        }
    }

    fn under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Sum of durations and counts of every span called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| {
                (t + s.thread_ns() as f64 / 1e9, c + s.count)
            })
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{},\"count\":{},\"threads\":{}}}",
                s.name, s.layer, s.start, s.end, s.op, s.count, s.threads
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Self time per layer for one traced repetition.
pub struct Ledger {
    /// Thread-time of the root span.
    pub wall_s: f64,
    /// Self thread-time per named layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// Thread-time covered by no layer.
    pub unattributed_s: f64,
    /// Spans whose children overlap them by more than their length (a
    /// tracing bug: the ledger would double-count).
    pub negative: Vec<String>,
}

impl Ledger {
    /// Self time of `layer` as a share of the wall time.
    pub fn frac(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0) / self.wall_s
    }

    /// Layers plus remainder, as a share of the wall time (1 when the
    /// ledger balances).
    pub fn balance(&self) -> f64 {
        (self.layers.values().sum::<f64>() + self.unattributed_s) / self.wall_s
    }
}
