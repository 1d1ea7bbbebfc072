//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, the op it belongs to, the span that caused it, its
//! start and duration, and the counters read at the same boundary. Spans are
//! kept in memory and written out as JSON lines when the run ends; with
//! tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span (`0` when tracing is off).
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    round: u32,
    op: String,
    name: &'static str,
    start_s: f64,
    dur_s: f64,
    counts: Vec<(&'static str, u64)>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: u32,
    open: BTreeMap<SpanId, (Instant, Span)>,
    done: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            round: 0,
            open: BTreeMap::new(),
            done: Vec::new(),
        }
    }

    /// Switch recording on or off (a traced run alternates traced and
    /// untraced rounds to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans opened from now on with a round number.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span; returns its id.
    pub fn open(&mut self, name: &'static str, op: &str, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = (self.done.len() + self.open.len() + 1) as SpanId;
        let now = Instant::now();
        let span = Span {
            id,
            parent,
            round: self.round,
            op: op.to_string(),
            name,
            start_s: now.duration_since(self.epoch).as_secs_f64(),
            dur_s: 0.0,
            counts: Vec::new(),
        };
        self.open.insert(id, (now, span));
        id
    }

    /// Close a span, attaching the counters read at its boundary.
    pub fn close(&mut self, id: SpanId, counts: &[(&'static str, u64)]) {
        if let Some((start, mut span)) = self.open.remove(&id) {
            span.dur_s = start.elapsed().as_secs_f64();
            span.counts = counts.to_vec();
            self.done.push(span);
        }
    }

    /// Run `f` inside a span with no counters.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id, &[]);
        out
    }

    /// Per-layer self time: for each span name, the median over rounds of a
    /// span's duration minus the durations of its children, summed over ops.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<SpanId, f64> = BTreeMap::new();
        for span in &self.done {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.dur_s;
            }
        }
        let mut samples: BTreeMap<(&'static str, &str), BTreeMap<u32, f64>> = BTreeMap::new();
        for span in &self.done {
            let own = span.dur_s - children.get(&span.id).copied().unwrap_or(0.0);
            *samples
                .entry((span.name, span.op.as_str()))
                .or_default()
                .entry(span.round)
                .or_default() += own;
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ((name, _), per_round) in samples {
            let values: Vec<f64> = per_round.into_values().collect();
            *out.entry(name).or_default() += crate::stats::median(&values);
        }
        out
    }

    /// Render every recorded span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"round\": {}, \"op\": \"{}\", \
                 \"name\": \"{}\", \"start_s\": {}, \"dur_s\": {}",
                s.id, s.round, s.op, s.name, s.start_s, s.dur_s
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
