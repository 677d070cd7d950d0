//! Outside-in tracing: spans recorded by wrappers around the public
//! `StreamSource`, `BatchTarget` and `DeltaSink` traits, plus timers around
//! the setup calls. Spans stay in memory until the pass ends.

use std::cell::RefCell;
use std::io::{BufRead, Read, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

use tfx_core::FleetStats;
use tfx_graph::UpdateOp;
use tfx_query::{MatchRecord, Positiveness};
use tfx_stream::{
    BatchTarget, DeltaRef, DeltaSink, RunSummary, SourceError, StreamEvent, StreamSource,
    StreamStats,
};

use crate::host::process_cpu_time;
use crate::pipeline::Target;

/// What a span measured. The names follow the modules they wrap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SetupGraphParse,
    SetupQueryParse,
    SetupRegister,
    SetupInitial,
    /// `StreamDriver::run`.
    DriverRun,
    /// `FileSource::next_event`.
    Source,
    /// `BatchTarget::apply_batch`.
    Target,
    /// One insert op inside `apply_batch`.
    EngineInsert,
    /// One delete op inside `apply_batch`.
    EngineDelete,
    /// One vertex op inside `apply_batch`.
    EngineVertex,
    /// `JsonlSink::on_delta`.
    SinkDelta,
    /// `JsonlSink::on_ops` / `on_batch` / `on_summary`.
    SinkBatch,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::SetupGraphParse => "setup.graph_parse",
            Kind::SetupQueryParse => "setup.query_parse",
            Kind::SetupRegister => "setup.register",
            Kind::SetupInitial => "setup.initial",
            Kind::DriverRun => "stream.driver.run",
            Kind::Source => "stream.source.next_event",
            Kind::Target => "core.target.apply_batch",
            Kind::EngineInsert => "core.engine.insert",
            Kind::EngineDelete => "core.engine.delete",
            Kind::EngineVertex => "core.engine.vertex",
            Kind::SinkDelta => "stream.sink.on_delta",
            Kind::SinkBatch => "stream.sink.on_batch",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            stack: Vec::new(),
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, kind: Kind) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.ns(Instant::now());
        self.spans.push(Span { kind, start, end: start, parent });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Records an already-timed top-level span.
    pub fn record(&mut self, kind: Kind, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { kind, start, end, parent: NO_PARENT });
    }

    /// Writes every span, one `name start_ns end_ns parent` line each.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(w, "{} {} {} {parent}", s.kind.name(), s.start, s.end)?;
        }
        Ok(())
    }

    /// Self time of the spans of `kind`: their total duration minus that
    /// of their direct children.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        let mut total: u64 = 0;
        let mut child: u64 = 0;
        for s in &self.spans {
            if s.kind == kind {
                total += s.dur();
            }
            if s.parent != NO_PARENT && self.spans[s.parent as usize].kind == kind {
                child += s.dur();
            }
        }
        total.saturating_sub(child)
    }

    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.spans.iter().filter(|s| s.kind == kind).map(Span::dur).sum()
    }

    pub fn durations_ms(&self, kind: Kind) -> Vec<f64> {
        self.spans.iter().filter(|s| s.kind == kind).map(|s| s.dur() as f64 / 1e6).collect()
    }
}

/// A reader over the in-memory stream text that counts consumed bytes.
pub struct CountingReader<'a> {
    inner: &'a [u8],
    pub consumed: Rc<RefCell<u64>>,
}

impl<'a> CountingReader<'a> {
    pub fn new(inner: &'a [u8]) -> Self {
        CountingReader { inner, consumed: Rc::new(RefCell::new(0)) }
    }
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        *self.consumed.borrow_mut() += n as u64;
        Ok(n)
    }
}

impl BufRead for CountingReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(self.inner)
    }

    fn consume(&mut self, amt: usize) {
        *self.consumed.borrow_mut() += amt as u64;
        self.inner.consume(amt);
    }
}

pub struct TracedSource<S> {
    pub inner: S,
    tr: Shared,
    pub events: u64,
}

impl<S> TracedSource<S> {
    pub fn new(inner: S, tr: Shared) -> Self {
        TracedSource { inner, tr, events: 0 }
    }
}

impl<S: StreamSource> StreamSource for TracedSource<S> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        let id = self.tr.borrow_mut().enter(Kind::Source);
        let ev = self.inner.next_event();
        self.tr.borrow_mut().exit(id);
        if matches!(ev, Ok(Some(_))) {
            self.events += 1;
        }
        ev
    }
}

/// Wraps the target. Ops are applied one at a time so each gets its own
/// span: through `TurboFlux::apply_op` (what `apply_batch` does for a
/// standalone engine) or as one-op `Fleet::apply_batch` calls (the fleet
/// has no per-op entry point; deltas are the same for any batching).
pub struct TracedTarget<'a> {
    target: &'a mut Target,
    tr: Shared,
    pub cpu: Duration,
    pub ops: u64,
    pub useful_ops: u64,
    pub dcg_max: (u64, u64),
}

impl<'a> TracedTarget<'a> {
    pub fn new(target: &'a mut Target, tr: Shared) -> Self {
        TracedTarget { target, tr, cpu: Duration::ZERO, ops: 0, useful_ops: 0, dcg_max: (0, 0) }
    }
}

impl BatchTarget for TracedTarget<'_> {
    fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        let id = self.tr.borrow_mut().enter(Kind::Target);
        let cpu0 = process_cpu_time();
        for (i, op) in ops.iter().enumerate() {
            let kind = match op {
                UpdateOp::InsertEdge { .. } => Kind::EngineInsert,
                UpdateOp::DeleteEdge { .. } => Kind::EngineDelete,
                UpdateOp::AddVertex { .. } => Kind::EngineVertex,
            };
            let oid = self.tr.borrow_mut().enter(kind);
            let mut useful = false;
            match &mut *self.target {
                Target::Single(e) => e.apply_op(op, &mut |p, r| {
                    useful = true;
                    sink(0, i, p, r);
                }),
                Target::Fleet(f) => f.apply_batch(std::slice::from_ref(op), &mut |d| {
                    useful = true;
                    sink(d.engine, i, d.positiveness, d.record);
                }),
            }
            self.tr.borrow_mut().exit(oid);
            self.useful_ops += u64::from(useful);
        }
        self.cpu += process_cpu_time().saturating_sub(cpu0);
        self.tr.borrow_mut().exit(id);
        self.ops += ops.len() as u64;
        let (edges, bytes) = self.target.dcg_totals();
        self.dcg_max = (self.dcg_max.0.max(edges), self.dcg_max.1.max(bytes));
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        self.target.fleet_stats()
    }
}

pub struct TracedSink<K> {
    pub inner: K,
    tr: Shared,
    pub pos: u64,
    pub neg: u64,
}

impl<K> TracedSink<K> {
    pub fn new(inner: K, tr: Shared) -> Self {
        TracedSink { inner, tr, pos: 0, neg: 0 }
    }
}

impl<K: DeltaSink> DeltaSink for TracedSink<K> {
    fn on_ops(&mut self, batch: usize, ops: &[UpdateOp]) {
        let id = self.tr.borrow_mut().enter(Kind::SinkBatch);
        self.inner.on_ops(batch, ops);
        self.tr.borrow_mut().exit(id);
    }

    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        let id = self.tr.borrow_mut().enter(Kind::SinkDelta);
        self.inner.on_delta(d);
        self.tr.borrow_mut().exit(id);
        match d.positiveness {
            Positiveness::Positive => self.pos += 1,
            Positiveness::Negative => self.neg += 1,
        }
    }

    fn on_batch(&mut self, stats: &StreamStats) {
        let id = self.tr.borrow_mut().enter(Kind::SinkBatch);
        self.inner.on_batch(stats);
        self.tr.borrow_mut().exit(id);
    }

    fn on_summary(&mut self, summary: &RunSummary) {
        let id = self.tr.borrow_mut().enter(Kind::SinkBatch);
        self.inner.on_summary(summary);
        self.tr.borrow_mut().exit(id);
    }
}
