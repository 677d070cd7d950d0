//! The measured path: text → `FileSource` → `SlidingWindow`/`StreamDriver`
//! → `BatchTarget` → `JsonlSink`, built the way `tfx stream` builds it when
//! no runtime flag is given.

use std::io::Write;
use std::time::{Duration, Instant};

use tfx_core::{Fleet, FleetStats, TurboFlux, TurboFluxConfig};
use tfx_graph::{LabelInterner, UpdateOp};
use tfx_query::{parser, ContinuousMatcher};
use tfx_stream::{
    BatchPolicy, BatchTarget, DeltaRef, DeltaSink, ErrorMode, FileSource, JsonlSink, RunSummary,
    SlidingWindow, SourceError, StreamDriver, StreamEvent, StreamSource, StreamStats,
};

use crate::trace::{CountingReader, Kind, Shared, TracedSink, TracedSource, TracedTarget};
use crate::workload::{DeltaAcc, Workload};

/// `tfx stream`'s default batch bound (`--batch-ops 256`).
pub const BATCH_OPS: usize = 256;
/// `tfx stream`'s default fleet thread count when `--fleet` is not given.
pub const FLEET_THREADS: usize = 1;

/// The evaluation target `tfx stream` picks: a standalone engine for one
/// query, a fleet for several.
pub enum Target {
    Single(Box<TurboFlux>),
    Fleet(Box<Fleet>),
}

impl Target {
    fn as_batch_target(&mut self) -> &mut dyn BatchTarget {
        match self {
            Target::Single(e) => &mut **e,
            Target::Fleet(f) => &mut **f,
        }
    }

    pub fn fleet_stats(&self) -> Option<FleetStats> {
        match self {
            Target::Single(_) => None,
            Target::Fleet(f) => Some(f.stats()),
        }
    }

    /// `(stored DCG edges, DCG resident bytes)`, summed over engines.
    pub fn dcg_totals(&self) -> (u64, u64) {
        match self {
            Target::Single(e) => (e.dcg().stored_edge_count(), e.dcg().resident_bytes() as u64),
            Target::Fleet(f) => f.engine_ids().iter().fold((0, 0), |(n, b), &id| {
                let dcg = f.engine(id).dcg();
                (n + dcg.stored_edge_count(), b + dcg.resident_bytes() as u64)
            }),
        }
    }
}

/// Setup phase boundaries and the initial match counts.
pub struct Setup {
    /// Start, after graph parse, after query parse, after register, after
    /// initial matches.
    pub marks: [Instant; 5],
    pub initial: Vec<u64>,
}

impl Setup {
    pub fn total(&self) -> Duration {
        self.marks[4] - self.marks[0]
    }

    pub fn phase(&self, i: usize) -> Duration {
        self.marks[i + 1] - self.marks[i]
    }

    pub fn trace_into(&self, tr: &Shared) {
        let kinds =
            [Kind::SetupGraphParse, Kind::SetupQueryParse, Kind::SetupRegister, Kind::SetupInitial];
        let mut t = tr.borrow_mut();
        for (i, k) in kinds.into_iter().enumerate() {
            t.record(k, self.marks[i], self.marks[i + 1]);
        }
    }
}

/// Parses g0 and the queries, registers them (BuildDCG) and reports the
/// initial matches: the `setup_s` interval.
pub fn setup(wl: &Workload) -> (Target, LabelInterner, Setup) {
    let t0 = Instant::now();
    let mut interner = LabelInterner::new();
    let g0 = parser::parse_data_graph(&wl.graph, &mut interner).expect("generated graph parses");
    let t1 = Instant::now();
    let queries: Vec<_> = wl
        .queries
        .iter()
        .map(|q| parser::parse_query(q, &mut interner).expect("generated query parses"))
        .collect();
    let t2 = Instant::now();
    let cfg = TurboFluxConfig::with_semantics(wl.semantics);
    let mut target = if queries.len() > 1 {
        let mut fleet = Fleet::with_threads(g0, FLEET_THREADS);
        for q in queries {
            fleet.register(q, cfg);
        }
        Target::Fleet(Box::new(fleet))
    } else {
        let q = queries.into_iter().next().expect("a workload has a query");
        Target::Single(Box::new(TurboFlux::new(q, g0, cfg)))
    };
    let t3 = Instant::now();
    let initial = match &mut target {
        Target::Single(e) => {
            let mut n = 0u64;
            e.initial_matches(&mut |_| n += 1);
            vec![n]
        }
        Target::Fleet(f) => f
            .engine_ids()
            .to_vec()
            .into_iter()
            .map(|id| {
                let mut n = 0u64;
                f.report_initial(id, &mut |_| n += 1);
                n
            })
            .collect(),
    };
    let t4 = Instant::now();
    (target, interner, Setup { marks: [t0, t1, t2, t3, t4], initial })
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// The sink's destination: counts bytes and digests delta lines.
///
/// The digest is a wrapping sum of per-line hashes over the part of each
/// delta line after its batch number, so it depends neither on emission
/// order nor on batch boundaries: every pass of one seed must agree.
/// `batch` and `summary` lines carry wall-clock times and are left out.
#[derive(Default)]
pub struct DigestWriter {
    pub bytes: u64,
    pub delta_lines: u64,
    pub digest: u64,
    line: Vec<u8>,
}

impl DigestWriter {
    fn finish_line(&mut self) {
        const DELTA: &[u8] = b"{\"type\":\"delta\",";
        const OP: &[u8] = b",\"op\":";
        if self.line.starts_with(DELTA) {
            if let Some(at) = self.line.windows(OP.len()).position(|w| w == OP) {
                let h = fnv(&self.line[at..]);
                self.digest = self.digest.wrapping_add(h ^ (h >> 29));
                self.delta_lines += 1;
            }
        }
        self.line.clear();
    }
}

impl Write for DigestWriter {
    fn write(&mut self, mut buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len();
        self.bytes += n as u64;
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&buf[..nl]);
            self.finish_line();
            buf = &buf[nl + 1..];
        }
        self.line.extend_from_slice(buf);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What every pass reports.
pub struct Pass {
    pub setup: Setup,
    pub summary: RunSummary,
    /// Wall time of `StreamDriver::run`.
    pub run: Duration,
    pub out: DigestWriter,
    pub fleet: Option<FleetStats>,
    pub dcg: (u64, u64),
}

impl Pass {
    pub fn events_per_s(&self) -> f64 {
        self.summary.events as f64 / self.run.as_secs_f64().max(1e-9)
    }
}

fn driver(wl: &Workload, policy: BatchPolicy) -> StreamDriver {
    StreamDriver::new(SlidingWindow::new(wl.window), policy)
}

fn file_source<'i, R: std::io::BufRead>(r: R, it: &'i mut LabelInterner) -> FileSource<'i, R> {
    FileSource::new(r, it, ErrorMode::Strict)
}

/// Closed loop: the next event is read as soon as the driver asks for it.
pub fn closed(wl: &Workload) -> Result<Pass, SourceError> {
    let (mut target, mut interner, setup) = setup(wl);
    let mut source = file_source(wl.stream.as_bytes(), &mut interner);
    let mut sink = JsonlSink::new(DigestWriter::default());
    let t = Instant::now();
    let summary = driver(wl, BatchPolicy::by_ops(BATCH_OPS)).run(
        &mut source,
        target.as_batch_target(),
        &mut sink,
    )?;
    let run = t.elapsed();
    Ok(Pass {
        setup,
        summary,
        run,
        out: sink.into_inner(),
        fleet: target.fleet_stats(),
        dcg: target.dcg_totals(),
    })
}

/// The open-loop send schedule: event `k` is due at `t0 + k / rate`.
#[derive(Clone, Copy)]
struct Schedule {
    t0: Instant,
    period_ns: f64,
}

impl Schedule {
    fn due(&self, k: u64) -> Instant {
        self.t0 + Duration::from_nanos((k as f64 * self.period_ns) as u64)
    }

    /// Number of events due at or before `now`.
    fn due_by(&self, now: Instant) -> u64 {
        (now.saturating_duration_since(self.t0).as_nanos() as f64 / self.period_ns) as u64 + 1
    }
}

/// Hands out each event no earlier than its scheduled send time.
struct Paced<S> {
    inner: S,
    sched: Schedule,
    next: u64,
    late_ms: Vec<f64>,
    backlog_max: u64,
}

impl<S: StreamSource> StreamSource for Paced<S> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        let due = self.sched.due(self.next);
        let mut now = Instant::now();
        // Sleep, never spin: a spinning core looks busy to the host, and on
        // a shared host that slowed the closed-loop passes that followed.
        while now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        let ev = self.inner.next_event()?;
        if ev.is_some() {
            self.late_ms.push((now - due).as_secs_f64() * 1e3);
            self.backlog_max = self.backlog_max.max(self.sched.due_by(now) - self.next);
            self.next += 1;
        }
        Ok(ev)
    }
}

/// Records each event's latency, from its send time until its batch's
/// deltas have reached the sink.
struct LatencySink<K> {
    inner: K,
    sched: Schedule,
    done: u64,
    latency_ms: Vec<f64>,
}

impl<K: DeltaSink> DeltaSink for LatencySink<K> {
    fn on_ops(&mut self, batch: usize, ops: &[UpdateOp]) {
        self.inner.on_ops(batch, ops);
    }

    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        self.inner.on_delta(d);
    }

    fn on_batch(&mut self, stats: &StreamStats) {
        let now = Instant::now();
        for k in self.done..self.done + stats.events_in as u64 {
            self.latency_ms
                .push((now.saturating_duration_since(self.sched.due(k))).as_secs_f64() * 1e3);
        }
        self.done += stats.events_in as u64;
        self.inner.on_batch(stats);
    }

    fn on_summary(&mut self, summary: &RunSummary) {
        self.inner.on_summary(summary);
    }
}

/// An open-loop pass, its per-event samples reduced to percentiles so that
/// memory does not grow with the number of passes.
pub struct OpenLoop {
    pub pass: Pass,
    pub samples: usize,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub late_p99_ms: f64,
    pub backlog_max: u64,
    /// Longest time an event can wait in an open batch.
    pub span_ms: f64,
}

/// Open loop at the workload's fixed rate. Batches close at the CLI's op
/// bound or `batch_ticks` of stream time (one tick per event), whichever
/// comes first.
pub fn open(wl: &Workload) -> Result<OpenLoop, SourceError> {
    let (mut target, mut interner, setup) = setup(wl);
    let sched =
        Schedule { t0: Instant::now() + Duration::from_millis(1), period_ns: 1e9 / wl.rate };
    let mut source = Paced {
        inner: file_source(wl.stream.as_bytes(), &mut interner),
        sched,
        next: 0,
        late_ms: Vec::with_capacity(wl.events),
        backlog_max: 0,
    };
    let mut sink = LatencySink {
        inner: JsonlSink::new(DigestWriter::default()),
        sched,
        done: 0,
        latency_ms: Vec::with_capacity(wl.events),
    };
    let policy =
        BatchPolicy { max_ops: BATCH_OPS, max_ticks: Some(wl.batch_ticks), drain_at_end: false };
    let t = Instant::now();
    let summary = driver(wl, policy).run(&mut source, target.as_batch_target(), &mut sink)?;
    let run = t.elapsed();
    Ok(OpenLoop {
        pass: Pass {
            setup,
            summary,
            run,
            out: sink.inner.into_inner(),
            fleet: target.fleet_stats(),
            dcg: target.dcg_totals(),
        },
        samples: sink.latency_ms.len(),
        latency_p50_ms: crate::percentile(&sink.latency_ms, 50.0),
        latency_p90_ms: crate::percentile(&sink.latency_ms, 90.0),
        latency_p99_ms: crate::percentile(&sink.latency_ms, 99.0),
        late_p99_ms: crate::percentile(&source.late_ms, 99.0),
        backlog_max: source.backlog_max,
        span_ms: wl.batch_ticks as f64 * sched.period_ns / 1e6,
    })
}

pub struct TracedPass {
    pub pass: Pass,
    /// Wall time of setup plus run.
    pub wall: Duration,
    pub tracer: Shared,
    pub source_events: u64,
    pub source_bytes: u64,
    pub target_cpu: Duration,
    pub ops: u64,
    pub useful_ops: u64,
    pub dcg_max: (u64, u64),
    pub sink_pos: u64,
    pub sink_neg: u64,
}

/// A closed-loop pass with spans at every layer boundary.
pub fn traced(wl: &Workload) -> Result<TracedPass, SourceError> {
    let tr = crate::trace::Tracer::shared();
    let w0 = Instant::now();
    let (mut target, mut interner, setup) = setup(wl);
    setup.trace_into(&tr);
    let reader = CountingReader::new(wl.stream.as_bytes());
    let consumed = reader.consumed.clone();
    let mut source = TracedSource::new(file_source(reader, &mut interner), tr.clone());
    let mut sink = TracedSink::new(JsonlSink::new(DigestWriter::default()), tr.clone());
    let mut drv = driver(wl, BatchPolicy::by_ops(BATCH_OPS));
    let mut tt = TracedTarget::new(&mut target, tr.clone());
    let id = tr.borrow_mut().enter(Kind::DriverRun);
    let t = Instant::now();
    let summary = drv.run(&mut source, &mut tt, &mut sink);
    let run = t.elapsed();
    tr.borrow_mut().exit(id);
    let wall = w0.elapsed();
    let summary = summary?;
    let (target_cpu, ops, useful_ops, dcg_max) = (tt.cpu, tt.ops, tt.useful_ops, tt.dcg_max);
    let source_bytes = *consumed.borrow();
    Ok(TracedPass {
        pass: Pass {
            setup,
            summary,
            run,
            out: sink.inner.into_inner(),
            fleet: target.fleet_stats(),
            dcg: target.dcg_totals(),
        },
        wall,
        tracer: tr,
        source_events: source.events,
        source_bytes,
        target_cpu,
        ops,
        useful_ops,
        dcg_max,
        sink_pos: sink.pos,
        sink_neg: sink.neg,
    })
}

/// Records per-engine deltas and the op sequence for the oracle.
struct Recording<'w, K> {
    inner: K,
    expected_ops: &'w [UpdateOp],
    ops_seen: usize,
    bad_ops: Vec<usize>,
    accs: Vec<DeltaAcc>,
}

impl<K: DeltaSink> DeltaSink for Recording<'_, K> {
    fn on_ops(&mut self, batch: usize, ops: &[UpdateOp]) {
        for (j, op) in ops.iter().enumerate() {
            if self.expected_ops.get(self.ops_seen + j) != Some(op) {
                self.bad_ops.push(self.ops_seen + j);
            }
        }
        self.ops_seen += ops.len();
        self.inner.on_ops(batch, ops);
    }

    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        match self.accs.get_mut(d.engine) {
            Some(acc) => acc.add(d.global_op as u32, d.positiveness, d.record),
            None => self.bad_ops.push(d.global_op),
        }
        self.inner.on_delta(d);
    }

    fn on_batch(&mut self, stats: &StreamStats) {
        self.inner.on_batch(stats);
    }

    fn on_summary(&mut self, summary: &RunSummary) {
        self.inner.on_summary(summary);
    }
}

pub struct Oracle {
    pub pass: Pass,
    /// Events whose line was rejected or whose ops disagreed with Graphflow.
    pub failed_events: u64,
    /// Engines whose initial match count disagreed with Graphflow.
    pub initial_mismatches: usize,
}

/// An untimed closed-loop pass checked op by op against Graphflow's
/// deltas. A rejected line fails every event from there on.
pub fn oracle(wl: &Workload) -> Oracle {
    let (mut target, mut interner, setup) = setup(wl);
    let mut source = file_source(wl.stream.as_bytes(), &mut interner);
    let mut sink = Recording {
        inner: JsonlSink::new(DigestWriter::default()),
        expected_ops: &wl.ops,
        ops_seen: 0,
        bad_ops: Vec::new(),
        accs: wl.queries.iter().map(|_| DeltaAcc::default()).collect(),
    };
    let t = Instant::now();
    let result = driver(wl, BatchPolicy::by_ops(BATCH_OPS)).run(
        &mut source,
        target.as_batch_target(),
        &mut sink,
    );
    let run = t.elapsed();
    let mut failed = vec![false; wl.events];
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: the source rejected the stream: {e}");
            failed.fill(true);
            RunSummary::default()
        }
    };
    if sink.ops_seen != wl.ops.len() {
        sink.bad_ops.push(sink.ops_seen.min(wl.ops.len().saturating_sub(1)));
    }
    for (acc, reference) in sink.accs.iter().zip(&wl.reference) {
        let (mut a, mut b) = (acc.out.iter().peekable(), reference.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(x), Some(y)) if x == y => {
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) => {
                    let op = x.0.min(y.0);
                    sink.bad_ops.push(op as usize);
                    if x.0 == op {
                        a.next();
                    }
                    if y.0 == op {
                        b.next();
                    }
                }
                (Some(x), None) => {
                    sink.bad_ops.push(x.0 as usize);
                    a.next();
                }
                (None, Some(y)) => {
                    sink.bad_ops.push(y.0 as usize);
                    b.next();
                }
            }
        }
    }
    for op in &sink.bad_ops {
        if let Some(&ev) = wl.event_of_op.get(*op) {
            failed[ev as usize] = true;
        }
    }
    let initial_mismatches =
        setup.initial.iter().zip(&wl.reference_initial).filter(|(a, b)| a != b).count()
            + setup.initial.len().abs_diff(wl.reference_initial.len());
    Oracle {
        failed_events: failed.iter().filter(|&&f| f).count() as u64,
        initial_mismatches,
        pass: Pass {
            setup,
            summary,
            run,
            out: sink.inner.into_inner(),
            fleet: target.fleet_stats(),
            dcg: target.dcg_totals(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_batch_numbers_order_and_stats_lines() {
        let mut a = DigestWriter::default();
        a.write_all(b"{\"type\":\"delta\",\"batch\":0,\"op\":3,\"engine\":0,\"sign\":\"+\",\"embedding\":[1,2]}\n")
            .unwrap();
        a.write_all(b"{\"type\":\"batch\",\"batch\":0,\"latency_us\":17}\n").unwrap();
        a.write_all(b"{\"type\":\"delta\",\"batch\":0,\"op\":4,\"engine\":1,\"sign\":\"-\",\"embedding\":[2,1]}\n")
            .unwrap();
        // The same deltas in other batches, the other way round, and written
        // in pieces.
        let mut b = DigestWriter::default();
        b.write_all(b"{\"type\":\"delta\",\"batch\":7,\"op\":4,\"engine\":1,").unwrap();
        b.write_all(b"\"sign\":\"-\",\"embedding\":[2,1]}\n{\"type\":\"delta\",\"batch\":9,")
            .unwrap();
        b.write_all(b"\"op\":3,\"engine\":0,\"sign\":\"+\",\"embedding\":[1,2]}\n").unwrap();
        b.write_all(b"{\"type\":\"batch\",\"batch\":9,\"latency_us\":99}\n").unwrap();
        assert_eq!((a.digest, a.delta_lines), (b.digest, b.delta_lines));
        assert_eq!(a.delta_lines, 2);

        let mut c = DigestWriter::default();
        c.write_all(b"{\"type\":\"delta\",\"batch\":0,\"op\":3,\"engine\":0,\"sign\":\"-\",\"embedding\":[1,2]}\n")
            .unwrap();
        c.write_all(b"{\"type\":\"delta\",\"batch\":0,\"op\":4,\"engine\":1,\"sign\":\"-\",\"embedding\":[2,1]}\n")
            .unwrap();
        assert_ne!(a.digest, c.digest, "a flipped sign changes the digest");
    }
}
