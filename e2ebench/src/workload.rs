//! The three workloads: generated with `tfx-datagen`, handed to the system
//! as text only.
//!
//! Everything here is a pure function of the workload name and the seed:
//! the dataset, the candidate queries, the query-set filter and the
//! oracle's reference deltas. Nothing in this module is timed.

use std::fmt::Write as _;

use tfx_baselines::Graphflow;
use tfx_datagen::{lsbench, netflow, queries, Dataset, LsBenchConfig, NetflowConfig, Pcg32};
use tfx_graph::{DynamicGraph, LabelId, LabelInterner, LabelSet, UpdateOp, UpdateStream, VertexId};
use tfx_query::{parser, ContinuousMatcher, MatchRecord, MatchSemantics, Positiveness, QueryGraph};
use tfx_stream::{ErrorMode, FileSource, SlidingWindow, StreamSource, WindowSpec};

/// Per-op delta summary: `(op index, positive, negative, record hash)`,
/// kept only for ops with at least one delta. The hash is a wrapping sum
/// of per-record hashes, so it does not depend on emission order.
pub type OpDeltas = Vec<(u32, u32, u32, u64)>;

/// What a workload must show so that it is not hollow.
#[derive(Clone, Copy, Debug)]
pub enum NonVacuity {
    /// Expiry deletes happen, and deltas per event stay under the cap.
    ExpiryUnderCap(f64),
    /// At least one shared subtree instance, and routing skips evaluations.
    SharingAndSkips,
    /// Every query has a non-tree edge, and no branch is shared.
    CyclicUnshared,
}

/// The fixed part of a workload: how the system is driven.
pub struct Spec {
    pub name: &'static str,
    pub window: WindowSpec,
    pub semantics: MatchSemantics,
    /// Open-loop send rate, events per second (a constant of the workload).
    pub rate: f64,
    /// Open-loop stream-time batch bound, in ticks (one tick per event).
    pub batch_ticks: u64,
    pub check: NonVacuity,
}

pub fn spec(name: &str) -> Option<Spec> {
    let (name, window, semantics, rate, batch_ticks, check) = match name {
        "netflow_window" => (
            "netflow_window",
            WindowSpec::Time { width: 40_000 },
            MatchSemantics::Homomorphism,
            40_000.0,
            128,
            NonVacuity::ExpiryUnderCap(2.0),
        ),
        "lsbench_fleet" => (
            "lsbench_fleet",
            WindowSpec::Unbounded,
            MatchSemantics::Homomorphism,
            2_000.0,
            32,
            NonVacuity::SharingAndSkips,
        ),
        "netflow_cyclic" => (
            "netflow_cyclic",
            WindowSpec::Count { capacity: 3_000 },
            MatchSemantics::Isomorphism,
            1_600.0,
            32,
            NonVacuity::CyclicUnshared,
        ),
        _ => return None,
    };
    Some(Spec { name, window, semantics, rate, batch_ticks, check })
}

/// The generated part: the texts the system receives, and Graphflow's
/// answers for the oracle.
#[derive(Default)]
pub struct Generated {
    /// Initial data graph, `tfx_query::parser` format.
    pub graph: String,
    /// One text per query, `tfx_query::parser` format.
    pub queries: Vec<String>,
    /// Update stream, `tfx_stream::FileSource` format.
    pub stream: String,
    /// Graphflow's deltas per query over the window's op stream.
    pub reference: Vec<OpDeltas>,
    /// Graphflow's initial match count per query.
    pub reference_initial: Vec<u64>,
}

/// A workload ready to run.
pub struct Workload {
    pub name: &'static str,
    pub graph: String,
    pub queries: Vec<String>,
    pub stream: String,
    pub window: WindowSpec,
    pub semantics: MatchSemantics,
    pub rate: f64,
    pub batch_ticks: u64,
    pub check: NonVacuity,
    /// Events in `stream`.
    pub events: usize,
    /// The ops the window emits for the stream, in order.
    pub ops: Vec<UpdateOp>,
    /// Source event that produced each op of `ops`.
    pub event_of_op: Vec<u32>,
    pub reference: Vec<OpDeltas>,
    pub reference_initial: Vec<u64>,
}

impl Workload {
    pub fn new(spec: Spec, gen: Generated) -> Workload {
        let (_, ops, event_of_op, events) = window_ops(&gen.graph, &gen.stream, spec.window);
        Workload {
            name: spec.name,
            graph: gen.graph,
            queries: gen.queries,
            stream: gen.stream,
            window: spec.window,
            semantics: spec.semantics,
            rate: spec.rate,
            batch_ticks: spec.batch_ticks,
            check: spec.check,
            events,
            ops,
            event_of_op,
            reference: gen.reference,
            reference_initial: gen.reference_initial,
        }
    }
}

/// Parses the texts the way the system will and replays the stream through
/// the window: `(interner, ops, source event of each op, events)`. The
/// generated stream has one event per line; a line the source rejects ends
/// the replay, and the oracle pass then fails every event.
fn window_ops(
    graph: &str,
    stream: &str,
    window: WindowSpec,
) -> (LabelInterner, Vec<UpdateOp>, Vec<u32>, usize) {
    let mut interner = LabelInterner::new();
    parser::parse_data_graph(graph, &mut interner).expect("generated graph parses");
    let mut source = FileSource::new(stream.as_bytes(), &mut interner, ErrorMode::Strict);
    let mut win = SlidingWindow::new(window);
    let (mut ops, mut event_of_op) = (Vec::new(), Vec::new());
    let mut parsed = 0u32;
    while let Ok(Some(ev)) = source.next_event() {
        win.push(&ev, &mut ops);
        event_of_op.resize(ops.len(), parsed);
        parsed += 1;
    }
    (interner, ops, event_of_op, stream.lines().count())
}

/// A candidate query is dropped when Graphflow, the independent baseline,
/// breaks any of these bounds over the calibration data. Counts and work
/// units only, never time, so the query set is a pure function of the
/// seeds.
struct Filter {
    max_initial: u64,
    deltas: (u64, u64),
    work_budget: u64,
    /// Label names of which a query must use exactly one edge (any query
    /// when `None`): keeps per-query cost alike.
    one_edge_from: Option<&'static [&'static str]>,
    /// Reject a query that shares a two-edge pattern with one already
    /// kept, so no execution-tree branch can be shared, whatever root the
    /// engine picks.
    pattern_disjoint: bool,
}

impl Filter {
    const NONE: Filter = Filter {
        max_initial: u64::MAX,
        deltas: (0, u64::MAX),
        work_budget: u64::MAX,
        one_edge_from: None,
        pattern_disjoint: false,
    };
}

/// The two-edge patterns of `q`: for every vertex, each pair of incident
/// edges as `(label, points away from the vertex)` pairs, sorted.
fn two_edge_patterns(q: &QueryGraph) -> Vec<[(Option<LabelId>, bool); 2]> {
    let mut out = Vec::new();
    for u in q.vertices() {
        let half: Vec<(Option<LabelId>, bool)> = q
            .out_adj(u)
            .iter()
            .map(|&(_, e)| (q.edge(e).label, true))
            .chain(q.in_adj(u).iter().map(|&(_, e)| (q.edge(e).label, false)))
            .collect();
        for i in 0..half.len() {
            for j in i + 1..half.len() {
                let mut p = [half[i], half[j]];
                p.sort();
                out.push(p);
            }
        }
    }
    out
}

/// True when the query's rarest edge kind in `g0` is at least 20% rarer
/// than the next kind. The start vertex comes from the edge with the
/// fewest matching data edges (§4.1); when two kinds are about as rare,
/// which one wins flips from seed to seed, and with it the DCG layout and
/// the cost. Edges of one kind (same label and endpoint labels) always tie
/// the same way.
fn decisive_root(q: &QueryGraph, g0: &DynamicGraph) -> bool {
    let mut counts: Vec<(usize, usize)> = q
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let n = g0
                .edges()
                .filter(|d| {
                    e.label.is_none_or(|l| l == d.label)
                        && q.labels(e.src).is_subset_of(g0.labels(d.src))
                        && q.labels(e.dst).is_subset_of(g0.labels(d.dst))
                })
                .count();
            (n, i)
        })
        .filter(|&(n, _)| n > 0)
        .collect();
    counts.sort_unstable();
    let kind = |i: usize| {
        let e = &q.edges()[i];
        (e.label, q.labels(e.src).clone(), q.labels(e.dst).clone())
    };
    let Some(&(rarest, first)) = counts.first() else {
        return true;
    };
    counts
        .iter()
        .find(|&&(_, i)| kind(i) != kind(first))
        .is_none_or(|&(next, _)| rarest * 5 <= next * 4)
}

/// Seed of the query generators and of the calibration data the query
/// filter runs on. Fixed, so that the spread between runs measures the
/// program and the host rather than the luck of the query draw; `--seed`
/// varies the data graph, the stream and the deletions.
const QUERY_SEED: u64 = 2018;

/// How one workload is generated.
struct Recipe {
    data: fn(u64) -> Dataset,
    candidates: fn(&Dataset) -> Vec<String>,
    want: usize,
    filter: Filter,
}

pub fn generate(name: &str, seed: u64) -> Option<Generated> {
    let spec = spec(name)?;
    let r = match name {
        "netflow_window" => Recipe {
            data: netflow_window_data,
            candidates: netflow_window_query,
            want: 1,
            filter: Filter::NONE,
        },
        "lsbench_fleet" => Recipe {
            data: lsbench_data,
            candidates: lsbench_queries,
            want: 24,
            filter: Filter {
                max_initial: 200_000,
                deltas: (200, 10_000),
                work_budget: 20_000_000,
                one_edge_from: None,
                pattern_disjoint: false,
            },
        },
        "netflow_cyclic" => Recipe {
            data: netflow_cyclic_data,
            candidates: cyclic_queries,
            want: 6,
            filter: Filter {
                max_initial: 200_000,
                deltas: (0, 2_000),
                work_budget: 40_000_000,
                one_edge_from: Some(&["tcp", "udp"]),
                pattern_disjoint: true,
            },
        },
        _ => return None,
    };
    let calibration = (r.data)(QUERY_SEED);
    let queries = select(&spec, &calibration, (r.candidates)(&calibration), r.want, &r.filter);
    let d = if seed == QUERY_SEED { calibration } else { (r.data)(seed) };
    Some(reference(&spec, &d, queries))
}

/// Merges independently generated parts into one dataset: vertex ids are
/// offset part by part, and the streams are interleaved round-robin, each
/// keeping its own order. The parts come from one generator, so they intern
/// the same label names in the same order.
///
/// One part's cost hangs on a few heavy hubs and is far from its mean; the
/// sum over independent parts varies much less from seed to seed.
fn merge(parts: Vec<Dataset>) -> Dataset {
    let mut g0 = DynamicGraph::new();
    let mut streams = Vec::new();
    let mut vertex_types = Vec::new();
    for d in &parts {
        let base = g0.vertex_count() as u32;
        let shift = |v: VertexId| VertexId(v.0 + base);
        for v in d.g0.vertices() {
            g0.add_vertex(d.g0.labels(v).clone());
        }
        for e in d.g0.edges() {
            g0.insert_edge(shift(e.src), e.label, shift(e.dst));
        }
        vertex_types.extend_from_slice(&d.vertex_types);
        let ops: Vec<UpdateOp> = d
            .stream
            .ops()
            .iter()
            .map(|op| match op {
                UpdateOp::InsertEdge { src, label, dst } => {
                    UpdateOp::InsertEdge { src: shift(*src), label: *label, dst: shift(*dst) }
                }
                UpdateOp::DeleteEdge { src, label, dst } => {
                    UpdateOp::DeleteEdge { src: shift(*src), label: *label, dst: shift(*dst) }
                }
                UpdateOp::AddVertex { id, labels } => {
                    UpdateOp::AddVertex { id: shift(*id), labels: labels.clone() }
                }
            })
            .collect();
        streams.push(ops.into_iter());
    }
    let mut ops = Vec::new();
    loop {
        let before = ops.len();
        ops.extend(streams.iter_mut().filter_map(Iterator::next));
        if ops.len() == before {
            break;
        }
    }
    let first = parts.into_iter().next().expect("at least one part");
    Dataset {
        g0,
        stream: UpdateStream::from_ops(ops),
        interner: first.interner,
        schema: first.schema,
        vertex_types,
    }
}

/// The seed of part `k` of a merged dataset.
fn part_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// `netflow_window`: the Netflow-like trace, most of it streamed.
fn netflow_window_data(seed: u64) -> Dataset {
    netflow::generate(&NetflowConfig { hosts: 4_000, flows: 260_000, seed, stream_frac: 0.8 })
}

/// A 3-hop path over rare protocols (5%, 4% and 4% of flows): about one
/// delta per event. The rarest label is one kind (`ospf`, twice), so the
/// start vertex does not flip between seeds the way an `ospf`/`other` tie
/// would.
/// (The 2-hop tcp→udp relay emits ~18 per event and measures the sink.)
fn netflow_window_query(d: &Dataset) -> Vec<String> {
    vec![query_text(&path_query(d, &["sctp", "ospf", "ospf"]), &d.interner)]
}

/// `lsbench_fleet`: eight LSBench-like social streams with 10% deletions.
fn lsbench_data(seed: u64) -> Dataset {
    let mut d = merge(
        (0..8)
            .map(|k| {
                let seed = part_seed(seed, k);
                lsbench::generate(&LsBenchConfig { users: 100, seed, stream_frac: 0.3 })
            })
            .collect(),
    );
    d.append_deletions(0.1, seed);
    d
}

/// Random tree queries, the paper's way: the paper derives smaller tree
/// queries by removing edges from larger ones, so each family of a size-6
/// query and its 5-, 4- and 3-edge shrinks shares structure, which is what
/// fleet sharing feeds on.
fn lsbench_queries(d: &Dataset) -> Vec<String> {
    let mut rng = Pcg32::with_stream(QUERY_SEED, 0x15F1EE7);
    let mut texts = Vec::new();
    for _ in 0..60 {
        let base = queries::random_tree_query(&d.schema, 6, &mut rng);
        for size in [5, 4, 3] {
            if let Some(q) = queries::shrink_query(&base, size, &mut rng) {
                texts.push(query_text(&q, &d.interner));
            }
        }
    }
    texts
}

/// `netflow_cyclic`: eight small Netflow-like traces side by side.
fn netflow_cyclic_data(seed: u64) -> Dataset {
    merge(
        (0..8)
            .map(|k| {
                let seed = part_seed(seed, k);
                netflow::generate(&NetflowConfig {
                    hosts: 400,
                    flows: 4_000,
                    seed,
                    stream_frac: 0.3,
                })
            })
            .collect(),
    )
}

/// Cyclic graph queries as in Fig. 14: a triangle or a square grown by one
/// edge.
fn cyclic_queries(d: &Dataset) -> Vec<String> {
    let mut rng = Pcg32::with_stream(QUERY_SEED, 0xC7C1E);
    (0..400)
        .filter_map(|i| {
            let cycle = 3 + i % 2;
            queries::random_cyclic_query(&d.schema, cycle, cycle + 1, &mut rng)
        })
        .map(|q| query_text(&q, &d.interner))
        .collect()
}

/// A dataset as the system will read it: the texts, the parsed initial
/// graph and the ops the window emits.
struct Parsed {
    graph: String,
    stream: String,
    interner: LabelInterner,
    g0: DynamicGraph,
    ops: Vec<UpdateOp>,
}

fn parse(spec: &Spec, d: &Dataset) -> Parsed {
    let graph = graph_text(&d.g0, &d.interner);
    let stream = stream_text(d.stream.ops(), &d.interner);
    let (mut interner, ops, _, _) = window_ops(&graph, &stream, spec.window);
    let g0 = parser::parse_data_graph(&graph, &mut interner).expect("generated graph parses");
    Parsed { graph, stream, interner, g0, ops }
}

/// The first `want` candidates the filter keeps on the calibration data.
fn select(
    spec: &Spec,
    calibration: &Dataset,
    candidates: Vec<String>,
    want: usize,
    filter: &Filter,
) -> Vec<String> {
    let mut p = parse(spec, calibration);
    let mut kept = Vec::new();
    let mut patterns = Vec::new();
    for text in candidates {
        if kept.len() == want {
            break;
        }
        let q = parser::parse_query(&text, &mut p.interner).expect("generated query parses");
        if let Some(names) = filter.one_edge_from {
            let class: Vec<_> = names.iter().filter_map(|n| p.interner.get(n)).collect();
            let hits = q.edges().iter().filter(|e| e.label.is_some_and(|l| class.contains(&l)));
            if hits.count() != 1 {
                continue;
            }
        }
        let own = two_edge_patterns(&q);
        if filter.pattern_disjoint && own.iter().any(|pat| patterns.contains(pat)) {
            continue;
        }
        if !decisive_root(&q, &p.g0) {
            continue;
        }
        if graphflow_replay(&q, &p.g0, &p.ops, spec.semantics, filter).is_some() {
            kept.push(text);
            patterns.extend(own);
        }
    }
    kept
}

/// The workload on the seed's data, with Graphflow's answers.
fn reference(spec: &Spec, d: &Dataset, queries: Vec<String>) -> Generated {
    let mut p = parse(spec, d);
    let mut gen = Generated::default();
    for text in queries {
        let q = parser::parse_query(&text, &mut p.interner).expect("generated query parses");
        let (initial, deltas) = graphflow_replay(&q, &p.g0, &p.ops, spec.semantics, &Filter::NONE)
            .expect("an unbounded replay always completes");
        gen.queries.push(text);
        gen.reference.push(deltas);
        gen.reference_initial.push(initial);
    }
    gen.graph = p.graph;
    gen.stream = p.stream;
    gen
}

/// Runs Graphflow over `ops`; `None` when the query breaks a filter bound.
fn graphflow_replay(
    q: &QueryGraph,
    g0: &DynamicGraph,
    ops: &[UpdateOp],
    semantics: MatchSemantics,
    f: &Filter,
) -> Option<(u64, OpDeltas)> {
    let mut initial = 0u64;
    tfx_match::enumerate_matches(g0, q, semantics, &mut |_| {
        initial += 1;
        initial <= f.max_initial
    });
    if initial > f.max_initial {
        return None;
    }
    let mut gf = Graphflow::new(q.clone(), g0.clone(), semantics).with_budget(f.work_budget);
    let mut acc = DeltaAcc::default();
    for (i, op) in ops.iter().enumerate() {
        gf.apply(op, &mut |p, m| acc.add(i as u32, p, m));
        if gf.timed_out() || acc.total > f.deltas.1 {
            return None;
        }
    }
    (acc.total >= f.deltas.0).then_some((initial, acc.out))
}

/// Accumulates [`OpDeltas`] from deltas arriving in op order.
#[derive(Default)]
pub struct DeltaAcc {
    pub out: OpDeltas,
    pub total: u64,
}

impl DeltaAcc {
    pub fn add(&mut self, op: u32, p: Positiveness, m: &MatchRecord) {
        self.total += 1;
        if self.out.last().is_none_or(|e| e.0 != op) {
            self.out.push((op, 0, 0, 0));
        }
        let e = self.out.last_mut().expect("pushed above");
        match p {
            Positiveness::Positive => e.1 += 1,
            Positiveness::Negative => e.2 += 1,
        }
        e.3 = e.3.wrapping_add(record_hash(m));
    }
}

fn record_hash(m: &MatchRecord) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for v in m.as_slice() {
        h = (h ^ u64::from(v.0)).wrapping_mul(0x0100_0000_01B3).rotate_left(29);
    }
    h ^ (h >> 31)
}

fn path_query(d: &Dataset, labels: &[&str]) -> QueryGraph {
    let mut q = QueryGraph::new();
    let mut prev = q.add_vertex(LabelSet::empty());
    for name in labels {
        let next = q.add_vertex(LabelSet::empty());
        q.add_edge(prev, next, Some(d.interner.get(name).expect("netflow protocol label")));
        prev = next;
    }
    q
}

fn label_name(interner: &LabelInterner, l: LabelId) -> &str {
    interner.name(l).expect("every generated label is interned")
}

fn labels_text(out: &mut String, interner: &LabelInterner, labels: &LabelSet) {
    for l in labels.iter() {
        out.push(' ');
        out.push_str(label_name(interner, l));
    }
}

fn graph_text(g: &DynamicGraph, interner: &LabelInterner) -> String {
    let mut out = String::new();
    for v in g.vertices() {
        let _ = write!(out, "v {}", v.0);
        labels_text(&mut out, interner, g.labels(v));
        out.push('\n');
    }
    for e in g.edges() {
        let _ = writeln!(out, "e {} {} {}", e.src.0, e.dst.0, label_name(interner, e.label));
    }
    out
}

fn query_text(q: &QueryGraph, interner: &LabelInterner) -> String {
    let mut out = String::new();
    for u in q.vertices() {
        let _ = write!(out, "v {}", u.0);
        labels_text(&mut out, interner, q.labels(u));
        out.push('\n');
    }
    for e in q.edges() {
        let _ = write!(out, "e {} {}", e.src.0, e.dst.0);
        if let Some(l) = e.label {
            let _ = write!(out, " {}", label_name(interner, l));
        }
        out.push('\n');
    }
    out
}

fn stream_text(ops: &[UpdateOp], interner: &LabelInterner) -> String {
    let mut out = String::new();
    for op in ops {
        let (sign, src, label, dst): (char, VertexId, LabelId, VertexId) = match op {
            UpdateOp::InsertEdge { src, label, dst } => ('+', *src, *label, *dst),
            UpdateOp::DeleteEdge { src, label, dst } => ('-', *src, *label, *dst),
            UpdateOp::AddVertex { id, labels } => {
                let _ = write!(out, "v {}", id.0);
                labels_text(&mut out, interner, labels);
                out.push('\n');
                continue;
            }
        };
        let _ = writeln!(out, "{sign} {} {} {}", src.0, dst.0, label_name(interner, label));
    }
    out
}

impl Generated {
    /// Serializes for the hand-over from the generator process: three kinds
    /// of length-prefixed text blobs, then the oracle's numbers as lines.
    pub fn encode(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut blob = |tag: &str, body: &str| -> std::io::Result<()> {
            writeln!(w, "{tag} {}", body.len())?;
            w.write_all(body.as_bytes())?;
            w.write_all(b"\n")
        };
        blob("graph", &self.graph)?;
        for q in &self.queries {
            blob("query", q)?;
        }
        blob("stream", &self.stream)?;
        write!(w, "initial")?;
        for n in &self.reference_initial {
            write!(w, " {n}")?;
        }
        writeln!(w)?;
        for r in &self.reference {
            writeln!(w, "ref {}", r.len())?;
            for (op, pos, neg, hash) in r {
                writeln!(w, "{op} {pos} {neg} {hash}")?;
            }
        }
        Ok(())
    }

    /// Inverse of [`Generated::encode`]; `None` on malformed input.
    pub fn decode(mut s: &str) -> Option<Generated> {
        fn num<T: std::str::FromStr>(t: Option<&str>) -> Option<T> {
            t?.parse().ok()
        }
        let mut gen = Generated::default();
        while !s.is_empty() {
            let (head, rest) = s.split_once('\n')?;
            let mut parts = head.split(' ');
            match parts.next()? {
                tag @ ("graph" | "query" | "stream") => {
                    let n: usize = num(parts.next())?;
                    let body = rest.get(..n)?.to_owned();
                    s = rest.get(n + 1..)?;
                    match tag {
                        "graph" => gen.graph = body,
                        "query" => gen.queries.push(body),
                        _ => gen.stream = body,
                    }
                }
                "initial" => {
                    gen.reference_initial = parts.map(|t| num(Some(t))).collect::<Option<_>>()?;
                    s = rest;
                }
                "ref" => {
                    let n: usize = num(parts.next())?;
                    let mut list = Vec::with_capacity(n);
                    s = rest;
                    for _ in 0..n {
                        let (line, rest) = s.split_once('\n')?;
                        let mut t = line.split(' ');
                        list.push((num(t.next())?, num(t.next())?, num(t.next())?, num(t.next())?));
                        s = rest;
                    }
                    gen.reference.push(list);
                }
                _ => return None,
            }
        }
        Some(gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let gen = Generated {
            graph: "v 0 A\nv 1 B\ne 0 1 r\n".to_owned(),
            queries: vec!["v 0\nv 1\ne 0 1 r\n".to_owned(), "v 0\n".to_owned()],
            stream: "+ 0 1 r\n- 0 1 r\n".to_owned(),
            reference: vec![vec![(0, 1, 0, 42), (1, 0, 1, u64::MAX)], vec![]],
            reference_initial: vec![0, 7],
        };
        let mut bytes = Vec::new();
        gen.encode(&mut bytes).unwrap();
        let back = Generated::decode(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(back.graph, gen.graph);
        assert_eq!(back.queries, gen.queries);
        assert_eq!(back.stream, gen.stream);
        assert_eq!(back.reference, gen.reference);
        assert_eq!(back.reference_initial, gen.reference_initial);
        assert!(Generated::decode("graph 99\nshort\n").is_none());
    }

    #[test]
    fn two_edge_patterns_see_shared_wedges_only() {
        let mut it = LabelInterner::new();
        let tri =
            parser::parse_query("v 0\nv 1\nv 2\ne 0 1 a\ne 1 2 b\ne 2 0 c\n", &mut it).unwrap();
        let wedge = parser::parse_query("v 0\nv 1\nv 2\ne 0 1 a\ne 1 2 b\n", &mut it).unwrap();
        let other = parser::parse_query("v 0\nv 1\nv 2\ne 0 1 a\ne 2 1 b\n", &mut it).unwrap();
        let t = two_edge_patterns(&tri);
        assert_eq!(t.len(), 3, "one pattern per vertex of a triangle");
        assert!(two_edge_patterns(&wedge).iter().all(|p| t.contains(p)));
        assert!(
            two_edge_patterns(&other).iter().all(|p| !t.contains(p)),
            "a reversed edge is another pattern"
        );
    }

    #[test]
    fn merged_parts_keep_ids_apart_and_streams_in_order() {
        let parts: Vec<Dataset> = (0..2)
            .map(|k| {
                netflow::generate(&NetflowConfig {
                    hosts: 20,
                    flows: 60,
                    seed: k,
                    stream_frac: 0.5,
                })
            })
            .collect();
        let (n0, s0) = (parts[0].g0.vertex_count(), parts[0].stream.ops().to_vec());
        let total_edges = parts[0].g0.edge_count() + parts[1].g0.edge_count();
        let merged = merge(parts);
        assert_eq!(merged.g0.vertex_count(), 40);
        assert_eq!(merged.g0.edge_count(), total_edges);
        // Each part's ops keep their order; part 1's ids are shifted past
        // part 0's.
        let low = |op: &UpdateOp| match op {
            UpdateOp::InsertEdge { src, dst, .. } => (src.0 as usize) < n0 && (dst.0 as usize) < n0,
            _ => false,
        };
        let part0: Vec<_> = merged.stream.ops().iter().filter(|op| low(op)).cloned().collect();
        assert_eq!(part0, s0);
        assert_eq!(merged.stream.ops()[0], s0[0]);
        assert!(
            matches!(merged.stream.ops()[1], UpdateOp::InsertEdge { src, .. } if src.0 as usize >= n0)
        );
    }
}
