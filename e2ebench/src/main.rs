//! End-to-end streaming benchmark for the TurboFlux reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload netflow_window --seed 2018 --seconds 10 --trace 0
//! ```
//!
//! One process per run. The workload is generated from the seed in a child
//! process (so its memory stays out of `peak_rss_mb`) and handed over as
//! text. The run then makes an untimed oracle pass, one open-loop pass,
//! closed-loop passes until `--seconds` have passed, and with `--trace 1`
//! one traced pass. The last line of stdout is the JSON result; the lines
//! before it, each starting with `#`, are for people.
//!
//! See `e2ebench/README.md` for the workloads and the metrics.

mod host;
mod pipeline;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tfx_graph::LabelInterner;
use tfx_query::parser;

use crate::pipeline::{OpenLoop, Pass, TracedPass};
use crate::trace::Kind;
use crate::workload::{Generated, NonVacuity, Workload};

const USAGE: &str =
    "usage: tfx-e2ebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
     workloads: netflow_window, lsbench_fleet, netflow_cyclic\n\
     defaults: --seed 2018 --seconds 25 --trace 0";

/// Passes of each loop kind a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} needs an integer"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2018),
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--generate") {
        return generate_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("error: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let gen = match generate_in_child(&args.workload, args.seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: generating the workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if gen.queries.is_empty() {
        eprintln!("error: the query filter kept no query for seed {}", args.seed);
        return ExitCode::FAILURE;
    }
    let wl = Workload::new(spec, gen);
    match run(&wl, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child-process mode: writes the encoded workload to stdout.
fn generate_main(argv: &[String]) -> ExitCode {
    let (Some(name), Some(Ok(seed))) = (argv.first(), argv.get(1).map(|s| s.parse::<u64>())) else {
        eprintln!("error: --generate <workload> <seed>");
        return ExitCode::from(2);
    };
    let Some(gen) = workload::generate(name, seed) else {
        eprintln!("error: unknown workload `{name}`");
        return ExitCode::from(2);
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match gen.encode(&mut out).and_then(|()| std::io::Write::flush(&mut out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing the workload: {e}");
            ExitCode::FAILURE
        }
    }
}

fn generate_in_child(name: &str, seed: u64) -> Result<Generated, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--generate", name, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("generator exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Generated::decode(&text).ok_or_else(|| "malformed generator output".to_owned())
}

/// The middle value, or the mean of the two middle values; 0 when empty.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn run(wl: &Workload, args: &Args) -> Result<(), String> {
    let fleet_threads = (wl.queries.len() > 1).then_some(pipeline::FLEET_THREADS);
    println!("# host {}", host::facts(fleet_threads));
    println!(
        "# workload {} seed={} events={} ops={} queries={} window={:?} semantics={:?}",
        wl.name,
        args.seed,
        wl.events,
        wl.ops.len(),
        wl.queries.len(),
        wl.window,
        wl.semantics
    );

    for (i, (q, r)) in wl.queries.iter().zip(&wl.reference).enumerate() {
        let deltas: u64 = r.iter().map(|e| u64::from(e.1 + e.2)).sum();
        let edges = q.lines().filter(|l| l.starts_with('e')).count();
        println!(
            "# query {i}: {edges} edges, {} initial matches, {deltas} deltas, text hash {:016x}",
            wl.reference_initial[i],
            pipeline::fnv(q.as_bytes())
        );
    }

    // Untimed: the oracle pass also warms the allocator up.
    let oracle = pipeline::oracle(wl);
    let expected = (oracle.pass.out.digest, oracle.pass.out.delta_lines);
    let check = non_vacuity(wl, &oracle.pass);
    if oracle.pass.summary.events != wl.events {
        return finish(wl, args, &oracle, check, false, None);
    }

    // Closed- and open-loop passes alternate, so slow spells of the host
    // fall on both kinds alike.
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let err = |e: tfx_stream::SourceError| format!("the source rejected the stream: {e}");
    let traced = if args.trace { Some(pipeline::traced(wl).map_err(err)?) } else { None };
    let (mut closed, mut open): (Vec<Pass>, Vec<OpenLoop>) = (Vec::new(), Vec::new());
    while closed.len() < MIN_PASSES || open.len() < MIN_PASSES || started.elapsed() < budget {
        closed.push(pipeline::closed(wl).map_err(err)?);
        open.push(pipeline::open(wl).map_err(err)?);
    }
    let rss = host::peak_rss_mb();
    let samples: usize = open.iter().map(|o| o.samples).sum();
    println!(
        "# open loop: {} passes at {} events/s; batches close after {} events or {} ops (span {:.3} ms); {} latency samples, {} per pass",
        open.len(),
        wl.rate,
        wl.batch_ticks,
        pipeline::BATCH_OPS,
        open[0].span_ms,
        samples,
        open[0].samples,
    );

    let mut passes: Vec<&Pass> = closed.iter().chain(open.iter().map(|o| &o.pass)).collect();
    passes.extend(traced.as_ref().map(|t| &t.pass));
    let digests_agree = passes.iter().all(|p| (p.out.digest, p.out.delta_lines) == expected);
    println!(
        "# digest {:016x} over {} delta lines; {} passes {}",
        expected.0,
        expected.1,
        passes.len() + 1,
        if digests_agree { "agree" } else { "DISAGREE" }
    );
    let measured = Measured { open, closed, traced, rss };
    finish(wl, args, &oracle, check, digests_agree, Some(measured))
}

struct Measured {
    open: Vec<OpenLoop>,
    closed: Vec<Pass>,
    traced: Option<TracedPass>,
    rss: f64,
}

/// Checks that the workload still exercises what it exists for.
fn non_vacuity(wl: &Workload, pass: &Pass) -> Result<String, String> {
    let s = &pass.summary;
    let f = pass.fleet.unwrap_or_default();
    match wl.check {
        NonVacuity::ExpiryUnderCap(cap) => {
            let per_event = ratio((s.positive + s.negative) as f64, s.events as f64);
            let msg = format!(
                "expiry_deletes={} deltas_per_event={per_event:.3} (cap {cap})",
                s.expiry_deletes
            );
            if s.expiry_deletes > 0 && per_event <= cap {
                Ok(msg)
            } else {
                Err(msg)
            }
        }
        NonVacuity::SharingAndSkips => {
            let msg =
                format!("subtrees_shared={} ops_skipped={}", f.subtrees_shared, f.ops_skipped);
            if f.subtrees_shared >= 1 && f.ops_skipped > 0 {
                Ok(msg)
            } else {
                Err(msg)
            }
        }
        NonVacuity::CyclicUnshared => {
            let mut interner = LabelInterner::new();
            let cyclic = wl
                .queries
                .iter()
                .filter_map(|t| parser::parse_query(t, &mut interner).ok())
                .filter(|q| q.edge_count() >= q.vertex_count())
                .count();
            let msg = format!(
                "queries_with_non_tree_edge={cyclic}/{} subtrees_shared={}",
                wl.queries.len(),
                f.subtrees_shared
            );
            if cyclic == wl.queries.len() && f.subtrees_shared == 0 {
                Ok(msg)
            } else {
                Err(msg)
            }
        }
    }
}

fn finish(
    wl: &Workload,
    args: &Args,
    oracle: &pipeline::Oracle,
    check: Result<String, String>,
    digests_agree: bool,
    measured: Option<Measured>,
) -> Result<(), String> {
    match &check {
        Ok(m) => println!("# non-vacuity ok: {m}"),
        Err(m) => println!("# non-vacuity FAILED: {m}"),
    }
    let attempted = wl.events.max(1) as u64;
    let failed = oracle.failed_events;
    println!(
        "# oracle vs Graphflow: {failed} of {attempted} events failed (failed_share {}); {} initial-count mismatches",
        ratio(failed as f64, attempted as f64),
        oracle.initial_mismatches
    );
    let correct = failed == 0
        && oracle.initial_mismatches == 0
        && check.is_ok()
        && digests_agree
        && measured.is_some();

    let mut m = Metrics(Vec::new());
    if let Some(ms) = &measured {
        if args.trace {
            per_layer(wl, ms, oracle, &mut m)?;
        } else {
            end_to_end(ms, oracle, &mut m);
        }
    }
    for (name, value, unit) in &m.0 {
        println!("# {name} = {value} {unit}");
    }
    let body: Vec<String> = m
        .0
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

/// Every untraced setup of the run (the oracle's included).
fn setup_samples<'a>(ms: &'a Measured, oracle: &'a pipeline::Oracle) -> Vec<&'a pipeline::Setup> {
    let open = ms.open.iter().map(|o| &o.pass.setup);
    ms.closed.iter().map(|p| &p.setup).chain(open).chain([&oracle.pass.setup]).collect()
}

/// One value per open-loop pass.
fn per_pass(ms: &Measured, f: impl Fn(&OpenLoop) -> f64) -> Vec<f64> {
    ms.open.iter().map(f).collect()
}

fn closed_eps(ms: &Measured) -> Vec<f64> {
    ms.closed.iter().map(Pass::events_per_s).collect()
}

/// Throughput and latency are medians over passes: the host's speed drifts
/// by ±15% from one pass to the next, and only many passes average that
/// out. Every pass's value is printed.
fn end_to_end(ms: &Measured, oracle: &pipeline::Oracle, m: &mut Metrics) {
    let eps = closed_eps(ms);
    let p50 = per_pass(ms, |o| o.latency_p50_ms);
    let p90 = per_pass(ms, |o| o.latency_p90_ms);
    let p99 = per_pass(ms, |o| o.latency_p99_ms);
    println!("# closed loop: {} passes, events_per_s {eps:.0?}", eps.len());
    println!("# open loop: latency p50 {p50:.3?} ms, p90 {p90:.3?} ms, p99 {p99:.3?} ms");
    let setups: Vec<f64> =
        setup_samples(ms, oracle).iter().map(|s| s.total().as_secs_f64()).collect();
    m.add("events_per_s", median(&eps), "1/s");
    m.add("delta_latency_p50_ms", median(&p50), "ms");
    m.add("delta_latency_p90_ms", median(&p90), "ms");
    m.add("setup_s", median(&setups), "s");
    m.add("peak_rss_mb", ms.rss, "MB");
}

fn per_layer(
    wl: &Workload,
    ms: &Measured,
    oracle: &pipeline::Oracle,
    m: &mut Metrics,
) -> Result<(), String> {
    let tp = ms.traced.as_ref().expect("traced runs make a traced pass");
    let tr = tp.tracer.borrow();
    let s = &tp.pass.summary;

    // Spans go next to the executable, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(format!("e2ebench-{}.spans", wl.name));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tr.write_to(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", tr.spans.len(), path.display());

    let target_ns = tr.total_ns(Kind::Target);
    let sink_delta_ns = tr.total_ns(Kind::SinkDelta);
    m.add("source.busy_s", secs(tr.total_ns(Kind::Source)), "s");
    m.add("source.events", tp.source_events as f64, "count");
    m.add("source.bytes", tp.source_bytes as f64, "bytes");
    m.add("window.self_s", secs(tr.self_ns(Kind::DriverRun)), "s");
    m.add("window.ops_out", s.ops as f64, "count");
    m.add("window.expiry_deletes", s.expiry_deletes as f64, "count");
    let batch_ms = tr.durations_ms(Kind::Target);
    m.add("target.busy_s", secs(target_ns), "s");
    m.add("target.self_s", secs(target_ns.saturating_sub(sink_delta_ns)), "s");
    m.add("target.batch_p50_ms", percentile(&batch_ms, 50.0), "ms");
    m.add("target.batch_p99_ms", percentile(&batch_ms, 99.0), "ms");
    m.add("target.cpu_per_wall", ratio(tp.target_cpu.as_secs_f64(), secs(target_ns)), "ratio");
    m.add("target.useful_op_ratio", ratio(tp.useful_ops as f64, tp.ops as f64), "ratio");
    m.add("engine.insert_busy_s", secs(tr.self_ns(Kind::EngineInsert)), "s");
    m.add("engine.delete_busy_s", secs(tr.self_ns(Kind::EngineDelete)), "s");

    let f = tp.pass.fleet.unwrap_or_default();
    m.add("fleet.ops_routed", f.ops_routed as f64, "count");
    m.add("fleet.ops_skipped", f.ops_skipped as f64, "count");
    m.add(
        "fleet.route_ratio",
        ratio(f.ops_routed as f64, (f.ops_routed + f.ops_skipped) as f64),
        "ratio",
    );
    m.add("fleet.shared_hits", f.shared_hits as f64, "count");
    m.add("fleet.shared_misses", f.shared_misses as f64, "count");
    m.add("fleet.subtrees_shared", f.subtrees_shared as f64, "count");
    m.add("fleet.subtree_hits", f.subtree_hits as f64, "count");
    m.add("fleet.suffix_evals", f.suffix_evals as f64, "count");

    m.add("dcg.stored_edges", tp.pass.dcg.0 as f64, "count");
    m.add("dcg.resident_bytes", tp.pass.dcg.1 as f64, "bytes");
    m.add("dcg.stored_edges_max", tp.dcg_max.0 as f64, "count");
    m.add("dcg.resident_bytes_max", tp.dcg_max.1 as f64, "bytes");

    m.add("sink.busy_s", secs(sink_delta_ns + tr.total_ns(Kind::SinkBatch)), "s");
    m.add("sink.deltas_pos", tp.sink_pos as f64, "count");
    m.add("sink.deltas_neg", tp.sink_neg as f64, "count");
    m.add("sink.bytes", tp.pass.out.bytes as f64, "bytes");

    // Setup phases: medians over the untraced setups, like setup_s.
    let setups = setup_samples(ms, oracle);
    let phase =
        |i: usize| median(&setups.iter().map(|s| s.phase(i).as_secs_f64()).collect::<Vec<_>>());
    m.add("setup.graph_parse_s", phase(0), "s");
    m.add("setup.query_parse_s", phase(1), "s");
    m.add("setup.register_s", phase(2), "s");
    m.add("setup.initial_s", phase(3), "s");
    m.add("setup.initial_matches", tp.pass.setup.initial.iter().sum::<u64>() as f64, "count");

    m.add("loadgen.latency_p99_ms", median(&per_pass(ms, |o| o.latency_p99_ms)), "ms");
    m.add("loadgen.late_p99_ms", median(&per_pass(ms, |o| o.late_p99_ms)), "ms");
    let backlog = ms.open.iter().map(|o| o.backlog_max).max().unwrap_or(0);
    m.add("loadgen.backlog_max", backlog as f64, "count");
    let samples: usize = ms.open.iter().map(|o| o.samples).sum();
    m.add("loadgen.samples", samples as f64, "count");

    let untraced = median(&closed_eps(ms));
    m.add("trace.overhead_share", 1.0 - ratio(tp.pass.events_per_s(), untraced), "ratio");
    let wall = tp.wall.as_secs_f64();
    let accounted = secs(
        [Kind::SetupGraphParse, Kind::SetupQueryParse, Kind::SetupRegister, Kind::SetupInitial]
            .into_iter()
            .map(|k| tr.total_ns(k))
            .sum::<u64>()
            + tr.total_ns(Kind::DriverRun),
    );
    m.add("trace.wall_s", wall, "s");
    m.add("trace.unaccounted_share", ratio(wall - accounted, wall), "ratio");
    Ok(())
}
