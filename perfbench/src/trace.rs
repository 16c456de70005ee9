//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each crate.
//!
//! A traced run first drives the workload over the wire once (one set-up,
//! the same seeded traffic) to collect the server's reactor statistics and
//! end-to-end stream times, then replays the workload's inputs in-process
//! through the crates' public functions.  Spans (name, start, end, parent)
//! cover both passes, stay in memory and are written to a JSON-lines file
//! at exit.
//! A span's name is `<crate>.<call>`; self time per crate is a span's
//! duration minus what its children cover, so the crates' self times add
//! up to the root span, the traced end-to-end time.

use crate::harness::*;
use crate::report::Report;
use crate::workloads::{self, RunSpec, WireLog, FACT};
use hydra_core::session::Hydra;
use hydra_datagen::exec::{ExecMode, QueryEngine};
use hydra_datagen::generator::DynamicGenerator;
use hydra_datagen::sink::TupleSink;
use hydra_pgwire::PgRowSink;
use hydra_query::parser::parse_aggregate_query_for_schema;
use hydra_service::protocol::{
    decode_frame, encode_frame, FrameDecoded, QueryRequest, Request, Response,
};
use hydra_service::registry::{SolvedState, SummaryRegistry, WalOp, WalRecord};
use hydra_service::FrameSink;
use hydra_summary::exec::SummaryExecutor;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers self time is reported for: the crates the benchmark calls,
/// the server seen over loopback, and the benchmark's own code.
const LAYERS: [&str; 11] = [
    "hydra-core",
    "hydra-partition",
    "hydra-lp",
    "hydra-summary",
    "hydra-datagen",
    "hydra-service",
    "hydra-pgwire",
    "hydra-query",
    "hydra-wal",
    "hydra-serve",
    "perfbench",
];

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The process's tracer; `None` (the default) makes [`span`] a plain call.
static TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

fn tracer() -> std::sync::MutexGuard<'static, Option<Tracer>> {
    TRACER.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_tracing() {
    *tracer() = Some(Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn stop_tracing() -> Vec<Span> {
    tracer().take().map(|t| t.spans).unwrap_or_default()
}

/// An open span; it ends when dropped.
pub struct SpanGuard(Option<usize>);

/// Opens a span named `name` (inert when not tracing).  Spans are recorded
/// from the benchmark's main thread only.
pub fn enter(name: &str) -> SpanGuard {
    let mut guard = tracer();
    let Some(t) = guard.as_mut() else {
        return SpanGuard(None);
    };
    let id = t.spans.len();
    let now = t.origin.elapsed();
    t.spans.push(Span {
        id,
        parent: t.open.last().copied(),
        name: name.to_string(),
        start: now,
        end: now,
    });
    t.open.push(id);
    SpanGuard(Some(id))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        if let Some(t) = tracer().as_mut() {
            t.spans[id].end = t.origin.elapsed();
            t.open.retain(|&open| open != id);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = enter(name);
    f()
}

/// Records child spans of the innermost open span from durations a layer
/// reported itself (the build report's partition / solve / align split),
/// laid end to end from the parent's start.
pub fn report_children(parts: &[(&str, Duration)]) {
    let mut guard = tracer();
    let Some(t) = guard.as_mut() else { return };
    let Some(&parent) = t.open.last() else { return };
    let mut at = t.spans[parent].start;
    for (name, duration) in parts {
        let id = t.spans.len();
        t.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            start: at,
            end: at + *duration,
        });
        at += *duration;
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end.saturating_sub(s.start);
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s
            .end
            .saturating_sub(s.start)
            .saturating_sub(child_time[s.id]);
        *out.entry(layer_of(&s.name).to_string()).or_insert(0.0) += own.as_secs_f64();
    }
    out
}

fn write_spans(spans: &[Span], path: &std::path::Path) -> BenchResult<()> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start.as_micros(),
            s.end.as_micros()
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err("trace dir"))?;
    }
    std::fs::write(path, out).map_err(err("write spans"))
}

// ---------------------------------------------------------------------------
// The in-process replay
// ---------------------------------------------------------------------------

/// Discards bytes, counting them.
struct NullWriter(u64);

impl Write for NullWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Generation alone: `stream_range` + `next_block` into a sink that reads
/// every block's template values and pk range.  The generator hands out
/// blocks (a template row plus a pk range), so this costs per block; the
/// per-row bytes exist only once an encoder writes them.
fn generate_touching(generator: &DynamicGenerator, rows: u64) -> BenchResult<(u64, u64)> {
    let mut stream = generator
        .stream_range(FACT, 0..rows)
        .map_err(err("stream_range"))?;
    let (mut count, mut touch) = (0u64, 0u64);
    while let Some(block) = stream.next_block(u64::MAX) {
        count += block.len();
        for value in block.template().iter() {
            touch = touch.wrapping_add(format!("{value:?}").len() as u64);
        }
        touch ^= block.pk_range().end;
    }
    Ok((count, touch))
}

fn frame_encode(generator: &DynamicGenerator, rows: u64, batch: u64) -> BenchResult<u64> {
    let table = generator.schema.table(FACT).ok_or("no fact table")?.clone();
    let mut out = NullWriter(0);
    let mut sink = FrameSink::new(&mut out, batch, (0, rows));
    sink.begin(&table, rows);
    let mut stream = generator
        .stream_range(FACT, 0..rows)
        .map_err(err("stream_range"))?;
    while let Some(block) = stream.next_block(u64::MAX) {
        sink.write_block(&block);
    }
    sink.finish();
    if let Some(e) = sink.into_error() {
        return Err(format!("FrameSink: {e}"));
    }
    Ok(out.0)
}

fn pg_encode(generator: &DynamicGenerator, rows: u64) -> BenchResult<u64> {
    let table = generator.schema.table(FACT).ok_or("no fact table")?.clone();
    let mut out = NullWriter(0);
    let mut sink = PgRowSink::new(&mut out, 1024);
    sink.begin(&table, rows);
    let mut stream = generator
        .stream_range(FACT, 0..rows)
        .map_err(err("stream_range"))?;
    while let Some(block) = stream.next_block(u64::MAX) {
        sink.write_block(&block);
    }
    sink.finish();
    Ok(sink.data_bytes)
}

/// Sums of what one replay pass measured, keyed by metric name.
type Tally = BTreeMap<&'static str, f64>;

fn add(tally: &mut Tally, key: &'static str, value: f64) {
    *tally.entry(key).or_insert(0.0) += value;
}

fn timed<T>(tally: &mut Tally, key: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = span(name, f);
    add(tally, key, started.elapsed().as_secs_f64());
    out
}

/// Tracing's share of the traced time: the spans recorded times the
/// measured cost of recording one, over the root spans' duration.  A
/// traced-minus-untraced difference of whole passes would sit far below
/// the run-to-run noise of a shared machine (it read -10 % to -8 %, below
/// zero), so the cost is measured where it is paid.
fn overhead_pct(spans: &[Span]) -> f64 {
    const PROBES: u32 = 20_000;
    start_tracing();
    let started = Instant::now();
    for _ in 0..PROBES {
        span("trace.probe", || std::hint::black_box(()));
    }
    let per_span = started.elapsed().as_secs_f64() / f64::from(PROBES);
    stop_tracing();
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum();
    spans.len() as f64 * per_span / roots * 100.0
}

/// Replays the workload's inputs through the crates' public functions.
fn replay(log: &WireLog, session: &Hydra, dir: &std::path::Path) -> BenchResult<Tally> {
    let mut t = Tally::new();
    let state = &log.state;
    let generator = state.regeneration.generator();

    // Streams: generation alone, then each encoder over the whole fact table.
    let stream_rows = generator
        .summary
        .relation(FACT)
        .ok_or("no fact summary")?
        .total_rows;
    for &batch in &log.frame_batches {
        let (rows, touched) = timed(&mut t, "gen_s", "hydra-datagen.generate", || {
            generate_touching(&generator, stream_rows)
        })?;
        std::hint::black_box(touched);
        add(&mut t, "gen_rows", rows as f64);
        let bytes = timed(&mut t, "frame_sink_s", "hydra-service.frame_sink", || {
            frame_encode(&generator, stream_rows, batch)
        })?;
        add(&mut t, "frame_bytes", bytes as f64);
        add(&mut t, "frame_rows", stream_rows as f64);
    }
    for _ in 0..log.pg_scans {
        let bytes = timed(&mut t, "pg_sink_s", "hydra-pgwire.pg_row_sink", || {
            pg_encode(&generator, stream_rows)
        })?;
        add(&mut t, "pg_bytes", bytes as f64);
        add(&mut t, "pg_rows", stream_rows as f64);
    }

    // Direct queries: parse, then summary-direct execution.
    let schema = &state.regeneration.schema;
    let executor = SummaryExecutor::new(schema, &state.regeneration.summary);
    for sql in &log.direct_sql {
        let query = timed(&mut t, "parse_s", "hydra-query.parse", || {
            parse_aggregate_query_for_schema("replay", sql, schema)
        })
        .map_err(err("parse"))?;
        let answer = timed(&mut t, "exec_s", "hydra-summary.direct_exec", || {
            executor.execute(&query)
        })
        .map_err(err("direct exec"))?;
        add(&mut t, "queries", 1.0);
        add(&mut t, "fact_blocks", answer.fact_blocks as f64);
    }

    // Out-of-class queries: the tuple scan.
    let engine = QueryEngine::new(&generator);
    for sql in &log.scan_sql {
        let answer = timed(&mut t, "scan_s", "hydra-datagen.scan", || {
            engine.query_mode(sql, ExecMode::ScanOnly)
        })
        .map_err(err("scan"))?;
        add(&mut t, "scan_rows", answer.scanned_tuples as f64);
    }

    // Request JSON: the Query, Answer and Publish frames, both ways.
    timed(
        &mut t,
        "json_s",
        "hydra-service.request_json",
        || -> BenchResult<()> {
            let sql = log.direct_sql.first().cloned().unwrap_or_default();
            let answer = log.answer.clone();
            let messages = [
                encode_frame(&Request::Query(QueryRequest::new("replay", sql))),
                encode_frame(&Response::QueryResult(answer)),
                encode_frame(&Request::Publish {
                    name: "replay".to_string(),
                    package: state.package.clone(),
                }),
            ];
            for frame in messages {
                let frame = frame.map_err(err("encode_frame"))?;
                let FrameDecoded::Complete { payload, .. } =
                    decode_frame(&frame).map_err(err("decode_frame"))?
                else {
                    return Err("incomplete frame".into());
                };
                let text = String::from_utf8(payload).map_err(err("utf8"))?;
                if text.starts_with("{\"QueryResult\"") {
                    serde_json::from_str::<Response>(&text).map_err(err("decode"))?;
                } else {
                    serde_json::from_str::<Request>(&text).map_err(err("decode"))?;
                }
            }
            Ok(())
        },
    )?;

    // Publish path: an in-memory registry publish (a full solve), then the
    // WAL record of the solved state, its replay and a stateful restore.
    let registry = SummaryRegistry::in_memory(session.clone());
    timed(
        &mut t,
        "registry_s",
        "hydra-service.registry_publish_inmem",
        || registry.publish("replay", state.package.clone()),
    )
    .map_err(err("in-memory publish"))?;
    let record = WalRecord {
        name: "replay".to_string(),
        version: 1,
        op: WalOp::Publish,
        solved: SolvedState {
            package: state.package.clone(),
            report: state.regeneration.build_report.clone(),
            baseline: state.baseline().clone(),
        },
    };
    let json = timed(&mut t, "wal_encode_s", "hydra-wal.encode", || {
        serde_json::to_string(&record)
    })
    .map_err(err("encode record"))?;
    add(&mut t, "record_bytes", json.len() as f64);
    std::fs::create_dir_all(dir).map_err(err("replay dir"))?;
    let wal_path = dir.join("wal.log");
    std::fs::remove_file(&wal_path).ok();
    let syncs_before = hydra_wal::sync_counts();
    timed(
        &mut t,
        "wal_append_s",
        "hydra-wal.append_fsync",
        || -> std::io::Result<()> {
            let mut wal = hydra_wal::Wal::open(&wal_path)?;
            wal.append(json.as_bytes())?;
            Ok(())
        },
    )
    .map_err(err("wal append"))?;
    let syncs_after = hydra_wal::sync_counts();
    add(
        &mut t,
        "fsyncs",
        ((syncs_after.0 + syncs_after.1) - (syncs_before.0 + syncs_before.1)) as f64,
    );
    let replayed = timed(&mut t, "wal_replay_s", "hydra-wal.replay", || {
        hydra_wal::replay(&wal_path)
    })
    .map_err(err("wal replay"))?;
    let payload = replayed
        .records
        .first()
        .ok_or("WAL replay returned no record")?;
    let decoded = timed(&mut t, "wal_decode_s", "hydra-wal.decode", || {
        serde_json::from_str::<WalRecord>(std::str::from_utf8(payload).unwrap_or_default())
    })
    .map_err(err("decode record"))?;
    let snapshot = dir.join("snapshot");
    hydra_wal::write_snapshot(&snapshot, json.as_bytes()).map_err(err("snapshot"))?;
    add(
        &mut t,
        "snapshot_bytes",
        std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0) as f64,
    );
    let solved = decoded.solved;
    timed(&mut t, "restore_s", "hydra-core.restore_stateful", || {
        session.restore_stateful(&solved.package, solved.report, solved.baseline)
    })
    .map_err(err("restore"))?;

    // Deltas: incremental re-profiling of the churned name.
    let mut prev = state.clone();
    for delta in &log.deltas {
        let outcome = timed(&mut t, "delta_s", "hydra-core.profile_delta", || {
            session.profile_delta(&prev, delta)
        })
        .map_err(err("profile_delta"))?;
        add(&mut t, "deltas", 1.0);
        add(&mut t, "reused", outcome.report.reused() as f64);
        add(
            &mut t,
            "delta_relations",
            outcome.report.relations.len() as f64,
        );
        prev = outcome.state;
    }
    Ok(t)
}

/// The traced run of `workload`: the wire pass, then the in-process replay.
pub fn run(workload: &str, spec: &RunSpec, report: &mut Report) -> BenchResult<()> {
    let wire_spec = RunSpec {
        setups: 1,
        trace: true,
        ..spec.clone()
    };
    // The wire pass's own end-to-end metrics belong to untraced runs; keep
    // only its request and oracle accounting.
    let mut wire_report = Report::new();
    start_tracing();
    let log = span("perfbench.wire_pass", || {
        workloads::run(workload, &wire_spec, &mut wire_report)
    });
    let wire_spans = stop_tracing();
    let log = log?;
    wire_report.metrics.clear();
    report.merge(wire_report);
    let session = workloads::oracle_session();
    let replay_dir = spec.dir.join("replay");

    start_tracing();
    let tally = span("perfbench.replay", || replay(&log, &session, &replay_dir));
    let mut spans = stop_tracing();
    let tally = tally?;
    std::fs::remove_dir_all(&spec.dir).ok();

    // Spans of both passes go to one file; the wire pass's come first.
    let offset = wire_spans.len();
    for s in &mut spans {
        s.id += offset;
        s.parent = s.parent.map(|p| p + offset);
    }
    let mut all = wire_spans;
    all.extend(spans);
    let path = crate::out_dir().join(format!("trace-{workload}-{}.jsonl", spec.seed));
    write_spans(&all, &path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        all.len(),
        path.display()
    );

    let get = |k: &str| tally.get(k).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let build = &log.state.regeneration.build_report;
    let partition: Duration = build.relations.iter().map(|r| r.lp.partition_time).sum();
    let solve = build.total_solve_time();
    let gen_s = get("gen_s");
    let frame_encode_s = get("frame_sink_s") - gen_s;
    let pg_encode_s =
        get("pg_sink_s") - per(gen_s, log.frame_batches.len() as f64) * log.pg_scans as f64;
    let streams = log.frame_batches.len() as f64;
    let scans = log.pg_scans as f64;

    let m = |report: &mut Report, name: &str, value: f64, unit: &'static str| {
        report.metric(name, value, unit)
    };
    m(
        report,
        "hydra-datagen.block_rows_per_s",
        per(get("gen_rows"), gen_s),
        "1/s",
    );
    m(
        report,
        "hydra-datagen.scan_rows_per_s",
        per(get("scan_rows"), get("scan_s")),
        "1/s",
    );
    m(
        report,
        "hydra-service.frame_encode_bytes_per_s",
        per(get("frame_bytes"), frame_encode_s),
        "B/s",
    );
    m(
        report,
        "hydra-service.frame_bytes_per_row",
        per(get("frame_bytes"), get("frame_rows")),
        "B",
    );
    m(
        report,
        "hydra-service.stream_residual_s",
        median(&log.frame_stream_s) - per(get("frame_sink_s"), streams),
        "s",
    );
    m(report, "hydra-service.request_json_s", get("json_s"), "s");
    m(
        report,
        "hydra-service.registry_publish_inmem_s",
        get("registry_s"),
        "s",
    );
    m(
        report,
        "hydra-pgwire.datarow_encode_bytes_per_s",
        per(get("pg_bytes"), pg_encode_s),
        "B/s",
    );
    m(
        report,
        "hydra-pgwire.bytes_per_row",
        per(get("pg_bytes"), get("pg_rows")),
        "B",
    );
    m(
        report,
        "hydra-pgwire.scan_residual_s",
        median(&log.pg_scan_s) - per(get("pg_sink_s"), scans),
        "s",
    );
    m(
        report,
        "hydra-query.parse_us",
        per(get("parse_s"), get("queries")) * 1e6,
        "us",
    );
    m(
        report,
        "hydra-summary.direct_exec_us",
        per(get("exec_s"), get("queries")) * 1e6,
        "us",
    );
    m(
        report,
        "hydra-summary.fact_blocks_per_query",
        per(get("fact_blocks"), get("queries")),
        "count",
    );
    m(
        report,
        "hydra-summary.align_verify_s",
        build
            .total_time
            .saturating_sub(partition + solve)
            .as_secs_f64(),
        "s",
    );
    m(
        report,
        "hydra-summary.summary_rows",
        build.relations.iter().map(|r| r.summary_rows as f64).sum(),
        "count",
    );
    m(
        report,
        "hydra-summary.summary_bytes",
        build.summary_bytes as f64,
        "B",
    );
    m(
        report,
        "hydra-partition.partition_s",
        partition.as_secs_f64(),
        "s",
    );
    m(
        report,
        "hydra-partition.regions",
        build.total_lp_variables() as f64,
        "count",
    );
    m(report, "hydra-lp.solve_s", solve.as_secs_f64(), "s");
    m(
        report,
        "hydra-lp.variables",
        build.total_lp_variables() as f64,
        "count",
    );
    m(
        report,
        "hydra-lp.constraints",
        build.total_lp_constraints() as f64,
        "count",
    );
    m(
        report,
        "hydra-lp.total_violation",
        build.relations.iter().map(|r| r.lp.total_violation).sum(),
        "count",
    );
    m(
        report,
        "hydra-lp.relations_reused_per_delta",
        per(get("reused"), get("delta_relations")),
        "ratio",
    );
    m(report, "hydra-core.regenerate_stateful_s", log.solve_s, "s");
    m(
        report,
        "hydra-core.profile_delta_s",
        per(get("delta_s"), get("deltas")),
        "s",
    );
    m(
        report,
        "hydra-core.restore_stateful_s",
        get("restore_s"),
        "s",
    );
    m(report, "hydra-wal.record_bytes", get("record_bytes"), "B");
    m(report, "hydra-wal.encode_s", get("wal_encode_s"), "s");
    m(report, "hydra-wal.append_fsync_s", get("wal_append_s"), "s");
    m(
        report,
        "hydra-wal.fsyncs_per_publish",
        get("fsyncs"),
        "count",
    );
    m(report, "hydra-wal.replay_s", get("wal_replay_s"), "s");
    m(report, "hydra-wal.decode_s", get("wal_decode_s"), "s");
    m(
        report,
        "hydra-wal.snapshot_bytes",
        get("snapshot_bytes"),
        "B",
    );
    let reactor = |name: &str| stat(&log.stats_after, name) - stat(&log.stats_before, name);
    // Request time per operation over the server's whole life (set-up and
    // window), so the set-up publish counts on every workload.
    let request = |op: &str| stat_labeled(&log.stats_after, "hydra_request_seconds_sum", op);
    m(
        report,
        "hydra-reactor.dispatch_s",
        reactor("hydra_reactor_dispatch_seconds_sum"),
        "s",
    );
    m(
        report,
        "hydra-reactor.poll_wait_s",
        reactor("hydra_reactor_poll_wait_seconds_sum"),
        "s",
    );
    m(
        report,
        "hydra-reactor.write_queue_peak_bytes",
        stat(&log.stats_after, "hydra_reactor_write_queue_peak_bytes"),
        "B",
    );
    m(
        report,
        "hydra-reactor.bytes_out",
        reactor("hydra_reactor_bytes_out_total"),
        "B",
    );
    m(
        report,
        "hydra-reactor.request_s.publish",
        request("frame.publish"),
        "s",
    );
    m(
        report,
        "hydra-reactor.request_s.query",
        request("frame.query"),
        "s",
    );
    m(
        report,
        "hydra-reactor.request_s.stream",
        request("frame.stream"),
        "s",
    );
    m(report, "trace.overhead_pct", overhead_pct(&all), "%");

    // Self time per layer over both traced passes; they sum to the root
    // spans' durations by construction, which the smoke test re-checks.
    let mut selfs = self_times(&all);
    let roots: f64 = all
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum();
    let accounted: f64 = selfs.values().sum();
    report.check(
        (accounted - roots).abs() <= 1e-6 * roots.max(1.0) + 1e-6,
        || format!("layer self times {accounted:.6} s do not add up to the traced {roots:.6} s"),
    );
    for layer in LAYERS {
        let value = selfs.remove(layer).unwrap_or(0.0);
        m(report, &format!("trace.self_s.{layer}"), value, "s");
    }
    Ok(())
}
