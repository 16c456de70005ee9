//! The three closed-loop workloads, each driving a live `hydra-serve` and
//! checking every reply against an in-process oracle.
//!
//! Every workload has the same shape:
//!
//! 1. build its inputs from the seed and solve them in-process (the oracle);
//! 2. set up [`SETUPS`] times — spawn the server on a fresh WAL directory,
//!    publish, warm — keeping the last server (`setup_s` is the median);
//! 3. drive its traffic for the run's seconds;
//! 4. shut down, restart on the same WAL directory, time recovery and check
//!    every acknowledged version survived without a single LP solve.

use crate::harness::*;
use crate::report::Report;
use crate::trace::span;
use hydra_core::delta::RegenerationState;
use hydra_core::scenario::Scenario;
use hydra_core::session::Hydra;
use hydra_core::transfer::TransferPackage;
use hydra_core::vendor::RegenerationResult;
use hydra_query::delta::WorkloadDelta;
use hydra_query::exec::{ExecStrategy, QueryAnswer};
use hydra_service::protocol::{MetricSample, QueryRequest, StreamRequest, SummaryDetail};
use hydra_service::HydraClient;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server set-ups per untraced run; `setup_s` and the set-up publishes
/// report the median over them.
pub const SETUPS: usize = 3;
/// Restarts per run: until their recoveries add up to `RECOVERY_SECONDS`,
/// at most `MAX_RESTARTS`; `recovery_s` is the median.  A short recovery
/// gets more samples, a long one (many versions) already averages itself.
const MAX_RESTARTS: usize = 4;
const RECOVERY_SECONDS: f64 = 7.0;

/// The retail fact table every workload reads.
pub const FACT: &str = "store_sales";

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
    /// Server set-ups (the last one serves the traffic).
    pub setups: usize,
    /// A traced run's wire pass: also stream the fact table once where the
    /// workload does not, so every layer's end-to-end share is measured.
    pub trace: bool,
}

/// What a wire pass leaves for the traced replay: the oracle states and
/// the inputs the server received, plus end-to-end times and the server's
/// own statistics around the timed window.
pub struct WireLog {
    pub state: RegenerationState,
    pub solve_s: f64,
    pub frame_batches: Vec<u64>,
    pub frame_stream_s: Vec<f64>,
    pub pg_scans: usize,
    pub pg_scan_s: Vec<f64>,
    pub direct_sql: Vec<String>,
    pub answer: QueryAnswer,
    pub scan_sql: Vec<String>,
    pub deltas: Vec<WorkloadDelta>,
    pub stats_before: Vec<MetricSample>,
    pub stats_after: Vec<MetricSample>,
}

/// Streams replayed in-process at most, per encoder.
const REPLAY_STREAMS: usize = 2;

impl WireLog {
    fn new(state: RegenerationState, solve_s: f64, answer: QueryAnswer) -> WireLog {
        WireLog {
            state,
            solve_s,
            frame_batches: Vec::new(),
            frame_stream_s: Vec::new(),
            pg_scans: 0,
            pg_scan_s: Vec::new(),
            direct_sql: Vec::new(),
            answer,
            scan_sql: Vec::new(),
            deltas: Vec::new(),
            stats_before: Vec::new(),
            stats_after: Vec::new(),
        }
    }

    fn frame_stream(&mut self, batch: u64, elapsed: Duration) {
        if self.frame_batches.len() < REPLAY_STREAMS {
            self.frame_batches.push(batch);
        }
        self.frame_stream_s.push(elapsed.as_secs_f64());
    }

    fn pg_scan(&mut self, elapsed: Duration) {
        self.pg_scans = (self.pg_scans + 1).min(REPLAY_STREAMS);
        self.pg_scan_s.push(elapsed.as_secs_f64());
    }

    /// Layers the workload itself leaves idle get one small probe each in
    /// the replay: a scan query, and a delta retiring the last query.
    fn cover(&mut self, rng: &mut Rng) {
        if self.scan_sql.is_empty() {
            self.scan_sql.push(out_of_class_sql(rng));
        }
        if self.deltas.is_empty() {
            if let Some(last) = self.state.package.workload.entries.last() {
                self.deltas
                    .push(WorkloadDelta::new().retire(last.query.name.clone()));
            }
        }
    }
}

/// Solves `package` statefully for the oracle, under a traced span split
/// into the partition, LP and align/verify time the build reports.
pub fn oracle_solve(
    session: &Hydra,
    package: &TransferPackage,
) -> BenchResult<(RegenerationState, f64)> {
    let started = Instant::now();
    let state = crate::trace::span("hydra-core.regenerate_stateful", || {
        let state = session.regenerate_stateful(package);
        if let Ok(state) = &state {
            let build = &state.regeneration.build_report;
            let partition: Duration = build.relations.iter().map(|r| r.lp.partition_time).sum();
            let solve = build.total_solve_time();
            crate::trace::report_children(&[
                ("hydra-partition.partition", partition),
                ("hydra-lp.solve", solve),
                (
                    "hydra-summary.align_verify",
                    build.total_time.saturating_sub(partition + solve),
                ),
            ]);
        }
        state
    })
    .map_err(err("oracle solve"))?;
    Ok((state, started.elapsed().as_secs_f64()))
}

/// Streams the fact table of `name` once over each protocol (a traced
/// run's probe of the stream layers for workloads that do not stream).
fn probe_streams(server: &Server, name: &str, log: &mut WireLog, report: &mut Report) {
    let request = StreamRequest::full(name, FACT).batch_rows(BATCH_ROWS);
    if let Some(frame) = report.op(frame_stream_raw(&server.addr, request)) {
        log.frame_stream(BATCH_ROWS, frame.elapsed);
    }
    let sql = format!("SELECT * FROM {FACT}");
    if let Some(scan) = report.op(pg_scan_raw(&server.pg_addr, name, &sql)) {
        log.pg_scan(scan.elapsed);
    }
}

/// The canonical retail-131 client package (10k fact rows).
pub fn base_package() -> TransferPackage {
    hydra_bench::retail_package(131, hydra_bench::BENCH_FACT_ROWS)
}

/// `package` with every cardinality and row count scaled by `factor`.
pub fn scaled(package: &TransferPackage, factor: f64) -> TransferPackage {
    Scenario::scaled(format!("x{factor}"), factor).apply(package)
}

/// The in-process session every oracle solves with: the same configuration
/// `hydra-serve` runs (no AQP re-execution, one solver thread).
pub fn oracle_session() -> Hydra {
    Hydra::builder().compare_aqps(false).parallelism(1).build()
}

// ---------------------------------------------------------------------------
// Seeded SQL
// ---------------------------------------------------------------------------

/// A dimension reachable from the fact table by one key–FK join.
struct Dim {
    table: &'static str,
    fact_fk: &'static str,
    pk: &'static str,
    /// A numeric column and its domain, for predicates.
    column: &'static str,
    domain: (i64, i64),
    /// A low-cardinality column, for GROUP BY.
    group: &'static str,
}

const DIMS: [Dim; 4] = [
    Dim {
        table: "item",
        fact_fk: "ss_item_fk",
        pk: "i_item_sk",
        column: "i_manager_id",
        domain: (0, 100),
        group: "i_category",
    },
    Dim {
        table: "date_dim",
        fact_fk: "ss_date_fk",
        pk: "d_date_sk",
        column: "d_year",
        domain: (1998, 2004),
        group: "d_moy",
    },
    Dim {
        table: "customer",
        fact_fk: "ss_customer_fk",
        pk: "c_customer_sk",
        column: "c_birth_year",
        domain: (1920, 2000),
        group: "c_gender",
    },
    Dim {
        table: "store",
        fact_fk: "ss_store_fk",
        pk: "s_store_sk",
        column: "s_floor_space",
        domain: (1_000, 10_000),
        group: "s_state",
    },
];

const AGGREGATES: [&str; 4] = [
    "count(*)",
    "count(*), sum(store_sales.ss_quantity)",
    "avg(store_sales.ss_sales_price)",
    "count(*), sum(store_sales.ss_sales_price), avg(store_sales.ss_quantity)",
];

fn comparison(rng: &mut Rng, column: &str, (lo, hi): (i64, i64)) -> String {
    let op = *rng.pick(&["<", "<=", ">", ">="]);
    let value = lo + rng.below((hi - lo) as u64 + 1) as i64;
    format!("{column} {op} {value}")
}

/// An in-class aggregate: COUNT/SUM/AVG with 0–3 conjuncts, 0–2 key–FK
/// joins and an optional GROUP BY on a joined dimension.
pub fn in_class_sql(rng: &mut Rng) -> String {
    let mut dims: Vec<usize> = (0..DIMS.len()).collect();
    let joins = rng.below(3) as usize;
    let mut joined = Vec::new();
    for _ in 0..joins {
        let i = rng.below(dims.len() as u64) as usize;
        joined.push(dims.remove(i));
    }
    let mut tables = vec![FACT.to_string()];
    let mut conjuncts = Vec::new();
    for &d in &joined {
        let dim = &DIMS[d];
        tables.push(dim.table.to_string());
        conjuncts.push(format!(
            "store_sales.{} = {}.{}",
            dim.fact_fk, dim.table, dim.pk
        ));
    }
    for _ in 0..rng.below(4) {
        let on_dim = !joined.is_empty() && rng.below(2) == 0;
        conjuncts.push(if on_dim {
            let dim = &DIMS[*rng.pick(&joined)];
            comparison(rng, &format!("{}.{}", dim.table, dim.column), dim.domain)
        } else {
            comparison(rng, "store_sales.ss_quantity", (1, 100))
        });
    }
    let mut sql = format!(
        "select {} from {}",
        rng.pick(&AGGREGATES),
        tables.join(", ")
    );
    if !conjuncts.is_empty() {
        sql.push_str(" where ");
        sql.push_str(&conjuncts.join(" and "));
    }
    if !joined.is_empty() && rng.below(2) == 0 {
        let dim = &DIMS[*rng.pick(&joined)];
        sql.push_str(&format!(" group by {}.{}", dim.table, dim.group));
    }
    sql
}

/// An out-of-class aggregate: the fact pk compared with a string literal,
/// which forces the regenerate-and-scan fallback.  Every such query scans
/// the whole relation and computes the widest aggregate list, so the seed
/// (which picks the literal) does not change a scan's cost.
pub fn out_of_class_sql(rng: &mut Rng) -> String {
    let literal = *rng.pick(&["'a'", "'0'", "'k9'", "'zz'", "'m'", "'5x'"]);
    format!(
        "select {} from store_sales where store_sales.ss_sk >= {literal}",
        AGGREGATES[AGGREGATES.len() - 1]
    )
}

/// In-class queries drawn per run: enough that the mix, and so the
/// latency distribution, hardly depends on the seed.
pub const DIRECT_POOL: usize = 256;

/// A pool of seeded queries with their oracle answers, keeping only those
/// the oracle answers with `strategy`.
pub fn query_pool(
    session: &Hydra,
    regeneration: &RegenerationResult,
    rng: &mut Rng,
    size: usize,
    make: fn(&mut Rng) -> String,
    strategy: ExecStrategy,
) -> BenchResult<Vec<(String, QueryAnswer)>> {
    let mut pool = Vec::with_capacity(size);
    let mut tries = 0;
    while pool.len() < size {
        tries += 1;
        if tries > size * 20 {
            return Err(format!(
                "could not draw {size} queries answered by {strategy}"
            ));
        }
        let sql = make(rng);
        let answer = session
            .query(regeneration, &sql)
            .map_err(err("oracle query"))?;
        if answer.strategy() == strategy {
            pool.push((sql, answer));
        }
    }
    Ok(pool)
}

/// Runs one query over the wire, timing it and checking it against the
/// oracle's answer.
fn checked_query(
    client: &mut HydraClient,
    name: &str,
    sql: &str,
    expected: &QueryAnswer,
    report: &mut Report,
) -> Option<f64> {
    let started = Instant::now();
    let answer = report.op(client
        .query_request(QueryRequest::new(name, sql))
        .map_err(err("query")))?;
    let elapsed = started.elapsed().as_secs_f64();
    report.check(&answer == expected, || {
        format!("answer of `{sql}` on `{name}` differs from the in-process oracle")
    });
    Some(elapsed)
}

// ---------------------------------------------------------------------------
// Set-up, recovery and the metrics every workload reports
// ---------------------------------------------------------------------------

/// `name@version` → description captured when the version was acknowledged.
type Acked = BTreeMap<String, SummaryDetail>;

/// Publishes to and warms one freshly spawned server.
type Prepare<'a> = dyn Fn(&Server, &mut Report, &mut Acked) -> BenchResult<()> + 'a;

/// The server kept after the set-ups, and what they measured.
pub struct Setup {
    pub server: Server,
    pub wal_dir: PathBuf,
    pub setup_s: Vec<f64>,
    /// `name@version` → description captured when the version was acked.
    pub acked: Acked,
}

/// Spawns the server `spec.setups` times on fresh WAL directories;
/// `prepare` publishes and warms.
pub fn set_up(spec: &RunSpec, report: &mut Report, prepare: &Prepare) -> BenchResult<Setup> {
    let mut setup_s = Vec::new();
    let mut last_acked = BTreeMap::new();
    for k in 0..spec.setups {
        let wal_dir = spec.dir.join(format!("wal{k}"));
        let server = span("hydra-serve.setup", || -> BenchResult<Server> {
            let server = Server::spawn(&wal_dir)?;
            let mut acked = BTreeMap::new();
            prepare(&server, report, &mut acked)?;
            setup_s.push(server.spawned.elapsed().as_secs_f64());
            last_acked = acked;
            Ok(server)
        })?;
        if k + 1 < spec.setups {
            // Earlier set-ups' WAL directories stay until the run ends:
            // deleting tens of MB mid-run sets off background discards.
            server.shutdown()?;
        } else {
            return Ok(Setup {
                server,
                wal_dir,
                setup_s,
                acked: last_acked,
            });
        }
    }
    Err("a run needs at least one set-up".into())
}

/// Publishes `package` as `name` and captures its acknowledged description.
pub fn publish(
    client: &mut HydraClient,
    name: &str,
    package: &TransferPackage,
    report: &mut Report,
    acked: &mut Acked,
) -> BenchResult<()> {
    let info = client.publish(name, package).map_err(err("publish"))?;
    report.attempted += 1;
    let spec = format!("{name}@{}", info.version);
    let detail = client.describe(&spec).map_err(err("describe"))?;
    acked.insert(spec, detail);
    Ok(())
}

/// Measures what every workload reports after its traffic: peak RSS and
/// stored bytes of the live server, then restarts on the same WAL
/// directory (`recovery_s`), checking every acknowledged version
/// describes identically and no LP solve ran.
pub fn finish(
    spec: &RunSpec,
    setup: Setup,
    package_bytes: usize,
    accuracy: f64,
    report: &mut Report,
) -> BenchResult<()> {
    let Setup {
        server,
        wal_dir,
        setup_s,
        acked,
    } = setup;
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;
    let stored = dir_bytes(&wal_dir) as f64;
    if spec.trace {
        // A traced run replays WAL recovery in-process instead.
        return Ok(());
    }

    let mut recovery = Vec::new();
    while recovery.len() < MAX_RESTARTS && recovery.iter().sum::<f64>() < RECOVERY_SECONDS {
        let _span = crate::trace::enter("hydra-serve.recovery");
        let server = Server::spawn(&wal_dir)?;
        let mut client = server.client()?;
        report.op(client.list().map_err(err("list after restart")));
        recovery.push(server.spawned.elapsed().as_secs_f64());
        for (spec, detail) in &acked {
            let now = report.op(client.describe(spec).map_err(err("describe after restart")));
            report.check(now.as_ref() == Some(detail), || {
                format!("`{spec}` describes differently after restart")
            });
        }
        let samples = client.stats().map_err(err("stats"))?;
        let solves = stat(&samples, "hydra_lp_solves_total");
        report.check(solves == 0.0, || format!("recovery ran {solves} LP solves"));
        server.shutdown()?;
    }

    report.metric("setup_s", median(&setup_s), "s");
    report.metric("server_peak_rss_mb", rss, "MB");
    report.metric("recovery_s", median(&recovery), "s");
    report.metric(
        "stored_bytes_per_package_byte",
        stored / package_bytes as f64,
        "ratio",
    );
    report.metric("accuracy_within_10pct", accuracy, "fraction");
    eprintln!(
        "perfbench: setup_s: {}; recovery_s ({} versions): {}",
        summary(&setup_s, 1.0),
        acked.len(),
        summary(&recovery, 1.0)
    );
    Ok(())
}

/// Sample count, quartiles and extremes of `samples` scaled by `scale`,
/// for standard error beside a metric that reports their median.
fn summary(samples: &[f64], scale: f64) -> String {
    format!(
        "n={} min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} max {:.4}",
        samples.len(),
        quantile(samples, 0.0) * scale,
        quantile(samples, 0.25) * scale,
        median(samples) * scale,
        quantile(samples, 0.75) * scale,
        quantile(samples, 1.0) * scale,
    )
}

/// Prints the direct-query latencies and rate.  They are not reported as
/// metrics: a single query's round trip is dominated by thread wake-ups,
/// and on a shared two-core virtual machine its median spread by 8–30 %
/// between runs (the p99 by 26–190 %), more than any admissible bound.
fn print_queries(latencies: &[f64], answered: usize, window_s: f64) {
    eprintln!(
        "perfbench: {} direct queries: p50 {:.0} us, p90 {:.0} us, p99 {:.0} us; \
         {answered} queries answered in {window_s:.2} s",
        latencies.len(),
        quantile(latencies, 0.5) * 1e6,
        quantile(latencies, 0.9) * 1e6,
        quantile(latencies, 0.99) * 1e6,
    );
}

fn package_bytes(packages: &[&TransferPackage]) -> BenchResult<usize> {
    packages
        .iter()
        .map(|p| p.to_json().map(|j| j.len()).map_err(err("package json")))
        .sum()
}

// ---------------------------------------------------------------------------
// bulk_stream
// ---------------------------------------------------------------------------

/// Rows per frame batch: the protocol's default, for every stream.  Streams
/// in batches of 4096 rows ran about 15 % faster than in batches of 1024, so
/// alternating the two made the median pair fall between two clusters.
const BATCH_ROWS: u64 = StreamRequest::DEFAULT_BATCH_ROWS;
/// The throttled stream of the velocity check: rows and target rows/s.
const VELOCITY_ROWS: u64 = 600_000;
const VELOCITY_TARGET: f64 = 1_000_000.0;

pub fn bulk_stream(spec: &RunSpec, report: &mut Report) -> BenchResult<WireLog> {
    let mut rng = Rng::new(spec.seed);
    let package = scaled(&base_package(), 400.0);
    let session = oracle_session();
    let (state, solve_s) = oracle_solve(&session, &package)?;
    let oracle = &state.regeneration;
    let accuracy = oracle.accuracy.fraction_within(0.1);
    let generator = oracle.generator();
    let rows = generator
        .summary
        .relation(FACT)
        .ok_or("no fact summary")?
        .total_rows;
    let frame_ref = frame_reference(&generator, FACT, (0, rows), BATCH_ROWS)?;
    let velocity_ref = frame_reference(&generator, FACT, (0, VELOCITY_ROWS), BATCH_ROWS)?;
    let (pg_ref, pg_rows) = pg_reference(&generator, FACT)?;
    let pool = query_pool(
        &session,
        oracle,
        &mut rng,
        DIRECT_POOL,
        in_class_sql,
        ExecStrategy::SummaryDirect,
    )?;
    let mut log = WireLog::new(state, solve_s, pool[0].1.clone());
    log.direct_sql = pool.iter().map(|(sql, _)| sql.clone()).collect();

    let setup = set_up(spec, report, &|server, report, acked| {
        let mut client = server.client()?;
        publish(&mut client, "bulk", &package, report, acked)?;
        checked_query(&mut client, "bulk", &pool[0].0, &pool[0].1, report);
        Ok(())
    })?;
    let server = &setup.server;
    let mut client = server.client()?;
    let window = crate::trace::enter("hydra-serve.window");
    log.stats_before = client.stats().map_err(err("stats"))?;

    let mut pairs = Vec::new();
    let mut frame_rows = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(spec.seconds);
    while Instant::now() < deadline {
        let request = StreamRequest::full("bulk", FACT).batch_rows(BATCH_ROWS);
        let Some(frame) = report.op(frame_stream_raw(&server.addr, request)) else {
            continue;
        };
        report.check(
            frame.digest == frame_ref && frame.stats.rows == rows,
            || "frame stream differs from FrameSink".into(),
        );
        frame_rows += frame.stats.rows;
        log.frame_stream(BATCH_ROWS, frame.elapsed);
        let sql = format!("SELECT * FROM {FACT}");
        let Some(scan) = report.op(pg_scan_raw(&server.pg_addr, "bulk", &sql)) else {
            continue;
        };
        report.check(
            scan.digest == pg_ref && scan.tag == format!("SELECT {pg_rows}"),
            || format!("pg scan differs from PgRowSink (tag `{}`)", scan.tag),
        );
        log.pg_scan(scan.elapsed);
        pairs.push((frame.elapsed + scan.elapsed).as_secs_f64());
    }

    let window_s = started.elapsed().as_secs_f64();
    log.stats_after = client.stats().map_err(err("stats"))?;
    drop(window);
    if pairs.is_empty() {
        return Err("no stream pair completed in the window".into());
    }

    // Velocity regulation: checked, not scored.
    let request = StreamRequest::full("bulk", FACT)
        .range(0, VELOCITY_ROWS)
        .rows_per_sec(VELOCITY_TARGET);
    if let Some(throttled) = report.op(frame_stream_raw(&server.addr, request)) {
        let achieved = throttled.stats.rows as f64 / throttled.elapsed.as_secs_f64();
        report.check(throttled.digest == velocity_ref, || {
            "throttled stream differs".into()
        });
        report.check((achieved / VELOCITY_TARGET - 1.0).abs() <= 0.05, || {
            format!("velocity {achieved:.0} rows/s misses its target {VELOCITY_TARGET:.0}")
        });
        eprintln!(
            "perfbench: velocity check: {achieved:.0} rows/s for target {VELOCITY_TARGET:.0}"
        );
    }

    eprintln!(
        "perfbench: {} stream pairs ({frame_rows} frame rows) in {window_s:.2} s; \
         heavy_op_ms: {}",
        pairs.len(),
        summary(&pairs, 1e3)
    );
    report.metric("heavy_op_ms", median(&pairs) * 1e3, "ms");
    finish(spec, setup, package_bytes(&[&package])?, accuracy, report)?;
    log.cover(&mut rng);
    Ok(log)
}

// ---------------------------------------------------------------------------
// analytic_queries
// ---------------------------------------------------------------------------

/// Clients issuing queries concurrently.
const ANALYTIC_CLIENTS: usize = 2;
/// Scale of the analytic copy of retail-131: 1 M fact rows, small enough
/// that an out-of-class query's regenerate-and-scan stays near 0.1 s.
/// Summary-direct cost does not depend on the scale.
const ANALYTIC_SCALE: f64 = 100.0;
/// Every `SCAN_EVERY`-th query of a client is out of class (2 %).
const SCAN_EVERY: u64 = 50;

pub fn analytic_queries(spec: &RunSpec, report: &mut Report) -> BenchResult<WireLog> {
    let mut rng = Rng::new(spec.seed);
    let package = scaled(&base_package(), ANALYTIC_SCALE);
    let session = oracle_session();
    let (state, solve_s) = oracle_solve(&session, &package)?;
    let oracle = &state.regeneration;
    let direct_pool = query_pool(
        &session,
        oracle,
        &mut rng,
        DIRECT_POOL,
        in_class_sql,
        ExecStrategy::SummaryDirect,
    )?;
    let scan_pool = query_pool(
        &session,
        oracle,
        &mut rng,
        6,
        out_of_class_sql,
        ExecStrategy::TupleScan,
    )?;
    let accuracy = oracle.accuracy.fraction_within(0.1);
    let mut log = WireLog::new(state, solve_s, direct_pool[0].1.clone());
    log.scan_sql = scan_pool
        .iter()
        .take(REPLAY_STREAMS)
        .map(|(sql, _)| sql.clone())
        .collect();
    log.direct_sql = direct_pool.iter().map(|(sql, _)| sql.clone()).collect();

    let setup = set_up(spec, report, &|server, report, acked| {
        let mut client = server.client()?;
        publish(&mut client, "analytic", &package, report, acked)?;
        checked_query(
            &mut client,
            "analytic",
            &direct_pool[0].0,
            &direct_pool[0].1,
            report,
        );
        checked_query(
            &mut client,
            "analytic",
            &scan_pool[0].0,
            &scan_pool[0].1,
            report,
        );
        Ok(())
    })?;

    let server = &setup.server;
    let mut client = server.client()?;
    let window_span = crate::trace::enter("hydra-serve.window");
    log.stats_before = client.stats().map_err(err("stats"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let started = Instant::now();
    let seeds: Vec<u64> = (0..ANALYTIC_CLIENTS).map(|_| rng.next_u64()).collect();
    // Per client: its accounting, direct-query and scan latencies.
    type ClientOut = (Report, Vec<f64>, Vec<f64>);
    let outcomes: Vec<BenchResult<ClientOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let (direct_pool, scan_pool) = (&direct_pool, &scan_pool);
                s.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let mut client = server.client()?;
                    let mut r = Report::new();
                    let (mut direct, mut scans) = (Vec::new(), Vec::new());
                    let offset = rng.below(SCAN_EVERY);
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        i += 1;
                        if i % SCAN_EVERY == offset {
                            let (sql, expected) = rng.pick(scan_pool);
                            if let Some(t) =
                                checked_query(&mut client, "analytic", sql, expected, &mut r)
                            {
                                scans.push(t);
                            }
                        } else {
                            let (sql, expected) = rng.pick(direct_pool);
                            if let Some(t) =
                                checked_query(&mut client, "analytic", sql, expected, &mut r)
                            {
                                direct.push(t);
                            }
                        }
                    }
                    Ok((r, direct, scans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = started.elapsed().as_secs_f64();
    if spec.trace {
        probe_streams(server, "analytic", &mut log, report);
    }
    log.stats_after = client.stats().map_err(err("stats"))?;
    drop(window_span);
    let (mut direct, mut scans) = (Vec::new(), Vec::new());
    for outcome in outcomes {
        let (r, d, sc) = outcome?;
        report.merge(r);
        direct.extend(d);
        scans.extend(sc);
    }
    eprintln!(
        "perfbench: {} direct and {} scan queries from {ANALYTIC_CLIENTS} clients in {window:.2} s",
        direct.len(),
        scans.len()
    );
    print_queries(&direct, direct.len() + scans.len(), window);
    eprintln!(
        "perfbench: heavy_op_ms (scan queries): {}",
        summary(&scans, 1e3)
    );
    report.metric("heavy_op_ms", median(&scans) * 1e3, "ms");
    finish(spec, setup, package_bytes(&[&package])?, accuracy, report)?;
    log.cover(&mut rng);
    Ok(log)
}

// ---------------------------------------------------------------------------
// publish_churn
// ---------------------------------------------------------------------------

/// Ordinary one-query deltas the writer chains onto its fresh name, after
/// the fixture's first, narrow delta (a `web_sales`-only query that re-solves
/// one relation).  Only the ordinary ones are timed.  Their queries touch
/// different relations, so their costs differ by design (about 1.6 s and
/// 3.2 s here): `heavy_op_ms` is their mean, which a median of so few mixed
/// samples would jump around.
const CHURN_DELTAS: usize = 5;

pub fn publish_churn(spec: &RunSpec, report: &mut Report) -> BenchResult<WireLog> {
    let mut rng = Rng::new(spec.seed);
    let (package, extras) = hydra_bench::retail_delta_fixture(1 + CHURN_DELTAS);
    let deltas: Vec<_> = (0..=CHURN_DELTAS)
        .map(|i| hydra_bench::delta_of(&extras[i..], 1))
        .collect();
    let session = oracle_session();
    // Oracle states of the churned name: index `v - 1` is version `v`.
    let (base_state, solve_s) = oracle_solve(&session, &package)?;
    let mut states = vec![base_state];
    for delta in &deltas {
        let next = span("hydra-core.profile_delta", || {
            session.profile_delta(states.last().expect("base state"), delta)
        })
        .map_err(err("oracle delta"))?;
        states.push(next.state);
    }
    let pool = query_pool(
        &session,
        &states[0].regeneration,
        &mut rng,
        DIRECT_POOL,
        in_class_sql,
        ExecStrategy::SummaryDirect,
    )?;
    let mut log = WireLog::new(states[0].clone(), solve_s, pool[0].1.clone());
    log.direct_sql = pool.iter().map(|(sql, _)| sql.clone()).collect();
    log.deltas = deltas.clone();
    let setup_name = format!("churn{}", rng.below(1000));
    let fresh_name = format!("{setup_name}_fresh{}", rng.below(1000));

    let setup = set_up(spec, report, &|server, report, acked| {
        let mut client = server.client()?;
        publish(&mut client, &setup_name, &package, report, acked)?;
        checked_query(&mut client, &setup_name, &pool[0].0, &pool[0].1, report);
        Ok(())
    })?;
    let mut setup = setup;
    let server = &setup.server;
    let mut client = server.client()?;
    let window_span = crate::trace::enter("hydra-serve.window");
    log.stats_before = client.stats().map_err(err("stats"))?;

    // The reader follows the name being republished: the set-up name until
    // the writer's fresh name is acknowledged.  `acked_version` holds the
    // latest acknowledged version of the fresh name (0: not yet published).
    let acked_version = Mutex::new(0u32);
    let writer_done = AtomicBool::new(false);
    let min_end = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let started = Instant::now();
    type ReaderOut = (
        Report,
        Vec<f64>,
        Vec<(usize, String, u32, u32, QueryAnswer)>,
    );
    type WriterOut = (Report, Vec<(usize, f64)>, Acked);
    let (writer, reader): (BenchResult<WriterOut>, BenchResult<ReaderOut>) =
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut r = Report::new();
                let mut acked = BTreeMap::new();
                let mut client = server.client()?;
                publish(&mut client, &fresh_name, &package, &mut r, &mut acked)?;
                *acked_version.lock().expect("version lock") = 1;
                let mut delta_s = Vec::new();
                for (k, delta) in deltas.iter().enumerate() {
                    let t = Instant::now();
                    let Some(published) = r.op(client
                        .delta_publish(&fresh_name, delta)
                        .map_err(err("delta")))
                    else {
                        continue;
                    };
                    delta_s.push((k, t.elapsed().as_secs_f64()));
                    let spec = format!("{fresh_name}@{}", published.info.version);
                    let detail = client.describe(&spec).map_err(err("describe"))?;
                    acked.insert(spec, detail);
                    *acked_version.lock().expect("version lock") = published.info.version;
                }
                writer_done.store(true, Ordering::SeqCst);
                Ok((r, delta_s, acked))
            });
            let reader = s.spawn(|| {
                let mut r = Report::new();
                let mut client = server.client()?;
                let (mut latencies, mut answers) = (Vec::new(), Vec::new());
                while !writer_done.load(Ordering::SeqCst) || Instant::now() < min_end {
                    let lo = *acked_version.lock().expect("version lock");
                    let i = rng.below(pool.len() as u64) as usize;
                    let name = if lo == 0 { &setup_name } else { &fresh_name };
                    let t = Instant::now();
                    let answer = r.op(client
                        .query_request(QueryRequest::new(name.as_str(), pool[i].0.as_str()))
                        .map_err(err("query")));
                    let elapsed = t.elapsed().as_secs_f64();
                    let hi = *acked_version.lock().expect("version lock");
                    if let Some(answer) = answer {
                        latencies.push(elapsed);
                        answers.push((i, name.clone(), lo, hi, answer));
                    }
                }
                Ok((r, latencies, answers))
            });
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });
    let window = started.elapsed().as_secs_f64();
    if spec.trace {
        probe_streams(server, &setup_name, &mut log, report);
    }
    log.stats_after = client.stats().map_err(err("stats"))?;
    drop(window_span);
    let (writer_report, delta_s, acked) = writer?;
    let (reader_report, latencies, answers) = reader?;
    report.merge(writer_report);
    report.merge(reader_report);
    setup.acked.extend(acked);

    // A read answered by version `v` of the fresh name, where `v` was the
    // latest acknowledged version when it was sent or became it before the
    // reply (one version may be in flight).
    let mut cache: BTreeMap<(usize, usize), QueryAnswer> = BTreeMap::new();
    for (i, name, lo, hi, answer) in &answers {
        let candidates = if name == &setup_name {
            0..=0
        } else {
            (*lo as usize).max(1) - 1..=(*hi as usize).min(deltas.len())
        };
        let mut ok = false;
        for v in candidates {
            let expected = match cache.entry((v, *i)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(
                    session
                        .query(&states[v].regeneration, &pool[*i].0)
                        .map_err(err("oracle query"))?,
                ),
            };
            ok |= &*expected == answer;
        }
        report.check(ok, || {
            format!(
                "`{}` on `{name}` matches no version in v{lo}..=v{}",
                pool[*i].0,
                hi + 1
            )
        });
    }

    // The narrow first delta is published but not timed.
    let (narrow, ordinary): (Vec<_>, Vec<_>) = delta_s.iter().partition(|(k, _)| *k == 0);
    let ordinary: Vec<f64> = ordinary.iter().map(|(_, t)| *t).collect();
    let mean = ordinary.iter().sum::<f64>() / ordinary.len() as f64;
    eprintln!(
        "perfbench: writer: 1 cold publish + {} deltas (narrow: {:.1} ms); \
         reader: {} queries in {window:.2} s",
        delta_s.len(),
        narrow.first().map_or(f64::NAN, |(_, t)| t * 1e3),
        latencies.len()
    );
    print_queries(&latencies, latencies.len(), window);
    eprintln!(
        "perfbench: heavy_op_ms (mean of ordinary deltas) {:.1}: {}; in order: {:.0?} ms",
        mean * 1e3,
        summary(&ordinary, 1e3),
        ordinary.iter().map(|t| t * 1e3).collect::<Vec<_>>()
    );
    report.metric("heavy_op_ms", mean * 1e3, "ms");
    let last = states.last().expect("states");
    let accuracy = last.regeneration.accuracy.fraction_within(0.1);
    let delta_bytes: usize = deltas
        .iter()
        .map(|d| {
            serde_json::to_string(d)
                .map(|j| j.len())
                .map_err(err("delta json"))
        })
        .sum::<BenchResult<usize>>()?;
    let published = package_bytes(&[&package, &package])? + delta_bytes;
    finish(spec, setup, published, accuracy, report)?;
    log.cover(&mut rng);
    Ok(log)
}

/// Runs `workload` by name.
pub fn run(workload: &str, spec: &RunSpec, report: &mut Report) -> BenchResult<WireLog> {
    std::fs::create_dir_all(&spec.dir).map_err(err("create run dir"))?;
    let outcome = match workload {
        "bulk_stream" => bulk_stream(spec, report),
        "analytic_queries" => analytic_queries(spec, report),
        "publish_churn" => publish_churn(spec, report),
        other => Err(format!("unknown workload `{other}`")),
    };
    std::fs::remove_dir_all(&spec.dir).ok();
    outcome
}
