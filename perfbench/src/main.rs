//! `perfbench` — the end-to-end benchmark of `hydra-serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --smoke
//! ```
//!
//! Drives a release `hydra-serve` child over loopback with one of three
//! closed-loop workloads (`bulk_stream`, `analytic_queries`,
//! `publish_churn`), checks every reply against an in-process oracle and
//! prints one JSON line as the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 1` replays the workload's inputs through the crates' public
//! functions under spans and reports the per-layer metrics instead.
//! `--smoke` runs every workload briefly in both modes and fails if a
//! metric is missing or non-finite or an oracle check fails.

mod harness;
mod report;
mod trace;
mod workloads;

use report::Report;
use serde::Deserialize;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunSpec;

/// The names `BENCHMARK.json` fixes; the smoke test checks a run's metrics
/// against them, so the file is the only list of names.
#[derive(Deserialize)]
struct Declared {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.smoke && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Scratch space for WAL directories and trace files, inside the working
/// directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

fn run_once(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let spec = RunSpec {
        seed,
        seconds,
        dir: out_dir().join(format!("{workload}-{seed}-{}", std::process::id())),
        setups: workloads::SETUPS,
        trace: false,
    };
    let mut report = Report::new();
    if trace {
        trace::run(workload, &spec, &mut report)?;
    } else {
        workloads::run(workload, &spec, &mut report)?;
    }
    Ok(report)
}

/// The self-test: every workload, both modes, every metric `BENCHMARK.json`
/// names present and finite and no other, every oracle check passing.
fn smoke() -> Result<bool, String> {
    let declared = declared()?;
    let names = |list: &[Named]| -> Vec<String> { list.iter().map(|n| n.name.clone()).collect() };
    let mut ok = true;
    for workload in names(&declared.workloads) {
        for trace in [false, true] {
            let mut expected = names(if trace {
                &declared.per_layer
            } else {
                &declared.end_to_end
            });
            expected.sort();
            let verdict = match run_once(&workload, 7, 2.0, trace) {
                Err(e) => format!("error: {e}"),
                Ok(report) => {
                    let mut got: Vec<String> =
                        report.metrics.iter().map(|(n, ..)| n.clone()).collect();
                    got.sort();
                    let bad: Vec<&String> = report
                        .metrics
                        .iter()
                        .filter(|(_, v, _)| !v.is_finite())
                        .map(|(n, ..)| n)
                        .collect();
                    if !report.correct || report.failed > 0 {
                        format!("oracle or request failure ({} failed)", report.failed)
                    } else if got != expected || !bad.is_empty() {
                        format!("metrics {got:?} differ from {expected:?}; non-finite {bad:?}")
                    } else {
                        "ok".to_string()
                    }
                }
            };
            eprintln!(
                "perfbench smoke: {workload} trace={} -> {verdict}",
                trace as u8
            );
            ok &= verdict == "ok";
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        let ok = smoke().unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            false
        });
        println!("perfbench smoke: {}", if ok { "PASS" } else { "FAIL" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run_once(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
