//! The repo benchmark. See `README.md` beside `Cargo.toml` for the workloads, the
//! metric tables and the public surface this harness pins.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//!           [--smoke] [--out <dir>] [--calibrate <n>]
//! benchmark --describe        # prints BENCHMARK.json from the harness's tables
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. A failed output check also makes the exit code non-zero.

mod calibrate;
mod engine;
mod layers;
mod phases;
mod run;
mod stats;
mod trace;
mod workloads;

use obs::Json;
use phases::{Harness, Sizes};
use run::{Metric, Outcome, RunConfig, PINNED_SEED};
use std::path::PathBuf;
use std::process::ExitCode;
use stream::{ShardedDetector, TenantPool};
use workloads::{Shape, Workload};

#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    calibrate: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--out <dir>] [--calibrate <n>]",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: workloads::all().remove(0),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        calibrate: None,
    };
    let mut rest = raw.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(workloads::find(&name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a duration")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a duration")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--calibrate" => {
                args.calibrate = Some(
                    value("a run count")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--calibrate: need at least 2 runs")?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Where this process may write: `--out`, or `benchmark-scratch/` beside the build's
/// profile directory (inside the checkout's ignored build directory, never the
/// repository root), or the system temp dir when the executable path is unknown.
fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark-scratch")))
            .unwrap_or_else(|| std::env::temp_dir().join("benchmark-scratch"))
    })
}

/// Runs one workload in this process. Returns the outcome and the harness (for its
/// operation counts and spans); the harness's scratch directory is gone by the time
/// the harness is dropped.
pub fn run_workload(args: &Args) -> std::io::Result<(Outcome, Harness)> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let scratch = out_dir(args).join(format!("run-{}-{nanos}", std::process::id()));
    let mut harness = Harness::new(scratch, args.trace)?;
    let config = RunConfig {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        pin_inputs: !args.smoke && args.seed == PINNED_SEED,
    };
    let outcome = match args.workload.shape {
        Shape::OneShard => run::run::<ShardedDetector>(&mut harness, &args.workload, &config),
        Shape::TenantPool => run::run::<TenantPool>(&mut harness, &args.workload, &config),
    };
    Ok((outcome, harness))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for metric in metrics {
        println!(
            "  {:<42} {:>16.4} {:<9} {}",
            metric.name, metric.value, metric.unit, metric.detail
        );
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|metric| {
            (
                metric.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(metric.value)),
                    ("unit".into(), Json::Str(metric.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_u64(attempted)),
        ("failed".into(), Json::from_u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--describe"] {
        print!("{}", workloads::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.calibrate {
        return calibrate::calibrate(&args, runs);
    }

    let (outcome, harness) = match run_workload(&args) {
        Ok(done) => done,
        Err(error) => {
            eprintln!("cannot create the scratch directory: {error}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} ({}; one client thread, closed loop, {} cores)",
        args.workload.name,
        args.seed,
        if args.smoke {
            "smoke size"
        } else {
            "full size"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("why: {}", args.workload.why);
    if let Some(print) = outcome.fingerprint {
        println!(
            "inputs: training fnv1a {:016x} ({} edges), stream fnv1a {:016x} ({} events, {} nodes)",
            print.training_hash,
            print.training_edges,
            print.stream_hash,
            print.stream_events,
            print.stream_nodes
        );
    }
    if args.trace {
        // Measured with spans on and one set-up, three rounds, one mining repetition.
        print_metrics(
            "end-to-end (traced, reduced passes: not comparable with an untraced run):",
            &outcome.end_to_end,
        );
        print_metrics("per layer (traced run):", &outcome.per_layer);
        println!("spans (count, total ms, self ms):");
        for (name, (count, total, own)) in harness.tracer.totals() {
            println!(
                "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dir = out_dir(&args);
        let path = dir.join(format!("trace-{}.json", args.workload.name));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                harness
                    .tracer
                    .to_json(args.workload.name, args.seed)
                    .render(),
            )
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(error) => eprintln!("cannot write {}: {error}", path.display()),
        }
    } else {
        print_metrics("end-to-end:", &outcome.end_to_end);
    }
    for failure in &harness.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "operations: {} attempted, {} failed",
        harness.attempted, harness.failed
    );

    let reported = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let finite = reported.iter().all(|metric| metric.value.is_finite());
    if !finite {
        println!("FAILED: a reported metric has no value");
    }
    let correct = harness.failed == 0 && finite;
    println!(
        "{}",
        result_line(correct, harness.attempted.max(1), harness.failed, reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
