//! `--calibrate <n>`: the acceptance procedure, run locally. The workload runs `n`
//! times as fresh child processes, each on another seed, and every end-to-end metric
//! is summarised the way the acceptance check summarises it: median, quartiles
//! (Python's `statistics.quantiles(n=4)`), their distance as a share of the median,
//! and the largest deviation of any run from the median.

use crate::stats::{median, quartiles, spread};
use crate::workloads::END_TO_END;
use crate::Args;
use obs::Json;
use std::process::{Command, ExitCode};

/// The end-to-end metrics of one child run, by name.
fn child_metrics(args: &Args, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", args.workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(out) = &args.out {
        command.arg("--out").arg(out);
    }
    // `output` waits for the child to end before returning.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("seed {seed}: {}\n{stdout}", output.status));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(line).map_err(|e| format!("result line: {e:?}"))?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            metric
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("{name} has no value"))
        })
        .collect()
}

pub fn calibrate(args: &Args, runs: usize) -> ExitCode {
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for run in 0..runs {
        let seed = args.seed + run as u64;
        eprintln!(
            "[calibrate] {} run {}/{runs} (seed {seed})",
            args.workload.name,
            run + 1
        );
        match child_metrics(args, seed) {
            Ok(metrics) => {
                for (name, value) in metrics {
                    match columns.iter_mut().find(|(column, _)| *column == name) {
                        Some((_, values)) => values.push(value),
                        None => columns.push((name, vec![value])),
                    }
                }
            }
            Err(message) => {
                eprintln!("[calibrate] {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "calibration of {} over {runs} runs, seeds {}..{}",
        args.workload.name,
        args.seed,
        args.seed + runs as u64 - 1
    );
    println!(
        "| {:<20} | {:<8} | {:>14} | {:>14} | {:>14} | {:>8} | {:>8} | {:>6} |",
        "metric", "unit", "median", "q1", "q3", "iqr/med", "max dev", "bound"
    );
    println!(
        "|{:-<22}|{:-<10}|{:-<16}|{:-<16}|{:-<16}|{:-<10}|{:-<10}|{:-<8}|",
        "", "", "", "", "", "", "", ""
    );
    for (name, values) in &columns {
        let (unit, bound) = END_TO_END
            .iter()
            .find(|(metric, ..)| metric == name)
            .map_or(("", 0.0), |&(_, unit, _, bound)| (unit, bound));
        let mid = median(values);
        let (q1, q3) = quartiles(values);
        let max_dev = values
            .iter()
            .map(|v| (v - mid).abs() / mid)
            .fold(0.0f64, f64::max);
        println!(
            "| {name:<20} | {unit:<8} | {mid:>14.4} | {q1:>14.4} | {q3:>14.4} | {:>7.2}% | {:>7.2}% | {:>5.1}% |",
            spread(values) * 100.0,
            max_dev * 100.0,
            bound * 100.0
        );
    }
    ExitCode::SUCCESS
}
