//! Perf-regression gate over the bench trajectory: compares freshly emitted
//! `BENCH_*.json` artifacts against the committed baselines field-by-field
//! (`obs::report::diff_reports`) and fails on regressions, so a change that tanks
//! throughput or blows the observability-overhead budget breaks CI instead of
//! silently rewriting the committed trajectory.
//!
//! Usage: `bench_diff <baseline-dir> <fresh-dir> [file-names...]`
//!
//! With no explicit file names, every `BENCH_*.json` present in *both* directories
//! is compared (a baseline with no fresh counterpart is reported but does not fail
//! the gate — not every CI job regenerates every artifact; a fresh artifact with no
//! baseline is a note to commit one).
//!
//! What gates (see [`obs::DiffThresholds`]):
//!
//! * `events` / `detections` — deterministic at a fixed scale; any change is a
//!   regression (regenerate the baseline intentionally instead);
//! * `events_per_sec` — may drop at most `BQ_DIFF_MAX_EPS_DROP_PCT` percent
//!   (default 60, sized for noisy shared CI runners; single-digit drifts pass);
//! * `extra.overhead_pct` — the fresh value must stay under
//!   `BQ_DIFF_MAX_OVERHEAD_PCT` (default 10: the <5% inertness contract plus CI
//!   noise headroom);
//! * `extra.wal_ns_per_event` — what logging adds to a pass, per event; fresh value
//!   under `BQ_DIFF_MAX_WAL_NS_PER_EVENT` (default 300; tiny-scale durability runs
//!   measure 110–150). Absolute, not the ratio `extra.durability_overhead_pct`,
//!   which moves with the speed of the matching it is divided by. The ceiling only
//!   applies when baseline and fresh carry the same `extra.sync_policy` — a cost
//!   measured under `always` prices a real fsync per record and is not comparable
//!   to a `never` baseline, so a policy mismatch downgrades this check to a note.
//!
//! Latency percentiles and memory high-water changes are reported as notes, never
//! failures (log-scale histograms and allocator behavior are too machine-dependent
//! to gate). Exits 0 when every pair passes, 1 on any regression, 2 on usage or
//! I/O errors.

use obs::report::diff_reports;
use obs::{DiffThresholds, Json};
use std::path::{Path, PathBuf};

/// Reads a threshold override from the environment, keeping the default on
/// absent/unparseable values (a garbled override failing open to the default is
/// better than a garbled override disabling the gate).
fn env_threshold(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("[bench_diff] ignoring unparseable {name}={value:?}, using {default}");
            default
        }),
        Err(_) => default,
    }
}

/// Loads and parses one artifact, mapping both failure modes to a message.
fn load(path: &Path) -> Result<Json, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    Json::parse(&body).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

/// The `BENCH_*.json` file names present in `dir`, sorted for deterministic output.
fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: unreadable: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: bench_diff <baseline-dir> <fresh-dir> [file-names...]");
        std::process::exit(2);
    }
    let baseline_dir = PathBuf::from(&args[0]);
    let fresh_dir = PathBuf::from(&args[1]);
    let thresholds = DiffThresholds {
        max_events_per_sec_drop_pct: env_threshold(
            "BQ_DIFF_MAX_EPS_DROP_PCT",
            DiffThresholds::default().max_events_per_sec_drop_pct,
        ),
        max_overhead_pct: env_threshold(
            "BQ_DIFF_MAX_OVERHEAD_PCT",
            DiffThresholds::default().max_overhead_pct,
        ),
        max_wal_ns_per_event: env_threshold(
            "BQ_DIFF_MAX_WAL_NS_PER_EVENT",
            DiffThresholds::default().max_wal_ns_per_event,
        ),
    };

    // Explicit names, or the intersection of BENCH_*.json files in both directories.
    let names: Vec<String> = if args.len() > 2 {
        args[2..].to_vec()
    } else {
        let baseline_names = match bench_files(&baseline_dir) {
            Ok(names) => names,
            Err(message) => {
                eprintln!("[bench_diff] {message}");
                std::process::exit(2);
            }
        };
        let fresh_names = match bench_files(&fresh_dir) {
            Ok(names) => names,
            Err(message) => {
                eprintln!("[bench_diff] {message}");
                std::process::exit(2);
            }
        };
        for name in &baseline_names {
            if !fresh_names.contains(name) {
                println!("{name}: baseline only (no fresh artifact) — skipped");
            }
        }
        for name in &fresh_names {
            if !baseline_names.contains(name) {
                println!("{name}: fresh only (no committed baseline) — consider committing one");
            }
        }
        baseline_names
            .into_iter()
            .filter(|name| fresh_names.contains(name))
            .collect()
    };
    if names.is_empty() {
        eprintln!(
            "[bench_diff] no artifacts to compare between {} and {}",
            baseline_dir.display(),
            fresh_dir.display()
        );
        std::process::exit(2);
    }

    let mut failed = false;
    for name in &names {
        let baseline = match load(&baseline_dir.join(name)) {
            Ok(doc) => doc,
            Err(message) => {
                eprintln!("[bench_diff] {message}");
                std::process::exit(2);
            }
        };
        let fresh = match load(&fresh_dir.join(name)) {
            Ok(doc) => doc,
            Err(message) => {
                eprintln!("[bench_diff] {message}");
                std::process::exit(2);
            }
        };
        let diff = diff_reports(&baseline, &fresh, &thresholds);
        for note in &diff.notes {
            println!("{name}: note: {note}");
        }
        if diff.is_ok() {
            println!("{name}: ok");
        } else {
            for regression in &diff.regressions {
                eprintln!("{name}: REGRESSION: {regression}");
            }
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
