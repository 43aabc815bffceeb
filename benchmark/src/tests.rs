//! Harness tests that need a whole run: the smoke size drives all six workloads and
//! every output check; the contract file is held against the harness's tables.

use super::*;
use crate::phases::{fingerprint, generate_inputs};
use crate::workloads::END_TO_END;

/// A directory of this test's own under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("benchmark-test-{}-{name}", std::process::id()))
}

fn smoke_args(workload: &str, trace: bool, out: &std::path::Path) -> Args {
    let mut raw: Vec<String> = ["--workload", workload, "--smoke", "--out"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    raw.push(out.display().to_string());
    raw.extend(["--trace".to_string(), u8::from(trace).to_string()]);
    parse_args(&raw).expect("valid arguments")
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_name_fits_the_contract_and_is_used_once() {
    let mut names: Vec<String> = workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    names.extend(END_TO_END.iter().map(|(name, ..)| name.to_string()));
    names.extend(layers::names().into_iter().map(|(name, ..)| name));
    for name in &names {
        assert!(well_formed(name), "{name:?}");
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    for (_, unit, _) in layers::names() {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|&(name, unit, higher, _)| (name, unit, higher) == ("setup_s", "s", false)));
    let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(END_TO_END[0].3, largest, "setup_s takes the largest bound");
    assert!(layers::names().len() <= 128);
}

#[test]
fn benchmark_json_is_what_the_harness_describes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        workloads::describe(),
        "regenerate with `benchmark --describe`"
    );
    assert!(file.len() <= 64 * 1024);
    let parsed = Json::parse(&file).expect("valid JSON");
    assert_eq!(parsed.get("run_seconds").and_then(Json::as_u64), Some(10));
}

#[test]
fn the_fingerprint_is_stable_for_a_seed_and_moves_with_it() {
    let dir = test_dir("fingerprint");
    let mut h = Harness::new(dir.join("scratch"), false).unwrap();
    let sizes = Sizes::smoke();
    let mut print = |seed| fingerprint(&generate_inputs(&mut h, &sizes, seed, sizes.instances));
    let first = print(7);
    assert_eq!(first, print(7));
    // `--seed` moves the stream and leaves the training corpus alone.
    let other_stream = print(8);
    assert_eq!(first.training_hash, other_stream.training_hash);
    assert_ne!(first.stream_hash, other_stream.stream_hash);
    assert!(first.stream_events > 0 && first.training_edges > 0);
    drop(h);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn smoke_drives_all_six_workloads_and_every_output_check() {
    let dir = test_dir("smoke");
    for workload in workloads::all() {
        let (outcome, harness) = run_workload(&smoke_args(workload.name, false, &dir)).unwrap();
        assert_eq!(
            harness.failed, 0,
            "{}: {:?}",
            workload.name, harness.failures
        );
        assert!(harness.attempted > 20, "{}", workload.name);
        let names: Vec<&str> = outcome.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", workload.name);
        for metric in &outcome.end_to_end {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} {} = {}",
                workload.name,
                metric.name,
                metric.value
            );
        }
        assert!(outcome.per_layer.is_empty());
        drop(harness);
    }
    // Scratch hygiene: every log directory lived under a run directory that is gone.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_traced_smoke_run_reports_every_per_layer_metric_and_accounts_for_the_pass() {
    let dir = test_dir("traced");
    for workload in ["durable", "pool"] {
        let (outcome, harness) = run_workload(&smoke_args(workload, true, &dir)).unwrap();
        assert_eq!(harness.failed, 0, "{workload}: {:?}", harness.failures);
        let names: Vec<String> = outcome.per_layer.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<String> = layers::names().into_iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        for metric in &outcome.per_layer {
            assert!(
                metric.value.is_finite(),
                "{workload} {} has no value",
                metric.name
            );
        }
        // The spans of a pass account for it: what `on_batch`, `flush` and the
        // snapshot do not cover is loop overhead of this harness.
        let totals = harness.tracer.totals();
        let (_, pass_total, pass_self) = totals["pass"];
        assert!(
            pass_self * 20 <= pass_total,
            "{pass_self} of {pass_total} ns uncovered"
        );
        for name in [
            "TrainingData::generate",
            "formulate_queries",
            "tgminer::mine",
            "on_batch",
            "Wal::create",
            "Wal::attach",
            "Wal::snapshot",
            "recover",
            "read_logged_events",
        ] {
            assert!(totals.contains_key(name), "{workload}: no {name} span");
        }
        let every = harness.tracer.spans();
        assert!(every.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(every.iter().any(|s| s.parent.is_some()));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_scratch_directory_goes_with_the_harness_even_when_a_check_failed() {
    let dir = test_dir("hygiene");
    let scratch = dir.join("run");
    let mut h = Harness::new(scratch.clone(), false).unwrap();
    let log = h.fresh_dir();
    assert_ne!(log, h.fresh_dir(), "log directories are never reused");
    std::fs::create_dir_all(&log).unwrap();
    std::fs::write(log.join("wal-000000.log"), b"x").unwrap();
    h.op(false, || "a failed check".to_string());
    assert_eq!((h.attempted, h.failed), (1, 1));
    drop(h);
    assert!(!scratch.exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn arguments_are_checked_where_they_enter() {
    let parse = |line: &str| parse_args(&line.split(' ').map(String::from).collect::<Vec<_>>());
    let args = parse("--workload match --seed 9 --seconds 3 --trace 1").unwrap();
    assert_eq!(
        (args.workload.name, args.seed, args.seconds, args.trace),
        ("match", 9, 3.0, true)
    );
    assert_eq!(parse("--workload pool").unwrap().seed, PINNED_SEED);
    assert!(parse("--seed 9").is_err(), "the workload is required");
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload match --trace 2").is_err());
    assert!(parse("--workload match --seconds -1").is_err());
    assert!(parse("--workload match --calibrate 1").is_err());
    let line = result_line(true, 3, 0, &[Metric::new("setup_s", "s", 0.25)]);
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
    );
}
