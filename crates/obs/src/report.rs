//! The committed benchmark artifact: `BENCH_<bin>_<scale>.json`.
//!
//! Benchmark binaries render a [`BenchReport`] to a stable, versioned JSON schema
//! and write it next to the repo root. The files are committed, so every PR's diff
//! shows its performance delta — the ROADMAP's "persistent perf trajectory". CI
//! re-emits them at tiny scale and runs [`validate`] against the fresh output,
//! failing on missing or non-finite required fields (a `NaN` events/sec renders as
//! `null` and is caught here, not silently committed).
//!
//! ## Schema (`bench-report/v1`)
//!
//! ```json
//! {
//!   "schema": "bench-report/v1",
//!   "bin": "stream_throughput",          // emitting binary
//!   "scale": "tiny",                     // BQ_SCALE the run used
//!   "events": 12800,                     // events processed (primary config)
//!   "detections": 42,                    // detections emitted
//!   "elapsed_ns": 104857600,             // wall-clock of the measured section
//!   "events_per_sec": 122070.3,          // required finite
//!   "latency": {                         // sampled per-event latency percentiles, ns
//!     "unit": "ns",
//!     "p50": 1023, "p95": 4095, "p99": 8191, "mean": 1500.2, "max": 9000
//!   },
//!   "memory": {
//!     "high_water_bytes": 1048576,       // detector memory estimate high-water
//!     "retained_edges": 2048             // retained-edge high-water
//!   },
//!   "shards": [                          // per-shard breakdown (1 entry if unsharded)
//!     {"shard": 0, "events": 12800, "detections": 42, "queries": 8, "load": 512}
//!   ],
//!   "extra": { ... }                     // bin-specific, schema-free
//! }
//! ```

use crate::json::Json;
use crate::metrics::HistogramSnapshot;

/// The schema identifier embedded in (and required of) every report.
pub const BENCH_SCHEMA: &str = "bench-report/v1";

/// Latency percentile summary in nanoseconds, typically from a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a histogram of nanosecond observations.
    pub fn from_histogram(snapshot: &HistogramSnapshot) -> Self {
        Self {
            p50_ns: snapshot.p50(),
            p95_ns: snapshot.p95(),
            p99_ns: snapshot.p99(),
            mean_ns: snapshot.mean(),
            max_ns: snapshot.max,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str("ns".into())),
            ("p50".into(), Json::from_u64(self.p50_ns)),
            ("p95".into(), Json::from_u64(self.p95_ns)),
            ("p99".into(), Json::from_u64(self.p99_ns)),
            ("mean".into(), Json::Num(self.mean_ns)),
            ("max".into(), Json::from_u64(self.max_ns)),
        ])
    }
}

/// One shard's contribution to a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardStat {
    /// Shard index.
    pub shard: usize,
    /// Events the shard processed.
    pub events: u64,
    /// Detections the shard emitted.
    pub detections: u64,
    /// Queries placed on the shard.
    pub queries: usize,
    /// The placement cost model's estimated load.
    pub load: u64,
}

impl ShardStat {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shard".into(), Json::from_u64(self.shard as u64)),
            ("events".into(), Json::from_u64(self.events)),
            ("detections".into(), Json::from_u64(self.detections)),
            ("queries".into(), Json::from_u64(self.queries as u64)),
            ("load".into(), Json::from_u64(self.load)),
        ])
    }
}

/// One tenant-group's contribution to a multi-tenant run — the second sharding axis
/// (queries × tenant-groups). Reported under `extra` in bench reports, not in the
/// required `shards` field, so the `bench-report/v1` schema is unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantGroupStat {
    /// Tenant-group index.
    pub group: usize,
    /// Tenants currently materialised in the group.
    pub tenants: usize,
    /// Events the group's detectors processed.
    pub events: u64,
    /// Detections the group's detectors emitted.
    pub detections: u64,
}

impl TenantGroupStat {
    /// The stat as a JSON object (for `extra.tenant_sweep` style bench breakdowns).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("group".into(), Json::from_u64(self.group as u64)),
            ("tenants".into(), Json::from_u64(self.tenants as u64)),
            ("events".into(), Json::from_u64(self.events)),
            ("detections".into(), Json::from_u64(self.detections)),
        ])
    }
}

/// A benchmark run's machine-readable result. See the module docs for the schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Emitting binary name (`stream_throughput`, `e2e_accuracy`).
    pub bin: String,
    /// The `BQ_SCALE` the run used.
    pub scale: String,
    /// Events processed in the primary configuration.
    pub events: u64,
    /// Detections emitted in the primary configuration.
    pub detections: u64,
    /// Wall-clock nanoseconds of the measured section.
    pub elapsed_ns: u64,
    /// Throughput of the primary configuration.
    pub events_per_sec: f64,
    /// Sampled per-event latency summary.
    pub latency: LatencySummary,
    /// Detector memory-estimate high-water mark, bytes.
    pub memory_high_water_bytes: u64,
    /// Retained-edge high-water mark.
    pub retained_edges: u64,
    /// Per-shard breakdown (one entry for unsharded runs).
    pub shards: Vec<ShardStat>,
    /// Bin-specific extras, outside the validated schema.
    pub extra: Vec<(String, Json)>,
}

impl BenchReport {
    /// An empty report for `bin` at `scale`.
    pub fn new(bin: &str, scale: &str) -> Self {
        Self {
            bin: bin.to_string(),
            scale: scale.to_string(),
            ..Self::default()
        }
    }

    /// The canonical artifact file name: `BENCH_<bin>_<scale>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}_{}.json", self.bin, self.scale)
    }

    /// Renders the full schema-versioned document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(BENCH_SCHEMA.into())),
            ("bin".into(), Json::Str(self.bin.clone())),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("events".into(), Json::from_u64(self.events)),
            ("detections".into(), Json::from_u64(self.detections)),
            ("elapsed_ns".into(), Json::from_u64(self.elapsed_ns)),
            ("events_per_sec".into(), Json::Num(self.events_per_sec)),
            ("latency".into(), self.latency.to_json()),
            (
                "memory".into(),
                Json::Obj(vec![
                    (
                        "high_water_bytes".into(),
                        Json::from_u64(self.memory_high_water_bytes),
                    ),
                    ("retained_edges".into(), Json::from_u64(self.retained_edges)),
                ]),
            ),
            (
                "shards".into(),
                Json::Arr(self.shards.iter().map(ShardStat::to_json).collect()),
            ),
            ("extra".into(), Json::Obj(self.extra.clone())),
        ])
    }

    /// Renders the pretty-printed artifact body.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }
}

/// Validates a parsed document against the `bench-report/v1` schema. Returns every
/// problem found (empty means valid). Checks presence *and* finiteness of required
/// numeric fields — a non-finite value renders as `null` and fails here.
pub fn validate(doc: &Json) -> Vec<String> {
    fn require_str(problems: &mut Vec<String>, path: &str, value: Option<&Json>) {
        match value.map(Json::as_str) {
            Some(Some(_)) => {}
            Some(None) => problems.push(format!("{path}: not a string")),
            None => problems.push(format!("{path}: missing")),
        }
    }
    fn require_num(problems: &mut Vec<String>, path: &str, value: Option<&Json>) {
        match value {
            Some(v) => {
                if v.as_f64().is_none() {
                    problems.push(format!("{path}: not a finite number"));
                }
            }
            None => problems.push(format!("{path}: missing")),
        }
    }

    let mut problems = Vec::new();
    require_str(&mut problems, "schema", doc.get("schema"));
    require_str(&mut problems, "bin", doc.get("bin"));
    require_str(&mut problems, "scale", doc.get("scale"));
    if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
        if schema != BENCH_SCHEMA {
            problems.push(format!("schema: expected {BENCH_SCHEMA:?}, got {schema:?}"));
        }
    }

    require_num(&mut problems, "events", doc.get("events"));
    require_num(&mut problems, "detections", doc.get("detections"));
    require_num(&mut problems, "elapsed_ns", doc.get("elapsed_ns"));
    require_num(&mut problems, "events_per_sec", doc.get("events_per_sec"));
    for field in ["p50", "p95", "p99", "mean", "max"] {
        require_num(
            &mut problems,
            &format!("latency.{field}"),
            doc.get("latency").and_then(|l| l.get(field)),
        );
    }
    require_num(
        &mut problems,
        "memory.high_water_bytes",
        doc.get("memory").and_then(|m| m.get("high_water_bytes")),
    );
    require_num(
        &mut problems,
        "memory.retained_edges",
        doc.get("memory").and_then(|m| m.get("retained_edges")),
    );

    // Percentiles must be monotonic; a degenerate or shuffled latency block is a
    // harness bug, not a property of the workload.
    let quantile = |field: &str| {
        doc.get("latency")
            .and_then(|l| l.get(field))
            .and_then(Json::as_f64)
    };
    if let (Some(p50), Some(p95), Some(p99), Some(max)) = (
        quantile("p50"),
        quantile("p95"),
        quantile("p99"),
        quantile("max"),
    ) {
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            problems.push(format!(
                "latency: percentiles not monotonic (require p50 <= p95 <= p99 <= max, \
                 got {p50} / {p95} / {p99} / {max})"
            ));
        }
    }

    // Overhead ratios are optional extras, but when present they must be finite
    // and non-negative — NaN renders as null and a negative overhead means the
    // measurement harness is broken.
    for field in [
        "overhead_pct",
        "durability_overhead_pct",
        "wal_ns_per_event",
        "profiling_overhead_pct",
    ] {
        if let Some(value) = doc.get("extra").and_then(|e| e.get(field)) {
            match value.as_f64() {
                Some(pct) if pct >= 0.0 => {}
                Some(pct) => problems.push(format!("extra.{field}: negative ({pct})")),
                None => problems.push(format!(
                    "extra.{field}: not a finite number (NaN renders as null)"
                )),
            }
        }
    }

    // The fsync policy a durability run was measured under (`BQ_SYNC`). Optional;
    // when present it must be one of the stable `SyncPolicy::name` values, since
    // `diff_reports` keys its durability-ceiling logic on it.
    if let Some(value) = doc.get("extra").and_then(|e| e.get("sync_policy")) {
        match value.as_str() {
            Some("never" | "every_n" | "always") => {}
            Some(other) => problems.push(format!(
                "extra.sync_policy: unknown policy {other:?} (never | every_n | always)"
            )),
            None => problems.push("extra.sync_policy: not a string".into()),
        }
    }

    match doc.get("shards").map(Json::as_arr) {
        Some(Some(shards)) => {
            if shards.is_empty() {
                problems.push("shards: empty (at least one entry required)".into());
            }
            for (i, shard) in shards.iter().enumerate() {
                for field in ["shard", "events", "detections", "queries", "load"] {
                    require_num(
                        &mut problems,
                        &format!("shards[{i}].{field}"),
                        shard.get(field),
                    );
                }
            }
        }
        Some(None) => problems.push("shards: not an array".into()),
        None => problems.push("shards: missing".into()),
    }
    problems
}

/// Regression thresholds for [`diff_reports`]. The defaults are deliberately loose:
/// tiny-scale runs on shared CI hardware are noisy, and the gate exists to catch
/// "this PR made it 3× slower", not 5% jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffThresholds {
    /// Maximum tolerated `events_per_sec` drop versus baseline, percent.
    pub max_events_per_sec_drop_pct: f64,
    /// Ceiling on the fresh run's `extra.overhead_pct` (the <5% instrumentation
    /// contract plus CI noise headroom).
    pub max_overhead_pct: f64,
    /// Ceiling on the fresh run's `extra.wal_ns_per_event` — what logging adds to a
    /// pass, per event. Absolute on purpose: the ratio `extra.durability_overhead_pct`
    /// moves whenever the matching it is divided by gets faster or slower, the log's
    /// own cost does not (see the durability bench).
    pub max_wal_ns_per_event: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        Self {
            max_events_per_sec_drop_pct: 60.0,
            max_overhead_pct: 10.0,
            max_wal_ns_per_event: 300.0,
        }
    }
}

/// The outcome of comparing a fresh report against its committed baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportDiff {
    /// Threshold violations and behavior changes — any entry should fail the gate.
    pub regressions: Vec<String>,
    /// Informational field-by-field deltas (always populated for context).
    pub notes: Vec<String>,
}

impl ReportDiff {
    /// Whether the fresh report passes the gate.
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares a fresh `bench-report/v1` document against a committed baseline
/// field-by-field. Throughput may drop up to the threshold (CI noise); the overhead
/// extras are gated absolutely on the fresh run; `events`/`detections` must match
/// exactly — the harness is seeded and the engine deterministic, so a count change
/// is a behavior change, and an intentional one must regenerate the baseline.
pub fn diff_reports(baseline: &Json, fresh: &Json, thresholds: &DiffThresholds) -> ReportDiff {
    let mut diff = ReportDiff::default();
    let num = |doc: &Json, path: &[&str]| -> Option<f64> {
        let mut node = doc;
        for key in path {
            node = node.get(key)?;
        }
        node.as_f64()
    };

    for (name, path) in [
        ("events", &["events"] as &[&str]),
        ("detections", &["detections"]),
    ] {
        if let (Some(base), Some(new)) = (num(baseline, path), num(fresh, path)) {
            if base != new {
                diff.regressions.push(format!(
                    "{name}: baseline {base}, fresh {new} — deterministic count changed \
                     (regenerate the baseline if intentional)"
                ));
            }
        }
    }

    if let (Some(base), Some(new)) = (
        num(baseline, &["events_per_sec"]),
        num(fresh, &["events_per_sec"]),
    ) {
        if base > 0.0 {
            let drop_pct = (1.0 - new / base) * 100.0;
            diff.notes.push(format!(
                "events_per_sec: baseline {base:.0}, fresh {new:.0} ({:+.1}%)",
                -drop_pct
            ));
            if drop_pct > thresholds.max_events_per_sec_drop_pct {
                diff.regressions.push(format!(
                    "events_per_sec: dropped {drop_pct:.1}% (baseline {base:.0} → fresh \
                     {new:.0}), threshold {:.1}%",
                    thresholds.max_events_per_sec_drop_pct
                ));
            }
        }
    }

    // The log's cost is only comparable within one fsync policy: `always` prices a
    // real fsync per record and can legitimately sit far above the `never`
    // ceiling. A policy mismatch downgrades that one ceiling to a note.
    fn sync_policy(doc: &Json) -> &str {
        doc.get("extra")
            .and_then(|e| e.get("sync_policy"))
            .and_then(Json::as_str)
            .unwrap_or("never")
    }
    let policy_mismatch = sync_policy(baseline) != sync_policy(fresh);

    for (field, ceiling) in [
        ("overhead_pct", thresholds.max_overhead_pct),
        ("wal_ns_per_event", thresholds.max_wal_ns_per_event),
    ] {
        if let Some(new) = num(fresh, &["extra", field]) {
            if let Some(base) = num(baseline, &["extra", field]) {
                diff.notes
                    .push(format!("extra.{field}: baseline {base:.2}, fresh {new:.2}"));
            }
            if field == "wal_ns_per_event" && policy_mismatch {
                diff.notes.push(format!(
                    "extra.{field}: ceiling skipped — sync policy differs (baseline \
                     {}, fresh {})",
                    sync_policy(baseline),
                    sync_policy(fresh)
                ));
                continue;
            }
            if new > ceiling {
                diff.regressions.push(format!(
                    "extra.{field}: fresh {new:.2} exceeds ceiling {ceiling:.2}"
                ));
            }
        }
    }

    for (name, path) in [
        ("latency.p50", &["latency", "p50"] as &[&str]),
        ("latency.p99", &["latency", "p99"]),
        (
            "extra.durability_overhead_pct",
            &["extra", "durability_overhead_pct"],
        ),
        (
            "memory.high_water_bytes",
            &["memory", "high_water_bytes"] as &[&str],
        ),
    ] {
        if let (Some(base), Some(new)) = (num(baseline, path), num(fresh, path)) {
            if base != new {
                diff.notes
                    .push(format!("{name}: baseline {base}, fresh {new}"));
            }
        }
    }

    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            events: 12800,
            detections: 42,
            elapsed_ns: 104_857_600,
            events_per_sec: 122_070.3,
            latency: LatencySummary {
                p50_ns: 1023,
                p95_ns: 4095,
                p99_ns: 8191,
                mean_ns: 1500.2,
                max_ns: 9000,
            },
            memory_high_water_bytes: 1 << 20,
            retained_edges: 2048,
            shards: vec![ShardStat {
                shard: 0,
                events: 12800,
                detections: 42,
                queries: 8,
                load: 512,
            }],
            extra: vec![("note".into(), Json::Str("primary config".into()))],
            ..BenchReport::new("stream_throughput", "tiny")
        }
    }

    #[test]
    fn a_complete_report_validates_and_round_trips() {
        let report = sample();
        assert_eq!(report.file_name(), "BENCH_stream_throughput_tiny.json");
        let rendered = report.render();
        let parsed = Json::parse(&rendered).expect("artifact parses");
        assert_eq!(validate(&parsed), Vec::<String>::new());
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(BENCH_SCHEMA)
        );
    }

    #[test]
    fn validation_catches_missing_and_non_finite_fields() {
        let mut report = sample();
        report.events_per_sec = f64::NAN; // renders as null
        let parsed = Json::parse(&report.render()).unwrap();
        let problems = validate(&parsed);
        assert!(
            problems.iter().any(|p| p.contains("events_per_sec")),
            "NaN throughput must fail validation, got {problems:?}"
        );

        let empty = Json::parse("{}").unwrap();
        let problems = validate(&empty);
        assert!(problems.iter().any(|p| p.starts_with("schema")));
        assert!(problems.iter().any(|p| p.starts_with("latency.p99")));
        assert!(problems.iter().any(|p| p.starts_with("shards")));
    }

    #[test]
    fn validation_rejects_wrong_schema_version_and_empty_shards() {
        let mut report = sample();
        report.shards.clear();
        let mut parsed = Json::parse(&report.render()).unwrap();
        if let Json::Obj(fields) = &mut parsed {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::Str("bench-report/v0".into());
                }
            }
        }
        let problems = validate(&parsed);
        assert!(problems.iter().any(|p| p.contains("expected")));
        assert!(problems.iter().any(|p| p.contains("shards: empty")));
    }

    #[test]
    fn validation_rejects_non_monotonic_percentiles() {
        let mut report = sample();
        report.latency.p50_ns = 9000;
        report.latency.p95_ns = 100; // shuffled: p50 > p95
        let problems = validate(&Json::parse(&report.render()).unwrap());
        assert!(
            problems.iter().any(|p| p.contains("not monotonic")),
            "shuffled percentiles must fail, got {problems:?}"
        );
        // Degenerate-but-monotonic (all equal) still validates: one real sample is
        // legal; the stream_throughput harness just should not produce it.
        let mut flat = sample();
        flat.latency = LatencySummary {
            p50_ns: 7,
            p95_ns: 7,
            p99_ns: 7,
            mean_ns: 7.0,
            max_ns: 7,
        };
        assert_eq!(
            validate(&Json::parse(&flat.render()).unwrap()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn validation_rejects_negative_and_nan_overhead_fields() {
        let mut report = sample();
        report.extra.push(("overhead_pct".into(), Json::Num(-3.0)));
        report
            .extra
            .push(("durability_overhead_pct".into(), Json::Num(f64::NAN)));
        let problems = validate(&Json::parse(&report.render()).unwrap());
        assert!(problems
            .iter()
            .any(|p| p.contains("overhead_pct: negative")));
        assert!(problems
            .iter()
            .any(|p| p.contains("durability_overhead_pct: not a finite number")));

        // Absent overhead extras are fine — they are optional.
        assert_eq!(
            validate(&Json::parse(&sample().render()).unwrap()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn diff_passes_identical_reports_and_notes_deltas() {
        let doc = Json::parse(&sample().render()).unwrap();
        let diff = diff_reports(&doc, &doc, &DiffThresholds::default());
        assert!(
            diff.is_ok(),
            "identical reports regress: {:?}",
            diff.regressions
        );
        assert!(
            diff.notes.iter().any(|n| n.contains("events_per_sec")),
            "throughput delta is always noted"
        );
    }

    #[test]
    fn diff_gates_throughput_drops_beyond_threshold() {
        let baseline = Json::parse(&sample().render()).unwrap();
        let mut slow = sample();
        slow.events_per_sec /= 10.0;
        let fresh = Json::parse(&slow.render()).unwrap();
        let thresholds = DiffThresholds::default();
        let diff = diff_reports(&baseline, &fresh, &thresholds);
        assert!(diff
            .regressions
            .iter()
            .any(|r| r.contains("events_per_sec: dropped 90.0%")));
        // A drop within the threshold passes.
        let mut ok = sample();
        ok.events_per_sec *= 0.5;
        let diff = diff_reports(&baseline, &Json::parse(&ok.render()).unwrap(), &thresholds);
        assert!(
            diff.is_ok(),
            "50% drop under a 60% threshold: {:?}",
            diff.regressions
        );
    }

    #[test]
    fn diff_gates_overhead_ceilings_and_count_changes() {
        let baseline = Json::parse(&sample().render()).unwrap();
        let mut fresh = sample();
        fresh.detections += 1;
        fresh.extra.push(("overhead_pct".into(), Json::Num(25.0)));
        fresh
            .extra
            .push(("wal_ns_per_event".into(), Json::Num(150.0)));
        let diff = diff_reports(
            &baseline,
            &Json::parse(&fresh.render()).unwrap(),
            &DiffThresholds::default(),
        );
        assert!(diff
            .regressions
            .iter()
            .any(|r| r.contains("detections") && r.contains("count changed")));
        assert!(diff
            .regressions
            .iter()
            .any(|r| r.contains("overhead_pct: fresh 25.00 exceeds ceiling 10.00")));
        assert!(
            !diff.regressions.iter().any(|r| r.contains("wal_ns")),
            "150 ns of logging per event is under its 300 ns ceiling: {:?}",
            diff.regressions
        );
    }

    #[test]
    fn validation_checks_sync_policy_names() {
        let mut report = sample();
        report
            .extra
            .push(("sync_policy".into(), Json::Str("every_n".into())));
        assert_eq!(
            validate(&Json::parse(&report.render()).unwrap()),
            Vec::<String>::new()
        );
        let mut report = sample();
        report
            .extra
            .push(("sync_policy".into(), Json::Str("fsync-maybe".into())));
        let problems = validate(&Json::parse(&report.render()).unwrap());
        assert!(problems
            .iter()
            .any(|p| p.contains("sync_policy: unknown policy")));
    }

    #[test]
    fn diff_skips_the_durability_ceiling_across_sync_policies() {
        // Baseline measured under `never`, fresh under `always`: the fresh 5 µs per
        // event is real fsync pricing, not a regression — the ceiling is
        // downgraded to a note. The same value under a matching policy gates.
        let mut base = sample();
        base.extra
            .push(("wal_ns_per_event".into(), Json::Num(120.0)));
        let baseline = Json::parse(&base.render()).unwrap();
        let mut fresh = sample();
        fresh
            .extra
            .push(("wal_ns_per_event".into(), Json::Num(5000.0)));
        fresh
            .extra
            .push(("sync_policy".into(), Json::Str("always".into())));
        let fresh = Json::parse(&fresh.render()).unwrap();
        let diff = diff_reports(&baseline, &fresh, &DiffThresholds::default());
        assert!(
            diff.is_ok(),
            "policy mismatch must not gate the log's cost: {:?}",
            diff.regressions
        );
        assert!(diff
            .notes
            .iter()
            .any(|n| n.contains("ceiling skipped") && n.contains("sync policy differs")));

        let diff = diff_reports(&fresh, &fresh, &DiffThresholds::default());
        assert!(
            diff.regressions
                .iter()
                .any(|r| r.contains("wal_ns_per_event: fresh 5000.00 exceeds")),
            "matching policies keep the ceiling: {:?}",
            diff.regressions
        );
    }

    #[test]
    fn latency_summary_comes_from_a_histogram() {
        let histogram = crate::metrics::Histogram::new();
        for v in [100u64, 200, 400, 800] {
            histogram.record(v);
        }
        let summary = LatencySummary::from_histogram(&histogram.snapshot());
        assert_eq!(summary.max_ns, 800);
        assert!(summary.p50_ns >= 200);
        assert!((summary.mean_ns - 375.0).abs() < 1e-9);
    }
}
