//! The six workloads and the metric tables. `BENCHMARK.json` repeats the names; a
//! unit test holds the two together.

use durable::{SyncPolicy, WalConfig};
use obs::Json;
use query::QueryOptions;
use syscall::Behavior;

/// Which phase of a run receives what is left of `--seconds` once every other
/// phase has made its minimum number of passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    Mining,
    Throughput,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `ShardedDetector::with_stats(1, ..)` over the single-tenant stream.
    OneShard,
    /// `TenantPool::with_stats(1, 1, ..)` over eight interleaved tenants.
    TenantPool,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Behavior classes whose queries are mined, then deployed.
    pub classes: &'static [Behavior],
    /// How many of them, from the front, are formulated again in every further
    /// mining repetition.
    pub repeated: usize,
    pub options: QueryOptions,
    /// Queries registered, cycled from the mined pool (temporal, keyword and
    /// non-temporal query of each class).
    pub queries: usize,
    pub shape: Shape,
    /// Whether throughput and latency passes run with the log attached.
    pub logged: bool,
    /// Flush policy of every logged pass of the workload.
    pub sync: SyncPolicy,
    pub primary: Primary,
}

impl Workload {
    pub fn wal_config(&self) -> WalConfig {
        WalConfig {
            sync: self.sync,
            ..WalConfig::default()
        }
    }
}

/// `Behavior::all()[..9]`: the small and medium behaviors.
const DEEP_CLASSES: [Behavior; 9] = [
    Behavior::Bzip2Decompress,
    Behavior::GzipDecompress,
    Behavior::WgetDownload,
    Behavior::FtpDownload,
    Behavior::ScpDownload,
    Behavior::GccCompile,
    Behavior::GppCompile,
    Behavior::FtpdLogin,
    Behavior::SshLogin,
];

/// `Behavior::all()[9..]`: the three large behaviors.
const WIDE_CLASSES: [Behavior; 3] = [
    Behavior::SshdLogin,
    Behavior::AptGetUpdate,
    Behavior::AptGetInstall,
];

/// The query pool of the stream workloads, as `stream_throughput` mines it.
const POOL_CLASSES: [Behavior; 3] = [
    Behavior::GzipDecompress,
    Behavior::Bzip2Decompress,
    Behavior::ScpDownload,
];

const POOL_OPTIONS: QueryOptions = QueryOptions {
    query_size: 4,
    top_queries: 2,
    miner_top_k: 8,
    cap_per_graph: 32,
};

/// The paper's defaults (`QueryOptions::default()`) at another query size.
const fn paper_options(query_size: usize) -> QueryOptions {
    QueryOptions {
        query_size,
        top_queries: 5,
        miner_top_k: 24,
        cap_per_graph: 64,
    }
}

pub fn all() -> Vec<Workload> {
    let stream = |name, why, queries, shape, logged, sync| Workload {
        name,
        why,
        classes: &POOL_CLASSES,
        repeated: POOL_CLASSES.len(),
        options: POOL_OPTIONS,
        queries,
        shape,
        logged,
        sync,
        primary: Primary::Throughput,
    };
    vec![
        Workload {
            name: "mine-deep",
            why: "nine small/medium behaviors at the paper's query size 6: six growth levels, \
                  pruning tests per candidate, and the Ntemp/ranking share of formulation",
            classes: &DEEP_CLASSES,
            repeated: DEEP_CLASSES.len(),
            options: paper_options(6),
            queries: 9,
            shape: Shape::OneShard,
            logged: false,
            sync: SyncPolicy::Never,
            primary: Primary::Mining,
        },
        Workload {
            name: "mine-wide",
            why: "the three large behaviors at query size 3: few levels, huge embedding lists, \
                  the terminal level dominates - the regime behind the Table 2 blow-up",
            classes: &WIDE_CLASSES,
            // `apt-get-install` is 9.4 s in one call: measured once.
            repeated: 2,
            options: paper_options(3),
            queries: 9,
            shape: Shape::OneShard,
            logged: false,
            sync: SyncPolicy::Never,
            primary: Primary::Mining,
        },
        stream(
            "match",
            "one shard, no log, 32 registered queries: matcher advance, static resolve and \
             dispatch are most of a pass, ingest the rest",
            32,
            Shape::OneShard,
            false,
            SyncPolicy::Never,
        ),
        stream(
            "ingest",
            "same stream and engine with one selective query: validate, append, retention and \
             seed dispatch are all of the time, so matcher changes must not show here",
            1,
            Shape::OneShard,
            false,
            SyncPolicy::Never,
        ),
        stream(
            "durable",
            "one shard, 8 queries, every pass logged with an fsync every 8 records: the only \
             workload whose throughput and latency include the write-ahead log",
            8,
            Shape::OneShard,
            true,
            SyncPolicy::EveryNRecords(8),
        ),
        stream(
            "pool",
            "a one-group tenant pool over eight interleaved tenants, 8 queries: demux, eight \
             per-tenant graphs and the merge do the work; tenant-batch log records are priced",
            8,
            Shape::TenantPool,
            false,
            SyncPolicy::Never,
        ),
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// An end-to-end metric: name, unit, whether higher is better, and the share of the
/// parent's median by which it may worsen before a change is a regression.
///
/// Each bound is three times the widest interquartile spread a block of ten runs on
/// ten seeds has shown on any workload (the driver wants the spread within a third
/// of the bound), and at least the issue's value, and at most the 25 % the contract
/// admits — which every timing takes: quiet blocks spread 1-10 %, a block inside one
/// of the sandbox's noisy windows 19-25 %, and a bound below a spread that was seen
/// fails the driver's own acceptance check when it recurs (README, "Bounds").
pub const END_TO_END: [(&str, &str, bool, f64); 9] = [
    ("setup_s", "s", false, 0.25),
    ("mine_s", "s", false, 0.25),
    ("precision", "fraction", true, 0.005),
    ("recall", "fraction", true, 0.03),
    ("events_per_s", "events/s", true, 0.25),
    ("detect_lag_p50_us", "us", false, 0.25),
    ("recover_s", "s", false, 0.25),
    ("wal_bytes_per_event", "bytes", false, 0.001),
    ("peak_rss_mb", "MB", false, 0.15),
];

/// Seconds one run measures (`run_seconds`); the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`, from the tables of this harness. The file at
/// the repository root is this function's output; a unit test holds them equal.
pub fn describe() -> String {
    let better = |higher: bool| Json::Str(if higher { "higher" } else { "lower" }.to_string());
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::Obj(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strings(&["benchmark"])),
        ("run_seconds".into(), Json::from_u64(RUN_SECONDS)),
        (
            "workloads".into(),
            Json::Arr(
                all()
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, higher, bound)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.into())),
                            ("unit".into(), Json::Str(unit.into())),
                            ("better".into(), better(higher)),
                            ("bound".into(), Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                crate::layers::names()
                    .into_iter()
                    .map(|(name, unit, higher)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name)),
                            ("unit".into(), Json::Str(unit.into())),
                            ("better".into(), better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lists_follow_table_one_order() {
        assert_eq!(DEEP_CLASSES[..], Behavior::all()[..9]);
        assert_eq!(WIDE_CLASSES[..], Behavior::all()[9..]);
        let defaults = QueryOptions::default();
        let paper = paper_options(defaults.query_size);
        assert_eq!(
            (paper.top_queries, paper.miner_top_k, paper.cap_per_graph),
            (
                defaults.top_queries,
                defaults.miner_top_k,
                defaults.cap_per_graph
            )
        );
    }

    #[test]
    fn six_workloads_with_one_line_reasons() {
        let all = all();
        assert_eq!(all.len(), 6);
        for workload in &all {
            assert!(workload.why.len() <= 200, "{}", workload.name);
            assert!(!workload.why.contains('\n'));
            assert!(find(workload.name).is_some());
        }
    }
}
