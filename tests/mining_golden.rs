//! Golden pins of both miners behind `query::formulate_queries`, in two files.
//!
//! For every class of the checked-in fixture corpus (`tests/fixtures/training.corpus`)
//! and of `DatasetConfig::tiny()` at query sizes 1..=4, `tgminer::mine` and
//! `mine_nontemporal` run configured as `formulate_queries` configures them, and each
//! run is pinned twice:
//!
//! * `tests/golden/mining_answers.txt` — **what is returned**: the top patterns in
//!   order (pattern, score, frequencies), as a count, the best score and an FNV-1a
//!   digest of their exact rendering. The file is a column projection of the pin
//!   captured from the materialising miners, before the size cap became a counting
//!   level and before ties were pruned: any evaluation shortcut or work-only
//!   optimisation must reproduce it line for line, unmodified.
//! * `tests/golden/mining_work.txt` — **what it cost**: every work and prune counter
//!   and the per-level candidate/pruned rows. Stored-embedding counts are pinned for
//!   the interior levels only; at the cap (from size 2 up) nothing is stored, which
//!   the test asserts instead. It also holds a handful of `frontier_budget` runs
//!   whole, answer included — where a tripped budget stops, and what it has found by
//!   then, is a function of the work, including trips in the middle of the size-cap
//!   level.
//!
//! Neither file reaches the sizes the benchmark measures at, so `Ntemp` is pinned there
//! by constants in this file: `ntemp_at_benchmark_sizes` (`#[ignore]`d, release only:
//! `cargo test --release --test mining_golden -- --ignored ntemp_at_benchmark_sizes`).
//!
//! To regenerate the work file after an optimisation that moves counters:
//! `cargo test --test mining_golden -- --ignored regenerate_mining_pin`. The answers
//! file changes only with an *intentional* change of search order or admission policy:
//! `cargo test --test mining_golden -- --ignored regenerate_mining_answers`.

use behavior_query::syscall::{Behavior, DatasetConfig, TrainingData};
use behavior_query::tgminer::baselines::gspan::mine_nontemporal;
use behavior_query::tgminer::score::LogRatio;
use behavior_query::tgminer::{mine, MinerConfig, MiningResult};
use behavior_query::tgraph::{GraphBuilder, Label, TemporalGraph};
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

/// `QueryOptions::default()`'s `miner_top_k` and `cap_per_graph`.
const TOP_K: usize = 24;
const CAP_PER_GRAPH: usize = 64;
const SIZES: std::ops::RangeInclusive<usize> = 1..=4;
/// Budgets for the tripped runs: from "a few leaves into the first branch" to
/// "deep inside the search" — at size 3 most candidates sit at the cap, so these
/// land inside a terminal level.
const BUDGETS: [usize; 4] = [5, 50, 500, 5_000];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line of a pattern list's digest input: the exact pattern and the bits of its
/// score and frequencies.
fn render_pattern(out: &mut String, pattern: &dyn Debug, score: f64, pos_freq: f64, neg_freq: f64) {
    writeln!(
        out,
        "{pattern:?}|{:016x}|{:016x}|{:016x}",
        score.to_bits(),
        pos_freq.to_bits(),
        neg_freq.to_bits()
    )
    .unwrap();
}

/// One mining task: a named class, its positive graphs and the shared negatives.
struct Task {
    name: String,
    positives: Vec<TemporalGraph>,
}

/// The fixture corpus's traces as graphs: node ids remapped densely in
/// first-appearance order, as the discovery pipeline ingests them.
fn fixture_tasks() -> (Vec<Task>, Vec<TemporalGraph>) {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/training.corpus"),
    )
    .expect("the fixture corpus is checked in");
    let mut traces: Vec<(String, GraphBuilder, HashMap<usize, usize>)> = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("trace ") {
            traces.push((name.trim().to_string(), GraphBuilder::new(), HashMap::new()));
            continue;
        }
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(|f| f.parse().expect("fixture fields are integers"))
            .collect();
        let (_, builder, ids) = traces.last_mut().expect("events belong to a trace");
        let mut node = |id: u64, label: u64| {
            *ids.entry(id as usize)
                .or_insert_with(|| builder.add_node(Label(label as u32)))
        };
        let (src, dst) = (node(fields[1], fields[3]), node(fields[2], fields[4]));
        builder
            .add_edge(src, dst, fields[0])
            .expect("fixture traces are valid");
    }
    let mut tasks: Vec<Task> = Vec::new();
    let mut negatives = Vec::new();
    for (name, builder, _) in traces {
        let graph = builder.build();
        if name == "background" {
            negatives.push(graph);
        } else if let Some(task) = tasks.iter_mut().find(|t| t.name == name) {
            task.positives.push(graph);
        } else {
            tasks.push(Task {
                name,
                positives: vec![graph],
            });
        }
    }
    (tasks, negatives)
}

fn tiny_tasks() -> (Vec<Task>, Vec<TemporalGraph>) {
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let tasks = Behavior::all()
        .iter()
        .map(|&behavior| Task {
            name: behavior.name().to_string(),
            positives: training.positives(behavior).to_vec(),
        })
        .collect();
    (tasks, training.negatives().to_vec())
}

fn config(size: usize, frontier_budget: usize) -> MinerConfig {
    MinerConfig {
        max_edges: size,
        top_k: TOP_K,
        cap_per_graph: CAP_PER_GRAPH,
        frontier_budget,
        ..MinerConfig::default()
    }
}

/// Text for the two golden files: one run's line of each, or each file whole.
struct Pins {
    answers: String,
    work: String,
}

/// What a run returned: pattern count, best score (TGMiner only) and the digest of
/// the rendered pattern list.
fn answer(patterns: usize, best: Option<f64>, rendered: &str) -> String {
    let best = best.map_or(String::new(), |b| format!(" best={b:?}"));
    format!("patterns={patterns}{best} fnv={:016x}", fnv1a(rendered))
}

/// The pinned lines of one TGMiner run. `size` is the cap: embeddings of levels
/// below it are pinned, the cap level's are asserted by the caller.
fn tgminer_pin(result: &MiningResult, size: usize) -> Pins {
    let stats = &result.stats;
    let mut rendered = String::new();
    for p in &result.patterns {
        render_pattern(&mut rendered, &p.pattern, p.score, p.pos_freq, p.neg_freq);
    }
    let levels: Vec<String> = stats
        .levels
        .iter()
        .map(|l| {
            if l.level < size {
                format!("{}:{}/{}/{}", l.level, l.candidates, l.pruned, l.embeddings)
            } else {
                format!("{}:{}/{}/-", l.level, l.candidates, l.pruned)
            }
        })
        .collect();
    Pins {
        answers: answer(result.patterns.len(), Some(result.best_score()), &rendered),
        work: format!(
            "processed={} expanded={} extensions={} ub={} sub={} super={} subgraph_tests={} \
             residual_tests={} exhausted={} levels={}",
            stats.patterns_processed,
            stats.patterns_expanded,
            stats.extensions_evaluated,
            stats.upper_bound_prunes,
            stats.subgraph_prunes,
            stats.supergraph_prunes,
            stats.subgraph_tests,
            stats.residual_equiv_tests,
            stats.budget_exhausted,
            levels.join(","),
        ),
    }
}

/// What the size-cap level stores: nothing from size 2 up (the seeds of a size-1 run
/// are materialised like any other seed).
fn assert_cap_level_stores_nothing(result: &MiningResult, size: usize, what: &str) {
    let stats = &result.stats;
    let by_level: u64 = stats.levels.iter().map(|l| l.embeddings).sum();
    assert_eq!(by_level, stats.embeddings_materialized, "{what}");
    if size >= 2 {
        for row in stats.levels.iter().filter(|l| l.level >= size) {
            assert_eq!(row.embeddings, 0, "{what}: level {} stores", row.level);
            assert_eq!(row.pruned, 0, "{what}: level {} prunes", row.level);
        }
    }
}

/// One Ntemp run as `formulate_queries` configures it: the rendered top-k and the
/// run's `patterns_processed`.
fn ntemp_run(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    size: usize,
    top_k: usize,
) -> (usize, String, u64) {
    let ntemp = mine_nontemporal(positives, negatives, &LogRatio::default(), size, top_k);
    let mut rendered = String::new();
    for p in &ntemp.patterns {
        render_pattern(&mut rendered, &p.pattern, p.score, p.pos_freq, p.neg_freq);
    }
    (ntemp.patterns.len(), rendered, ntemp.patterns_processed)
}

/// The pinned lines of one Ntemp run.
fn ntemp_pin(task: &Task, negatives: &[TemporalGraph], size: usize) -> Pins {
    let (count, rendered, processed) = ntemp_run(&task.positives, negatives, size, TOP_K);
    Pins {
        answers: answer(count, None, &rendered),
        work: format!("processed={processed}"),
    }
}

/// Both miners on every class at every size. The runs are independent, so each gets
/// its own thread; lines keep (class, size, miner) order.
fn pin_of(corpus: &str, tasks: &[Task], negatives: &[TemporalGraph], out: &mut Pins) {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for task in tasks {
            for size in SIZES {
                let what = move || format!("{corpus}/{} size={size}", task.name);
                handles.push(scope.spawn(move || {
                    let score = LogRatio::default();
                    let mined = mine(&task.positives, negatives, &score, &config(size, 0));
                    assert_cap_level_stores_nothing(&mined, size, &what());
                    (format!("{} tgminer", what()), tgminer_pin(&mined, size))
                }));
                handles.push(scope.spawn(move || {
                    (
                        format!("{} ntemp", what()),
                        ntemp_pin(task, negatives, size),
                    )
                }));
            }
        }
        for handle in handles {
            let (what, pin) = handle.join().expect("a mining thread panicked");
            writeln!(out.answers, "{what} {}", pin.answers).unwrap();
            writeln!(out.work, "{what} {}", pin.work).unwrap();
        }
    });
}

/// Budgeted runs at size 3 on one class: whole lines in the work file.
fn budget_pin(corpus: &str, task: &Task, negatives: &[TemporalGraph], out: &mut String) {
    let score = LogRatio::default();
    let unbounded = mine(&task.positives, negatives, &score, &config(3, 0));
    for budget in BUDGETS {
        let what = format!("{corpus}/{} size=3 budget={budget}", task.name);
        let mined = mine(&task.positives, negatives, &score, &config(3, budget));
        let tripped = (budget as u64) < unbounded.stats.patterns_processed;
        assert_eq!(mined.stats.budget_exhausted, tripped, "{what}");
        if tripped {
            assert_eq!(mined.stats.patterns_processed, budget as u64, "{what}");
        }
        assert_cap_level_stores_nothing(&mined, 3, &what);
        let pin = tgminer_pin(&mined, 3);
        writeln!(out, "{what} tgminer {} {}", pin.work, pin.answers).unwrap();
    }
}

fn current_pins() -> Pins {
    let mut out = Pins {
        answers: String::from(
            "# mining answers — what both miners return; a column projection of the pin \
             captured from the materialising miners (tests/mining_golden.rs); a work-only \
             change must not touch this file; do not edit\n",
        ),
        work: String::from(
            "# mining work — what both miners' runs cost, and the budgeted runs whole; \
             captured by tests/mining_golden.rs (regenerate_mining_pin); do not edit\n",
        ),
    };
    let (fixture, fixture_negatives) = fixture_tasks();
    pin_of("fixture", &fixture, &fixture_negatives, &mut out);
    let (tiny, tiny_negatives) = tiny_tasks();
    pin_of("tiny", &tiny, &tiny_negatives, &mut out);
    // Budgeted runs: the fixture classes and one dense tiny class.
    for task in &fixture {
        budget_pin("fixture", task, &fixture_negatives, &mut out.work);
    }
    let sshd = tiny
        .iter()
        .find(|t| t.name == Behavior::SshdLogin.name())
        .expect("tiny data has sshd-login");
    budget_pin("tiny", sshd, &tiny_negatives, &mut out.work);
    out
}

fn assert_matches_golden(file: &str, actual: &str, regenerate: &str) {
    let expected = std::fs::read_to_string(golden_path(file))
        .unwrap_or_else(|e| panic!("missing {file} ({e}); run {regenerate}"));
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "{file} line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "{file}");
}

#[test]
fn both_miners_reproduce_the_pinned_results() {
    let actual = current_pins();
    assert_matches_golden(
        "mining_answers.txt",
        &actual.answers,
        "regenerate_mining_answers",
    );
    assert_matches_golden("mining_work.txt", &actual.work, "regenerate_mining_pin");
    // The budget cases are only worth their lines if some trip inside the cap level.
    assert!(
        actual
            .work
            .lines()
            .any(|l| l.contains("budget=") && l.contains("exhausted=true")),
        "no pinned budget run trips"
    );
}

#[test]
#[ignore = "rewrites tests/golden/mining_work.txt"]
fn regenerate_mining_pin() {
    std::fs::write(golden_path("mining_work.txt"), current_pins().work).unwrap();
}

#[test]
#[ignore = "rewrites tests/golden/mining_answers.txt: only after an intentional change of search order or admission policy"]
fn regenerate_mining_answers() {
    std::fs::write(golden_path("mining_answers.txt"), current_pins().answers).unwrap();
}

/// Ntemp where the benchmark measures `mine_s`, on its `DatasetConfig::small()`
/// training data: `mine-deep`'s nine classes at size 6 and `mine-wide`'s three at
/// size 3 (top-k 24), and the stream workloads' pool at size 4 (top-k 8). Each
/// constant is the FNV-1a digest of the run's rendered top-k followed by its
/// `processed=` line, computed on the parent of the change that derives a child's
/// occurrences from its parent's embeddings. Like the answers file: never update
/// these for a work-only change.
const NTEMP_AT_BENCHMARK_SIZES: [(Behavior, usize, usize, u64); 15] = [
    (Behavior::Bzip2Decompress, 6, 24, 0x4b5c_a972_825f_2626),
    (Behavior::GzipDecompress, 6, 24, 0xa3ad_30bb_d366_d3b9),
    (Behavior::WgetDownload, 6, 24, 0x8925_48e3_628d_05a0),
    (Behavior::FtpDownload, 6, 24, 0x34bc_0df3_4c9d_a7eb),
    (Behavior::ScpDownload, 6, 24, 0x010d_9529_d789_36ae),
    (Behavior::GccCompile, 6, 24, 0xf1ef_51a4_7284_dc99),
    (Behavior::GppCompile, 6, 24, 0x3a9f_34da_c903_c1c9),
    (Behavior::FtpdLogin, 6, 24, 0x2487_b3a1_a839_c369),
    (Behavior::SshLogin, 6, 24, 0x4662_05fb_ca79_fcde),
    (Behavior::SshdLogin, 3, 24, 0xa853_7d8b_a286_9a22),
    (Behavior::AptGetUpdate, 3, 24, 0x173c_0b8f_daa7_b844),
    (Behavior::AptGetInstall, 3, 24, 0xb194_106f_5ba6_ca5f),
    (Behavior::GzipDecompress, 4, 8, 0x1263_c5cc_0122_9c77),
    (Behavior::Bzip2Decompress, 4, 8, 0xaf89_f886_dd64_bbb9),
    (Behavior::ScpDownload, 4, 8, 0x8611_c4ac_dfea_da7f),
];

#[test]
#[ignore = "mines fifteen classes at `small`: run in release (CI does)"]
fn ntemp_at_benchmark_sizes() {
    let training = TrainingData::generate(&DatasetConfig::small());
    let mut mismatches = Vec::new();
    for (behavior, size, top_k, pinned) in NTEMP_AT_BENCHMARK_SIZES {
        let (count, mut rendered, processed) = ntemp_run(
            training.positives(behavior),
            training.negatives(),
            size,
            top_k,
        );
        writeln!(rendered, "processed={processed}").unwrap();
        let digest = fnv1a(&rendered);
        if digest != pinned {
            mismatches.push(format!(
                "{} size={size} top_k={top_k}: patterns={count} processed={processed} \
                 fnv={digest:#018x}, pinned {pinned:#018x}",
                behavior.name()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
