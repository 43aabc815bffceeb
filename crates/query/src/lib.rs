//! # query — behavior query formulation, search, and accuracy evaluation
//!
//! The last stage of the paper's pipeline (Figure 2): take the discriminative patterns
//! mined by `tgminer`, turn them into *behavior queries*, run them against a monitoring
//! graph (the `syscall` test data), and measure precision/recall against ground truth —
//! exactly what the accuracy evaluation of Section 6.2 (Table 2, Figures 11–12) does.
//!
//! * [`pipeline`] — end-to-end query formulation and evaluation for one behavior, for
//!   TGMiner and for the two accuracy baselines (`Ntemp`, `NodeSet`).
//! * [`mod@compile`] — the executable form of a behavior query ([`CompiledQuery`]) and the
//!   one pattern→query entry point; the streaming detector (crate `stream`) executes
//!   exactly these.
//! * [`matcher`] — the per-edge advance state machines shared by the batch search and
//!   the streaming detector (crate `stream`).
//! * [`search`] — windowed search of temporal, non-temporal, and keyword queries over a
//!   large temporal graph, built on [`matcher`].
//! * [`eval`] — precision / recall definitions of Section 6.2.

pub mod compile;
pub mod eval;
pub mod matcher;
pub mod pipeline;
pub mod search;

pub use compile::{compile, CompiledQuery, SeedKey};
pub use eval::{evaluate, evaluate_hits, merge_identified, AccuracyReport};
pub use matcher::{KeywordTracker, RunStep, TemporalRun, TemporalSpawn};
pub use pipeline::{
    evaluate_behaviors, evaluate_queries, formulate_and_evaluate, formulate_queries,
    formulate_temporal, AccuracyAverages, AccuracySummary, BehaviorAccuracy, BehaviorQueries,
    QueryOptions,
};
pub use search::{
    search_nodeset, search_static, search_static_indexed, search_temporal, search_temporal_indexed,
    Interval,
};
