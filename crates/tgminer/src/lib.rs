//! # tgminer — discriminative temporal graph pattern mining
//!
//! A Rust reproduction of **TGMiner** from "Behavior Query Discovery in System-Generated
//! Temporal Graphs" (VLDB 2015). Given a positive set of temporal graphs (syscall logs
//! of a target behavior) and a negative set (background activity), [`mine`] returns the
//! T-connected temporal graph patterns maximising a discriminative score; those patterns
//! are the skeletons of *behavior queries* (see the `query` crate).
//!
//! ## Components
//!
//! * [`score`] — discriminative score functions (log-ratio, G-test, information gain).
//! * [`embedding`] / [`growth`] — embedding-based consecutive pattern growth (Section 3).
//! * [`pruning`] — upper-bound, subgraph and supergraph pruning with pluggable temporal
//!   subgraph tests and residual-set equivalence tests (Section 4).
//! * [`miner`] — the DFS driver, configuration, and results.
//! * [`topk`] — the top-k collection and the one admission rule both miners prune by.
//! * [`ranking`] — domain-knowledge interest ranking of tied patterns (Appendix M).
//! * [`baselines`] — the paper's baselines: the five efficiency variants, the
//!   non-temporal miner `Ntemp`, and the keyword baseline `NodeSet`.
//! * [`stats`] — work counters (pattern counts, test counts, pruning trigger rates).
//!
//! ## Example
//!
//! ```
//! use tgraph::{GraphBuilder, Label};
//! use tgminer::{mine, MinerConfig, score::LogRatio};
//!
//! // Two tiny positive graphs share the temporal chain A -> B -> C ...
//! let make_pos = || {
//!     let mut b = GraphBuilder::new();
//!     let a = b.add_node(Label(0));
//!     let bb = b.add_node(Label(1));
//!     let c = b.add_node(Label(2));
//!     b.add_edge(a, bb, 1).unwrap();
//!     b.add_edge(bb, c, 2).unwrap();
//!     b.build()
//! };
//! // ... while the negative graph has the same edges in the opposite order.
//! let make_neg = || {
//!     let mut b = GraphBuilder::new();
//!     let a = b.add_node(Label(0));
//!     let bb = b.add_node(Label(1));
//!     let c = b.add_node(Label(2));
//!     b.add_edge(bb, c, 1).unwrap();
//!     b.add_edge(a, bb, 2).unwrap();
//!     b.build()
//! };
//! let positives = vec![make_pos(), make_pos()];
//! let negatives = vec![make_neg(), make_neg()];
//! let result = mine(&positives, &negatives, &LogRatio::default(), &MinerConfig::default());
//! let best = result.best().unwrap();
//! assert_eq!(best.pos_freq, 1.0);
//! assert_eq!(best.neg_freq, 0.0);
//! ```

pub mod baselines;
pub mod embedding;
pub mod growth;
pub mod miner;
pub mod pruning;
pub mod ranking;
pub mod score;
pub mod stats;
pub mod topk;

pub use baselines::MinerVariant;
pub use miner::{mine, MinedPattern, MinerConfig, MiningResult};
pub use pruning::{ResidualTestAlgo, SubgraphTestAlgo};
pub use ranking::InterestRanker;
pub use score::{GTest, InfoGain, LogRatio, ScoreFunction};
pub use stats::{LevelStats, MiningStats};

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// A `HashMap` with fixed hash keys, as `tgraph`'s label tables use: for a map whose
/// entries own heap memory, drop order — and with it the allocator's later layout —
/// is then a function of the input, not of per-process random keys.
pub(crate) type StableMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// The set counterpart of [`StableMap`].
pub(crate) type StableSet<T> = HashSet<T, BuildHasherDefault<DefaultHasher>>;
