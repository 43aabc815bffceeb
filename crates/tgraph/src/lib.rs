//! # tgraph — temporal graph substrate
//!
//! This crate provides the data model and low-level algorithms that the TGMiner
//! reproduction (crate `tgminer`) is built on:
//!
//! * [`TemporalGraph`] — a directed, node-labeled graph whose edges carry totally
//!   ordered timestamps (multi-edges allowed), matching Section 2 of the paper.
//! * [`TemporalPattern`] — an abstract temporal graph pattern whose edge timestamps
//!   are aligned to `1..=|E|`, stored in a canonical form so that pattern equality
//!   (`=t`) is plain structural equality (Lemmas 1 and 2).
//! * T-connectivity checks ([`tconnect`]).
//! * Sequence encodings (`nodeseq`, `edgeseq`, `enhseq`) and the subsequence-test
//!   based temporal subgraph test of Section 4.3 ([`sequence`], [`seqtest`]).
//! * Two alternative temporal subgraph testers used as baselines in the paper's
//!   evaluation: a modified VF2 ([`vf2`]) and a one-edge graph-index join ([`gindex`]).
//! * Embedding enumeration of a pattern in a data graph ([`matching`]).
//! * Residual graphs, residual node label postings, and the integer compression
//!   `I(G, g)` of Section 4.4 ([`residual`]).
//! * Seedable random graph/pattern generators for tests and benchmarks ([`generator`]).
//! * The streaming substrate ([`incremental`]): self-describing stream events (with
//!   optional tenant identity for multi-tenant streams), the graph-wide label-pair
//!   postings index, and the incrementally grown temporal graph with a sliding
//!   retention window. Stream timestamps are non-decreasing per producer; ties are
//!   resolved deterministically by arrival order.

pub mod error;
pub mod generator;
pub mod gindex;
pub mod graph;
pub mod incremental;
pub mod label;
pub mod matching;
pub mod pattern;
pub mod residual;
pub mod seqtest;
pub mod sequence;
pub mod subseq;
pub mod tconnect;
pub mod vf2;

pub use error::GraphError;
pub use graph::{GraphBuilder, TemporalEdge, TemporalGraph};
pub use incremental::{EdgePostings, IncrementalGraph, StreamEvent, TenantId, TenantedEvent};
pub use label::{Label, LabelInterner};
pub use matching::{contains_pattern, find_embeddings, Embedding};
pub use pattern::{PatternEdge, TemporalPattern};
pub use residual::{residual_size, LabelPostings, ResidualSignature};
pub use seqtest::is_temporal_subgraph;
pub use tconnect::is_t_connected;
