//! # syscall — synthetic syscall-log workloads for behavior query discovery
//!
//! The paper's evaluation runs on proprietary syscall logs; this crate is the
//! substitution documented in `DESIGN.md`: a deterministic, seedable workload generator
//! that produces temporal graphs with the same statistical envelope as the paper's
//! Table 1 and, importantly, the same discriminative structure (per-behavior temporal
//! *signatures* embedded in shared noise, plus background decoys that confuse
//! non-temporal and keyword baselines exactly where Table 2 says they are confused).
//!
//! * [`entity`] / [`event`] / [`log`] — the syscall data model and its conversion to
//!   temporal graphs.
//! * [`behaviors`] — the 12 target behaviors (signatures, sizes, confusability).
//! * [`dataset`] — training data (positives per behavior + background negatives),
//!   Table 1 statistics, fractional subsampling, and SYN-k replication.
//! * [`testdata`] — the large monitoring graph with ground-truth behavior intervals used
//!   for precision/recall evaluation.
//! * [`stream`] — replay adapter turning generated datasets into ordered, batched event
//!   streams for the online detection engine, and labeled traces (events plus a class
//!   tag) to and from training data.

pub mod behaviors;
pub mod dataset;
pub mod entity;
pub mod event;
pub mod log;
pub mod stream;
pub mod testdata;

pub use behaviors::{Behavior, BehaviorProfile, Confusability, SizeClass};
pub use dataset::{BehaviorDataset, BehaviorStats, DatasetConfig, TrainingData};
pub use entity::{Entity, EntityKind, Name};
pub use event::{SyscallEvent, SyscallType};
pub use log::SyscallLog;
pub use stream::{
    events_of_graph, graph_of_events, labeled_traces, LabeledTrace, StreamSource,
    TenantedStreamSource, TraceLabel,
};
pub use testdata::{BehaviorInstance, TestData, TestDataConfig};
