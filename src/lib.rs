//! # behavior-query — reproduction of "Behavior Query Discovery in System-Generated
//! # Temporal Graphs" (TGMiner, VLDB 2015)
//!
//! This façade crate re-exports the public API of the member crates so examples and
//! downstream users can depend on a single package:
//!
//! * [`tgraph`] — temporal graph data model, temporal subgraph tests, residual graphs,
//!   and the incremental graph substrate for streaming.
//! * [`syscall`] — synthetic syscall-log workload generator (training / test datasets)
//!   and the stream replay adapter.
//! * [`tgminer`] — the discriminative temporal graph pattern miner and its baselines.
//! * [`query`] — behavior-query formulation, search over monitoring graphs, evaluation.
//! * [`stream`] — the online streaming detection engine: registered behavior queries
//!   matched as events arrive, consistent with the offline search.
//! * [`durable`] — write-ahead logging and snapshots for the detection engines:
//!   crash recovery rebuilds a detector whose future detections are identical to an
//!   uninterrupted run.
//! * [`faults`] — the deterministic fault-injection harness: seeded plans of armed
//!   failpoints consulted by the durability and ingest layers, so chaos tests replay
//!   the same faults every run.
//! * [`obs`] — zero-dependency observability: metrics registry (counters, gauges,
//!   log-scale histograms), a scoped-span profiler with per-query cost attribution,
//!   and a minimal JSON model.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use durable;
pub use faults;
pub use obs;
pub use query;
pub use stream;
pub use syscall;
pub use tgminer;
pub use tgraph;
