//! The durability seam: engines report the *inputs* that determine their state to an
//! attached [`DurabilitySink`] before applying them, so an append-only log of those
//! inputs is sufficient to rebuild the engine by deterministic replay.
//!
//! This module deliberately holds only the trait — the write-ahead log, snapshot, and
//! recovery machinery live in the `durable` crate, which depends on `stream` (not the
//! other way around). Only the two engines ([`crate::Engine`]) take a sink: a
//! [`crate::ShardedDetector`] or [`crate::TenantPool`] records once for everything it
//! owns, and the per-shard [`crate::Detector`]s underneath never log. The contract
//! mirrors [`crate::instrument`]: the sink is `None` by default, the unlogged hot path
//! pays exactly one `Option` branch, and attaching one never changes detections.
//!
//! Ordering discipline (what makes replay exact):
//!
//! * event batches are recorded **before** the engine applies them — a crash between
//!   the append and the apply loses nothing, because replay re-applies the batch and
//!   the engine is deterministic (including its mid-batch error behavior: the log
//!   carries the full batch, live and replayed runs both keep the valid prefix);
//! * registrations/deregistrations are recorded **after** the engine accepts them,
//!   because the assigned [`QueryId`] and look-back floor are part of the record — a
//!   rejected registration never reaches the log.

use crate::detector::QueryId;
use query::compile::CompiledQuery;
use tgraph::{StreamEvent, TenantId, TenantedEvent};

/// A receiver for the replayable input stream of a detection engine.
///
/// Implementations must be infallible from the engine's point of view: I/O errors are
/// latched inside the sink (see `durable::Wal::take_error`) rather than surfaced on
/// the hot path. `Send` because engines holding a sink move across threads; `Debug`
/// so the engines holding a boxed sink keep deriving it.
pub trait DurabilitySink: Send + std::fmt::Debug {
    /// A query was registered and assigned `id`. `visible_from` is the registration's
    /// original look-back floor — recovery must surface *this* value, not whatever
    /// floor the replayed (possibly history-pruned) graph would recompute.
    fn record_register(
        &mut self,
        id: QueryId,
        query: &CompiledQuery,
        window: u64,
        visible_from: u64,
    );

    /// The query with `id` was deregistered.
    fn record_deregister(&mut self, id: QueryId);

    /// A batch of single-stream events is about to be applied.
    fn record_events(&mut self, events: &[StreamEvent]);

    /// A batch of tenant-tagged events is about to be applied (pool-level engines).
    fn record_tenant_events(&mut self, events: &[TenantedEvent]);

    /// A tenant is about to be quiesced (flushed and evicted). Logged
    /// *before* the eviction, like event batches: the flush drains pending
    /// detections early, so replay must evict at exactly the same point in the
    /// op sequence or a recovered pool would re-emit them. Default no-op so
    /// single-stream sinks ignore it.
    fn record_quiesce(&mut self, tenant: TenantId) {
        let _ = tenant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedDetector, TenantPool};
    use std::sync::{Arc, Mutex};
    use tgraph::Label;

    /// A sink that counts record calls, for wiring tests.
    #[derive(Debug, Default)]
    struct CountingSink {
        counts: Arc<Mutex<[usize; 4]>>,
    }

    impl DurabilitySink for CountingSink {
        fn record_register(&mut self, _: QueryId, _: &CompiledQuery, _: u64, _: u64) {
            self.counts.lock().unwrap()[0] += 1;
        }
        fn record_deregister(&mut self, _: QueryId) {
            self.counts.lock().unwrap()[1] += 1;
        }
        fn record_events(&mut self, events: &[StreamEvent]) {
            self.counts.lock().unwrap()[2] += events.len();
        }
        fn record_tenant_events(&mut self, events: &[TenantedEvent]) {
            self.counts.lock().unwrap()[3] += events.len();
        }
    }

    #[test]
    fn an_engine_reports_every_input_to_its_sink_exactly_once() {
        let query = CompiledQuery::NodeSet(tgminer::baselines::nodeset::NodeSetQuery {
            labels: vec![Label(1)],
        });
        let event = StreamEvent {
            ts: 1,
            src: 0,
            dst: 1,
            src_label: Label(1),
            dst_label: Label(2),
        };
        // Two shards both apply the batch; the engine above them logs it once.
        let sink = CountingSink::default();
        let counts = sink.counts.clone();
        let mut sharded = ShardedDetector::new(2);
        sharded.set_durability(Some(Box::new(sink)));
        let id = sharded.register(query.clone(), 5).unwrap().id;
        sharded.on_batch(&[event, event]).unwrap();
        sharded.deregister(id).unwrap();
        assert_eq!(*counts.lock().unwrap(), [1, 1, 2, 0]);

        // Likewise a pool: once at the demux front-end, never per tenant.
        let sink = CountingSink::default();
        let counts = sink.counts.clone();
        let mut pool = TenantPool::new(2, 2);
        pool.set_durability(Some(Box::new(sink)));
        let id = pool.register(query, 5).unwrap().id;
        let tenanted = |tenant| TenantedEvent {
            tenant: tgraph::TenantId(tenant),
            event,
        };
        pool.on_batch(&[tenanted(7), tenanted(8)]).unwrap();
        pool.deregister(id).unwrap();
        assert_eq!(*counts.lock().unwrap(), [1, 1, 0, 2]);
    }
}
