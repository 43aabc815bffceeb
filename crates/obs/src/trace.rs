//! Callback-based structured tracing for lifecycle events.
//!
//! Metrics answer "how much / how fast"; traces answer "what happened, in order".
//! The engine reports discrete lifecycle transitions — a query registered on a
//! shard, a rebalance, a batch aborting mid-way, a retention sweep evicting edges —
//! as typed [`TraceEvent`]s pushed into a [`TraceSink`]. Sinks are deliberately
//! dumb callbacks: the engine never formats, buffers, or filters; a sink decides
//! what to do (collect for a test, print to stderr, drop everything).
//!
//! Sinks must be `Send + Sync` because the sharded detector emits from scoped
//! worker threads. Event emission sites pay one `Option` check when no sink is
//! attached; attaching a sink must never change engine behavior (the parity test
//! in `crates/stream` holds the whole stack to that).

use crate::json::Json;
use std::sync::{Arc, Mutex};

/// A structured lifecycle event emitted by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A query was registered (hot-swap installs emit this for the new query).
    QueryRegistered {
        /// Query name.
        query: String,
        /// Shard the query landed on (0 for a single detector).
        shard: usize,
    },
    /// A query was deregistered (hot-swap retirements emit this for the old query).
    QueryDeregistered {
        /// Query name.
        query: String,
        /// Shard the query was removed from.
        shard: usize,
    },
    /// The sharded detector recomputed query placements.
    ShardRebalance {
        /// Number of shards after the rebalance.
        shards: usize,
        /// Queries moved to a different shard than before.
        moved: usize,
        /// Per-shard estimated load after the rebalance.
        loads: Vec<u64>,
    },
    /// A batch aborted mid-way on a malformed event.
    BatchError {
        /// Index of the offending event within the batch.
        index: usize,
        /// Detections already emitted before the abort.
        emitted: usize,
        /// Error description.
        message: String,
    },
    /// A retention sweep dropped edges that aged out of the sliding window.
    RetentionEviction {
        /// Edges evicted by this sweep.
        evicted: usize,
        /// Edges still retained after the sweep.
        retained: usize,
        /// The new retention watermark (oldest retained timestamp).
        watermark: u64,
    },
    /// The write-ahead log rotated to a fresh segment file.
    WalRotated {
        /// Index of the segment the log rotated *to*.
        segment: u64,
        /// Bytes written to the segment the log rotated *away from*.
        bytes: u64,
    },
    /// A durability snapshot was written and atomically installed.
    SnapshotWritten {
        /// Segment index the snapshot anchors to (replay resumes at this segment).
        segment: u64,
        /// Snapshot file size in bytes.
        bytes: u64,
        /// Replayable operations carried in the snapshot tail.
        ops: u64,
        /// Cumulative WAL I/O errors seen so far (including retried-away ones), so
        /// operators see trouble in the snapshot report without polling.
        io_errors: u64,
    },
    /// Crash recovery finished rebuilding an engine from snapshot + log suffix.
    RecoveryCompleted {
        /// Log segments replayed after the snapshot.
        segments: u64,
        /// Log records replayed after the snapshot.
        records: u64,
        /// Live registered queries after recovery.
        queries: u64,
        /// Records dropped by tolerant recovery (0 for strict recovery).
        dropped: u64,
        /// Damage description when tolerant recovery truncated the log, else `None`.
        damage: Option<String>,
    },
    /// A write-ahead-log I/O operation failed. `latched: false` means a retry
    /// follows; `latched: true` means the budget is spent and durability degraded
    /// (or the error was returned to the caller).
    WalError {
        /// File the operation targeted.
        path: String,
        /// The I/O error.
        detail: String,
        /// Whether this failure latched (no further retries).
        latched: bool,
    },
    /// The write-ahead log is retrying a failed I/O operation after backoff.
    WalRetry {
        /// Retry attempt number (1-based).
        attempt: u64,
        /// Backoff slept before this attempt, in milliseconds.
        backoff_ms: u64,
    },
    /// Post-snapshot garbage collection deleted fully-covered log segments.
    WalGc {
        /// Segment files deleted.
        deleted: u64,
        /// Highest segment index deleted (all deleted indices are ≤ this).
        through_segment: u64,
    },
    /// A repeatedly-failing event was quarantined to the dead-letter buffer.
    PoisonQuarantined {
        /// Raw tenant id the event belonged to.
        tenant: u64,
        /// The event's timestamp.
        ts: u64,
        /// Events currently held in the dead-letter buffer.
        quarantined: u64,
    },
    /// A silent tenant was flushed and evicted past the quiescence horizon.
    TenantQuiesced {
        /// Raw tenant id evicted.
        tenant: u64,
        /// Tenant-group the tenant lived in.
        group: usize,
        /// The tenant's last observed event timestamp.
        last_ts: u64,
        /// The effective quiescence horizon that expired it.
        horizon: u64,
    },
}

impl TraceEvent {
    /// The event's stable name, as used in rendered output and documentation.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::QueryRegistered { .. } => "query_registered",
            TraceEvent::QueryDeregistered { .. } => "query_deregistered",
            TraceEvent::ShardRebalance { .. } => "shard_rebalance",
            TraceEvent::BatchError { .. } => "batch_error",
            TraceEvent::RetentionEviction { .. } => "retention_eviction",
            TraceEvent::WalRotated { .. } => "wal_rotated",
            TraceEvent::SnapshotWritten { .. } => "snapshot_written",
            TraceEvent::RecoveryCompleted { .. } => "recovery_completed",
            TraceEvent::WalError { .. } => "wal_error",
            TraceEvent::WalRetry { .. } => "wal_retry",
            TraceEvent::WalGc { .. } => "wal_gc",
            TraceEvent::PoisonQuarantined { .. } => "poison_quarantined",
            TraceEvent::TenantQuiesced { .. } => "tenant_quiesced",
        }
    }

    /// Renders as a JSON object with an `"event"` discriminator plus the payload
    /// fields — the stable structured-log format.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("event".to_string(), Json::Str(self.name().into()))];
        match self {
            TraceEvent::QueryRegistered { query, shard }
            | TraceEvent::QueryDeregistered { query, shard } => {
                fields.push(("query".into(), Json::Str(query.clone())));
                fields.push(("shard".into(), Json::from_u64(*shard as u64)));
            }
            TraceEvent::ShardRebalance {
                shards,
                moved,
                loads,
            } => {
                fields.push(("shards".into(), Json::from_u64(*shards as u64)));
                fields.push(("moved".into(), Json::from_u64(*moved as u64)));
                fields.push((
                    "loads".into(),
                    Json::Arr(loads.iter().map(|&l| Json::from_u64(l)).collect()),
                ));
            }
            TraceEvent::BatchError {
                index,
                emitted,
                message,
            } => {
                fields.push(("index".into(), Json::from_u64(*index as u64)));
                fields.push(("emitted".into(), Json::from_u64(*emitted as u64)));
                fields.push(("message".into(), Json::Str(message.clone())));
            }
            TraceEvent::RetentionEviction {
                evicted,
                retained,
                watermark,
            } => {
                fields.push(("evicted".into(), Json::from_u64(*evicted as u64)));
                fields.push(("retained".into(), Json::from_u64(*retained as u64)));
                fields.push(("watermark".into(), Json::from_u64(*watermark)));
            }
            TraceEvent::WalRotated { segment, bytes } => {
                fields.push(("segment".into(), Json::from_u64(*segment)));
                fields.push(("bytes".into(), Json::from_u64(*bytes)));
            }
            TraceEvent::SnapshotWritten {
                segment,
                bytes,
                ops,
                io_errors,
            } => {
                fields.push(("segment".into(), Json::from_u64(*segment)));
                fields.push(("bytes".into(), Json::from_u64(*bytes)));
                fields.push(("ops".into(), Json::from_u64(*ops)));
                fields.push(("io_errors".into(), Json::from_u64(*io_errors)));
            }
            TraceEvent::RecoveryCompleted {
                segments,
                records,
                queries,
                dropped,
                damage,
            } => {
                fields.push(("segments".into(), Json::from_u64(*segments)));
                fields.push(("records".into(), Json::from_u64(*records)));
                fields.push(("queries".into(), Json::from_u64(*queries)));
                fields.push(("dropped".into(), Json::from_u64(*dropped)));
                match damage {
                    Some(damage) => fields.push(("damage".into(), Json::Str(damage.clone()))),
                    None => fields.push(("damage".into(), Json::Null)),
                }
            }
            TraceEvent::WalError {
                path,
                detail,
                latched,
            } => {
                fields.push(("path".into(), Json::Str(path.clone())));
                fields.push(("detail".into(), Json::Str(detail.clone())));
                fields.push(("latched".into(), Json::Bool(*latched)));
            }
            TraceEvent::WalRetry {
                attempt,
                backoff_ms,
            } => {
                fields.push(("attempt".into(), Json::from_u64(*attempt)));
                fields.push(("backoff_ms".into(), Json::from_u64(*backoff_ms)));
            }
            TraceEvent::WalGc {
                deleted,
                through_segment,
            } => {
                fields.push(("deleted".into(), Json::from_u64(*deleted)));
                fields.push(("through_segment".into(), Json::from_u64(*through_segment)));
            }
            TraceEvent::PoisonQuarantined {
                tenant,
                ts,
                quarantined,
            } => {
                fields.push(("tenant".into(), Json::from_u64(*tenant)));
                fields.push(("ts".into(), Json::from_u64(*ts)));
                fields.push(("quarantined".into(), Json::from_u64(*quarantined)));
            }
            TraceEvent::TenantQuiesced {
                tenant,
                group,
                last_ts,
                horizon,
            } => {
                fields.push(("tenant".into(), Json::from_u64(*tenant)));
                fields.push(("group".into(), Json::from_u64(*group as u64)));
                fields.push(("last_ts".into(), Json::from_u64(*last_ts)));
                fields.push(("horizon".into(), Json::from_u64(*horizon)));
            }
        }
        Json::Obj(fields)
    }
}

/// A receiver of [`TraceEvent`]s. Implementations must be cheap and non-blocking —
/// emission sites sit on engine paths.
pub trait TraceSink: Send + Sync {
    /// Called once per event, in emission order (per emitting thread).
    fn event(&self, event: &TraceEvent);
}

/// A shared, thread-safe handle to a sink, cloneable across shard workers.
///
/// A newtype (not a bare `Arc<dyn TraceSink>`) so engine structs holding one can
/// keep deriving `Debug`.
#[derive(Clone)]
pub struct SharedSink(Arc<dyn TraceSink>);

impl SharedSink {
    /// Wraps a sink for sharing.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        Self(Arc::new(sink))
    }

    /// Shares an already-`Arc`ed sink (e.g. a [`CollectingSink`] the caller keeps a
    /// reading handle to).
    pub fn from_arc(sink: Arc<dyn TraceSink>) -> Self {
        Self(sink)
    }

    /// Forwards one event to the sink.
    pub fn emit(&self, event: &TraceEvent) {
        self.0.event(event);
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedSink(..)")
    }
}

impl<T: TraceSink + 'static> From<Arc<T>> for SharedSink {
    fn from(sink: Arc<T>) -> Self {
        Self(sink)
    }
}

/// A sink that drops every event. Useful as an explicit "tracing off" value.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&self, _event: &TraceEvent) {}
}

/// A sink that stores every event in memory — the test workhorse.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of all events collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("collecting sink poisoned")
            .clone()
    }

    /// Removes and returns all collected events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("collecting sink poisoned"))
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collecting sink poisoned").len()
    }

    /// Whether no event has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for CollectingSink {
    fn event(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("collecting sink poisoned")
            .push(event.clone());
    }
}

/// A sink that writes each event as one JSON line to stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn event(&self, event: &TraceEvent) {
        eprintln!("{}", event.to_json().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_preserves_order_and_payloads() {
        let sink = CollectingSink::new();
        sink.event(&TraceEvent::QueryRegistered {
            query: "q0".into(),
            shard: 1,
        });
        sink.event(&TraceEvent::RetentionEviction {
            evicted: 3,
            retained: 40,
            watermark: 99,
        });
        assert_eq!(sink.len(), 2);
        let events = sink.drain();
        assert!(sink.is_empty());
        assert_eq!(
            events[0],
            TraceEvent::QueryRegistered {
                query: "q0".into(),
                shard: 1
            }
        );
        assert_eq!(events[1].name(), "retention_eviction");
    }

    #[test]
    fn events_render_as_discriminated_json() {
        let event = TraceEvent::BatchError {
            index: 7,
            emitted: 2,
            message: "bad label".into(),
        };
        let json = event.to_json();
        assert_eq!(
            json.get("event").and_then(Json::as_str),
            Some("batch_error")
        );
        assert_eq!(json.get("index").and_then(Json::as_u64), Some(7));
        assert_eq!(
            json.get("message").and_then(Json::as_str),
            Some("bad label")
        );
        // Round-trips through the parser (stderr lines are machine-readable).
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }

    #[test]
    fn shared_sink_works_across_threads() {
        let sink: Arc<CollectingSink> = Arc::new(CollectingSink::new());
        let shared = SharedSink::from(sink.clone());
        std::thread::scope(|scope| {
            for shard in 0..4 {
                let shared = shared.clone();
                scope.spawn(move || {
                    shared.emit(&TraceEvent::QueryRegistered {
                        query: format!("q{shard}"),
                        shard,
                    });
                });
            }
        });
        assert_eq!(sink.len(), 4);
    }
}
