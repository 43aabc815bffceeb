//! The always-on per-shard and per-tenant-group breakdowns the engines report
//! (`ShardedDetector::shard_stats`, `TenantPool::group_stats`).

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

/// One tenant-group's contribution to a multi-tenant run — the second sharding axis
/// (queries × tenant-groups).
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
