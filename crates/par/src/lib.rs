//! # mq-par — intra-query partitioned parallel execution
//!
//! The paper's setting is a *parallel* DBMS (Paradise); this crate
//! brings the reproduction from a serial engine to that setting while
//! keeping every result **byte-reproducible for any partition count**.
//!
//! The design separates two concepts:
//!
//! * **Buckets** — a fixed number `B` ([`PAR_BUCKETS`]) of logical
//!   work units. Rows are routed to bucket `hash(keys) % B`; pipeline
//!   segments between exchanges execute once per bucket, in bucket order, each bucket with the operator's full
//!   serial memory grant (buckets are time-multiplexed on the job
//!   thread, so only one bucket's hash table is resident at a time —
//!   spill behaviour is therefore independent of the partition count).
//!   Bucket composition depends only on the data, the routing keys and
//!   `B` — never on `P` — so the concatenation of buckets in bucket
//!   order is the canonical, partition-invariant output of every stage.
//! * **Partitions** — an *accounting* overlay: the `P` workers the
//!   simulated cluster would run. Each bucket is assigned to a
//!   partition (contiguous ranges by default); a stage's simulated
//!   elapsed time is the **max over partitions** of the per-partition
//!   sums of bucket times, while io/cpu totals remain plain sums. The
//!   difference (`Σ bucket times − max-over-partitions`) is credited to
//!   the clock as [`mq_common::SimClock::add_parallel_saved_ms`].
//!
//! **Exchange operators** ([`mq_plan::PhysOp::Exchange`]) mark the
//! boundaries: `Repartition` routes rows by key hash into buckets,
//! `Merge` concatenates buckets back into one stream, `Broadcast`
//! replicates a small build side to every bucket. [`parallelize`]
//! inserts them into an optimized (and collector-instrumented) plan;
//! [`run_partitioned`] executes the result.
//!
//! **Statistics at exchange barriers** (§2.2 in a partitioned setting):
//! collectors inside a segment run per bucket in *capture* mode — raw
//! accumulators are deposited, merged across buckets with the exact
//! `merge()` operations of `mq-stats`, and reported to the controller
//! once per site, so the SCIA sees whole-stream observed cardinalities.
//!
//! **Skew** : after routing, if the max/mean per-partition load ratio
//! exceeds [`mq_common::EngineConfig::par_skew_theta`], the driver
//! emits a skew verdict and greedily re-assigns buckets to partitions
//! (largest-first onto the least-loaded worker) — the mid-query
//! re-optimization of the *partitioning* itself. Re-assignment changes
//! only the accounting overlay, never the bucket contents, so results
//! stay byte-identical while the simulated elapsed time improves.

mod driver;
mod rewrite;

use mq_plan::NodeId;

pub use driver::run_partitioned;
pub use rewrite::parallelize;

/// Number of logical hash buckets used by partitioned (exchange)
/// execution. Buckets — not partitions — are the unit of routing and
/// of per-bucket pipeline runs, so results are byte-identical for any
/// partition count; partitions only group buckets for the
/// max-over-partitions elapsed-time accounting.
pub const PAR_BUCKETS: usize = 64;

/// Broadcast threshold: a hash-join build side whose estimated
/// cardinality is at or below this is broadcast (replicated to every
/// partition) instead of hash-repartitioned.
pub const PAR_BROADCAST_ROWS: f64 = 64.0;

/// How a query should be partitioned. Carried by the job environment;
/// `None` means serial execution (no exchanges, the pre-existing
/// behaviour).
#[derive(Debug, Clone)]
pub struct ParSpec {
    /// Simulated worker count `P` (≥ 1). Exchanges are inserted even at
    /// `P = 1` so results can be compared across partition counts
    /// through the identical plan shape.
    pub partitions: usize,
}

impl ParSpec {
    /// A spec for `partitions` workers (clamped to ≥ 1).
    pub fn new(partitions: usize) -> ParSpec {
        ParSpec {
            partitions: partitions.max(1),
        }
    }
}

/// What one exchange stage did at run time.
#[derive(Debug, Clone)]
pub struct ExchangeReport {
    /// Plan-node id of the exchange.
    pub node: NodeId,
    /// `repartition`, `merge` or `broadcast`.
    pub mode: &'static str,
    /// Total rows through the exchange.
    pub rows: u64,
    /// Rows landing on each partition (under the final bucket →
    /// partition assignment; for a broadcast, every partition receives
    /// the full row count).
    pub per_partition_rows: Vec<u64>,
}

/// One skew decision.
#[derive(Debug, Clone)]
pub struct SkewReport {
    /// Exchange node the verdict fired at.
    pub node: NodeId,
    /// Observed max/mean per-partition load ratio.
    pub ratio: f64,
    /// The configured threshold it exceeded.
    pub theta: f64,
    /// `rebalance` (buckets re-assigned) or `none`.
    pub action: &'static str,
    /// The max/mean ratio under the re-balanced assignment (bounded
    /// below by the heaviest single bucket — a bucket is never split).
    pub after_ratio: f64,
}

/// Partitioned-execution summary attached to the query outcome.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// Worker count the query ran with.
    pub partitions: usize,
    /// Logical bucket count rows were routed into.
    pub buckets: usize,
    /// Per-exchange row routing, in completion order.
    pub exchanges: Vec<ExchangeReport>,
    /// Skew verdicts, in completion order.
    pub skew: Vec<SkewReport>,
    /// Total simulated milliseconds saved by overlapping partitions
    /// (already subtracted from the outcome's elapsed time).
    pub saved_ms: f64,
}

impl ParReport {
    fn new(partitions: usize, buckets: usize) -> ParReport {
        ParReport {
            partitions,
            buckets,
            exchanges: Vec::new(),
            skew: Vec::new(),
            saved_ms: 0.0,
        }
    }

    /// The report for an exchange node, if that exchange executed.
    pub fn exchange(&self, node: NodeId) -> Option<&ExchangeReport> {
        self.exchanges.iter().find(|e| e.node == node)
    }
}
