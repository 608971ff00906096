//! Engine configuration.
//!
//! Every value a caller sets lives here, including the three knobs the
//! paper introduces for Dynamic Re-Optimization:
//!
//! * `mu` (μ) — the maximum acceptable statistics-collection overhead as
//!   a fraction of the optimizer's estimated query time (§2.5; the paper
//!   runs with 0.05),
//! * `theta1` (θ1) — re-optimization is skipped when the estimated
//!   optimizer time exceeds θ1 of the improved remaining-time estimate
//!   (Equation 1; paper value 0.05),
//! * `theta2` (θ2) — re-optimization is considered only when the
//!   improved estimate exceeds the optimizer's estimate by more than θ2
//!   (Equation 2; paper value 0.2).
//!
//! The cost constants convert counted physical operations into a
//! deterministic simulated time, replacing the paper's wall-clock
//! measurements on the Paradise cluster (see DESIGN.md, substitutions).
//!
//! Values that nothing overrides are named constants in the crate that
//! reads them, not fields here:
//!
//! * `mq_stats`: `RESERVOIR_SIZE` and `HISTOGRAM_BUCKETS`;
//! * `mq_expr`: `UDF_SELECTIVITY`, `DEFAULT_EQ_SELECTIVITY` and
//!   `DEFAULT_RANGE_SELECTIVITY`;
//! * `mq_reopt::engine`: `TRANSIENT_RETRY_LIMIT`,
//!   `TRANSIENT_RETRY_BACKOFF_MS`, `CACHE_SHARDS`,
//!   `PLAN_CACHE_STALENESS` and `HIST_REFRESH_ERROR_FACTOR`;
//! * `mq_runtime`: `RECOVERY_ATTEMPT_LIMIT` and `RECOVERY_BACKOFF_MS`;
//! * `mq_par`: `PAR_BUCKETS` and `PAR_BROADCAST_ROWS`.

use crate::error::{MqError, Result};

/// All engine tunables. Construct with [`EngineConfig::default`] and
/// override fields, then call [`EngineConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Bytes per disk page.
    pub page_size: usize,
    /// Buffer-pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// Total memory budget (bytes) the memory manager divides among the
    /// operators of one query (the paper's per-node 8–32 MB, scaled).
    pub query_memory_bytes: usize,
    /// Simulated milliseconds charged per physical page read.
    pub io_read_ms: f64,
    /// Simulated milliseconds charged per physical page write.
    pub io_write_ms: f64,
    /// Simulated milliseconds charged per tuple-level CPU operation.
    pub cpu_op_ms: f64,
    /// Simulated milliseconds charged per optimizer work unit
    /// (one DP candidate-plan costing). Used to model `T_opt`.
    pub opt_work_ms: f64,
    /// μ — maximum statistics-collection overhead fraction (§2.5).
    pub mu: f64,
    /// θ1 — optimization-time threshold of Equation 1 (§2.4).
    pub theta1: f64,
    /// θ2 — sub-optimality threshold of Equation 2 (§2.4).
    pub theta2: f64,
    /// Plan-switch acceptance margin: the re-optimized remainder (plus
    /// materialization) must be predicted at least this factor cheaper
    /// than continuing. 1.0 reproduces the paper's bare `<` comparison;
    /// the default hedges the winner's-curse bias of comparing the
    /// optimizer's most optimistic candidate against a fixed plan (see
    /// EXPERIMENTS.md, ablations).
    pub switch_margin: f64,
    /// Demand headroom for mid-query memory re-allocation: improved
    /// cardinalities are scaled by this factor when deriving memory
    /// demands (improved estimates still inherit the join-selectivity
    /// bias of everything unobserved).
    pub realloc_headroom: f64,
    /// Statistics feedback (§2.2: collected statistics "can also be
    /// used to update the statistics stored in the database catalogs").
    /// When enabled, a collector that observed the *complete, unfiltered*
    /// output of a base-table scan writes its exact row count and
    /// per-column observations back to the catalog after the query, so
    /// later queries plan against healed statistics. Off by default:
    /// the paper's experiments (and EXPERIMENTS.md) measure every query
    /// against the *same* stale catalog.
    pub stats_feedback: bool,
    /// Skew-verdict threshold: an exchange stage whose max/mean
    /// per-partition cardinality ratio exceeds this fires a skew
    /// verdict and re-balances the bucket→partition assignment.
    pub par_skew_theta: f64,
    /// Cross-query sub-plan caching: promote plan-switch
    /// materializations into a fingerprint-keyed cache and splice
    /// `CachedScan` nodes over matching sub-trees of later queries.
    /// Also enables the statistics feedback store (observed sub-plan
    /// cardinalities override catalog estimates). Off by default: the
    /// paper's experiments measure every query cold.
    pub cache_enabled: bool,
    /// Byte budget for the sub-plan cache; cost-benefit eviction keeps
    /// live entries within it (a runtime may re-lease this from the
    /// global memory broker).
    pub cache_budget_bytes: usize,
    /// Normalized-SQL plan caching: canonicalize query text into a
    /// family key, cache the optimized physical plan template after
    /// enumeration, and rebind literals on later probes so repeated
    /// families skip parsing-to-enumeration entirely. Off by default:
    /// the paper's experiments optimize every query from scratch.
    pub plan_cache_enabled: bool,
    /// Maximum number of plan-cache entries (LRU-evicted beyond this).
    pub plan_cache_entries: usize,
    /// Number of large errors (see `mq_reopt::engine::HIST_REFRESH_ERROR_FACTOR`)
    /// attributable to one base-table column before its histogram is
    /// incrementally rebuilt from live data. 0 disables the refresh.
    pub hist_refresh_hits: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            page_size: 4096,
            buffer_pool_pages: 256, // 1 MiB of 4 KiB pages — the paper's 32 MB pool, scaled ~1:32 with the data
            query_memory_bytes: 512 * 1024,
            io_read_ms: 10.0,
            io_write_ms: 10.0,
            cpu_op_ms: 0.002,
            opt_work_ms: 0.05,
            mu: 0.05,
            theta1: 0.05,
            theta2: 0.2,
            switch_margin: 2.5,
            realloc_headroom: 1.5,
            stats_feedback: false,
            par_skew_theta: 4.0,
            cache_enabled: false,
            cache_budget_bytes: 4 * 1024 * 1024,
            plan_cache_enabled: false,
            plan_cache_entries: 64,
            hist_refresh_hits: 3,
        }
    }
}

impl EngineConfig {
    /// Check that the configuration is internally consistent.
    pub fn validate(&self) -> Result<()> {
        if self.page_size < 256 {
            return Err(MqError::InvalidConfig(format!(
                "page_size {} too small (min 256)",
                self.page_size
            )));
        }
        if self.buffer_pool_pages < 8 {
            return Err(MqError::InvalidConfig(
                "buffer_pool_pages must be at least 8".into(),
            ));
        }
        if self.query_memory_bytes < 4 * self.page_size {
            return Err(MqError::InvalidConfig(
                "query_memory_bytes must cover at least 4 pages".into(),
            ));
        }
        for (name, v) in [
            ("mu", self.mu),
            ("theta1", self.theta1),
            ("theta2", self.theta2),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(MqError::InvalidConfig(format!(
                    "{name} = {v} must be in [0, 1]"
                )));
            }
        }
        for (name, v) in [
            ("io_read_ms", self.io_read_ms),
            ("io_write_ms", self.io_write_ms),
            ("cpu_op_ms", self.cpu_op_ms),
            ("opt_work_ms", self.opt_work_ms),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(MqError::InvalidConfig(format!(
                    "{name} = {v} must be finite and non-negative"
                )));
            }
        }
        if self.switch_margin < 1.0 || !self.switch_margin.is_finite() {
            return Err(MqError::InvalidConfig(format!(
                "switch_margin {} must be ≥ 1",
                self.switch_margin
            )));
        }
        if self.realloc_headroom < 1.0 || !self.realloc_headroom.is_finite() {
            return Err(MqError::InvalidConfig(format!(
                "realloc_headroom {} must be ≥ 1",
                self.realloc_headroom
            )));
        }
        if self.par_skew_theta < 1.0 || !self.par_skew_theta.is_finite() {
            return Err(MqError::InvalidConfig(format!(
                "par_skew_theta {} must be ≥ 1",
                self.par_skew_theta
            )));
        }
        if self.cache_enabled && self.cache_budget_bytes < self.page_size {
            return Err(MqError::InvalidConfig(format!(
                "cache_budget_bytes {} must cover at least one page when the cache is enabled",
                self.cache_budget_bytes
            )));
        }
        if self.plan_cache_enabled && self.plan_cache_entries == 0 {
            return Err(MqError::InvalidConfig(
                "plan_cache_entries must be positive when the plan cache is enabled".into(),
            ));
        }
        Ok(())
    }

    /// Memory budget expressed in pages.
    pub fn query_memory_pages(&self) -> usize {
        self.query_memory_bytes / self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_knobs() {
        let bad = [
            EngineConfig {
                mu: 1.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                page_size: 64,
                ..EngineConfig::default()
            },
            EngineConfig {
                io_read_ms: f64::NAN,
                ..EngineConfig::default()
            },
            EngineConfig {
                query_memory_bytes: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                switch_margin: 0.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                realloc_headroom: 0.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                par_skew_theta: 0.5,
                ..EngineConfig::default()
            },
            EngineConfig {
                cache_enabled: true,
                cache_budget_bytes: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                plan_cache_enabled: true,
                plan_cache_entries: 0,
                ..EngineConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn memory_pages() {
        let c = EngineConfig::default();
        assert_eq!(c.query_memory_pages(), c.query_memory_bytes / c.page_size);
    }
}
