//! The simulated-cost clock.
//!
//! Paradise measured wall-clock seconds on a four-node cluster; this
//! reproduction instead *counts* every physical page read/write (through
//! the buffer pool), every tuple-level CPU operation, and every
//! optimizer work unit, then converts the counts into a deterministic
//! "simulated time" using the [`crate::EngineConfig`] cost constants.
//! Determinism is what lets every figure in EXPERIMENTS.md be
//! regenerated bit-for-bit.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::EngineConfig;

/// Shared counters for the four cost dimensions. Cloning shares the
/// underlying counters.
///
/// ## Per-query attribution under concurrency
///
/// A clock can be a [`SimClock::child`] of another: charges to the
/// child also propagate to its parent, so a per-job clock feeds the
/// engine-wide aggregate for free. Components built before the job
/// existed (the shared storage layer holds the *global* clock) are
/// redirected through a thread-local scope: while a
/// [`SimClock::enter_scope`] guard for a child clock is alive on the
/// current thread, any charge made against that child's parent is
/// booked to the child instead (and still reaches the parent exactly
/// once). This gives per-query cost attribution without threading a
/// clock through every storage call site.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: Arc<Counters>,
    parent: Option<Arc<Counters>>,
}

thread_local! {
    static CLOCK_SCOPE: RefCell<Vec<SimClock>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard from [`SimClock::enter_scope`]; popping restores the
/// previously scoped clock (scopes nest).
pub struct ClockScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ClockScope {
    fn drop(&mut self) {
        CLOCK_SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[derive(Debug, Default)]
struct Counters {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    cpu_ops: AtomicU64,
    opt_work: AtomicU64,
    /// Simulated milliseconds *saved* by partitioned parallelism, stored
    /// as `f64` bits. Resource counters above stay sums over all work;
    /// per-stage elapsed time is max-over-partitions, and the difference
    /// (sum − max) accumulates here so `elapsed − saved` reproduces the
    /// parallel wall-clock deterministically for any partition count.
    parallel_saved_ms_bits: AtomicU64,
}

impl Counters {
    fn add_saved_ms(&self, ms: f64) {
        let mut cur = self.parallel_saved_ms_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + ms).to_bits();
            match self.parallel_saved_ms_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A point-in-time copy of the counters; subtract two snapshots to cost
/// an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSnapshot {
    /// Physical page reads.
    pub pages_read: u64,
    /// Physical page writes.
    pub pages_written: u64,
    /// Tuple-level CPU operations.
    pub cpu_ops: u64,
    /// Optimizer work units (DP candidate costings).
    pub opt_work: u64,
}

impl CostSnapshot {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            cpu_ops: self.cpu_ops.saturating_sub(earlier.cpu_ops),
            opt_work: self.opt_work.saturating_sub(earlier.opt_work),
        }
    }

    /// Convert counts into simulated milliseconds.
    pub fn time_ms(&self, cfg: &EngineConfig) -> f64 {
        self.pages_read as f64 * cfg.io_read_ms
            + self.pages_written as f64 * cfg.io_write_ms
            + self.cpu_ops as f64 * cfg.cpu_op_ms
            + self.opt_work as f64 * cfg.opt_work_ms
    }

    /// Total physical I/O count.
    pub fn io_total(&self) -> u64 {
        self.pages_read + self.pages_written
    }
}

impl SimClock {
    /// A fresh clock with all counters at zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// A zeroed clock whose charges also propagate to `self` (one
    /// level; children of children still propagate only to their
    /// immediate parent).
    pub fn child(&self) -> SimClock {
        SimClock {
            inner: Arc::new(Counters::default()),
            parent: Some(Arc::clone(&self.inner)),
        }
    }

    /// Make this clock the charge target for the current thread until
    /// the returned guard drops: charges against this clock's *parent*
    /// made on this thread are redirected here (see the type docs).
    pub fn enter_scope(&self) -> ClockScope {
        CLOCK_SCOPE.with(|s| s.borrow_mut().push(self.clone()));
        ClockScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Book a charge, honouring redirection and parent propagation.
    /// Every affected counter set is bumped exactly once.
    fn charge(&self, f: impl Fn(&Counters)) {
        let redirected = CLOCK_SCOPE.with(|s| {
            let stack = s.borrow();
            if let Some(scoped) = stack.last() {
                let to_parent_of_scope = !Arc::ptr_eq(&scoped.inner, &self.inner)
                    && scoped
                        .parent
                        .as_ref()
                        .is_some_and(|p| Arc::ptr_eq(p, &self.inner));
                if to_parent_of_scope {
                    f(&scoped.inner);
                    f(&self.inner);
                    return true;
                }
            }
            false
        });
        if redirected {
            return;
        }
        f(&self.inner);
        if let Some(p) = &self.parent {
            f(p);
        }
    }

    /// Record `n` physical page reads.
    pub fn add_reads(&self, n: u64) {
        self.charge(|c| {
            c.pages_read.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Record `n` physical page writes.
    pub fn add_writes(&self, n: u64) {
        self.charge(|c| {
            c.pages_written.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Record `n` tuple-level CPU operations.
    pub fn add_cpu(&self, n: u64) {
        self.charge(|c| {
            c.cpu_ops.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Record `n` optimizer work units (used to charge `T_opt` when the
    /// optimizer is re-invoked mid-query).
    pub fn add_opt_work(&self, n: u64) {
        self.charge(|c| {
            c.opt_work.fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Record simulated milliseconds saved by running partitions in
    /// parallel (sum-over-buckets minus max-over-partitions for one
    /// exchange stage). Propagates like any other charge so per-job and
    /// global clocks stay consistent.
    pub fn add_parallel_saved_ms(&self, ms: f64) {
        if ms <= 0.0 || !ms.is_finite() {
            return;
        }
        self.charge(|c| c.add_saved_ms(ms));
    }

    /// Total simulated milliseconds saved by parallelism so far.
    pub fn parallel_saved_ms(&self) -> f64 {
        f64::from_bits(self.inner.parallel_saved_ms_bits.load(Ordering::Relaxed))
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            pages_read: self.inner.pages_read.load(Ordering::Relaxed),
            pages_written: self.inner.pages_written.load(Ordering::Relaxed),
            cpu_ops: self.inner.cpu_ops.load(Ordering::Relaxed),
            opt_work: self.inner.opt_work.load(Ordering::Relaxed),
        }
    }

    /// Current simulated time since the clock was created.
    pub fn elapsed_ms(&self, cfg: &EngineConfig) -> f64 {
        self.snapshot().time_ms(cfg)
    }

    /// Charge an exponential backoff before retry `attempt` (1-based):
    /// `base_ms × 2^(attempt−1)` simulated milliseconds, expressed in
    /// CPU ops. The exponent is capped at 16; nothing is charged when
    /// CPU work is free (`cpu_op_ms` of 0).
    pub fn charge_backoff(&self, cfg: &EngineConfig, base_ms: f64, attempt: u32) {
        if cfg.cpu_op_ms <= 0.0 {
            return;
        }
        let factor = f64::from(1u32 << attempt.saturating_sub(1).min(16));
        self.add_cpu((base_ms * factor / cfg.cpu_op_ms).ceil() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_costing() {
        let clock = SimClock::new();
        clock.add_reads(10);
        clock.add_writes(5);
        clock.add_cpu(1000);
        clock.add_opt_work(20);

        let cfg = EngineConfig::default();
        let snap = clock.snapshot();
        let expect = 10.0 * cfg.io_read_ms
            + 5.0 * cfg.io_write_ms
            + 1000.0 * cfg.cpu_op_ms
            + 20.0 * cfg.opt_work_ms;
        assert!((snap.time_ms(&cfg) - expect).abs() < 1e-9);
        assert_eq!(snap.io_total(), 15);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let cfg = EngineConfig::default();
        for (base_ms, expect) in [(5.0, [2500, 5000, 10000]), (50.0, [25000, 50000, 100000])] {
            for (attempt, ops) in (1..=3).zip(expect) {
                let clock = SimClock::new();
                clock.charge_backoff(&cfg, base_ms, attempt);
                assert_eq!(
                    clock.snapshot().cpu_ops,
                    ops,
                    "{base_ms} ms, attempt {attempt}"
                );
            }
        }
        let free = EngineConfig {
            cpu_op_ms: 0.0,
            ..EngineConfig::default()
        };
        let clock = SimClock::new();
        clock.charge_backoff(&free, 50.0, 3);
        assert_eq!(clock.snapshot().cpu_ops, 0);
    }

    #[test]
    fn snapshots_diff() {
        let clock = SimClock::new();
        clock.add_reads(3);
        let a = clock.snapshot();
        clock.add_reads(4);
        clock.add_cpu(7);
        let b = clock.snapshot();
        let d = b.since(&a);
        assert_eq!(d.pages_read, 4);
        assert_eq!(d.cpu_ops, 7);
        assert_eq!(d.pages_written, 0);
    }

    #[test]
    fn clones_share_counters() {
        let clock = SimClock::new();
        let c2 = clock.clone();
        c2.add_writes(2);
        assert_eq!(clock.snapshot().pages_written, 2);
    }

    #[test]
    fn child_propagates_to_parent() {
        let global = SimClock::new();
        let job = global.child();
        job.add_reads(5);
        assert_eq!(job.snapshot().pages_read, 5);
        assert_eq!(global.snapshot().pages_read, 5);
        // Parent charges do not leak into the child.
        global.add_reads(2);
        assert_eq!(job.snapshot().pages_read, 5);
        assert_eq!(global.snapshot().pages_read, 7);
    }

    #[test]
    fn scope_redirects_parent_charges_without_double_count() {
        let global = SimClock::new();
        let job = global.child();
        {
            let _scope = job.enter_scope();
            // Storage-style charge against the global clock: lands on
            // the scoped job clock AND the global one, each once.
            global.add_writes(3);
            // Direct charge on the job clock: also exactly once each.
            job.add_cpu(10);
        }
        assert_eq!(job.snapshot().pages_written, 3);
        assert_eq!(global.snapshot().pages_written, 3);
        assert_eq!(job.snapshot().cpu_ops, 10);
        assert_eq!(global.snapshot().cpu_ops, 10);
        // Scope dropped: global charges stay global.
        global.add_writes(1);
        assert_eq!(job.snapshot().pages_written, 3);
        assert_eq!(global.snapshot().pages_written, 4);
    }

    #[test]
    fn scope_ignores_unrelated_clocks() {
        let global = SimClock::new();
        let other = SimClock::new();
        let job = global.child();
        let _scope = job.enter_scope();
        other.add_reads(4);
        assert_eq!(other.snapshot().pages_read, 4);
        assert_eq!(job.snapshot().pages_read, 0);
        assert_eq!(global.snapshot().pages_read, 0);
    }

    #[test]
    fn parallel_saved_ms_accumulates_and_propagates() {
        let global = SimClock::new();
        let job = global.child();
        job.add_parallel_saved_ms(12.5);
        job.add_parallel_saved_ms(7.5);
        assert!((job.parallel_saved_ms() - 20.0).abs() < 1e-12);
        assert!((global.parallel_saved_ms() - 20.0).abs() < 1e-12);
        // Non-positive and non-finite amounts are ignored.
        job.add_parallel_saved_ms(-1.0);
        job.add_parallel_saved_ms(f64::NAN);
        assert!((job.parallel_saved_ms() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn scopes_are_per_thread() {
        let global = SimClock::new();
        let job = global.child();
        let _scope = job.enter_scope();
        let g2 = global.clone();
        std::thread::spawn(move || g2.add_reads(6)).join().unwrap();
        // The other thread had no scope: nothing reached the job clock.
        assert_eq!(job.snapshot().pages_read, 0);
        assert_eq!(global.snapshot().pages_read, 6);
    }
}
