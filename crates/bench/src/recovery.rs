//! Crash campaign: kill the engine at every checkpoint boundary (and
//! at sampled mid-materialization page writes), recover, and verify
//! the recovery contract.
//!
//! For each chaos query × execution config (serial, 4-way partitioned)
//! the campaign first runs fault-free under a *counting* injector to
//! learn the query's kill points — how many segment boundaries and
//! page writes the deterministic execution passes through — and its
//! cold cost. Then, for every enumerated kill point `k`:
//!
//! 1. **Crash** — run with a single injected [`FaultKind::Crash`] at
//!    `k`; the engine must die with [`MqError::Crash`], abandoning its
//!    in-flight state (no `CleanupGuard`).
//! 2. **Recover** — [`Engine::recover_with`] validates the checkpoint
//!    manifest, sweeps the orphans, and resumes the remainder. The
//!    recovered rows must be identical to the fault-free oracle.
//! 3. **Clean** — [`Engine::audit`] must be clean afterwards and no
//!    manifest may stay open: every crash is fully reabsorbed.
//! 4. **Cheaper** — when the crash landed after at least one completed
//!    segment (`segments_salvaged > 0`), the recovery's total
//!    simulated cost (validation re-scans + sweep + resumed
//!    execution) must be *strictly below* the cold fault-free cost:
//!    salvaged checkpoints are capital, not overhead.
//!
//! [`Engine::audit`]: midq::Engine::audit
//! [`Engine::recover_with`]: midq::Engine::recover_with
//! [`FaultKind::Crash`]: midq::common::FaultKind::Crash
//! [`MqError::Crash`]: midq::MqError::Crash

use midq::common::{EngineConfig, FaultInjector, FaultKind, FaultSite, FaultSpec, SimClock};
use midq::reopt::{JobEnv, ParSpec};
use midq::tpcd::{queries, TpcdConfig};
use midq::{
    Database, Engine, ExecRequest, LogicalPlan, MqError, PlanSource, QueryOutcome, ReoptMode,
};

use crate::chaos::{fingerprint, CHAOS_QUERIES};

/// Cap on boundary kill points exercised per query × config (sampled
/// evenly when the execution has more boundaries than this).
const MAX_BOUNDARY_KILLS: u64 = 12;

/// Extra switch-prone complex queries beyond the chaos set: these
/// reliably complete at least one segment before finishing, so kills
/// late in their execution exercise the salvage path hard.
const EXTRA_QUERIES: [&str; 2] = ["Q5", "Q7"];

/// The crash-campaign database: the bench-scale load (the chaos scale
/// is too small for the optimizer to ever mispredict badly enough to
/// switch plans) with the paper's bare-improvement switch acceptance
/// (`switch_margin = 1.0`), so Q1/Q3/Q10 all switch — i.e. complete
/// checkpointable segments — and statistics feedback disabled so
/// repeated runs on the shared database stay deterministic.
fn crash_database() -> Database {
    let cfg = EngineConfig {
        buffer_pool_pages: 64,
        query_memory_bytes: 512 * 1024,
        stats_feedback: false,
        switch_margin: 1.0,
        ..EngineConfig::default()
    };
    let db = Database::new(cfg).expect("engine");
    db.load_tpcd(&TpcdConfig {
        scale: 0.008,
        analyze_after_fraction: 0.5,
        ..TpcdConfig::default()
    })
    .expect("load");
    db
}

/// Aggregate result of a crash campaign.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Kill points exercised (crash + recover cycles attempted).
    pub kill_points: usize,
    /// Injected kills that actually crashed the query.
    pub crashes: usize,
    /// Recoveries that completed the query.
    pub recoveries: usize,
    /// Recoveries that salvaged at least one checkpointed segment.
    pub salvaged_recoveries: usize,
    /// Total segments salvaged across all recoveries.
    pub total_salvaged: u64,
    /// Invariant violations (empty = the campaign passed).
    pub violations: Vec<String>,
}

impl CrashReport {
    /// Did the campaign uphold every invariant — and actually salvage
    /// checkpointed work at least once?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.salvaged_recoveries > 0
    }

    /// One-paragraph summary for logs and CI output.
    pub fn summary(&self) -> String {
        format!(
            "crash campaign: {} kill points — {} crashes, {} recoveries \
             ({} salvaged ≥1 segment, {} segments total) — {} violation(s)",
            self.kill_points,
            self.crashes,
            self.recoveries,
            self.salvaged_recoveries,
            self.total_salvaged,
            self.violations.len()
        )
    }
}

/// One row of the `figures -- recovery` panel: a crash injected at the
/// query's *last* segment boundary (the point of maximum salvage),
/// recovered, and compared against the fault-free cold cost.
#[derive(Debug)]
pub struct RecoveryPoint {
    /// Query label.
    pub query: &'static str,
    /// Segment boundaries the fault-free execution passes through.
    pub boundaries: u64,
    /// Checkpointed segments the recovery validated and reused.
    pub segments_salvaged: u32,
    /// Fault-free cold cost (simulated ms).
    pub cold_ms: f64,
    /// Total recovery cost: validation re-scans + orphan sweep +
    /// resumed execution (simulated ms).
    pub recovery_ms: f64,
}

/// Crash each chaos query (serial) at its final segment boundary and
/// recover it — the headline demonstration that salvaged checkpoints
/// make recovery strictly cheaper than re-running from scratch.
pub fn recovery_figure() -> Vec<RecoveryPoint> {
    let db = crash_database();
    let engine = db.engine();
    let cfg = engine.config().clone();
    let all = queries::all();
    let mut out = Vec::new();
    for name in CHAOS_QUERIES.iter().chain(EXTRA_QUERIES.iter()) {
        let Some(plan) = all.iter().find(|(n, _)| n == name).map(|(_, p)| p.clone()) else {
            continue;
        };

        let counter = FaultInjector::none();
        let (mut env, cold_clock) = child_env(engine, None);
        env.fault = Some(counter.clone());
        if run_plan_only(engine, &plan, env).is_err() {
            continue;
        }
        let cold_ms = cold_clock.elapsed_ms(&cfg);
        let boundaries = counter.ops_at(FaultSite::SegmentBoundary);
        if boundaries == 0 {
            continue;
        }

        let inj = FaultInjector::new(
            vec![FaultSpec {
                site: FaultSite::SegmentBoundary,
                kind: FaultKind::Crash,
                at: boundaries,
            }],
            None,
        );
        let (mut env, _) = child_env(engine, None);
        env.fault = Some(inj);
        let query_id = env.query_id;
        if !matches!(run_plan_only(engine, &plan, env), Err(MqError::Crash(_))) {
            continue;
        }
        let (env, _) = child_env(engine, None);
        let Ok(rec) = engine.recover_with(query_id, env) else {
            continue;
        };
        out.push(RecoveryPoint {
            query: name,
            boundaries,
            segments_salvaged: rec.segments_salvaged,
            cold_ms,
            recovery_ms: rec.recovery_ms,
        });
    }
    out
}

/// Run `plan` in PlanOnly mode — the regime where queries actually
/// checkpoint (see the module docs).
fn run_plan_only(engine: &Engine, plan: &LogicalPlan, env: JobEnv) -> midq::Result<QueryOutcome> {
    engine.execute(ExecRequest {
        logical: plan,
        mode: ReoptMode::PlanOnly,
        env,
        source: PlanSource::Plan,
    })
}

/// A job environment on a fresh child clock, so each run's simulated
/// cost is measured in isolation while still feeding the engine total.
fn child_env(engine: &Engine, partitions: Option<usize>) -> (JobEnv, SimClock) {
    let mut env = engine.default_env();
    let clock = engine.clock().child();
    env.clock = clock.clone();
    env.par = partitions.map(ParSpec::new);
    (env, clock)
}

/// Run the crash campaign over every chaos query under both execution
/// configs. `verbose` prints one line per query × config.
pub fn run_crash_campaign(verbose: bool) -> CrashReport {
    let db = crash_database();
    let engine = db.engine();
    let cfg = engine.config().clone();
    let all = queries::all();
    let plans: Vec<(&'static str, LogicalPlan)> = CHAOS_QUERIES
        .iter()
        .chain(EXTRA_QUERIES.iter())
        .map(|name| {
            all.iter()
                .find(|(n, _)| n == name)
                .map(|(n, p)| (*n, p.clone()))
                .unwrap_or_else(|| panic!("unknown chaos query {name}"))
        })
        .collect();

    let mut report = CrashReport::default();
    let violate = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < 32 {
            violations.push(msg);
        }
    };

    for (name, plan) in &plans {
        for (cfg_label, partitions) in [("serial", None), ("p4", Some(4))] {
            let label = format!("{name} {cfg_label}");

            // Counting run: fault-free, but every fault site's logical
            // op counter advances — afterwards the injector knows how
            // many kill points this deterministic execution has.
            let counter = FaultInjector::none();
            let (mut env, cold_clock) = child_env(engine, partitions);
            env.fault = Some(counter.clone());
            let cold = match run_plan_only(engine, plan, env) {
                Ok(o) => o,
                Err(e) => {
                    violate(
                        &mut report.violations,
                        format!("{label}: cold run failed: {e}"),
                    );
                    continue;
                }
            };
            let cold_ms = cold_clock.elapsed_ms(&cfg);
            let cold_switches = cold.plan_switches;
            let oracle = fingerprint(&Ok(cold));
            let boundaries = counter.ops_at(FaultSite::SegmentBoundary);
            let writes = counter.ops_at(FaultSite::PageWrite);

            // Every segment boundary is a kill point (sampled evenly
            // past the cap); page writes are sampled at quartiles to
            // land kills mid-materialization and mid-spill.
            let mut points: Vec<(FaultSite, u64)> = Vec::new();
            if boundaries > 0 {
                let step = boundaries.div_ceil(MAX_BOUNDARY_KILLS).max(1);
                points.extend(
                    (1..=boundaries)
                        .step_by(step as usize)
                        .map(|k| (FaultSite::SegmentBoundary, k)),
                );
                if points.last() != Some(&(FaultSite::SegmentBoundary, boundaries)) {
                    points.push((FaultSite::SegmentBoundary, boundaries));
                }
            }
            for at in [writes / 4, writes / 2, (3 * writes) / 4] {
                if at > 0 && !points.contains(&(FaultSite::PageWrite, at)) {
                    points.push((FaultSite::PageWrite, at));
                }
            }
            if verbose {
                println!(
                    "{label}: {} boundaries, {} writes, {} switches -> {} kill points \
                     (cold {cold_ms:.1} ms)",
                    boundaries,
                    writes,
                    cold_switches,
                    points.len()
                );
            }

            for (site, at) in points {
                report.kill_points += 1;
                let inj = FaultInjector::new(
                    vec![FaultSpec {
                        site,
                        kind: FaultKind::Crash,
                        at,
                    }],
                    None,
                );
                let (mut env, _crash_clock) = child_env(engine, partitions);
                env.fault = Some(inj);
                let query_id = env.query_id;
                match run_plan_only(engine, plan, env) {
                    Err(MqError::Crash(_)) => report.crashes += 1,
                    Ok(_) => {
                        violate(
                            &mut report.violations,
                            format!("{label}: kill at {site:?} #{at} never fired"),
                        );
                        continue;
                    }
                    Err(e) => {
                        violate(
                            &mut report.violations,
                            format!("{label}: kill at {site:?} #{at} died dirty: {e}"),
                        );
                        continue;
                    }
                }

                let (env, _recovery_clock) = child_env(engine, partitions);
                match engine.recover_with(query_id, env) {
                    Ok(recovery) => {
                        report.recoveries += 1;
                        let salvaged = recovery.segments_salvaged;
                        let recovery_ms = recovery.recovery_ms;
                        let fp = fingerprint(&Ok(recovery.outcome));
                        if fp != oracle {
                            violate(
                                &mut report.violations,
                                format!(
                                    "{label} kill {site:?} #{at}: recovered rows diverged \
                                     ({fp} vs {oracle})"
                                ),
                            );
                        }
                        if salvaged > 0 {
                            report.salvaged_recoveries += 1;
                            report.total_salvaged += u64::from(salvaged);
                            if recovery_ms >= cold_ms {
                                violate(
                                    &mut report.violations,
                                    format!(
                                        "{label} kill {site:?} #{at}: salvaged recovery not \
                                         cheaper ({recovery_ms:.1} >= {cold_ms:.1} sim-ms)"
                                    ),
                                );
                            }
                        }
                    }
                    Err(e) => {
                        violate(
                            &mut report.violations,
                            format!("{label} kill {site:?} #{at}: recovery failed: {e}"),
                        );
                    }
                }

                let audit = engine.audit();
                if !audit.is_clean() {
                    violate(
                        &mut report.violations,
                        format!("{label} kill {site:?} #{at}: {audit}"),
                    );
                }
                if !engine.manifests().open_queries().is_empty() {
                    violate(
                        &mut report.violations,
                        format!(
                            "{label} kill {site:?} #{at}: manifest(s) left open: {:?}",
                            engine.manifests().open_queries()
                        ),
                    );
                }
            }
        }
    }
    report
}
