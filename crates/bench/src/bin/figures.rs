//! Regenerate every figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p mq-bench --bin figures            # all figures
//! cargo run --release -p mq-bench --bin figures -- fig10   # one figure
//! ```

use midq::obs::ObsEvent;
use mq_bench::recovery::recovery_figure;
use mq_bench::{
    ablation_histogram_class, ablation_realloc_headroom, ablation_switch_margin,
    cache_warm_vs_cold, est_vs_actual, fig03_memory_realloc, fig10, fig11, fig12, overhead,
    par_skew, par_speedup, plancache_arc, render_pairs, sensitivity, throughput_vs_budget,
    throughput_vs_workers, BenchSetup, Knob,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    // `par` accepts an optional partition list: `par=1,4` (CI smoke)
    // instead of the default 1,2,4,8 curve.
    let par_partitions: Vec<usize> = args
        .iter()
        .find_map(|a| a.strip_prefix("par="))
        .map(|list| {
            list.split(',')
                .map(|v| v.parse().expect("par=P1,P2,..."))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let want_par = want("par") || args.iter().any(|a| a.starts_with("par="));
    let setup = BenchSetup::default();

    if want("fig03") {
        let f = fig03_memory_realloc();
        println!("== FIG 3 (memory re-allocation worked example) ==");
        println!(
            "time without re-allocation : {:.1} ms ({} spill writes)",
            f.off_ms, f.off_writes
        );
        println!(
            "time with re-allocation    : {:.1} ms ({} spill writes)",
            f.mem_ms, f.mem_writes
        );
        println!("grant re-allocations       : {}", f.reallocs);
        println!();
    }

    if want("fig10") {
        let pairs = fig10(&setup);
        println!(
            "{}",
            render_pairs("FIG 10: normal vs re-optimized (uniform data)", &pairs)
        );
    }

    if want("fig11") {
        let rows = fig11(&setup);
        println!("== FIG 11: isolating memory management vs plan modification ==");
        println!(
            "{:<5} {:>12} {:>14} {:>14} {:>10} {:>10}",
            "query", "normal(ms)", "mem-only(ms)", "plan-only(ms)", "mem-gain%", "plan-gain%"
        );
        for (off, mem, plan) in rows {
            println!(
                "{:<5} {:>12.1} {:>14.1} {:>14.1} {:>10.1} {:>10.1}",
                off.query,
                off.time_ms,
                mem.time_ms,
                plan.time_ms,
                (off.time_ms - mem.time_ms) / off.time_ms * 100.0,
                (off.time_ms - plan.time_ms) / off.time_ms * 100.0,
            );
        }
        println!();
    }

    if want("fig12") {
        for z in [0.3, 0.6] {
            let pairs = fig12(&setup, z);
            println!("== FIG 12: skewed data, z = {z} (normalized reopt/normal) ==");
            println!(
                "{:<5} {:>10} {:>9} {:>9}",
                "query", "ratio", "switches", "reallocs"
            );
            for (off, full) in pairs {
                println!(
                    "{:<5} {:>10.3} {:>9} {:>9}",
                    off.query,
                    full.time_ms / off.time_ms,
                    full.switches,
                    full.reallocs
                );
            }
            println!();
        }
    }

    if want("overhead") {
        let pairs = overhead(&setup);
        println!(
            "{}",
            render_pairs("OVERHEAD: simple queries, collectors on", &pairs)
        );
    }

    if want("ablate") {
        println!("== ABLATION: switch acceptance margin (PlanOnly) ==");
        for (m, rows) in ablation_switch_margin(&setup, &[1.0, 1.5, 2.5]) {
            for (off, plan) in rows {
                println!(
                    "  margin={m:<4} {:<4} off={:>9.1} plan-only={:>9.1} gain={:>6.1}% switches={}",
                    off.query,
                    off.time_ms,
                    plan.time_ms,
                    (off.time_ms - plan.time_ms) / off.time_ms * 100.0,
                    plan.switches
                );
            }
        }
        println!();
        println!("== ABLATION: re-allocation demand headroom (MemoryOnly) ==");
        for (h, rows) in ablation_realloc_headroom(&setup, &[1.0, 1.5, 2.0]) {
            for (off, mem) in rows {
                println!(
                    "  headroom={h:<4} {:<4} off={:>9.1} mem-only={:>9.1} gain={:>6.1}% reallocs={}",
                    off.query,
                    off.time_ms,
                    mem.time_ms,
                    (off.time_ms - mem.time_ms) / off.time_ms * 100.0,
                    mem.reallocs
                );
            }
        }
        println!();
    }

    if want("hist") {
        // Uniform data renders the classes nearly indistinguishable
        // (bucket boundaries barely matter when frequencies are flat);
        // the z = 0.6 skew of Figure 12 is where they separate.
        let setup = BenchSetup {
            zipf_z: Some(0.6),
            ..setup.clone()
        };
        println!("== ABLATION: catalog histogram class (§2.5 potentials), Q5, skew z=0.6 ==");
        println!(
            "{:<12} {:>12} {:>12} {:>8} {:>9} {:>9}",
            "class", "off(ms)", "full(ms)", "gain%", "switches", "reallocs"
        );
        for (kind, off, full) in ablation_histogram_class(&setup, "Q5") {
            println!(
                "{:<12} {:>12.1} {:>12.1} {:>8.1} {:>9} {:>9}",
                kind.to_string(),
                off.time_ms,
                full.time_ms,
                (off.time_ms - full.time_ms) / off.time_ms * 100.0,
                full.switches,
                full.reallocs
            );
        }
        println!();
    }

    if want("conc") {
        println!("== CONCURRENT RUNTIME: throughput vs workers (28 queries, Full mode) ==");
        println!(
            "{:>7} {:>12} {:>14} {:>10} {:>8} {:>12} {:>12}",
            "workers", "ok/queries", "makespan(ms)", "q/sim-s", "speedup", "in-flight", "hwm(KiB)"
        );
        for p in throughput_vs_workers(&setup, &[1, 2, 4, 8]) {
            println!(
                "{:>7} {:>12} {:>14.1} {:>10.2} {:>8.2} {:>12} {:>12}",
                p.workers,
                format!("{}/{}", p.succeeded, p.queries),
                p.makespan_sim_ms,
                p.throughput_qps,
                p.speedup,
                p.max_in_flight,
                p.high_water_bytes / 1024
            );
        }
        println!();
        let qmb = setup.cfg.query_memory_bytes;
        println!("== CONCURRENT RUNTIME: throughput vs global budget (4 workers) ==");
        println!(
            "{:>12} {:>12} {:>14} {:>10} {:>12} {:>12}",
            "budget(KiB)", "ok/queries", "makespan(ms)", "q/sim-s", "in-flight", "hwm(KiB)"
        );
        // The smallest budget stays above the largest per-plan minimum
        // demand (~108 KiB for the join-heavy queries): below that a
        // query cannot run at all, with any amount of queueing.
        for p in throughput_vs_budget(&setup, 4, &[4 * qmb, 2 * qmb, qmb, qmb / 2, qmb / 4]) {
            println!(
                "{:>12} {:>12} {:>14.1} {:>10.2} {:>12} {:>12}",
                p.global_budget_bytes / 1024,
                format!("{}/{}", p.succeeded, p.queries),
                p.makespan_sim_ms,
                p.throughput_qps,
                p.max_in_flight,
                p.high_water_bytes / 1024
            );
        }
        println!();
    }

    if want_par {
        println!("== PAR (a): Q10 elapsed vs partition count (Off mode) ==");
        println!(
            "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>6}",
            "partitions",
            "elapsed(ms)",
            "speedup",
            "saved(ms)",
            "io-pages",
            "cpu-ops",
            "exchanges",
            "rows"
        );
        let points = par_speedup(&setup, "Q10", &par_partitions);
        let base = points.first().map(|p| p.time_ms).unwrap_or(0.0);
        for p in &points {
            println!(
                "{:>10} {:>12.1} {:>9.2}x {:>10.1} {:>10} {:>10} {:>9} {:>6}",
                p.partitions,
                p.time_ms,
                base / p.time_ms,
                p.saved_ms,
                p.io_pages,
                p.cpu_ops,
                p.exchanges,
                p.rows
            );
        }
        println!();
        let (stat, reb) = par_skew(&setup, 1.0, 4, setup.cfg.par_skew_theta.min(1.15));
        println!("== PAR (b): skewed Q10 (z=1.0, P=4) — static vs skew-aware assignment ==");
        println!(
            "{:<12} {:>12} {:>10} {:>14} {:>18} {:>6}",
            "assignment", "elapsed(ms)", "saved(ms)", "skew verdicts", "worst max/mean", "rows"
        );
        println!(
            "{:<12} {:>12.1} {:>10.1} {:>14} {:>18} {:>6}",
            "static", stat.time_ms, stat.saved_ms, stat.skew_verdicts, "(disabled)", stat.rows
        );
        println!(
            "{:<12} {:>12.1} {:>10.1} {:>14} {:>18} {:>6}",
            "rebalanced",
            reb.time_ms,
            reb.saved_ms,
            reb.skew_verdicts,
            format!("{:.2} -> {:.2}", reb.worst_skew.0, reb.worst_skew.1),
            reb.rows
        );
        println!(
            "re-partitioning: elapsed {:.1} -> {:.1} ms, same rows: {}",
            stat.time_ms,
            reb.time_ms,
            stat.rows == reb.rows
        );
        println!();
    }

    if want("trace") {
        // Skewed + stale: the regime where the optimizer's estimates go
        // wrong enough for Q10 to switch plans mid-flight.
        let setup = BenchSetup {
            scale: 0.005,
            zipf_z: Some(1.1),
            analyze_after_fraction: 0.2,
            ..setup.clone()
        };
        println!("== TRACE: est vs actual at every collector checkpoint (Q10, z=1.1) ==");
        println!(
            "{:<6} {:>14} {:>14} {:>12} {:>10}",
            "node", "est rows", "actual rows", "inaccuracy", "complete"
        );
        let events = est_vs_actual(&setup, "Q10");
        for e in &events {
            if let ObsEvent::Collector {
                node,
                observed_rows,
                estimated_rows,
                inaccuracy,
                complete,
                ..
            } = e
            {
                println!(
                    "{node:<6} {estimated_rows:>14.0} {observed_rows:>14} {inaccuracy:>12.2} \
                     {complete:>10}"
                );
            }
        }
        println!("re-optimization decisions:");
        for e in &events {
            if let ObsEvent::Reopt {
                verdict,
                t_new_ms,
                t_cur_ms,
                ..
            } = e
            {
                let verdict = verdict.as_str();
                println!("  {verdict}: t_cur={t_cur_ms:.1}ms t_new={t_new_ms:.1}ms");
            }
        }
        println!();
    }

    if want("cache") {
        println!("== CACHE: warm vs cold on a cache-enabled engine (PlanOnly, margin 1.0) ==");
        println!(
            "{:<5} {:>10} {:>10} {:>8} {:>10} {:>10} {:>6} {:>11}",
            "query", "cold(ms)", "warm(ms)", "ratio", "switches", "promoted", "hits", "saved(KiB)"
        );
        for p in cache_warm_vs_cold(&setup, &["Q3", "Q10", "Q5"]) {
            println!(
                "{:<5} {:>10.1} {:>10.1} {:>8.2} {:>10} {:>10} {:>6} {:>11}",
                p.query,
                p.cold_ms,
                p.warm_ms,
                p.cold_ms / p.warm_ms.max(f64::EPSILON),
                format!("{}->{}", p.cold_switches, p.warm_switches),
                p.promotions,
                p.hits,
                p.saved_bytes / 1024
            );
        }
        println!();
    }

    if want("plancache") {
        println!("== PLAN CACHE: one family, cold -> warm -> stale -> re-warmed (Off mode) ==");
        println!(
            "{:<18} {:>10} {:>9} {:>8} {:>6} {:>13}",
            "run (qty, price)", "time(ms)", "opt-work", "outcome", "rows", "rows==oracle"
        );
        for r in plancache_arc(&setup) {
            println!(
                "{:<18} {:>10.1} {:>9} {:>8} {:>6} {:>13}",
                r.label,
                r.time_ms,
                r.opt_work,
                r.outcome,
                r.rows,
                if r.rows_match_oracle { "yes" } else { "NO" }
            );
        }
        println!();
    }

    if want("recovery") {
        println!("== RECOVERY: crash at final checkpoint — salvaged resume vs cold re-run ==");
        println!(
            "{:<6} {:>11} {:>9} {:>11} {:>13} {:>7}",
            "query", "boundaries", "salvaged", "cold(ms)", "recover(ms)", "ratio"
        );
        for p in recovery_figure() {
            println!(
                "{:<6} {:>11} {:>9} {:>11.1} {:>13.1} {:>7.2}",
                p.query,
                p.boundaries,
                p.segments_salvaged,
                p.cold_ms,
                p.recovery_ms,
                p.recovery_ms / p.cold_ms
            );
        }
        println!();
    }

    if want("sens") {
        println!("== SENSITIVITY (Q5, Full mode) ==");
        for (knob, name, values) in [
            (Knob::Mu, "mu", vec![0.0, 0.01, 0.05, 0.1, 0.2]),
            (Knob::Theta1, "theta1", vec![0.0, 0.05, 0.2, 0.5]),
            (Knob::Theta2, "theta2", vec![0.0, 0.1, 0.2, 0.5, 1.0]),
        ] {
            println!("-- {name} --");
            for (v, m) in sensitivity(&setup, "Q5", knob, &values) {
                println!(
                    "  {name}={v:<5} time={:>10.1}ms switches={} reallocs={}",
                    m.time_ms, m.switches, m.reallocs
                );
            }
        }
    }
}
