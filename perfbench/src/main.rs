//! `perfbench` — midq's benchmark.
//!
//! One command loads a workload from a seed, runs it in a closed loop
//! from a single process, checks the result rows and prints every
//! metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcd-modes --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` records why each one is there):
//!
//! * `tpcd-modes` — Q1, Q3, Q5, Q6, Q7, Q8 and Q10 under Off,
//!   MemoryOnly, PlanOnly and Full through `Database::query_plan`:
//!   28 statements per pass, the first pass a discarded warm-up.
//! * `sql-point-write` — the same data saved, reopened with the plan
//!   cache on, and driven by a seeded stream of index-served SQL
//!   (half of it through `Prepared::run`) with ~10% multi-row inserts.
//! * `tpcd-two-clients` — two `Database::session` threads running the
//!   seven queries in Full mode, each client in its own seeded order.
//!
//! The TPC-D data is the generator's fixed dataset; `--seed` draws the
//! statement order and the point stream.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it alternates untraced and
//! traced batches (an `mq_obs` sink attached, so `QueryOutcome.actuals`
//! carries per-operator cpu/io), then times each layer's public entry
//! points from this file's own code. Nothing inside the engine is
//! instrumented. `--scale` shrinks the data for the smoke test.
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod layers;
mod workload;

use std::path::{Path, PathBuf};

use workload::{Bench, Kind, SetupTimes};

/// Result type of the benchmark: any error ends the run without a
/// result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Scratch directory, relative to the working directory, for the
/// snapshot files `sql-point-write` and the persist probe write.
const SCRATCH: &str = ".bench_tmp";

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one run reports.
pub struct Report {
    pub metrics: Metrics,
    /// Extra lines for the human reader (sizes, sample counts, tails
    /// too thin to be a metric).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str = "usage: perfbench --workload <tpcd-modes|sql-point-write|tpcd-two-clients> \
--seed <n> --seconds <s> --trace <0|1> [--scale <sf>]";

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = mq_bench::BenchSetup::default().scale;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = val.parse::<f64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what| format!("missing {what}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(SCRATCH).join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(Into::into)
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    // Fails harmlessly while another run still uses the directory.
    let _ = std::fs::remove_dir(SCRATCH);
    match result {
        Ok(report) => print_report(&report),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Res<Report> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous database first so set-ups never overlap.
        drop(bench.take());
        let (b, times) = Bench::setup(args.kind, args.seed, args.scale, dir)?;
        setups.push(times);
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUP_REPS > 0");
    let mut report = if args.trace {
        layers::traced(&mut bench, &setups, args.seconds, dir)?
    } else {
        end_to_end(&mut bench, &setups, args.seconds)?
    };
    report.notes.insert(0, bench.sizes());
    report.attempted = bench.tally.attempted;
    report.failed = bench.tally.failed;
    report.mismatches = bench.tally.mismatches;
    Ok(report)
}

/// The untraced run: warm up, measure for `seconds`, then check rows.
fn end_to_end(bench: &mut Bench, setups: &[SetupTimes], seconds: f64) -> Res<Report> {
    bench.warm_up();
    let timed = bench.timed(seconds);
    bench.check()?;

    let mut lat = timed.batch.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    m.push(
        "setup_s",
        median(setups.iter().map(|s| s.total_s).collect()),
        "s",
    );
    m.push(
        "throughput_qps",
        lat.len() as f64 / timed.batch.wall_s,
        "1/s",
    );
    // Every workload's minimum sample count leaves ten samples beyond
    // p90. The TPC-D workloads cannot reach ten beyond p99 within a run,
    // so p99 is a note, printed only where it has them.
    for (name, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let (value, beyond) = percentile(&lat, q);
        if name != "p99" {
            m.push(format!("latency_ms.{name}"), value, "ms");
        }
        notes.push(if beyond >= 10 {
            format!(
                "latency_ms.{name}: {value} ms over {} samples, {beyond} beyond",
                lat.len()
            )
        } else {
            format!(
                "latency_ms.{name}: not reported, only {beyond} of {} samples beyond",
                lat.len()
            )
        });
    }
    m.push("sim_ms_per_stmt", timed.sim.sim_ms_per_stmt(), "ms");
    m.push("peak_rss_mb", peak_rss_mb()?, "MB");
    notes.push(format!(
        "sim_ms_per_stmt over {} statements ({})",
        timed.sim.stmts,
        if bench.kind == Kind::TpcdTwoClients {
            "all timed statements; interleaving makes it inexact"
        } else {
            "the first measured batch; exact for a seed"
        }
    ));
    Ok(Report {
        metrics: m,
        notes,
        attempted: 0,
        failed: 0,
        mismatches: 0,
    })
}

/// Nearest-rank percentile of sorted samples, and how many samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Peak resident set size (`VmHWM`) of this process.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_report(r: &Report) {
    for line in &r.notes {
        println!("# {line}");
    }
    let errors = r.failed + r.mismatches;
    println!(
        "# error_rate: {} ({} failed + {} row mismatches of {} attempted)",
        errors as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.mismatches,
        r.attempted
    );
    let mut json = Vec::new();
    for (name, value, unit) in &r.metrics.0 {
        println!("{name:<34} {value} {unit}");
        // JSON has no NaN or infinity; report them as 0 and fail the
        // run's correctness instead of printing an invalid line.
        let v = if value.is_finite() { *value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let finite = r.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors == 0 && finite && r.attempted > 0,
        r.attempted.max(1),
        errors,
        json.join(", ")
    );
}
