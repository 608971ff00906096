//! Smoke test of the benchmark at tiny scale: every workload prints
//! every metric `BENCHMARK.json` names, with its unit, checks clean,
//! and repeats its exact simulated metrics bit for bit under one seed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 3] = ["tpcd-modes", "sql-point-write", "tpcd-two-clients"];

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap_or_else(|| panic!("{name} has no unit"));
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Run the benchmark and return its result line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--scale", "0.001"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line, as printed.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len()..];
    &rest[..rest.find(',').expect("value ends")]
}

fn check_line(line: &str, section: &str) {
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(line.contains("\"failed\": 0, "), "{line}");
    for (name, unit) in declared(section) {
        let v = value(line, &name);
        assert!(v.parse::<f64>().is_ok(), "{name} = {v}");
        let with_unit = format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        assert!(
            line.contains(&with_unit),
            "{name} lacks unit {unit}: {line}"
        );
    }
}

#[test]
fn every_metric_prints_with_its_unit_and_no_errors() {
    for w in WORKLOADS {
        check_line(&run(w, "0"), "end_to_end");
        let traced = run(w, "1");
        check_line(&traced, "per_layer");
        assert_eq!(value(&traced, "error_rate"), "0", "{w}");
    }
}

#[test]
fn exact_simulated_metrics_repeat_under_one_seed() {
    // The two-client workload interleaves on the shared buffer pool, so
    // its simulated figures are not exact.
    for w in ["tpcd-modes", "sql-point-write"] {
        let (a, b) = (run(w, "0"), run(w, "0"));
        assert_eq!(
            value(&a, "sim_ms_per_stmt"),
            value(&b, "sim_ms_per_stmt"),
            "{w}"
        );
        let (a, b) = (run(w, "1"), run(w, "1"));
        for name in [
            "optimizer.opt_work",
            "storage.pages_read_per_stmt",
            "storage.pages_written_per_stmt",
        ] {
            assert_eq!(value(&a, name), value(&b, name), "{w} {name}");
        }
    }
}
