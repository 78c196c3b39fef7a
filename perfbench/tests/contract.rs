//! The benchmark's own contract: `BENCHMARK.json` and the metric
//! registry agree, names use the allowed characters, and a tiny run of
//! every workload prints every metric and passes every correctness check.

use std::path::Path;
use std::process::Command;

use ocin_perfbench::json::Json;
use ocin_perfbench::metrics::{END_TO_END, PER_LAYER};
use ocin_perfbench::workloads::NAMES;

/// Whether `name` uses only `[A-Za-z0-9_.-]`, starts with a letter or a
/// digit, and is at most 64 characters long.
fn valid_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

fn owned(registry: &[(&str, &str)]) -> Vec<(String, String)> {
    registry
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names_units(b.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(names_units(b.get("per_layer").unwrap()), owned(&PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, NAMES);
    for m in b.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let setup = b
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn names_and_units_use_allowed_characters() {
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(unit_ok(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "metric {name} listed twice");
    }
    for name in NAMES {
        assert!(valid_name(name), "bad workload name {name}");
        assert!(seen.insert(name), "workload {name} reuses a metric name");
    }
}

/// Runs the benchmark binary; returns its exit code and standard output.
fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ocin-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn tiny_runs_print_every_metric_and_pass_every_check() {
    for workload in NAMES {
        for (trace, registry) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let what = format!("{workload} --trace {trace}");
            let (code, stdout) = bench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--size",
                "tiny",
            ]);
            let line = stdout.lines().last().unwrap_or_default();
            let r = Json::parse(line)
                .unwrap_or_else(|e| panic!("{what}: last line is not JSON ({e}): {line}"));
            assert_eq!(
                r.keys(),
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{what}:\n{stdout}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{what}");
            assert!(
                r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
                "{what}"
            );
            assert_eq!(code, Some(0), "{what}");
            let metrics = r.get("metrics").unwrap();
            assert_eq!(
                metrics.keys(),
                registry.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                "{what}"
            );
            for (name, unit) in registry {
                let m = metrics.get(name).unwrap();
                assert_eq!(m.keys(), ["value", "unit"], "{what}: {name}");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(*unit),
                    "{what}: {name}"
                );
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{what}: {name} = {v}");
                if trace == "0" {
                    assert!(v > 0.0, "{what}: end-to-end metric {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn the_default_seed_matches_the_recorded_digests() {
    for workload in NAMES {
        let (code, stdout) = bench(&[
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--size",
            "tiny",
        ]);
        assert_eq!(code, Some(0), "{workload}:\n{stdout}");
        assert!(!stdout.contains("CHECK FAILED"), "{workload}:\n{stdout}");
    }
}

#[test]
fn bad_arguments_exit_with_code_2_and_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "fc8-sweep", "--trace", "2"],
        &["--workload", "fc8-sweep", "--seconds", "0"],
        &["--workload"],
        &["--bogus", "1"],
    ] {
        let (code, stdout) = bench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
