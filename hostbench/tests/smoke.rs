//! Short runs of every workload through the built binary. The result line
//! must hold exactly the metrics BENCHMARK.json declares, each with its
//! declared unit, and no failed operation.

use std::process::Command;

use efex_report::jsonval::{self, Value};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const PREDICTIONS: &str = include_str!("../predictions.json");

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("a string")
}

/// `(name, unit)` of every metric in a BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = jsonval::parse(BENCHMARK).expect("BENCHMARK.json parses");
    field(&doc, section)
        .as_array()
        .expect("an array")
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(args)
        .output()
        .expect("hostbench runs");
    eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8"),
    )
}

/// Runs one workload for a second and checks its result line against the
/// declared metrics; returns the metrics object.
fn smoke(workload: &str, trace: bool, section: &str) -> Value {
    let trace = if trace { "1" } else { "0" };
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(ok, "{workload} exited with an error:\n{stdout}");
    let result = jsonval::parse(stdout.lines().last().expect("output")).expect("JSON result");
    let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(field(&result, "correct").as_bool(), Some(true));
    assert_eq!(field(&result, "failed").as_u64(), Some(0));
    assert!(field(&result, "attempted").as_u64() >= Some(1));
    let metrics = field(&result, "metrics").as_object().expect("an object");
    let mut expected = declared(section);
    expected.sort();
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value").as_f64().expect("a number");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), str_of(m, "unit").to_string())
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{workload}: metrics or units differ from BENCHMARK.json"
    );
    field(&result, "metrics").clone()
}

#[test]
fn fleet_mix_prints_every_end_to_end_metric() {
    smoke("fleet-mix", false, "end_to_end");
}

#[test]
fn delivery_storm_prints_every_end_to_end_metric() {
    smoke("delivery-storm", false, "end_to_end");
}

#[test]
fn cold_checkpoint_prints_every_end_to_end_metric() {
    smoke("cold-checkpoint", false, "end_to_end");
}

#[test]
fn traced_runs_print_every_per_layer_metric_with_repeatable_alloc_counts() {
    let a = smoke("cold-checkpoint", true, "per_layer");
    let b = smoke("cold-checkpoint", true, "per_layer");
    let allocs = |m: &Value| -> Vec<(String, f64)> {
        m.as_object()
            .expect("an object")
            .iter()
            .filter(|(name, _)| name.starts_with("alloc."))
            .map(|(name, v)| (name.clone(), field(v, "value").as_f64().expect("a number")))
            .collect()
    };
    assert!(!allocs(&a).is_empty());
    assert_eq!(allocs(&a), allocs(&b));
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let (ok, stdout) = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn predictions_name_every_per_layer_metric_and_real_targets() {
    let doc = jsonval::parse(PREDICTIONS).expect("predictions.json parses");
    let map = field(&doc, "predictions").as_object().expect("an object");
    let mut layers: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    layers.sort();
    assert_eq!(map.keys().cloned().collect::<Vec<_>>(), layers);
    let bench = jsonval::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = field(&bench, "workloads")
        .as_array()
        .expect("an array")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let metrics: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    for (layer, p) in map {
        for key in ["moves", "unchanged"] {
            for target in field(p, key).as_array().expect("an array") {
                let target = target.as_str().expect("a string");
                let (w, m) = target.split_once('/').expect("workload/metric");
                assert!(
                    workloads.contains(&w) && metrics.iter().any(|n| n == m),
                    "{layer}: unknown target {target}"
                );
            }
        }
    }
}
