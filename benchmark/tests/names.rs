//! Runs the built binary the way a person and the acceptance driver do and
//! holds what it prints against `BENCHMARK.json`: every name in the file is
//! printed by the smoke run and every name printed is in the file.

use capnet_benchmark::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_capnet-benchmark");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// The `name` of every entry of the contract's list `key`.
fn names(contract: &Value, key: &str) -> BTreeSet<String> {
    let Some(Value::Arr(items)) = contract.get(key) else {
        panic!("BENCHMARK.json has no list {key}");
    };
    items
        .iter()
        .map(|v| {
            v.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_owned()
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

#[test]
fn smoke_run_prints_exactly_the_names_in_benchmark_json() {
    let contract = contract();
    let workloads = names(&contract, "workloads");
    let mut metrics = names(&contract, "end_to_end");
    metrics.extend(names(&contract, "per_layer"));
    let expected: BTreeSet<(String, String)> = workloads
        .iter()
        .flat_map(|w| metrics.iter().map(move |m| (w.clone(), m.clone())))
        .collect();

    let (ok, stdout) = run(&["--smoke", "--seed", "5"]);
    assert!(ok, "the smoke run passes its own output checks");
    let mut printed = BTreeSet::new();
    for line in stdout.lines() {
        // `workload metric value unit`, one per line.
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "malformed line {line:?}");
        fields[2]
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("value in {line:?}"));
        assert!(
            printed.insert((fields[0].to_owned(), fields[1].to_owned())),
            "{} {} printed twice",
            fields[0],
            fields[1]
        );
    }
    let missing: Vec<_> = expected.difference(&printed).collect();
    let extra: Vec<_> = printed.difference(&expected).collect();
    assert!(
        missing.is_empty(),
        "in BENCHMARK.json, not printed: {missing:?}"
    );
    assert!(
        extra.is_empty(),
        "printed, not in BENCHMARK.json: {extra:?}"
    );
}

#[test]
fn result_line_carries_every_metric_of_its_pass() {
    let contract = contract();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = run(&[
            "--workload",
            "httpd_churn",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--scale",
            "10",
            "--trace",
            trace,
        ]);
        assert!(ok, "--trace {trace} run exits 0");
        let last = stdout.lines().last().expect("a result line");
        let result = json::parse(last).expect("last stdout line is one JSON object");
        let keys: Vec<&str> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let got: BTreeSet<String> = result
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, v)| {
                assert!(
                    v.get("value").and_then(Value::as_f64).is_some(),
                    "{k} has a value"
                );
                assert!(
                    v.get("unit").and_then(Value::as_str).is_some(),
                    "{k} has a unit"
                );
                k.clone()
            })
            .collect();
        assert_eq!(got, names(&contract, key), "--trace {trace} metrics");
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--seconds", "0"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args:?}");
    }
}
