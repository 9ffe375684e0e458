//! Self-test of the benchmark at tiny size: every named metric is
//! emitted with its unit, the traced ledger accounts for the traced
//! wall time, and every output digest agrees with its reference.

use ja_ledgerbench::record::Outcome;
use ja_ledgerbench::registry::{self, MetricDef};
use ja_ledgerbench::{run, Options, Size, WORKLOADS};
use serde_json::Value;

fn tiny(workload: &str, traced: bool) -> Outcome {
    run(&Options {
        workload: workload.into(),
        seed: 7,
        seconds: 0.01,
        traced,
        size: Size::Tiny,
    })
    .expect("known workload")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(kv) => kv
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("{key}: not an object: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    match field(&spec, key) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{key}: not an array: {other:?}"),
    }
}

fn names(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_emitted_metrics_and_workloads() {
    assert_eq!(listed("end_to_end"), names(registry::END_TO_END));
    assert_eq!(listed("per_layer"), names(registry::PER_LAYER));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let workloads: Vec<&str> = match field(&spec, "workloads") {
        Value::Array(w) => w.iter().map(|w| text(field(w, "name"))).collect(),
        other => panic!("workloads: {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_every_digest_agrees() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let out = tiny(workload, traced);
            assert!(
                out.correct(),
                "{workload} traced={traced}: {:?}",
                out.checks.failures
            );
            assert_eq!(out.checks.failed, 0);
            let line: Value = serde_json::from_str(&out.json()).expect("result line parses");
            assert!(matches!(field(&line, "correct"), Value::Bool(true)));
            let metrics = field(&line, "metrics");
            let emitted = match metrics {
                Value::Object(kv) => kv.len(),
                other => panic!("metrics: {other:?}"),
            };
            let expected = registry::emitted(traced);
            assert_eq!(emitted, expected.len(), "{workload} traced={traced}");
            for d in expected {
                let m = field(metrics, d.name);
                assert_eq!(text(field(m, "unit")), d.unit, "{workload}: {}", d.name);
                assert!(
                    matches!(field(m, "value"), Value::Number(_)),
                    "{workload}: {} has no numeric value",
                    d.name
                );
            }
        }
    }
}

#[test]
fn the_ledger_accounts_for_the_traced_wall_time() {
    for workload in ["fleet_mix", "capture_replay"] {
        let out = tiny(workload, true);
        let coverage = out.metric("ledger.coverage").expect("coverage").median;
        assert!(
            (0.95..=1.0).contains(&coverage),
            "{workload}: ledger.coverage {coverage}"
        );
        let overhead = out.metric("ledger.overhead").expect("overhead").median;
        assert!(overhead > 0.0, "{workload}: ledger.overhead {overhead}");
    }
}
