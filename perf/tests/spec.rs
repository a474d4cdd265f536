//! BENCHMARK.json, spec.json and the code agree.

use cs2p_perf::spec::{Spec, Workload, SPEC_JSON};
use serde::Value;

fn parse(text: &str) -> Value {
    serde_json::from_str(text).expect("valid JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn benchmark() -> Value {
    parse(
        &std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root"),
    )
}

#[test]
fn the_workloads_are_the_four_of_the_issue() {
    let names: Vec<String> = array(&benchmark(), "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, code);
    let spec = parse(SPEC_JSON);
    for name in code {
        assert!(
            spec.get("workloads").and_then(|w| w.get(name)).is_some(),
            "{name} in spec.json"
        );
    }
}

#[test]
fn end_to_end_metrics_match_spec_json() {
    let bench = benchmark();
    let spec = parse(SPEC_JSON);
    let (b, s) = (array(&bench, "end_to_end"), array(&spec, "end_to_end"));
    assert_eq!(b.len(), 7);
    assert_eq!(b.len(), s.len());
    for (b, s) in b.iter().zip(s) {
        for key in ["name", "unit", "better"] {
            assert_eq!(string(b, key), string(s, key));
        }
        assert_eq!(b.get("bound"), s.get("bound"), "{}", string(b, "name"));
        let Some(Value::Float(bound)) = b.get("bound") else {
            panic!("bound of {} is not a number", string(b, "name"))
        };
        assert!(
            *bound <= 0.25,
            "the contract allows no bound wider than 0.25"
        );
    }
    assert!(b
        .iter()
        .any(|m| string(m, "name") == "setup_s" && string(m, "unit") == "s"));
    assert_eq!(bench.get("run_seconds"), spec.get("run_seconds"));
    assert_eq!(Spec::load().run_seconds, 10);
}

#[test]
fn spec_json_carries_its_reasons() {
    let spec = parse(SPEC_JSON);
    assert!(array(&spec, "interactions").len() >= 6);
    assert!(!array(&spec, "not_measurable_from_outside").is_empty());
    for m in array(&spec, "end_to_end") {
        assert!(["max_window", "p25_window_median", "min_of_n", "at_exit"]
            .contains(&string(m, "estimator").as_str()));
    }
    for w in Workload::ALL {
        let native = array(
            spec.get("workloads").unwrap().get(w.name()).unwrap(),
            "native_metrics",
        );
        assert!(!native.is_empty());
    }
}
