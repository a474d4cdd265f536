//! The smoke size (2 windows of 1/50 length) drives all four workloads,
//! the traced run and the selfcheck end to end.

use cs2p_perf::phases::Ctx;
use cs2p_perf::spec::{Scale, Spec, Workload};
use cs2p_perf::{gated, layers, pin, selfcheck};
use serde::Value;

fn ctx() -> Ctx {
    let spec = Spec::load();
    let scale = Scale::smoke(&spec);
    Ctx::new(spec, 42, scale).expect("scratch directory")
}

fn names(section: &str) -> Vec<String> {
    let bench: Value =
        serde_json::from_str(&std::fs::read_to_string("../BENCHMARK.json").unwrap()).unwrap();
    let Some(Value::Array(items)) = bench.get(section) else {
        panic!("{section} missing")
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("a metric without a name"),
        })
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn gated_smoke(workload: Workload) {
    let report = gated::run(&ctx(), workload).expect("the run completes");
    assert!(report.tally.correct(), "{:?}", report.tally.notes);
    assert!(report.tally.attempted > 0);
    let printed: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(sorted(printed), sorted(names("end_to_end")));
    assert!(report
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
    let line: Value = serde_json::from_str(&report.result_line()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed"), Some(&Value::Int(0)));
}

#[test]
fn predict_single_smoke() {
    gated_smoke(Workload::PredictSingle);
}

#[test]
fn predict_batch64_wal_smoke() {
    gated_smoke(Workload::PredictBatch64Wal);
}

#[test]
fn session_churn_smoke() {
    gated_smoke(Workload::SessionChurn);
}

#[test]
fn train_refresh_smoke() {
    gated_smoke(Workload::TrainRefresh);
}

#[test]
fn traced_run_smoke() {
    // Pins this test's thread (and the threads it spawns) only.
    let (_, unpinned) = pin::pin_to_current_cpu().expect("Linux lets a thread pin itself");
    let report = layers::run(&ctx(), Workload::SessionChurn, unpinned).expect("the run completes");
    assert!(report.tally.correct(), "{:?}", report.tally.notes);
    let printed: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(sorted(printed), sorted(names("per_layer")));
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    // Spans: written, parents before children, every request inside its window.
    let trace = std::fs::read_to_string("out/trace_session_churn.jsonl").expect("the trace file");
    let spans: Vec<Value> = trace
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(spans.len() > 100);
    let int = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Int(i)) => *i,
        other => panic!("{key}: {other:?}"),
    };
    let mut sends = 0;
    for (id, span) in spans.iter().enumerate() {
        assert!(int(span, "start_ns") <= int(span, "end_ns"));
        if let Some(Value::Int(parent)) = span.get("parent") {
            assert!((*parent as usize) < id);
            if matches!(span.get("name"), Some(Value::Str(n)) if n.starts_with("client.send")) {
                let window = &spans[*parent as usize];
                assert!(int(window, "start_ns") <= int(span, "start_ns"));
                assert!(int(span, "end_ns") <= int(window, "end_ns"));
                sends += 1;
            }
        }
    }
    assert!(sends > 0, "the traced pass recorded its requests");
}

#[test]
fn selfcheck_catches_every_injected_error() {
    let checks = selfcheck::run(&ctx()).expect("the selfcheck completes");
    assert!(checks.len() >= 14);
    for c in &checks {
        assert!(c.passed, "{}: {}", c.name, c.detail);
    }
}
