//! The performance ledger: every root `BENCH_*.json` is read against
//! `BENCHMARK.json`. A metric or unit the benchmark does not name, a claim
//! resting on fewer than `MIN_CLAIM_PAIRS` pairs, or a claimed direction
//! opposite to the metric's `better` fails here, and so do stated medians
//! or win counts that the raw per-pair values contradict.
//!
//! A ledger file holds `parent`, `change`, `host`, `command` and `source`
//! (`"measured"`, or `"CHANGES.md"` for a backfill that keeps only the
//! values that file states), then `workloads`: workload -> metric ->
//! `{unit, parent, change, parent_median, change_median, parent_iqr,
//! change_iqr, change_wins, pairs}`, every field but `unit` optional.
//! `claims` lists `{workload, metric, direction, pairs}`; `phases` holds
//! hand-timed tables (`{unit, parent_median, change_median}` per phase)
//! that are not benchmark metrics, so only their units are checked.

use serde::Value;
use std::path::Path;

/// A claim needs at least this many alternated parent/change pairs.
const MIN_CLAIM_PAIRS: usize = 6;

fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn nums(v: &Value, key: &str) -> Option<Vec<f64>> {
    match v.get(key)? {
        Value::Array(items) => items.iter().map(num).collect(),
        _ => None,
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        _ => &[],
    }
}

/// Linear-interpolated quantile of sorted `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-9)
}

/// `(name, unit, better)` for every metric `BENCHMARK.json` declares.
fn declared_metrics(spec: &Value) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        if let Some(Value::Array(metrics)) = spec.get(list) {
            for m in metrics {
                let get = |k| str_of(m, k).unwrap_or_default().to_string();
                out.push((get("name"), get("unit"), get("better")));
            }
        }
    }
    out
}

/// Everything wrong with one ledger file, as readable lines.
fn problems(bench: &Value, spec: &Value) -> Vec<String> {
    let metrics = declared_metrics(spec);
    let units: Vec<&str> = metrics.iter().map(|(_, u, _)| u.as_str()).collect();
    let workloads: Vec<&str> = match spec.get("workloads") {
        Some(Value::Array(ws)) => ws.iter().filter_map(|w| str_of(w, "name")).collect(),
        _ => Vec::new(),
    };
    let mut out = Vec::new();
    for key in ["parent", "change", "command", "source"] {
        if str_of(bench, key).is_none() {
            out.push(format!("no {key}"));
        }
    }
    if bench.get("host").is_none() {
        out.push("no host".into());
    }
    let metric = |name: &str| metrics.iter().find(|(n, _, _)| n == name);

    for (workload, by_metric) in entries(bench.get("workloads").unwrap_or(&Value::Null)) {
        if !workloads.contains(&workload.as_str()) {
            out.push(format!("unknown workload {workload}"));
        }
        for (name, m) in entries(by_metric) {
            let at = format!("{workload}/{name}");
            let Some((_, unit, better)) = metric(name) else {
                out.push(format!("{at}: unknown metric"));
                continue;
            };
            if str_of(m, "unit") != Some(unit) {
                out.push(format!("{at}: unit is not {unit}"));
            }
            let (parent, change) = (nums(m, "parent"), nums(m, "change"));
            for (side, raw) in [("parent", &parent), ("change", &change)] {
                let Some(raw) = raw.clone().filter(|r| !r.is_empty()) else {
                    continue;
                };
                let xs = sorted(raw);
                let iqr = quantile(&xs, 0.75) - quantile(&xs, 0.25);
                for (key, want) in [("median", quantile(&xs, 0.5)), ("iqr", iqr)] {
                    let stated = m.get(&format!("{side}_{key}")).and_then(num);
                    if stated.is_some_and(|s| !close(s, want)) {
                        out.push(format!("{at}: {side}_{key} is not {want}"));
                    }
                }
            }
            if let (Some(p), Some(c)) = (&parent, &change) {
                if p.len() != c.len() {
                    out.push(format!(
                        "{at}: {} parent runs, {} change runs",
                        p.len(),
                        c.len()
                    ));
                }
                let wins = p
                    .iter()
                    .zip(c)
                    .filter(|(p, c)| if better == "lower" { c < p } else { c > p })
                    .count();
                let stated = m.get("change_wins").and_then(num);
                if stated.is_some_and(|s| s != wins as f64) {
                    out.push(format!("{at}: change_wins is not {wins}"));
                }
            }
        }
    }

    let claims = match bench.get("claims") {
        Some(Value::Array(claims)) => claims.as_slice(),
        _ => &[],
    };
    for claim in claims {
        let (workload, name) = (
            str_of(claim, "workload").unwrap_or_default(),
            str_of(claim, "metric").unwrap_or_default(),
        );
        let at = format!("claim {workload}/{name}");
        let Some((_, _, better)) = metric(name) else {
            out.push(format!("{at}: unknown metric"));
            continue;
        };
        if str_of(claim, "direction") != Some(better) {
            out.push(format!("{at}: direction is not `{better}`"));
        }
        let recorded = bench
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(name));
        let raw_pairs = recorded
            .and_then(|m| nums(m, "parent").zip(nums(m, "change")))
            .map(|(p, c)| p.len().min(c.len()));
        let pairs = raw_pairs.or_else(|| {
            let stated = claim
                .get("pairs")
                .or_else(|| recorded.and_then(|m| m.get("pairs")));
            stated.and_then(num).map(|n| n as usize)
        });
        if pairs.unwrap_or(0) < MIN_CLAIM_PAIRS {
            out.push(format!(
                "{at}: {pairs:?} pairs, fewer than {MIN_CLAIM_PAIRS}"
            ));
        }
    }

    let phases = entries(bench.get("phases").unwrap_or(&Value::Null));
    for (phase, p) in phases.iter().filter(|(_, p)| matches!(p, Value::Object(_))) {
        let unit = str_of(p, "unit").unwrap_or_default();
        if !units.contains(&unit) {
            out.push(format!("phase {phase}: unknown unit {unit:?}"));
        }
    }
    out
}

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("read ledger file");
    serde_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_ledger_file_agrees_with_the_benchmark() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = read(&root.join("BENCHMARK.json"));
    let mut files: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the root");
    for file in files {
        let found = problems(&read(&file), &spec);
        assert!(
            found.is_empty(),
            "{}:\n  {}",
            file.display(),
            found.join("\n  ")
        );
    }
}

#[test]
fn a_malformed_ledger_file_is_rejected() {
    let spec = serde_json::parse(
        r#"{"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "recover_ms", "unit": "ms", "better": "lower"}]}"#,
    )
    .unwrap();
    let ledger = |metric: &str, unit: &str, direction: &str, runs: &str| {
        let text = format!(
            r#"{{"parent": "p", "change": "c", "command": "x", "source": "measured",
                "host": {{}},
                "workloads": {{"w": {{"{metric}": {{"unit": "{unit}",
                    "parent": [{runs}], "change": [{runs}]}}}}}},
                "claims": [{{"workload": "w", "metric": "{metric}",
                    "direction": "{direction}"}}]}}"#
        );
        problems(&serde_json::parse(&text).unwrap(), &spec)
    };
    let six = "2, 2, 2, 2, 2, 2";
    assert_eq!(
        ledger("recover_ms", "ms", "lower", six),
        Vec::<String>::new()
    );
    let unknown = ledger("recover_s", "ms", "lower", six);
    assert!(
        unknown.iter().any(|p| p.contains("unknown metric")),
        "{unknown:?}"
    );
    let unit = ledger("recover_ms", "s", "lower", six);
    assert!(
        unit.iter().any(|p| p.contains("unit is not ms")),
        "{unit:?}"
    );
    let few = ledger("recover_ms", "ms", "lower", "2, 2, 2, 2, 2");
    assert!(few.iter().any(|p| p.contains("fewer than 6")), "{few:?}");
    let opposite = ledger("recover_ms", "ms", "higher", six);
    assert!(
        opposite.iter().any(|p| p.contains("direction")),
        "{opposite:?}"
    );
}
