//! The `--metrics` JSONL schema: validation, stage coverage, and the
//! determinism normalizer used by CI.
//!
//! One JSON object per line. Every line has `ts_us` (unsigned), `kind`
//! (one of `event`, `span`, `counter`, `gauge`, `histogram`,
//! `quantile`), and a non-empty dotted `name` whose first segment is the
//! pipeline stage. Kind-specific required keys:
//!
//! | kind        | required keys                                    |
//! |-------------|--------------------------------------------------|
//! | `event`     | `level` ∈ {`debug`, `info`, `warn`}              |
//! | `span`      | `duration_us` (unsigned)                         |
//! | `counter`   | `value` (unsigned)                               |
//! | `gauge`     | `value` (number)                                 |
//! | `histogram` | `count`, `sum`, `min`, `max`, `buckets` (array of `[exp, count]`) |
//! | `quantile`  | `count` (unsigned), `min`, `max`, `p50`, `p90`, `p99` (numbers) |
//!
//! An optional `fields` object may carry scalar values. No other
//! top-level keys are allowed. See `OBSERVABILITY.md` for the prose
//! version of this contract.

use serde::Value;
use std::collections::BTreeSet;

/// The valid `kind` strings.
const KINDS: [&str; 6] = ["event", "span", "counter", "gauge", "histogram", "quantile"];

/// What a validated JSONL file covered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Coverage {
    /// Lines validated.
    pub n_records: usize,
    /// Distinct pipeline stages seen (first dotted segment of names).
    pub stages: BTreeSet<String>,
    /// Distinct record names seen.
    pub names: BTreeSet<String>,
}

impl Coverage {
    /// Whether every stage in `required` appeared.
    pub fn covers(&self, required: &[&str]) -> bool {
        required.iter().all(|s| self.stages.contains(*s))
    }
}

fn is_uint(v: &Value) -> bool {
    matches!(v, Value::UInt(_)) || matches!(v, Value::Int(i) if *i >= 0)
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::UInt(_) | Value::Int(_) | Value::Float(_))
}

fn is_scalar(v: &Value) -> bool {
    matches!(
        v,
        Value::UInt(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_)
    )
}

fn validate_line(line_no: usize, line: &str, errors: &mut Vec<String>) -> Option<(String, String)> {
    let err = |errors: &mut Vec<String>, msg: String| {
        errors.push(format!("line {line_no}: {msg}"));
        None
    };
    let v = match serde_json::parse(line) {
        Ok(v) => v,
        Err(e) => return err(errors, format!("not valid JSON: {e}")),
    };
    let Value::Object(fields) = &v else {
        return err(errors, "line is not a JSON object".into());
    };

    let Some(Value::Str(kind)) = v.get("kind") else {
        return err(errors, "missing string `kind`".into());
    };
    if !KINDS.contains(&kind.as_str()) {
        return err(errors, format!("unknown kind `{kind}`"));
    }
    let Some(Value::Str(name)) = v.get("name") else {
        return err(errors, "missing string `name`".into());
    };
    if name.is_empty() {
        return err(errors, "empty `name`".into());
    }
    match v.get("ts_us") {
        Some(ts) if is_uint(ts) => {}
        _ => return err(errors, "missing unsigned `ts_us`".into()),
    }

    let mut required: Vec<&str> = Vec::new();
    let ok = match kind.as_str() {
        "event" => {
            required.push("level");
            matches!(v.get("level"), Some(Value::Str(l))
                if ["debug", "info", "warn"].contains(&l.as_str()))
        }
        "span" => {
            required.push("duration_us");
            v.get("duration_us").is_some_and(is_uint)
        }
        "counter" => {
            required.push("value");
            v.get("value").is_some_and(is_uint)
        }
        "gauge" => {
            required.push("value");
            v.get("value").is_some_and(is_number)
        }
        "histogram" => {
            required.extend(["count", "sum", "min", "max", "buckets"]);
            let scalars_ok = v.get("count").is_some_and(is_uint)
                && v.get("sum").is_some_and(is_number)
                && v.get("min").is_some_and(is_number)
                && v.get("max").is_some_and(is_number);
            let buckets_ok = match v.get("buckets") {
                Some(Value::Array(items)) => items.iter().all(|b| match b {
                    Value::Array(pair) => {
                        pair.len() == 2
                            && matches!(pair[0], Value::Int(_) | Value::UInt(_))
                            && is_uint(&pair[1])
                    }
                    _ => false,
                }),
                _ => false,
            };
            scalars_ok && buckets_ok
        }
        "quantile" => {
            required.extend(["count", "min", "max", "p50", "p90", "p99"]);
            v.get("count").is_some_and(is_uint)
                && ["min", "max", "p50", "p90", "p99"]
                    .iter()
                    .all(|k| v.get(k).is_some_and(is_number))
        }
        _ => unreachable!("kind checked above"),
    };
    if !ok {
        return err(
            errors,
            format!("kind `{kind}` is missing or mistypes one of {required:?}"),
        );
    }

    if let Some(f) = v.get("fields") {
        match f {
            Value::Object(kv) => {
                for (k, fv) in kv {
                    if !is_scalar(fv) {
                        return err(errors, format!("field `{k}` is not a scalar"));
                    }
                }
            }
            _ => return err(errors, "`fields` is not an object".into()),
        }
    }

    let allowed: &[&str] = &[
        "ts_us",
        "kind",
        "name",
        "level",
        "duration_us",
        "value",
        "count",
        "sum",
        "min",
        "max",
        "buckets",
        "p50",
        "p90",
        "p99",
        "fields",
    ];
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return err(errors, format!("unknown top-level key `{k}`"));
        }
    }

    let stage = name.split('.').next().unwrap_or("").to_string();
    Some((stage, name.clone()))
}

/// Validates a JSONL document. Returns the coverage summary, or every
/// violation found (never an empty error list on `Err`).
pub fn validate_jsonl(text: &str) -> Result<Coverage, Vec<String>> {
    let mut errors = Vec::new();
    let mut coverage = Coverage::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some((stage, name)) = validate_line(i + 1, line, &mut errors) {
            coverage.n_records += 1;
            coverage.stages.insert(stage);
            coverage.names.insert(name);
        }
    }
    if coverage.n_records == 0 {
        errors.push("no records found".into());
    }
    if errors.is_empty() {
        Ok(coverage)
    } else {
        Err(errors)
    }
}

/// Strips the scheduling- and wall-clock-dependent parts of a metrics
/// JSONL file so two same-seed runs compare equal:
///
/// - `ts_us` is removed from every record;
/// - `span` records are dropped (their durations are wall time);
/// - `histogram` and `quantile` records whose name ends in `.us` are
///   dropped (latency distributions);
/// - records whose name starts with `serve.`, `client.retry.`, or
///   `client.breaker.` are dropped entirely: the serving layer's queue
///   depths, accept/reject counters, eviction counts, admission-ladder
///   accounting, fault telemetry, and the client's retry/circuit-breaker
///   accounting depend on connection timing and worker scheduling, not
///   on the model pipeline's inputs;
/// - field keys ending in `_us` are removed;
/// - `run_id` and `trace_id` fields are removed (allocation order and
///   scope-to-record attachment depend on thread scheduling);
/// - the surviving lines are sorted, because parallel stages (e.g. the
///   per-cluster EM runs) stream their events in scheduling order.
///
/// Everything else — counter values, gauges, value histograms, event
/// fields like per-iteration log-likelihoods — must be bit-identical
/// across runs, and CI diffs exactly this. In particular `quality.*`
/// records (online APE sketches and coverage counters) **survive**: the
/// per-session APE values are functions of seed-deterministic
/// observations and model state, independent of worker interleaving, so
/// two same-seed runs must agree on them exactly.
pub fn normalize_for_determinism(text: &str) -> String {
    let mut lines_out: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(Value::Object(fields)) = serde_json::parse(line) else {
            continue;
        };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let kind = match get("kind") {
            Some(Value::Str(k)) => k.clone(),
            _ => continue,
        };
        if kind == "span" {
            continue;
        }
        let name = match get("name") {
            Some(Value::Str(n)) => n.clone(),
            _ => continue,
        };
        if (kind == "histogram" || kind == "quantile") && name.ends_with(".us") {
            continue;
        }
        if name.starts_with("serve.")
            || name.starts_with("client.retry.")
            || name.starts_with("client.breaker.")
        {
            continue;
        }
        let kept: Vec<(String, Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "ts_us")
            .map(|(k, v)| {
                if k == "fields" {
                    if let Value::Object(kv) = v {
                        let kv: Vec<(String, Value)> = kv
                            .into_iter()
                            .filter(|(fk, _)| {
                                !fk.ends_with("_us") && fk != "run_id" && fk != "trace_id"
                            })
                            .collect();
                        return (k, Value::Object(kv));
                    }
                    (k, v)
                } else {
                    (k, v)
                }
            })
            .collect();
        lines_out.push(serde_json::to_string(&Value::Object(kept)).expect("rewriting JSON"));
    }
    lines_out.sort();
    let mut out = lines_out.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::event::Level;
    use crate::registry::Registry;
    use crate::sink::Sink;
    use crate::sink::{JsonlSink, MemorySink};
    use std::sync::Arc;

    fn emitted_jsonl() -> String {
        let clock = Arc::new(ManualClock::new());
        let r = Registry::with_clock(clock.clone());
        let sink = Arc::new(JsonlSink::new(Vec::new()));
        let mem = Arc::new(MemorySink::new());
        r.add_sink(mem.clone());
        r.event(
            Level::Info,
            "train.em.converged",
            vec![("iterations", 7usize.into())],
        );
        clock.advance(10);
        {
            let _s = r.span("predict.session");
            clock.advance(100);
        }
        r.counter_add("stream.chunks", 43);
        r.observe("stream.rebuffer_seconds", 1.5);
        r.emit_snapshot();
        for rec in mem.records() {
            sink.record(&rec);
        }
        sink.flush();
        // Reconstruct text from the memory records directly.
        mem.records()
            .iter()
            .map(|rec| rec.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn emitted_records_validate_and_cover_stages() {
        let text = emitted_jsonl();
        let cov = validate_jsonl(&text).expect("emitted JSONL must self-validate");
        assert!(
            cov.covers(&["train", "predict", "stream"]),
            "{:?}",
            cov.stages
        );
        assert!(cov.n_records >= 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "not json",
            r#"{"kind":"event","name":"x","level":"info"}"#, // no ts_us
            r#"{"ts_us":1,"kind":"mystery","name":"x"}"#,
            r#"{"ts_us":1,"kind":"event","name":"","level":"info"}"#,
            r#"{"ts_us":1,"kind":"event","name":"x","level":"fatal"}"#,
            r#"{"ts_us":1,"kind":"span","name":"x"}"#, // no duration
            r#"{"ts_us":1,"kind":"counter","name":"x","value":-3}"#,
            r#"{"ts_us":1,"kind":"histogram","name":"x","count":1,"sum":1.0,"min":1.0,"max":1.0,"buckets":[[0]]}"#,
            r#"{"ts_us":1,"kind":"event","name":"x","level":"info","extra":1}"#,
            r#"{"ts_us":1,"kind":"event","name":"x","level":"info","fields":{"a":[1]}}"#,
        ] {
            assert!(validate_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("\n\n").is_err());
    }

    #[test]
    fn normalization_drops_wall_time_only() {
        let text = emitted_jsonl();
        let norm = normalize_for_determinism(&text);
        assert!(!norm.contains("ts_us"));
        assert!(!norm.contains("\"span\""));
        assert!(!norm.contains("predict.session.us"));
        // Deterministic content survives.
        assert!(norm.contains("train.em.converged"));
        assert!(norm.contains("stream.chunks"));
        assert!(norm.contains("stream.rebuffer_seconds"));
        // Normalizing twice is a fixed point.
        assert_eq!(normalize_for_determinism(&norm), norm);
    }

    #[test]
    fn normalization_strips_serving_telemetry() {
        let text = concat!(
            r#"{"ts_us":1,"kind":"counter","name":"serve.rejected","value":3}"#,
            "\n",
            r#"{"ts_us":2,"kind":"gauge","name":"serve.queue_depth","value":7}"#,
            "\n",
            r#"{"ts_us":3,"kind":"counter","name":"serve.evicted","value":12}"#,
            "\n",
            r#"{"ts_us":4,"kind":"counter","name":"predict.server.served","value":9}"#,
            "\n",
            r#"{"ts_us":5,"kind":"counter","name":"client.retry.attempts","value":2}"#,
            "\n",
            r#"{"ts_us":6,"kind":"counter","name":"serve.fault.bad_frames","value":1}"#,
            "\n",
            r#"{"ts_us":7,"kind":"counter","name":"serve.admission.shed","value":4}"#,
            "\n",
            r#"{"ts_us":8,"kind":"counter","name":"client.breaker.opens","value":1}"#,
            "\n",
        );
        let norm = normalize_for_determinism(text);
        assert!(!norm.contains("serve."), "{norm}");
        assert!(!norm.contains("client.retry."), "{norm}");
        assert!(!norm.contains("client.breaker."), "{norm}");
        assert!(norm.contains("predict.server.served"));
        assert_eq!(normalize_for_determinism(&norm), norm);
    }

    #[test]
    fn same_manual_clock_runs_are_identical_even_unnormalized() {
        let (a, b) = (emitted_jsonl(), emitted_jsonl());
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_records_validate() {
        let good = r#"{"ts_us":1,"kind":"quantile","name":"quality.ape.v1.cluster.initial","count":4,"min":0.1,"max":0.9,"p50":0.2,"p90":0.8,"p99":0.9}"#;
        let cov = validate_jsonl(good).expect("valid quantile line");
        assert!(cov.covers(&["quality"]));
        for bad in [
            // Missing p99.
            r#"{"ts_us":1,"kind":"quantile","name":"q","count":4,"min":0.1,"max":0.9,"p50":0.2,"p90":0.8}"#,
            // Negative count.
            r#"{"ts_us":1,"kind":"quantile","name":"q","count":-1,"min":0.1,"max":0.9,"p50":0.2,"p90":0.8,"p99":0.9}"#,
            // Non-numeric quantile.
            r#"{"ts_us":1,"kind":"quantile","name":"q","count":1,"min":0.1,"max":0.9,"p50":"mid","p90":0.8,"p99":0.9}"#,
        ] {
            assert!(validate_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn normalization_keeps_quality_drops_latency_quantiles_and_trace_ids() {
        let text = concat!(
            r#"{"ts_us":1,"kind":"quantile","name":"quality.ape.v1.cluster.midstream","count":4,"min":0.1,"max":0.9,"p50":0.2,"p90":0.8,"p99":0.9}"#,
            "\n",
            r#"{"ts_us":2,"kind":"quantile","name":"net.server.request.us","count":4,"min":1.0,"max":9.0,"p50":2.0,"p90":8.0,"p99":9.0}"#,
            "\n",
            r#"{"ts_us":3,"kind":"counter","name":"quality.coverage.matched","value":12}"#,
            "\n",
            r#"{"ts_us":4,"kind":"event","name":"quality.drift.alarm","level":"warn","fields":{"median_ape":0.6,"trace_id":42,"window":16}}"#,
            "\n",
        );
        let norm = normalize_for_determinism(text);
        // Seed-deterministic quality content survives...
        assert!(norm.contains("quality.ape.v1.cluster.midstream"), "{norm}");
        assert!(norm.contains("quality.coverage.matched"));
        assert!(norm.contains("quality.drift.alarm"));
        assert!(norm.contains("median_ape"));
        // ...while wall-clock latency sketches and trace ids are stripped.
        assert!(!norm.contains("net.server.request.us"), "{norm}");
        assert!(!norm.contains("trace_id"), "{norm}");
        assert_eq!(normalize_for_determinism(&norm), norm);
    }
}
