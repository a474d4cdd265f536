//! Golden-fixture regression harness.
//!
//! A golden test serializes a value to JSON and compares it against a
//! fixture checked in under `crates/cs2p-testkit/fixtures/`. Comparison
//! is structural and tolerance-aware: numbers may differ by a tiny
//! relative epsilon (so a libm or instruction-scheduling difference does
//! not fail the suite), everything else must match exactly.
//!
//! Regeneration policy (also documented in TESTING.md): run the test
//! with `UPDATE_GOLDEN=1` to rewrite the fixture from current behaviour,
//! then review the diff like any other code change.

use serde::Value;
use std::path::PathBuf;

/// Relative tolerance for comparing numbers inside fixtures.
const REL_TOLERANCE: f64 = 1e-9;

/// Absolute floor below which numeric differences are ignored.
const ABS_TOLERANCE: f64 = 1e-12;

/// Directory holding the checked-in fixtures.
fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

/// Serializes `value` and checks it against the fixture `name`
/// (`fixtures/<name>.json`). Honors `UPDATE_GOLDEN=1`.
pub fn check_golden_value<T: serde::Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string(value).expect("golden value serializes");
    check_golden(name, &json);
}

/// Checks a pre-serialized JSON document against the fixture `name`.
///
/// Panics with a precise node path on mismatch; with regeneration
/// instructions if the fixture is missing.
pub fn check_golden(name: &str, actual_json: &str) {
    let path = fixtures_dir().join(format!("{name}.json"));
    let actual = serde_json::parse(actual_json)
        .unwrap_or_else(|e| panic!("golden `{name}`: actual output is not valid JSON: {e}"));

    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(fixtures_dir()).expect("create fixtures dir");
        std::fs::write(&path, actual_json).expect("write golden fixture");
        eprintln!("golden `{name}`: fixture regenerated at {}", path.display());
        return;
    }

    let expected_text = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden `{name}`: fixture {} is missing.\n\
             Generate it with: UPDATE_GOLDEN=1 cargo test -p <crate> {name}",
            path.display()
        )
    });
    let expected = serde_json::parse(&expected_text)
        .unwrap_or_else(|e| panic!("golden `{name}`: fixture is not valid JSON: {e}"));

    if let Err(diff) = approx_eq(&expected, &actual, "$") {
        panic!(
            "golden `{name}` drifted from {}:\n  {diff}\n\
             If the change is intended, regenerate with UPDATE_GOLDEN=1 and review the diff.",
            path.display()
        );
    }
}

/// Structural comparison with numeric tolerance. Returns the first
/// difference as a human-readable `path: explanation`.
fn approx_eq(expected: &Value, actual: &Value, path: &str) -> Result<(), String> {
    match (expected, actual) {
        (Value::Null, Value::Null) => Ok(()),
        (Value::Bool(a), Value::Bool(b)) if a == b => Ok(()),
        (Value::Str(a), Value::Str(b)) if a == b => Ok(()),
        (a, b) if is_number(a) && is_number(b) => {
            let (x, y) = (as_f64(a), as_f64(b));
            if numbers_close(x, y) {
                Ok(())
            } else {
                Err(format!("{path}: number {x} != {y}"))
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                return Err(format!("{path}: array length {} != {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                approx_eq(x, y, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        (Value::Object(a), Value::Object(b)) => {
            if a.len() != b.len() {
                return Err(format!("{path}: object size {} != {}", a.len(), b.len()));
            }
            // Field order is deterministic (declaration order), so walk
            // pairwise — a reorder is a real schema change worth failing.
            for ((ka, va), (kb, vb)) in a.iter().zip(b) {
                if ka != kb {
                    return Err(format!("{path}: key `{ka}` != `{kb}`"));
                }
                approx_eq(va, vb, &format!("{path}.{ka}"))?;
            }
            Ok(())
        }
        (a, b) => Err(format!("{path}: {} != {}", a.kind(), b.kind())),
    }
}

fn is_number(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::UInt(_) | Value::Float(_))
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        _ => unreachable!("checked by is_number"),
    }
}

fn numbers_close(x: f64, y: f64) -> bool {
    if x == y {
        return true;
    }
    if x.is_nan() && y.is_nan() {
        return true;
    }
    let diff = (x - y).abs();
    diff <= ABS_TOLERANCE || diff <= REL_TOLERANCE * x.abs().max(y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::parse(s).unwrap()
    }

    #[test]
    fn tolerance_accepts_tiny_numeric_drift() {
        let a = parse(r#"{"x":[1.0,2.0],"y":"s"}"#);
        let b = parse(r#"{"x":[1.0000000000001,2.0],"y":"s"}"#);
        assert!(approx_eq(&a, &b, "$").is_ok());
    }

    #[test]
    fn real_differences_are_reported_with_a_path() {
        let a = parse(r#"{"x":[1.0,2.0]}"#);
        let b = parse(r#"{"x":[1.0,2.5]}"#);
        let err = approx_eq(&a, &b, "$").unwrap_err();
        assert!(err.contains("$.x[1]"), "{err}");

        let c = parse(r#"{"x":1}"#);
        let d = parse(r#"{"y":1}"#);
        assert!(approx_eq(&c, &d, "$").is_err());

        let e = parse("[1,2]");
        let f = parse("[1,2,3]");
        assert!(approx_eq(&e, &f, "$").unwrap_err().contains("length"));
    }

    #[test]
    fn int_float_cross_representation_compares_numerically() {
        assert!(approx_eq(&parse("3"), &parse("3.0"), "$").is_ok());
        assert!(approx_eq(&parse("null"), &parse("null"), "$").is_ok());
        assert!(approx_eq(&parse("null"), &parse("0.0"), "$").is_err());
    }
}
