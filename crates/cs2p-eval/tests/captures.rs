//! The `--metrics` captures CI gates on, checked offline: `serve-bench`
//! twice and `persist-bench` once through the built binary, then the same
//! schema, two-run determinism, tracing and vocabulary checks the
//! workflow runs as shell greps; and `chaos-bench` once for the fault
//! telemetry schema. A load phase that stops producing a record family
//! fails here, not on the next CI run.

use cs2p_testkit::crash::TempDir;
use std::path::Path;
use std::process::Command;

fn eval(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_cs2p-eval"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn cs2p-eval");
    assert!(
        out.status.success(),
        "cs2p-eval {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_names(capture: &str, names: &[&str]) {
    for name in names {
        assert!(
            capture.contains(&format!("\"name\":\"{name}\"")),
            "capture has no {name} record"
        );
    }
}

#[test]
fn serve_and_persist_captures_pass_the_ci_gates() {
    let dir = TempDir::new("captures");
    let dir = dir.path();
    eval(dir, &["serve-bench", "--metrics", "serve1.jsonl"]);
    eval(dir, &["serve-bench", "--metrics", "serve2.jsonl"]);
    eval(dir, &["persist-bench", "--metrics", "persist1.jsonl"]);
    eval(
        dir,
        &[
            "validate-metrics",
            "serve1.jsonl",
            "serve2.jsonl",
            "--require",
            "serve,net,predict,train,quality",
        ],
    );
    eval(
        dir,
        &[
            "validate-metrics",
            "persist1.jsonl",
            "--require",
            "serve,predict,train",
        ],
    );

    let serve = std::fs::read_to_string(dir.join("serve1.jsonl")).expect("read serve capture");
    let spans: Vec<&str> = serve
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.request\""))
        .collect();
    assert!(!spans.is_empty(), "no serve.request span in the capture");
    for span in spans {
        assert!(
            span.contains("\"trace_id\""),
            "span without trace_id: {span}"
        );
    }
    assert_names(
        &serve,
        &[
            "serve.batch.requests",
            "serve.batch.entries",
            "serve.batch.shard_groups",
            "quality.coverage.matched",
        ],
    );
    assert!(
        serve.contains("\"name\":\"quality.ape."),
        "capture has no quality.ape.* sketch"
    );

    let persist =
        std::fs::read_to_string(dir.join("persist1.jsonl")).expect("read persist capture");
    assert_names(
        &persist,
        &[
            "serve.persist.wal_records",
            "serve.persist.wal_bytes",
            "serve.persist.snapshots",
            "serve.persist.compactions",
            "serve.persist.recoveries",
            "serve.persist.recovery_us",
            "serve.persist.recovered",
        ],
    );
}

#[test]
fn chaos_capture_carries_fault_and_retry_telemetry() {
    let dir = TempDir::new("chaos-capture");
    let dir = dir.path();
    eval(dir, &["chaos-bench", "--metrics", "chaos.jsonl"]);
    eval(
        dir,
        &[
            "validate-metrics",
            "chaos.jsonl",
            "--require",
            "serve,client,net",
        ],
    );
    let chaos = std::fs::read_to_string(dir.join("chaos.jsonl")).expect("read chaos capture");
    for family in ["serve.fault.", "client.retry."] {
        assert!(
            chaos.contains(&format!("\"name\":\"{family}")),
            "capture has no {family}* record"
        );
    }
}
