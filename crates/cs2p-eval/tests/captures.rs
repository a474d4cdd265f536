//! The `--metrics` captures, checked offline through the built binary:
//! each capture runs twice and `validate-metrics` applies the schema,
//! the stage-coverage gate and the two-run determinism diff; then the
//! raw capture is searched for the records the normalizer strips
//! (`serve.*`, `client.*`, `trace_id`) and for the fields some of them
//! must carry. A bench subcommand that stops
//! producing a record family, or two same-seed runs that drift apart,
//! fail here. The benches' own in-code certificates (the ladder beating
//! pure-503 shedding, Fallback equal to the harmonic mean, the chaos
//! ledger's one re-registration per forced eviction) run too, and so do
//! the two experiments that time rather than capture: `ablations` and
//! `obs-overhead`.

use cs2p_testkit::crash::TempDir;
use std::path::Path;
use std::process::Command;

/// Runs `cs2p-eval args` in `dir`, requires success, returns stdout.
fn eval(dir: &Path, args: &[&str]) -> String {
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
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `bench --metrics` twice into `<stem>1.jsonl` / `<stem>2.jsonl`,
/// validates both against `require` and diffs them, and returns the
/// first raw capture.
fn twice_reproducible(dir: &Path, bench: &str, stem: &str, require: &str) -> String {
    let (a, b) = (format!("{stem}1.jsonl"), format!("{stem}2.jsonl"));
    for file in [&a, &b] {
        eval(dir, &[bench, "--metrics", file]);
    }
    eval(dir, &["validate-metrics", &a, &b, "--require", require]);
    std::fs::read_to_string(dir.join(&a)).expect("read capture")
}

fn assert_names(capture: &str, names: &[&str]) {
    for name in names {
        assert!(
            capture.contains(&format!("\"name\":\"{name}\"")),
            "capture has no {name} record"
        );
    }
}

fn assert_families(capture: &str, families: &[&str]) {
    for family in families {
        assert!(
            capture.contains(&format!("\"name\":\"{family}")),
            "capture has no {family}* record"
        );
    }
}

#[test]
fn serve_and_persist_captures_pass_the_ci_gates() {
    let dir = TempDir::new("captures");
    let dir = dir.path();
    let serve = twice_reproducible(
        dir,
        "serve-bench",
        "serve",
        "serve,net,predict,train,quality",
    );
    let persist = twice_reproducible(dir, "persist-bench", "persist", "serve,predict,train");

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
    assert_families(&serve, &["quality.ape."]);

    // The report groups the capture by trace id; its waterfalls must
    // show a traced request's server span.
    let report = eval(dir, &["trace-report", "serve1.jsonl"]);
    let waterfall = report
        .split("\ntrace ")
        .nth(1)
        .unwrap_or_else(|| panic!("trace-report rendered no waterfall:\n{report}"));
    assert!(
        waterfall
            .lines()
            .any(|l| l.contains(" serve.request ") && l.contains(" span ")),
        "first waterfall has no serve.request span:\n{report}"
    );

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
    // The recovery event splits the cold start into its phases.
    let recovered = persist
        .lines()
        .find(|l| l.contains("\"name\":\"serve.persist.recovered\""))
        .expect("checked above");
    for phase in ["models_us", "replay_us", "restore_us"] {
        assert!(
            recovered.contains(&format!("\"{phase}\":")),
            "serve.persist.recovered has no {phase}: {recovered}"
        );
    }
    // A fresh directory is no damage: no startup compaction, none timed.
    for field in ["\"compacted\":false", "\"compact_us\":0"] {
        assert!(
            recovered.contains(field),
            "serve.persist.recovered lacks {field}: {recovered}"
        );
    }
}

#[test]
fn chaos_capture_carries_fault_and_retry_telemetry() {
    let dir = TempDir::new("chaos-capture");
    let chaos = twice_reproducible(dir.path(), "chaos-bench", "chaos", "serve,client,net");
    assert_families(&chaos, &["serve.fault.", "client.retry."]);
}

/// The default experiment set (`--small`, seed 1): schema-valid on the
/// default `train,predict,stream` stages, identical across two runs, and
/// `--profile` renders its per-stage table.
#[test]
fn small_run_metrics_are_reproducible_and_profile_renders() {
    let dir = TempDir::new("small-capture");
    let dir = dir.path();
    let stdout = eval(dir, &["--small", "--metrics", "small1.jsonl", "--profile"]);
    eval(dir, &["--small", "--metrics", "small2.jsonl"]);
    eval(dir, &["validate-metrics", "small1.jsonl", "small2.jsonl"]);

    let table = stdout
        .split("profile: per-stage wall time (from span histograms)\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no profile table:\n{stdout}"));
    let mut lines = table.lines();
    assert!(
        lines.next().is_some_and(|h| h.starts_with("stage")),
        "profile table has no header:\n{table}"
    );
    assert!(lines.next().is_some(), "profile table has no rows");
}

#[test]
fn refresh_capture_is_reproducible_and_carries_lifecycle_telemetry() {
    let dir = TempDir::new("refresh-capture");
    let dir = dir.path();
    let refresh = twice_reproducible(dir, "refresh-bench", "refresh", "train,predict");
    assert_families(&refresh, &["serve.model.", "train.warm_start."]);
}

#[test]
fn degradation_capture_is_reproducible_and_carries_ladder_telemetry() {
    let dir = TempDir::new("degradation-capture");
    let dir = dir.path();
    let deg = twice_reproducible(dir, "degradation-bench", "deg", "serve");
    assert_names(
        &deg,
        &[
            "serve.admission.full",
            "serve.admission.degraded",
            "serve.admission.fallback",
            "serve.admission.shed",
            "serve.admission.transitions",
            "client.breaker.opens",
            "client.breaker.fast_fails",
            "predict.client.fallback",
        ],
    );
}

/// The two experiments that time rather than capture: `ablations` prints
/// the same `[ablation]` comparisons on every run of the same seed, and
/// `obs-overhead` renders all six rows of its two tables.
#[test]
fn ablations_reproduce_and_obs_overhead_renders_its_rows() {
    let dir = TempDir::new("timed-experiments");
    let dir = dir.path();
    let comparisons = |stdout: String| -> Vec<String> {
        let lines: Vec<String> = stdout
            .lines()
            .filter(|l| !l.starts_with("[timing]") && !l.starts_with("====") && !l.is_empty())
            .map(String::from)
            .collect();
        assert!(
            lines.first().is_some_and(|l| l.starts_with("[ablation]")),
            "no [ablation] block:\n{stdout}"
        );
        lines
    };
    let first = comparisons(eval(dir, &["--small", "ablations"]));
    assert_eq!(
        first.iter().filter(|l| l.starts_with("[ablation]")).count(),
        6
    );
    assert_eq!(first, comparisons(eval(dir, &["--small", "ablations"])));

    let overhead = eval(dir, &["obs-overhead"]);
    for row in [
        "disabled",
        "enabled, no sink",
        "enabled, mem sink",
        "raw sketch",
        "registry disabled",
        "registry enabled",
    ] {
        assert!(
            overhead.lines().any(|l| l.trim_start().starts_with(row)),
            "obs-overhead has no `{row}` row:\n{overhead}"
        );
    }
}
