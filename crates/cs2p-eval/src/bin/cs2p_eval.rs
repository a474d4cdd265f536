//! Command-line entry point: regenerate any table or figure of the paper.
//!
//! ```text
//! cs2p-eval <experiment> [--sessions N] [--seed S] [--small]
//!           [--metrics out.jsonl] [--profile]
//! cs2p-eval all          # run everything
//! cs2p-eval --small --metrics out.jsonl   # default smoke set + telemetry
//! cs2p-eval serve-bench  [--metrics out.jsonl]   # serving telemetry capture
//! cs2p-eval chaos-bench  [--metrics out.jsonl]   # fault telemetry capture
//! cs2p-eval refresh-bench [--metrics out.jsonl]  # stale vs refreshed model table
//! cs2p-eval persist-bench [--metrics out.jsonl]  # durable-server telemetry capture
//! cs2p-eval degradation-bench [--metrics out.jsonl]  # ladder vs pure-503 QoE table
//! cs2p-eval obs-overhead  # instrumentation cost, off / on / on with a sink
//! cs2p-eval validate-metrics a.jsonl [b.jsonl] [--require stage,stage]
//! cs2p-eval trace-report <metrics.jsonl>  # per-trace waterfalls
//! ```
//!
//! `--metrics` enables the global `cs2p-obs` registry and streams every
//! record to the given JSONL file (schema in `OBSERVABILITY.md`), closing
//! with a full metric snapshot. `--profile` prints a per-stage wall-time
//! table built from the span histograms. `serve-bench` skips material
//! preparation and drives the prediction server with the testkit's one
//! seeded load driver (singleton and batched phases) for the sake of the
//! `--metrics` capture; it prints accounting and times nothing — serving
//! performance is `perf/`'s job. `chaos-bench` is the same kind of
//! capture over the same driver with seeded faults and forced evictions
//! as its input: it prints the fired-fault tally per class and the
//! recovery ledger, and times nothing (see TESTING.md). `refresh-bench` generates its own drifting
//! world and compares a stale launch model against the daily warm-start
//! refresh pipeline (see DESIGN.md §3c). `persist-bench` is the same capture
//! against the durable server at both commit cadences, with the WAL's
//! record/byte/commit accounting (see DESIGN.md §3f). `degradation-bench`
//! forces the admission ladder's overload levels and certifies that the
//! Fallback brownout strictly beats pure-503 shedding on simulated QoE,
//! and that Fallback answers equal the paper's harmonic-mean baseline
//! bit-for-bit (see DESIGN.md §3g). `obs-overhead` times EM training and
//! the quantile sketch with the global registry off, on, and on with a
//! memory sink (see OBSERVABILITY.md §Overhead). `validate-metrics`
//! checks a metrics file against the schema — `--require` overrides the
//! stage-coverage gate (default `train,predict,stream`); given two files
//! it also diffs their determinism-normalized forms (the CI
//! reproducibility gate).
//! `trace-report` groups a metrics file by the `trace_id` the serving
//! layer scopes over each request and prints the slowest `serve.request`
//! spans plus per-trace waterfalls (see OBSERVABILITY.md).

use cs2p_eval::experiments::{
    ablations, chaos_bench, dataset_figs, degradation_bench, obs_overhead, persist_bench, pilot,
    prediction, qoe, refresh_bench, sens, serve_bench, trace_report,
};
use cs2p_eval::{EvalConfig, Materials};
use cs2p_obs::{schema, JsonlSink, Registry};
use std::process::ExitCode;
use std::sync::Arc;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "table2",
    "obs1",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fcc",
    "qoe-mid",
    "qoe-init",
    "sens",
    "pilot",
    "ablations",
];

/// What runs when only flags are given (e.g. `--small --metrics out.jsonl`):
/// one prediction experiment and one streaming experiment, which together
/// with material preparation cover the train/predict/stream stages.
const DEFAULT_SET: &[&str] = &["fig8", "qoe-mid"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs2p-eval [experiment|all] [--sessions N] [--seed S] [--small] \
         [--metrics out.jsonl] [--profile]"
    );
    eprintln!("       cs2p-eval serve-bench [--metrics out.jsonl]   # serving telemetry capture");
    eprintln!("       cs2p-eval chaos-bench [--metrics out.jsonl]   # fault telemetry capture");
    eprintln!("       cs2p-eval refresh-bench [--metrics out.jsonl]");
    eprintln!("       cs2p-eval persist-bench [--metrics out.jsonl]");
    eprintln!("       cs2p-eval degradation-bench [--metrics out.jsonl]");
    eprintln!("       cs2p-eval obs-overhead");
    eprintln!("       cs2p-eval validate-metrics <a.jsonl> [b.jsonl] [--require stage,stage]");
    eprintln!("       cs2p-eval trace-report <metrics.jsonl>");
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
    eprintln!(
        "with no experiment, --metrics/--profile run: {}",
        DEFAULT_SET.join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("validate-metrics") {
        return validate_metrics(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-report") {
        let [path] = &args[1..] else { return usage() };
        match std::fs::read_to_string(path) {
            Ok(text) => {
                print!("{}", trace_report::trace_report(&text));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut config = EvalConfig::default();
    // `--small` carries its own pinned seed; an explicit `--seed` must win
    // regardless of flag order, so it is applied after the loop.
    let mut explicit_seed = None;
    let mut metrics_path: Option<String> = None;
    let mut profile = false;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--small" => config = EvalConfig::small(),
            "--sessions" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.n_sessions = n,
                None => return usage(),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => explicit_seed = Some(s),
                None => return usage(),
            },
            "--metrics" => match iter.next() {
                Some(path) => metrics_path = Some(path.clone()),
                None => return usage(),
            },
            "--profile" => profile = true,
            flag if flag.starts_with("--") => return usage(),
            _ => positional.push(arg.clone()),
        }
    }
    if let Some(seed) = explicit_seed {
        config.seed = seed;
    }

    // The bench family needs no paper materials: it runs alone and exits.
    let bench: Option<fn() -> String> = match positional.as_slice() {
        [one] => match one.as_str() {
            "serve-bench" => Some(serve_bench::serve_bench),
            "chaos-bench" => Some(chaos_bench::chaos_bench),
            "refresh-bench" => Some(refresh_bench::refresh_bench),
            "persist-bench" => Some(persist_bench::persist_bench),
            "degradation-bench" => Some(degradation_bench::degradation_bench),
            "obs-overhead" => Some(obs_overhead::obs_overhead),
            _ => None,
        },
        _ => None,
    };
    let ids: Vec<&str> = match positional.as_slice() {
        _ if bench.is_some() => Vec::new(),
        [] if metrics_path.is_some() || profile => DEFAULT_SET.to_vec(),
        [] => return usage(),
        [one] if one == "all" => EXPERIMENTS.to_vec(),
        [one] if EXPERIMENTS.contains(&one.as_str()) => vec![one.as_str()],
        _ => return usage(),
    };

    // Telemetry: turn the global registry on before any training happens.
    if metrics_path.is_some() || profile {
        Registry::global().set_enabled(true);
    }
    if let Some(path) = &metrics_path {
        match JsonlSink::create(std::path::Path::new(path)) {
            Ok(sink) => Registry::global().add_sink(Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot open metrics file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(run) = bench {
        let name = &positional[0];
        let start = std::time::Instant::now();
        let table = run();
        print!("{table}");
        eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
        if metrics_path.is_some() {
            Registry::global().emit_snapshot();
            Registry::global().flush_sinks();
        }
        if profile {
            print!("{}", profile_table(&Registry::global().snapshot()));
        }
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "preparing materials: {} sessions, seed {} ...",
        config.n_sessions, config.seed
    );
    let start = std::time::Instant::now();
    let materials = Materials::prepare(config);
    eprintln!(
        "materials ready in {:.1}s: {} train / {} test sessions, {} cluster models ({}% global fallback)",
        start.elapsed().as_secs_f64(),
        materials.train.len(),
        materials.test.len(),
        materials.summary.n_models,
        (materials.summary.global_fallback_fraction * 100.0).round()
    );

    for id in ids {
        println!("================================================================");
        run_one(id, &materials);
    }

    if metrics_path.is_some() {
        // Close the stream with one row per metric, then flush to disk.
        Registry::global().emit_snapshot();
        Registry::global().flush_sinks();
    }
    if profile {
        print!("{}", profile_table(&Registry::global().snapshot()));
    }
    ExitCode::SUCCESS
}

fn run_one(id: &str, materials: &Materials) {
    let start = std::time::Instant::now();
    match id {
        "table1" => println!("{}", qoe::table1(materials, 100)),
        "fig2" => {
            let levels = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];
            println!("{}", qoe::fig2(materials, &levels, 60));
        }
        "fig3" | "table2" => println!("{}", dataset_figs::dataset_report(materials)),
        "obs1" => println!("{}", dataset_figs::obs1(materials)),
        "fig4" => println!("{}", dataset_figs::fig4(materials)),
        "fig5" => println!("{}", dataset_figs::fig5(materials)),
        "fig6" => println!("{}", dataset_figs::fig6(materials)),
        "fig8" => println!("{}", prediction::fig8(materials)),
        "fig9a" => println!("{}", prediction::fig9a(materials)),
        "fig9b" => println!("{}", prediction::fig9b(materials)),
        "fig9c" => println!("{}", prediction::fig9c(materials, 10)),
        "fcc" => println!("{}", prediction::fcc(materials, 6_000)),
        "qoe-mid" => println!("{}", qoe::qoe_mid(materials, 80)),
        "qoe-init" => println!("{}", qoe::qoe_init(materials, 200)),
        "sens" => println!("{}", sens::sens(materials)),
        "pilot" => println!("{}", pilot::pilot(materials, 40)),
        "ablations" => println!("{}", ablations::ablations(materials)),
        _ => unreachable!("validated above"),
    }
    eprintln!("[{id} took {:.1}s]", start.elapsed().as_secs_f64());
}

/// Renders the per-stage wall-time table from the `.us` span histograms.
fn profile_table(snapshot: &cs2p_obs::MetricsSnapshot) -> String {
    let mut rows: Vec<(String, u64, f64, f64)> = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(".us"))
        .map(|(name, h)| {
            let stage = name.trim_end_matches(".us").to_string();
            let mean_ms = h.mean().unwrap_or(0.0) / 1000.0;
            (stage, h.count, h.sum / 1000.0, mean_ms)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    let mut out = String::new();
    out.push_str("================================================================\n");
    out.push_str("profile: per-stage wall time (from span histograms)\n");
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "stage", "calls", "total ms", "mean ms"
    ));
    for (stage, count, total_ms, mean_ms) in rows {
        out.push_str(&format!(
            "{stage:<28} {count:>8} {total_ms:>12.1} {mean_ms:>12.3}\n"
        ));
    }
    out
}

/// `validate-metrics <a.jsonl> [b.jsonl] [--require stage,stage]`:
/// schema-check one file; with two files, also require their
/// determinism-normalized forms to be identical. `--require` overrides
/// the stages that must appear (default `train,predict,stream` — a
/// serve-bench run would pass `--require serve,predict`).
fn validate_metrics(args: &[String]) -> ExitCode {
    let mut files: Vec<&String> = Vec::new();
    let mut required: Vec<String> = ["train", "predict", "stream"].map(String::from).to_vec();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--require" => match iter.next() {
                Some(list) => {
                    required = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                }
                None => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() || files.len() > 2 {
        return usage();
    }
    let required: Vec<&str> = required.iter().map(String::as_str).collect();
    let mut texts = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(t) => texts.push(t),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (path, text) in files.iter().zip(&texts) {
        match schema::validate_jsonl(text) {
            Ok(cov) => {
                println!(
                    "{path}: {} records, stages [{}]",
                    cov.n_records,
                    cov.stages.iter().cloned().collect::<Vec<_>>().join(", ")
                );
                if !cov.covers(&required) {
                    eprintln!("{path}: missing required stages {required:?}");
                    return ExitCode::FAILURE;
                }
            }
            Err(errors) => {
                eprintln!("{path}: schema violations:");
                for e in errors.iter().take(20) {
                    eprintln!("  {e}");
                }
                if errors.len() > 20 {
                    eprintln!("  ... and {} more", errors.len() - 20);
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if texts.len() == 2 {
        let (a, b) = (
            schema::normalize_for_determinism(&texts[0]),
            schema::normalize_for_determinism(&texts[1]),
        );
        if a != b {
            eprintln!(
                "normalized metrics differ between {} and {}:",
                files[0], files[1]
            );
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    eprintln!("  - {la}");
                    eprintln!("  + {lb}");
                    break;
                }
            }
            let (na, nb) = (a.lines().count(), b.lines().count());
            if na != nb {
                eprintln!("  ({na} vs {nb} normalized lines)");
            }
            return ExitCode::FAILURE;
        }
        println!("normalized metrics identical ({} lines)", a.lines().count());
    }
    ExitCode::SUCCESS
}
