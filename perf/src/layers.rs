//! The traced run: per-layer metrics and spans, never mixed with the
//! gated run.
//!
//! Every layer is timed from outside, through its public functions, with
//! the inputs the workloads send: the request bodies of the traffic
//! generators, the engine trained on the common world, filter states the
//! reference replay reached. A metric is the median over call batches of
//! the mean time per call; each batch is a span. Next to that table the
//! run makes four short passes — the selected workload twice (untraced
//! and traced, which gives the tracing overhead) and two fixed reference
//! passes (`predict_single`, `predict_batch64_wal`) that the closure
//! fractions are taken against — and writes every span to
//! `perf/out/trace_<workload>.jsonl`.
//!
//! The contract wants every traced run to print every per-layer metric,
//! so the table is the same on all four workloads; only `client.*`,
//! `proc.*`, `trace.*`, `serve.predictions_served` and `store.evicted`
//! come from the selected workload's own pass.

use crate::check::{verify_frames, verify_phase, Tally};
use crate::load::{median_f64, quantile_sorted, NoTrace, PhaseStats, SendHook, Templates};
use crate::phases::{
    bundle_round_trip, cold_once, out_dir, verify_served, warm_once, Ctx, Finished, Ground, Stage,
};
use crate::pin::{unpin, Unpinned};
use crate::reference::Replay;
use crate::report::{cpu_time_us, Report};
use crate::spec::Workload;
use crate::traffic::{Kind, Op, Traffic};
use crate::world::{engine_config, Source};
use bytes::Bytes;
use cs2p_core::cluster::ClusterFinder;
use cs2p_core::{FeatureVector, ModelBundle, ModelRegistry, PredictionEngine};
use cs2p_ml::hmm::{FilterState, HmmFilter};
use cs2p_net::admission::{AdmissionConfig, AdmissionController, AdmissionLevel};
use cs2p_net::http::{
    read_request_buffered, write_request, write_response_buffered, IoScratch, Request, Response,
};
use cs2p_net::persist::{
    crc32, recover, PersistedPending, PersistedSession, SessionPersist, WalBatch, WalRecord,
};
use cs2p_net::pool::BoundedQueue;
use cs2p_net::quality::{ape, QualityConfig, QualityMonitor};
use cs2p_net::{
    BatchPredictRequest, HttpClient, PredictRequest, ServerHandle, SessionRecorder, SessionStore,
};
use cs2p_obs::MonotonicClock;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One span: a name, when it ran, the span that caused it, and (for a
/// request's span) which request of its connection it was.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Spans kept in memory until the run ends; a span's id is its index.
pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that ends at [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, request}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The traced pass's [`SendHook`]: one record per timed `send`, into a
/// vector sized before the pass starts.
pub struct SendLog {
    sends: Vec<(u32, Kind, u64, u64)>,
}

impl SendHook for SendLog {
    #[inline]
    fn sent(&mut self, _conn: usize, window: usize, op: &Op, start_ns: u64, end_ns: u64) {
        self.sends.push((window as u32, op.kind, start_ns, end_ns));
    }
}

fn kind_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Predict => "client.send /predict",
        Kind::Batch => "client.send /predict_batch",
        Kind::Log => "client.send /log",
    }
}

// ---------------------------------------------------------------------------
// Timing calls into a layer
// ---------------------------------------------------------------------------

/// Times `calls` calls of `f` in `BATCHES` batches; every batch is a span
/// under `parent`. Returns the median over batches of ns per call.
pub struct Micro<'t> {
    pub tracer: &'t mut Tracer,
    pub parent: usize,
    pub calls: usize,
}

const BATCHES: usize = 40;

impl Micro<'_> {
    pub fn time<R>(&mut self, name: &str, mut f: impl FnMut(usize) -> R) -> f64 {
        let per_batch = self.calls.div_ceil(BATCHES).max(1);
        // One untimed batch first: caches, lazy allocation, branch history.
        for i in 0..per_batch {
            black_box(f(i));
        }
        let mut per_call = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let start = self.tracer.now_ns();
            for i in 0..per_batch {
                black_box(f((b + 1) * per_batch + i));
            }
            let end = self.tracer.now_ns();
            self.tracer.push(name, start, end, Some(self.parent), None);
            per_call.push((end - start) as f64 / per_batch as f64);
        }
        median_f64(&mut per_call)
    }

    /// A call worth milliseconds: `reps` calls, each its own span; the
    /// median, in ms.
    pub fn time_ms<R>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
        let mut ms = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = self.tracer.now_ns();
            black_box(f());
            let end = self.tracer.now_ns();
            self.tracer.push(name, start, end, Some(self.parent), None);
            ms.push((end - start) as f64 / 1e6);
        }
        median_f64(&mut ms)
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// A short serving pass of `workload`, verified; `hooks` decides whether
/// it is traced.
#[allow(clippy::too_many_arguments)]
fn pass<H: SendHook + Send>(
    ctx: &Ctx,
    workload: Workload,
    engine: &PredictionEngine,
    reference_engine: &PredictionEngine,
    sources: &[Source],
    tag: &str,
    epoch: Instant,
    make_hooks: impl FnOnce(&Traffic) -> Vec<H>,
    tally: &mut Tally,
) -> io::Result<(Finished, Vec<H>, f64)> {
    let stage = Stage::start(ctx, &ctx.scale, workload, engine.clone(), sources, tag)?;
    let mut hooks = make_hooks(stage.plan.traffic());
    let cpu_before = cpu_time_us();
    let outcome = stage.run(ctx, epoch, &mut hooks);
    let cpu_us = cpu_time_us() - cpu_before;
    let finished = stage.finish(outcome);
    let mut reference = finished
        .plan
        .reference(reference_engine, sources, &ctx.spec);
    verify_served(ctx, &finished, &mut reference, tally);
    Ok((finished, hooks, cpu_us))
}

fn untraced(traffic: &Traffic) -> Vec<NoTrace> {
    traffic.scripts.iter().map(|_| NoTrace).collect()
}

/// Median round trip of `n` requests built by `request(i)`, µs; a
/// response with another status than `status` fails the run.
fn rtt_p50_us(
    server: &ServerHandle,
    n: usize,
    status: u16,
    reconnect: bool,
    mut request: impl FnMut(usize) -> Request,
    tally: &mut Tally,
) -> f64 {
    let mut client = HttpClient::new(server.addr());
    let mut rtts = Vec::with_capacity(n);
    tally.attempt(n as u64);
    for i in 0..n {
        let req = request(i);
        let t0 = Instant::now();
        let resp = client.send(&req);
        rtts.push(t0.elapsed().as_nanos() as u32);
        if !resp.is_ok_and(|r| r.status == status) {
            tally.fail(1, || {
                format!("{} {}: expected status {status}", req.method, req.path)
            });
        }
        if reconnect {
            // A 503 carries `Connection: close`.
            client.reset_connection();
        }
    }
    rtts.sort_unstable();
    quantile_sorted(&rtts, 0.5) as f64 / 1e3
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub fn run(ctx: &Ctx, workload: Workload, unpinned: Unpinned) -> io::Result<Report> {
    let spec = &ctx.spec;
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    report.info("workload", workload.name());
    report.info("seed", ctx.seed);

    // The ground every pass stands on.
    let root = tracer.open("traced_run", None);
    let span = tracer.open("world.synth", Some(root));
    let (ground, _) = Ground::synth(ctx);
    tracer.close(span);
    let span = tracer.open("train.cold", Some(root));
    let (cold, cold_summary, cold_took) = cold_once(ctx, &ground.world);
    tracer.close(span);
    let span = tracer.open("train.warm", Some(root));
    let (warm, warm_summary, _) = warm_once(ctx, &ground.world, &cold);
    tracer.close(span);
    let sources = &ground.sources;

    // The selected workload's own pass, untraced then traced.
    // `train_refresh` serves its tail from the round-tripped warm engine.
    let (served_engine, reference_engine) = if workload == Workload::TrainRefresh {
        (bundle_round_trip(&warm, &mut tally).0, &warm)
    } else {
        (cold.clone(), &cold)
    };
    let (own, _, cpu_us) = pass(
        ctx,
        workload,
        &served_engine,
        reference_engine,
        sources,
        "own",
        tracer.epoch,
        untraced,
        &mut tally,
    )?;
    let own_stats = PhaseStats::from_windows(&own.served.outcome.windows);
    let pass_span = tracer.open(&format!("pass.{}.traced", workload.name()), Some(root));
    let (traced, logs, _) = pass(
        ctx,
        workload,
        &served_engine,
        reference_engine,
        sources,
        "traced",
        tracer.epoch,
        |traffic| {
            traffic
                .scripts
                .iter()
                .map(|s| SendLog {
                    sends: Vec::with_capacity(s.ops.len()),
                })
                .collect()
        },
        &mut tally,
    )?;
    tracer.close(pass_span);
    let traced_stats = PhaseStats::from_windows(&traced.served.outcome.windows);
    let warmup = ctx.scale.warmup_windows;
    let windows: Vec<usize> = traced
        .served
        .outcome
        .window_bounds
        .iter()
        .enumerate()
        .map(|(w, &(start, end))| {
            tracer.push(&format!("window {w}"), start, end, Some(pass_span), None)
        })
        .collect();
    for log in &logs {
        for (i, &(w, kind, start, end)) in log.sends.iter().enumerate() {
            tracer.push(
                kind_span(kind),
                start,
                end,
                Some(windows[w as usize - warmup]),
                Some(i as u64),
            );
        }
    }
    report.metric("client.rtt_p99_us", own_stats.rtt_p99_us, "us");
    report.info(
        "client.rtt_p99_samples_per_window",
        own_stats.samples_per_window,
    );
    report.metric("client.generator_frac", own_stats.generator_frac, "frac");
    report.metric(
        "proc.cpu_us_per_entry",
        cpu_us / own.plan.traffic().window_entries() as f64,
        "us",
    );
    report.metric(
        "trace.overhead_frac",
        1.0 - traced_stats.entries_per_s / own_stats.entries_per_s,
        "frac",
    );
    report.metric(
        "serve.predictions_served",
        own.served.stats.predictions_served as f64,
        "count",
    );
    report.metric(
        "store.evicted",
        own.served.stats.sessions_evicted as f64,
        "count",
    );

    // Reference pass: predict_single, then the same server shape asked
    // for /healthz and forced down the admission ladder.
    let single_stage = Stage::start(
        ctx,
        &ctx.scale,
        Workload::PredictSingle,
        cold.clone(),
        sources,
        "ref-single",
    )?;
    let outcome = single_stage.run(ctx, tracer.epoch, &mut [NoTrace]);
    let single_rtt_us = PhaseStats::from_windows(&outcome.windows).rtt_p50_us;
    let n = spec.traced.micro_calls;
    let healthz_us = rtt_p50_us(
        &single_stage.server,
        n,
        200,
        false,
        |_| Request::new("GET", "/healthz", Bytes::new()),
        &mut tally,
    );
    report.metric("net.healthz_rtt_p50_us", healthz_us, "us");
    let single_traffic = single_stage.plan.traffic();
    let mut templates = Templates::new();
    // Each session's first ring measurement, over and over: below Full
    // the ladder never feeds the filter, so any valid request will do.
    let ring = spec.ring_epochs;
    let sessions = spec.workloads.predict_single.sessions;
    let mut predict = |i: usize| {
        templates
            .with_body(Kind::Predict, &single_traffic.bodies[(i % sessions) * ring])
            .clone()
    };
    for (name, level, status, reconnect) in [
        (
            "ladder.degraded_rtt_p50_us",
            AdmissionLevel::Degraded,
            200,
            false,
        ),
        (
            "ladder.fallback_rtt_p50_us",
            AdmissionLevel::Fallback,
            200,
            false,
        ),
        ("ladder.shed_rtt_p50_us", AdmissionLevel::Shed, 503, true),
    ] {
        single_stage.server.force_admission_level(Some(level));
        // A shed request pays a connect; a fifth as many samples keep the
        // loopback out of TIME_WAIT trouble.
        let samples = if reconnect { n / 5 } else { n };
        let us = rtt_p50_us(
            &single_stage.server,
            samples,
            status,
            reconnect,
            &mut predict,
            &mut tally,
        );
        report.metric(name, us, "us");
    }
    single_stage.server.force_admission_level(None);
    // The forced levels moved the server's counters away from the
    // script's; only the timed pass is verified.
    let single = single_stage.finish(outcome);
    {
        let mut reference = single.plan.reference(&cold, sources, spec);
        verify_frames(
            &single.plan.traffic().setup,
            &single.registered,
            |f| reference.setup_frame(f),
            &mut tally,
        );
        verify_phase(
            single.plan.traffic(),
            &single.served.outcome,
            warmup,
            &mut reference,
            &mut tally,
        );
    }

    // Reference pass: predict_batch64_wal; its directory feeds the
    // recovery replay.
    let (batch, _, _) = pass(
        ctx,
        Workload::PredictBatch64Wal,
        &cold,
        &cold,
        sources,
        "ref-batch",
        tracer.epoch,
        untraced,
        &mut tally,
    )?;
    let batch_stats = PhaseStats::from_windows(&batch.served.outcome.windows);
    let batch_traffic = batch.plan.traffic();
    let wal = batch
        .served
        .wal
        .expect("the batch workload runs with the WAL on");
    report.metric("persist.wal_records", wal.records as f64, "count");
    report.metric(
        "persist.wal_bytes_per_entry",
        wal.bytes as f64 / batch.served.stats.predictions_served as f64,
        "bytes",
    );
    let router: SessionStore<()> =
        SessionStore::new(spec.serve.n_shards, spec.serve.max_sessions, None);
    let frame_entries = batch_traffic.frame_entries;
    let shard_groups: usize = batch_traffic
        .scripts
        .iter()
        .flat_map(|s| &s.ops)
        .filter(|op| op.kind == Kind::Batch)
        .map(|op| {
            // Slot ids are 1-based and dense; a group's ids are known.
            let first = op.unit as u64 * frame_entries as u64 + 1;
            let mut seen = vec![false; spec.serve.n_shards];
            (first..first + frame_entries as u64).for_each(|id| seen[router.shard_of(id)] = true);
            seen.iter().filter(|&&s| s).count()
        })
        .sum();
    report.metric("serve.batch.shard_groups", shard_groups as f64, "count");

    // The layer table.
    let layers = tracer.open("layers", Some(root));
    let mut micro = Micro {
        tracer: &mut tracer,
        parent: layers,
        calls: n,
    };
    let batch_dir = batch
        .dir
        .as_deref()
        .expect("the batch pass leaves its directory");
    let table = layer_table(
        ctx,
        &mut micro,
        &cold,
        sources,
        single.plan.traffic(),
        batch_traffic,
        batch_dir,
        &mut report,
    )?;
    tracer.close(layers);

    // Training layers.
    report.metric("engine.n_models", cold_summary.n_models as f64, "count");
    report.metric(
        "baum_welch.em_iterations",
        cold_summary.em_iterations as f64,
        "count",
    );
    report.metric(
        "train.warm_iterations_saved",
        cold_summary.em_iterations as f64 - warm_summary.em_iterations as f64,
        "count",
    );
    report.info("train.cold_s", cold_took.as_secs_f64());
    training_layers(ctx, &mut tracer, root, &ground, &cold, &mut report);

    // Closure: what the layer table cannot account for.
    let per_entry = table.store_lookup_ns + table.hmm_ns + table.quality_ns;
    let single_known =
        healthz_us * 1e3 + table.decode_predict_ns + per_entry + table.encode_predict_ns;
    report.metric(
        "closure.single_unattributed_frac",
        1.0 - single_known / (single_rtt_us * 1e3),
        "frac",
    );
    let batch_known = healthz_us * 1e3
        + table.decode_batch_ns
        + frame_entries as f64 * (per_entry + table.encode_record_ns)
        + table.stage_flush_ns
        + table.encode_batch_ns;
    report.metric(
        "closure.batch64_unattributed_frac",
        1.0 - batch_known / (batch_stats.rtt_p50_us * 1e3),
        "frac",
    );
    report.info("closure.single_rtt_p50_us", single_rtt_us);
    report.info("closure.batch64_rtt_p50_us", batch_stats.rtt_p50_us);

    // Last, because it cannot be undone for threads already running:
    // the same predict_single pass with the process unpinned.
    let span = tracer.open("pass.predict_single.unpinned", Some(root));
    unpin(unpinned)?;
    let unpinned_ctx = Ctx {
        spec: spec.clone(),
        seed: ctx.seed,
        scale: crate::spec::Scale {
            // `unpinned_windows` for the traced run's `timed_windows`, and
            // in proportion at the smoke size.
            timed_windows: Some(
                (spec.traced.unpinned_windows * ctx.scale.timed(spec.traced.timed_windows))
                    .div_ceil(spec.traced.timed_windows),
            ),
            ..ctx.scale
        },
        tmp: ctx.tmp.join("unpinned"),
    };
    std::fs::create_dir_all(&unpinned_ctx.tmp)?;
    let (loose, _, _) = pass(
        &unpinned_ctx,
        Workload::PredictSingle,
        &cold,
        &cold,
        sources,
        "unpinned",
        tracer.epoch,
        untraced,
        &mut tally,
    )?;
    tracer.close(span);
    let loose_stats = PhaseStats::from_windows(&loose.served.outcome.windows);
    report.metric(
        "sched.unpinned_entries_per_s",
        loose_stats.entries_per_s,
        "1/s",
    );
    report.metric("sched.unpinned_rtt_p50_us", loose_stats.rtt_p50_us, "us");

    tracer.close(root);
    let path = out_dir().join(format!("trace_{}.jsonl", workload.name()));
    tracer.write_jsonl(&path)?;
    report.info("trace_file", path.display());
    report.info("spans", tracer.spans.len());
    report.tally = tally;
    Ok(report)
}

/// What the closure fractions need back from the layer table, ns.
struct Table {
    decode_predict_ns: f64,
    encode_predict_ns: f64,
    decode_batch_ns: f64,
    encode_batch_ns: f64,
    store_lookup_ns: f64,
    hmm_ns: f64,
    quality_ns: f64,
    encode_record_ns: f64,
    stage_flush_ns: f64,
}

/// Wire bytes of one request.
fn wire(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_request(&mut out, req).expect("writing to a Vec cannot fail");
    out
}

#[allow(clippy::too_many_arguments)]
fn layer_table(
    ctx: &Ctx,
    micro: &mut Micro<'_>,
    engine: &PredictionEngine,
    sources: &[Source],
    single: &Traffic,
    batch: &Traffic,
    batch_dir: &Path,
    report: &mut Report,
) -> io::Result<Table> {
    let spec = &ctx.spec;
    let horizon = spec.horizon;
    let bodies = &single.bodies;
    let frames: Vec<&Bytes> = batch.bodies[..batch.units * spec.ring_epochs]
        .iter()
        .collect();

    // What the server answers, from the reference: one response per
    // source, after a few measurements.
    let mut replays: Vec<Replay<'_>> = sources
        .iter()
        .map(|s| Replay::new(engine, s, horizon))
        .collect();
    let responses: Vec<_> = replays
        .iter_mut()
        .map(|r| {
            (0..4).for_each(|_| {
                r.answer();
            });
            r.answer()
        })
        .collect();
    let frame_response = cs2p_net::BatchPredictResponse {
        results: responses
            .iter()
            .cycle()
            .take(batch.frame_entries)
            .cloned()
            .map(cs2p_net::BatchEntryResult::ok)
            .collect(),
    };

    // http
    let mut templates = Templates::new();
    let request_wire = wire(templates.with_body(Kind::Predict, &bodies[0]));
    let response = Response::json(serde_json::to_vec(&responses[0]).expect("serialises"));
    let mut scratch = IoScratch::new();
    let mut sink = Vec::with_capacity(4096);
    report.metric(
        "http.read_request_ns",
        micro.time("http.read_request", |_| {
            read_request_buffered(&mut BufReader::new(&request_wire[..]), &mut scratch)
        }),
        "ns",
    );
    report.metric(
        "http.write_response_ns",
        micro.time("http.write_response", |_| {
            sink.clear();
            write_response_buffered(&mut sink, &response, &mut scratch)
        }),
        "ns",
    );
    report.metric("http.request_bytes", request_wire.len() as f64, "bytes");
    report.metric("http.response_bytes", sink.len() as f64, "bytes");

    // protocol
    let decode_predict_ns = micro.time("protocol.decode_predict", |i| {
        serde_json::from_slice::<PredictRequest>(&bodies[i % bodies.len()])
    });
    let encode_predict_ns = micro.time("protocol.encode_predict", |i| {
        serde_json::to_vec(&responses[i % responses.len()])
    });
    let decode_batch_ns = micro.time("protocol.decode_batch64", |i| {
        serde_json::from_slice::<BatchPredictRequest>(frames[i % frames.len()])
    });
    let encode_batch_ns = micro.time("protocol.encode_batch64", |_| {
        frame_response.to_json_bytes()
    });
    report.metric("protocol.decode_predict_ns", decode_predict_ns, "ns");
    report.metric("protocol.encode_predict_ns", encode_predict_ns, "ns");
    report.metric("protocol.decode_batch64_ns", decode_batch_ns, "ns");
    report.metric("protocol.encode_batch64_ns", encode_batch_ns, "ns");

    // pool: a push to a consumer thread and its answer back, halved.
    let there: Arc<BoundedQueue<usize>> = Arc::new(BoundedQueue::new(spec.serve.queue_depth));
    let back: Arc<BoundedQueue<usize>> = Arc::new(BoundedQueue::new(spec.serve.queue_depth));
    let echo = {
        let (there, back) = (Arc::clone(&there), Arc::clone(&back));
        std::thread::spawn(move || {
            while let Some(item) = there.pop() {
                let _ = back.try_push(item);
            }
        })
    };
    let round_trip_ns = micro.time("pool.handoff", |i| {
        let _ = there.try_push(i);
        back.pop()
    });
    there.close();
    echo.join()
        .expect("the echo thread exits when its queue closes");
    report.metric("pool.handoff_ns", round_trip_ns / 2.0, "ns");

    // store: values are filter states, as the server's sessions carry.
    let state = |i: usize| replays[i % replays.len()].filter_state();
    let batch_sessions = spec.workloads.predict_batch64_wal.sessions;
    let store: SessionStore<FilterState> =
        SessionStore::new(spec.serve.n_shards, spec.serve.max_sessions, None);
    for id in 0..batch_sessions {
        store.lock(id as u64).insert(id as u64, state(id));
    }
    let store_lookup_ns = micro.time("store.lookup", |i| {
        let id = (i % batch_sessions) as u64;
        store.lock(id).get_mut(id).is_some()
    });
    report.metric("store.lookup_ns", store_lookup_ns, "ns");
    let fresh = 1u64 << 32;
    report.metric(
        "store.insert_ns",
        micro.time("store.insert", |i| {
            let id = fresh + i as u64;
            store.lock(id).insert(id, state(i))
        }),
        "ns",
    );
    report.metric(
        "store.remove_ns",
        micro.time("store.remove", |i| {
            let id = fresh + i as u64;
            store.lock(id).remove(id)
        }),
        "ns",
    );
    let churn_cap = spec.workloads.session_churn.max_sessions;
    let full: SessionStore<FilterState> = SessionStore::new(spec.serve.n_shards, churn_cap, None);
    for id in 0..2 * churn_cap {
        full.lock(id as u64).insert(id as u64, state(id));
    }
    report.metric(
        "store.insert_evict_ns",
        micro.time("store.insert_evict", |i| {
            let id = fresh + i as u64;
            full.lock(id).insert(id, state(i))
        }),
        "ns",
    );

    // admission
    let clock = Arc::new(MonotonicClock::new());
    let admission = AdmissionController::new(AdmissionConfig::watermarks(), clock.clone());
    report.metric(
        "admission.check_ns",
        micro.time("admission.check", |_| admission.level()),
        "ns",
    );
    let tracker = admission.fallback_tracker();
    report.metric(
        "admission.fallback_record_ns",
        micro.time("admission.fallback_record", |i| {
            let s = &sources[i % sources.len()];
            tracker.record((i % batch_sessions) as u64, s.ring[i % s.ring.len()])
        }),
        "ns",
    );
    report.metric(
        "admission.fallback_predict_ns",
        micro.time("admission.fallback_predict", |i| {
            tracker.predict((i % batch_sessions) as u64)
        }),
        "ns",
    );

    // hmm: each source's own cluster model and the state its replay reached.
    let models: Vec<_> = sources
        .iter()
        .map(|s| engine.lookup(&FeatureVector(s.features.clone())))
        .collect();
    let states: Vec<FilterState> = (0..sources.len()).map(state).collect();
    let mut filters: Vec<HmmFilter<'_>> = models
        .iter()
        .zip(&states)
        .map(|(m, s)| HmmFilter::from_state(&m.hmm, s.clone()))
        .collect();
    let n_filters = filters.len();
    let observe_ns = micro.time("hmm.observe", |i| {
        let s = &sources[i % sources.len()];
        filters[i % n_filters].observe(s.ring[(i / n_filters) % s.ring.len()])
    });
    let predict_ns = micro.time("hmm.predict_h5", |i| {
        let f = &filters[i % n_filters];
        (1..=horizon).map(|k| f.predict_ahead(k)).sum::<f64>()
    });
    let roundtrip_ns = micro.time("hmm.state_roundtrip", |i| {
        let k = i % n_filters;
        HmmFilter::from_state(&models[k].hmm, states[k].clone()).state()
    });
    report.metric("hmm.observe_ns", observe_ns, "ns");
    report.metric("hmm.predict_h5_ns", predict_ns, "ns");
    report.metric("hmm.state_roundtrip_ns", roundtrip_ns, "ns");

    // engine / registry
    let features: Vec<FeatureVector> = sources
        .iter()
        .map(|s| FeatureVector(s.features.clone()))
        .collect();
    report.metric(
        "engine.lookup_ns",
        micro.time("engine.lookup", |i| {
            engine
                .lookup_detailed(&features[i % features.len()])
                .model_index
        }),
        "ns",
    );
    report.metric(
        "engine.initial_predict_ns",
        micro.time("engine.initial_predict", |i| {
            let lookup = engine.lookup_detailed(&features[i % features.len()]);
            (
                lookup.model.initial_median,
                lookup.model.hmm.filter().state(),
            )
        }),
        "ns",
    );
    let registry = ModelRegistry::new(engine.clone(), engine_config(spec), 4);
    report.metric(
        "registry.current_ns",
        micro.time("registry.current", |_| registry.current().0),
        "ns",
    );
    let version = registry.current_version();
    report.metric(
        "registry.pin_unpin_ns",
        micro.time("registry.pin_unpin", |_| {
            let pinned = registry.pin(version);
            registry.unpin(version);
            pinned.is_some()
        }),
        "ns",
    );

    // quality / recorder
    let monitor = QualityMonitor::new(QualityConfig::default(), clock.clone());
    let quality_ns = micro.time("quality.score", |i| {
        let s = &sources[i % sources.len()];
        let predicted = responses[i % responses.len()].predictions_mbps[0];
        ape(predicted, s.ring[i % s.ring.len()]).map(|e| monitor.record_ape(1, true, false, e))
    });
    report.metric("quality.score_ns", quality_ns, "ns");
    let recorder =
        SessionRecorder::new(engine.schema().clone(), 6, spec.serve.recorder_capacity, 2);
    let predicts = spec.workloads.session_churn.predicts_per_session;
    report.metric(
        "recorder.record_ns",
        micro.time("recorder.record", |i| {
            let s = &sources[i % sources.len()];
            recorder.record(
                features[i % features.len()].clone(),
                s.ring[..predicts].to_vec(),
            )
        }),
        "ns",
    );

    // persist
    let update = |i: usize| {
        let s = &sources[i % sources.len()];
        WalRecord::Update {
            id: (i % batch_sessions) as u64,
            tick: i as u64,
            measured: Some(s.ring[i % s.ring.len()]),
            observed_len: 5,
            filter: states[i % states.len()].clone(),
            pending: Some(PersistedPending {
                value: responses[i % responses.len()].predictions_mbps[0],
                initial: false,
            }),
        }
    };
    let records: Vec<WalRecord> = (0..batch.frame_entries).map(update).collect();
    let encode_record_ns = micro.time("persist.encode_record", |i| {
        records[i % records.len()].encode()
    });
    report.metric("persist.encode_record_ns", encode_record_ns, "ns");
    let dir = ctx.tmp.join("layers-persist");
    let persist = SessionPersist::create(&dir, clock, &crate::phases::persist_config(spec, 0))?;
    let mut staged = WalBatch::default();
    let stage_flush_ns = micro.time("persist.stage64_flush", |_| {
        for r in &records {
            persist.stage(r, &mut staged);
        }
        persist.log_staged(&mut staged)
    });
    report.metric("persist.stage64_flush_ns", stage_flush_ns, "ns");
    let sessions: Vec<(u64, u64, PersistedSession)> = (0..batch_sessions)
        .map(|i| {
            let s = &sources[i % sources.len()];
            (
                i as u64,
                i as u64,
                PersistedSession {
                    version: 1,
                    model: None,
                    cluster_hit: true,
                    filter: states[i % states.len()].clone(),
                    features: s.features.clone(),
                    // Half a life of measurements: the staggered
                    // batch workload's average.
                    observed: s.ring[..spec.workloads.predict_batch64_wal.life_steps / 2].to_vec(),
                    pending: None,
                },
            )
        })
        .collect();
    report.metric(
        "persist.snapshot_ms",
        micro.time_ms("persist.snapshot", 10, || {
            persist.compact_with(|| (batch_sessions as u64, sessions.clone()))
        }),
        "ms",
    );
    report.metric(
        "persist.recover_replay_ms",
        micro.time_ms("persist.recover_replay", 10, || {
            recover(batch_dir, 1024).map(|r| r.sessions.len())
        }),
        "ms",
    );
    let megabyte = vec![0xA5u8; 1 << 20];
    let crc_ns = micro.time("persist.crc32", |_| crc32(&megabyte));
    report.metric("persist.crc32_mb_per_s", 1e9 / crc_ns, "MB/s");

    Ok(Table {
        decode_predict_ns,
        encode_predict_ns,
        decode_batch_ns,
        encode_batch_ns,
        store_lookup_ns,
        hmm_ns: roundtrip_ns + observe_ns + predict_ns,
        quality_ns,
        encode_record_ns,
        stage_flush_ns,
    })
}

/// EM, the clustering search and the bundle codec, each called directly.
fn training_layers(
    ctx: &Ctx,
    tracer: &mut Tracer,
    root: usize,
    ground: &Ground,
    cold: &PredictionEngine,
    report: &mut Report,
) {
    let config = engine_config(&ctx.spec);
    let layers = tracer.open("training_layers", Some(root));
    let mut micro = Micro {
        tracer: &mut *tracer,
        parent: layers,
        calls: 0,
    };

    // EM on the global model's own input: the most recent sequences.
    let day0 = &ground.world.day0;
    let mut recent: Vec<&cs2p_core::Session> = day0.sessions().iter().collect();
    recent.sort_by_key(|s| std::cmp::Reverse(s.start_time));
    let sequences: Vec<Vec<f64>> = recent
        .iter()
        .map(|s| s.throughput.clone())
        .filter(|t| t.len() >= config.min_sequence_epochs)
        .take(config.max_train_sequences)
        .collect();
    let mut iterations = 0;
    let em_ms = micro.time_ms("baum_welch.train_global", 5, || {
        let (_, em) =
            cs2p_ml::hmm::train(&sequences, &config.hmm).expect("the global model trains");
        iterations = em.iterations;
    });
    report.metric(
        "baum_welch.ms_per_iteration",
        em_ms / iterations as f64,
        "ms",
    );
    report.info("baum_welch.global_iterations", iterations);

    // One spec search per distinct feature combination, as training does.
    let mut combos: Vec<FeatureVector> =
        day0.sessions().iter().map(|s| s.features.clone()).collect();
    combos.sort_by(|a, b| a.0.cmp(&b.0));
    combos.dedup();
    let reference_time = day0.sessions().last().map_or(0, |s| s.end_time() + 1);
    report.metric(
        "cluster.search_ms",
        micro.time_ms("cluster.search", 3, || {
            let finder = ClusterFinder::new(day0, config.cluster.clone());
            combos
                .iter()
                .filter(|c| {
                    finder
                        .find_best_spec(c, reference_time)
                        .used_global_fallback
                })
                .count()
        }),
        "ms",
    );
    report.info("cluster.combos", combos.len());

    let bundle = ModelBundle::from_engine(cold);
    let json = bundle.to_json().expect("ModelBundle serialises");
    report.metric(
        "model_io.encode_ms",
        micro.time_ms("model_io.encode", 10, || {
            ModelBundle::from_engine(cold).to_json()
        }),
        "ms",
    );
    report.metric(
        "model_io.decode_ms",
        micro.time_ms("model_io.decode", 10, || {
            ModelBundle::from_json(&json).map(ModelBundle::into_engine)
        }),
        "ms",
    );
    report.metric("model_io.bundle_bytes", json.len() as f64, "bytes");
    tracer.close(layers);
}
