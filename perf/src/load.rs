//! The closed-loop load generator and its window statistics.
//!
//! A window is a fixed number of requests. Per request the timed loop does
//! `HttpClient::send`, one `Instant` pair into a pre-allocated `Vec<u32>`,
//! a status compare and a [`fold`] of the raw response bytes — no JSON
//! decode and no allocation of its own. Warm-up windows keep the response
//! bodies instead, to be decoded and checked afterwards.
//!
//! Neighbour noise only ever slows a window, so a rate is the **max** over
//! windows and a round trip the lower quartile of the window medians; the
//! median over runs sits on top.

use crate::reference::{fold, FOLD_START};
use crate::traffic::{Kind, Op, Script, Traffic};
use bytes::Bytes;
use cs2p_net::http::Request;
use cs2p_net::HttpClient;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// What one connection measured in one window.
#[derive(Debug, Clone, Default)]
pub struct ConnWindow {
    /// Round trips of the requests that carry predictions, ns. A player
    /// waits for its prediction; a log upload is timed into the window
    /// but is not on that path.
    pub rtt_ns: Vec<u32>,
    /// Time inside `send`, all requests, ns.
    pub in_send_ns: u64,
    /// The part of `in_send_ns` spent on log uploads.
    pub log_send_ns: u64,
    /// Start and end of the window on this connection, ns since the
    /// phase's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one connection brings back from a phase.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub windows: Vec<ConnWindow>,
    /// Bodies of the warm-up responses, in script order.
    pub kept: Vec<(u16, Bytes)>,
    /// Timed requests that failed in transport or were answered with
    /// another status than the op expects.
    pub bad_status: u64,
    /// Fold of the timed responses of each unit this connection serves
    /// ([`FOLD_START`] for the units of other connections).
    pub folds: Vec<u64>,
}

/// One statistic per window, over all connections.
#[derive(Debug, Clone)]
pub struct WindowStat {
    pub wall_ns: u64,
    pub entries: usize,
    pub rtt_p50_ns: u32,
    pub rtt_p99_ns: u32,
    pub samples: usize,
    /// Share of the window not spent inside `send` (one connection only:
    /// with several, their sends overlap).
    pub generator_frac: f64,
    /// Share of the time inside `send` that log uploads took.
    pub log_send_frac: f64,
}

/// Nearest-rank quantile of a sorted sample.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl WindowStat {
    /// Folds the connections' view of one window into one statistic.
    pub fn from_conns(conns: &[&ConnWindow], entries: usize) -> WindowStat {
        let start = conns
            .iter()
            .map(|c| c.start_ns)
            .min()
            .expect("a connection");
        let end = conns.iter().map(|c| c.end_ns).max().expect("a connection");
        let mut rtts: Vec<u32> = conns
            .iter()
            .flat_map(|c| c.rtt_ns.iter().copied())
            .collect();
        rtts.sort_unstable();
        let in_send: u64 = conns.iter().map(|c| c.in_send_ns).sum();
        let log_send: u64 = conns.iter().map(|c| c.log_send_ns).sum();
        let wall_ns = end - start;
        WindowStat {
            wall_ns,
            entries,
            rtt_p50_ns: quantile_sorted(&rtts, 0.50),
            rtt_p99_ns: quantile_sorted(&rtts, 0.99),
            samples: rtts.len(),
            generator_frac: 1.0 - in_send as f64 / (wall_ns as f64 * conns.len() as f64),
            log_send_frac: log_send as f64 / in_send as f64,
        }
    }

    pub fn entries_per_s(&self) -> f64 {
        self.entries as f64 * 1e9 / self.wall_ns as f64
    }
}

/// The phase's estimators over its timed windows.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// `max_window`: best window's entries per second.
    pub entries_per_s: f64,
    /// `p25_window_median`: lower quartile over windows of the window's
    /// median round trip, µs. Not the minimum: with two connections on
    /// one core a rare window falls into a faster interleaving (a median
    /// of 0.7 ms among windows of 1.05 to 1.2 ms), and the minimum over
    /// 60 windows is then whichever run happened to catch one. Not the
    /// median either: a neighbour's burst slows a fifth of the windows.
    pub rtt_p50_us: f64,
    /// Median over windows of the window p99, µs (reported, not gated).
    pub rtt_p99_us: f64,
    /// Round-trip samples per window (smallest window).
    pub samples_per_window: usize,
    /// Median over windows.
    pub generator_frac: f64,
    /// Median over windows.
    pub log_send_frac: f64,
    /// Index of the best window by rate.
    pub best_window: usize,
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl PhaseStats {
    pub fn from_windows(windows: &[WindowStat]) -> PhaseStats {
        assert!(!windows.is_empty(), "a phase has at least one timed window");
        let (best_window, best) = windows
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.entries_per_s().total_cmp(&b.1.entries_per_s()))
            .expect("non-empty");
        let mut p50: Vec<u32> = windows.iter().map(|w| w.rtt_p50_ns).collect();
        p50.sort_unstable();
        let mut p99: Vec<f64> = windows.iter().map(|w| w.rtt_p99_ns as f64 / 1e3).collect();
        let mut gen: Vec<f64> = windows.iter().map(|w| w.generator_frac).collect();
        let mut log: Vec<f64> = windows.iter().map(|w| w.log_send_frac).collect();
        PhaseStats {
            entries_per_s: best.entries_per_s(),
            rtt_p50_us: quantile_sorted(&p50, 0.25) as f64 / 1e3,
            rtt_p99_us: median_f64(&mut p99),
            samples_per_window: windows.iter().map(|w| w.samples).min().expect("non-empty"),
            generator_frac: median_f64(&mut gen),
            log_send_frac: median_f64(&mut log),
            best_window,
        }
    }
}

/// The three request templates; only the body changes between sends, and
/// a `Bytes` clone is a reference-count bump.
pub struct Templates {
    predict: Request,
    batch: Request,
    log: Request,
}

impl Templates {
    pub fn new() -> Templates {
        Templates {
            predict: Request::new("POST", "/predict", Bytes::new()),
            batch: Request::new("POST", "/predict_batch", Bytes::new()),
            log: Request::new("POST", "/log", Bytes::new()),
        }
    }

    pub fn with_body(&mut self, kind: Kind, body: &Bytes) -> &Request {
        let req = match kind {
            Kind::Predict => &mut self.predict,
            Kind::Batch => &mut self.batch,
            Kind::Log => &mut self.log,
        };
        req.body = body.clone();
        req
    }
}

impl Default for Templates {
    fn default() -> Self {
        Templates::new()
    }
}

/// What is kept of a response for later checking; status 0 stands for a
/// transport failure.
pub fn kept(response: std::io::Result<cs2p_net::http::Response>) -> (u16, Bytes) {
    match response {
        Ok(resp) => (resp.status, resp.body),
        Err(_) => (0, Bytes::new()),
    }
}

pub fn expected_status(kind: Kind) -> u16 {
    match kind {
        Kind::Log => 204,
        Kind::Predict | Kind::Batch => 200,
    }
}

/// Hook around each timed `send` (the traced run records a span here; the
/// gated run passes [`NoTrace`], which compiles to nothing).
pub trait SendHook {
    fn sent(&mut self, conn: usize, window: usize, op: &Op, start_ns: u64, end_ns: u64);
}

pub struct NoTrace;

impl SendHook for NoTrace {
    #[inline(always)]
    fn sent(&mut self, _: usize, _: usize, _: &Op, _: u64, _: u64) {}
}

/// Runs one connection's script: `warmup` windows whose responses are
/// kept, then the remaining windows timed and folded. All connections
/// start each window together at `barrier`.
#[allow(clippy::too_many_arguments)]
fn drive<H: SendHook>(
    conn: usize,
    addr: SocketAddr,
    traffic: &Traffic,
    script: &Script,
    warmup: usize,
    barrier: &Barrier,
    epoch: Instant,
    hook: &mut H,
) -> ConnOutcome {
    let mut client = HttpClient::new(addr);
    let mut templates = Templates::new();
    let mut out = ConnOutcome {
        windows: (warmup..script.windows())
            .map(|w| ConnWindow {
                rtt_ns: Vec::with_capacity(script.window(w).len()),
                ..ConnWindow::default()
            })
            .collect(),
        folds: vec![FOLD_START; traffic.units],
        ..ConnOutcome::default()
    };

    for w in 0..script.windows() {
        barrier.wait();
        if w < warmup {
            for op in script.window(w) {
                let req = templates.with_body(op.kind, &traffic.bodies[op.body as usize]);
                // A transport error is a failed operation, not an early
                // return: the other connections wait at the barrier.
                out.kept.push(kept(client.send(req)));
            }
            continue;
        }
        let stat = &mut out.windows[w - warmup];
        stat.start_ns = epoch.elapsed().as_nanos() as u64;
        for op in script.window(w) {
            let req = templates.with_body(op.kind, &traffic.bodies[op.body as usize]);
            let t0 = Instant::now();
            let resp = client.send(req);
            let t1 = Instant::now();
            let rtt = (t1 - t0).as_nanos() as u32;
            stat.in_send_ns += rtt as u64;
            if op.kind == Kind::Log {
                stat.log_send_ns += rtt as u64;
            } else {
                stat.rtt_ns.push(rtt);
            }
            match resp {
                Ok(resp) if resp.status == expected_status(op.kind) => {
                    let slot = &mut out.folds[op.unit as usize];
                    *slot = fold(*slot, &resp.body);
                }
                _ => out.bad_status += 1,
            }
            hook.sent(
                conn,
                w,
                op,
                (t0 - epoch).as_nanos() as u64,
                (t1 - epoch).as_nanos() as u64,
            );
        }
        stat.end_ns = epoch.elapsed().as_nanos() as u64;
    }
    out
}

/// What a serving phase measured and brought back for verification.
pub struct PhaseOutcome {
    pub windows: Vec<WindowStat>,
    /// Start and end of each timed window, ns since the phase's epoch.
    pub window_bounds: Vec<(u64, u64)>,
    /// Per connection, the warm-up responses in script order.
    pub kept: Vec<Vec<(u16, Bytes)>>,
    /// Fold of the timed responses of each unit.
    pub folds: Vec<u64>,
    pub bad_status: u64,
    /// HTTP requests sent (warm-up and timed).
    pub requests: u64,
}

/// Runs every connection of `traffic` against `addr`, one thread each.
pub fn run_phase<H: SendHook + Send>(
    addr: SocketAddr,
    traffic: &Traffic,
    warmup: usize,
    epoch: Instant,
    hooks: &mut [H],
) -> PhaseOutcome {
    let n_conns = traffic.scripts.len();
    assert_eq!(hooks.len(), n_conns, "one hook per connection");
    let barrier = Barrier::new(n_conns);
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = traffic
            .scripts
            .iter()
            .zip(hooks.iter_mut())
            .enumerate()
            .map(|(c, (script, hook))| {
                let barrier = &barrier;
                scope.spawn(move || drive(c, addr, traffic, script, warmup, barrier, epoch, hook))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    });

    let timed = traffic.scripts[0].windows() - warmup;
    let per_window =
        |w: usize| -> Vec<&ConnWindow> { outcomes.iter().map(|o| &o.windows[w]).collect() };
    let windows = (0..timed)
        .map(|w| WindowStat::from_conns(&per_window(w), traffic.entries_per_window))
        .collect();
    let window_bounds = (0..timed)
        .map(|w| {
            let conns = per_window(w);
            (
                conns
                    .iter()
                    .map(|c| c.start_ns)
                    .min()
                    .expect("a connection"),
                conns.iter().map(|c| c.end_ns).max().expect("a connection"),
            )
        })
        .collect();
    // A unit belongs to one connection; the others left its slot untouched.
    let folds = (0..traffic.units)
        .map(|u| {
            outcomes
                .iter()
                .map(|o| o.folds[u])
                .find(|&f| f != FOLD_START)
                .unwrap_or(FOLD_START)
        })
        .collect();
    PhaseOutcome {
        windows,
        window_bounds,
        bad_status: outcomes.iter().map(|o| o.bad_status).sum(),
        requests: traffic.scripts.iter().map(|s| s.ops.len() as u64).sum(),
        folds,
        kept: outcomes.into_iter().map(|o| o.kept).collect(),
    }
}
