use super::app::AppState;
use super::ServeConfig;
use crate::http::{
    read_request_buffered, write_response, write_response_buffered, IoScratch, Response,
};
use crate::pool::BoundedQueue;
use crate::transport::{DeadlineReader, IoHalf};
use cs2p_obs::TraceScope;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a worker spin-peeks for the next keep-alive request before
/// handing the connection back to the poller.
const LINGER: Duration = Duration::from_micros(300);
/// Poller wakeup granularity for idle connections (shutdown and new
/// connections are condvar-signalled and do not wait for this).
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Requests a worker serves from one connection before re-queueing it,
/// so a chatty pipelining client cannot starve the queue.
const MAX_REQUESTS_PER_TURN: u32 = 32;
/// Slow-peer deadline on [`ServeConfig::clock`]: the time one request may
/// take to arrive once its first byte is read (see [`DeadlineReader`]).
/// A violator's connection is cut and `serve.fault.slow_peer_aborts`
/// bumped.
const SLOW_PEER_DEADLINE_US: u64 = 30_000_000;

/// Decrements the live-connection count when the connection dies,
/// whichever thread drops it.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One client connection, handed between the poller and the workers.
/// The buffered halves run over [`IoHalf`] (hook-wrappable transports);
/// readiness polling always peeks the raw socket, so fault wrappers see
/// every byte a worker moves but never affect idle multiplexing.
pub(super) struct Conn {
    stream: TcpStream,
    reader: BufReader<DeadlineReader>,
    writer: BufWriter<IoHalf>,
    nonblocking: bool,
    _slot: ConnSlot,
}

enum PollState {
    /// Bytes are waiting (or already buffered) — hand to a worker.
    Ready,
    /// No data yet; keep watching.
    Idle,
    /// Peer closed or the socket errored — drop the connection.
    Closed,
}

impl Conn {
    fn new(
        stream: TcpStream,
        conn_seq: u64,
        slot: ConnSlot,
        config: &ServeConfig,
    ) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.io_timeout))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
        let (read_half, write_half) =
            IoHalf::pair(&stream, conn_seq, config.transport_wrapper.as_ref())?;
        let reader = BufReader::new(DeadlineReader::new(
            read_half,
            Arc::clone(&config.clock),
            SLOW_PEER_DEADLINE_US,
        ));
        let writer = BufWriter::new(write_half);
        Ok(Conn {
            stream,
            reader,
            writer,
            nonblocking: false,
            _slot: slot,
        })
    }

    fn set_blocking(&mut self) -> io::Result<()> {
        if self.nonblocking {
            self.stream.set_nonblocking(false)?;
            self.nonblocking = false;
        }
        Ok(())
    }

    fn set_nonblocking(&mut self) -> io::Result<()> {
        if !self.nonblocking {
            self.stream.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        Ok(())
    }

    /// Non-destructive readiness check (a 1-byte `peek`; nothing is
    /// consumed, so a later blocking read sees the full request).
    fn poll_ready(&mut self) -> PollState {
        if !self.reader.buffer().is_empty() {
            return PollState::Ready;
        }
        if self.set_nonblocking().is_err() {
            return PollState::Closed;
        }
        let mut byte = [0u8; 1];
        match self.stream.peek(&mut byte) {
            Ok(0) => PollState::Closed,
            Ok(_) => PollState::Ready,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => PollState::Idle,
            Err(_) => PollState::Closed,
        }
    }

    /// Spin-peeks (yielding) for up to `window` waiting for the next
    /// keep-alive request, so back-to-back requests skip the poller.
    fn wait_for_data(&mut self, window: Duration) -> PollState {
        let deadline = Instant::now() + window;
        loop {
            match self.poll_ready() {
                PollState::Idle => {
                    if Instant::now() >= deadline {
                        return PollState::Idle;
                    }
                    thread::yield_now();
                }
                state => return state,
            }
        }
    }
}

/// The connection-layer state the acceptor, poller and workers share, and
/// `/ops` and [`super::ServeStats`] report on.
pub(super) struct Serving {
    pub(super) queue: BoundedQueue<Conn>,
    /// Connections waiting to be watched by the poller (newly accepted,
    /// or returned by a worker after going idle).
    intake: StdMutex<Vec<Conn>>,
    pub(super) intake_cv: Condvar,
    pub(super) shutdown: AtomicBool,
    pub(super) live_conns: Arc<AtomicUsize>,
    pub(super) rejected: AtomicU64,
    pub(super) accepted: AtomicU64,
}

impl Serving {
    pub(super) fn new(queue_depth: usize) -> Self {
        Serving {
            queue: BoundedQueue::new(queue_depth),
            intake: StdMutex::new(Vec::new()),
            intake_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live_conns: Arc::new(AtomicUsize::new(0)),
            rejected: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        }
    }

    pub(super) fn intake_lock(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        self.intake
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl AppState {
    /// Feeds one queue-occupancy sample to the admission controller and
    /// the `serve.queue_depth` gauge.
    fn note_queue_depth(&self, depth: usize) {
        self.admission.note_queue(depth, self.config.queue_depth);
        if cs2p_obs::enabled() {
            cs2p_obs::gauge_set("serve.queue_depth", depth as f64);
        }
    }

    /// Answers 503 + `Retry-After` without reading the request (the
    /// request stays unread, so framing cannot desync) and closes.
    fn reject(&self, mut conn: Conn) {
        self.serving.rejected.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.rejected", 1);
        let _ = conn.set_blocking();
        let _ = write_response(&mut conn.writer, &Response::service_unavailable());
    }
}

/// Blocking accept loop. Woken at shutdown by a loopback connect from
/// `shutdown()` — no sleep-polling.
pub(super) fn run_acceptor(listener: TcpListener, app: Arc<AppState>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if app.serving.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if app.serving.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing shutdown).
            return;
        }
        let conn_seq = app.serving.accepted.fetch_add(1, Ordering::Relaxed);
        cs2p_obs::counter_add("serve.accepted", 1);
        let live = app.serving.live_conns.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ConnSlot(Arc::clone(&app.serving.live_conns));
        let conn = match Conn::new(stream, conn_seq, slot, &app.config) {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if live > app.config.max_connections {
            app.reject(conn);
            continue;
        }
        app.serving.intake_lock().push(conn);
        app.serving.intake_cv.notify_all();
    }
}

/// Multiplexes idle connections: new and returned connections arrive via
/// the intake, ready ones go to the worker queue (or get 503 when it is
/// full). Parks on the intake condvar; `POLL_INTERVAL` bounds how late a
/// newly readable connection is noticed.
pub(super) fn run_poller(app: Arc<AppState>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let shutting_down = app.serving.shutdown.load(Ordering::SeqCst);
        {
            let mut intake = app.serving.intake_lock();
            conns.append(&mut intake);
        }
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match conns[i].poll_ready() {
                PollState::Ready => {
                    let mut conn = conns.swap_remove(i);
                    progressed = true;
                    if conn.set_blocking().is_err() {
                        continue;
                    }
                    match app.serving.queue.try_push(conn) {
                        Ok(depth) => app.note_queue_depth(depth),
                        Err(conn) => {
                            let full = app.config.queue_depth;
                            app.admission.note_queue(full, full);
                            app.reject(conn);
                        }
                    }
                }
                PollState::Closed => {
                    conns.swap_remove(i);
                    progressed = true;
                }
                PollState::Idle => i += 1,
            }
        }
        if shutting_down {
            // Ready connections were swept to the queue above; what is
            // left has no request outstanding, so it can close.
            conns.clear();
            app.serving.intake_lock().clear();
            return;
        }
        if !progressed {
            let intake = app.serving.intake_lock();
            if intake.is_empty() {
                match app.serving.intake_cv.wait_timeout(intake, POLL_INTERVAL) {
                    Ok((guard, _)) => drop(guard),
                    Err(poison) => drop(poison.into_inner()),
                }
            }
        }
    }
}

/// Worker loop: pull a ready connection, serve its request(s), return it
/// to the poller when it goes idle. After `close()` the queue hands out
/// its backlog before `None`, so draining is automatic.
pub(super) fn run_worker(app: Arc<AppState>) {
    // Per-worker reusable I/O buffers: every request this worker serves
    // frames through the same line/response scratch, so the steady-state
    // hot path allocates nothing for framing.
    let mut scratch = IoScratch::new();
    while let Some(conn) = app.serving.queue.pop() {
        // Workers draining the queue is what lets the ladder recover:
        // every pop feeds the falling occupancy back to the controller.
        app.note_queue_depth(app.serving.queue.len());
        serve_turn(conn, &app, &mut scratch);
    }
}

/// Serves requests from one ready connection until it goes idle, closes,
/// errors, or exhausts its fairness budget.
fn serve_turn(mut conn: Conn, app: &AppState, scratch: &mut IoScratch) {
    let mut served: u32 = 0;
    loop {
        if conn.set_blocking().is_err() {
            return;
        }
        match read_request_buffered(&mut conn.reader, scratch) {
            Ok(Some(req)) => {
                // Request fully received: disarm the slow-peer deadline
                // before doing any (unbounded-by-it) handler work.
                conn.reader.get_mut().finish_request();
                // A client-supplied trace id scopes every span and event
                // this request produces (declared before the span so the
                // span's drop-record still sees it).
                let trace_id = req
                    .header("x-trace-id")
                    .and_then(|v| v.trim().parse::<u64>().ok());
                let _trace = trace_id.map(TraceScope::enter);
                let _span = cs2p_obs::span("serve.request");
                let start_us = app.config.clock.now_micros();
                let resp = app.handle(&req);
                let elapsed_us = app.config.clock.now_micros().saturating_sub(start_us);
                app.monitor.record_latency_us(elapsed_us as f64);
                app.admission.note_latency(elapsed_us);
                if cs2p_obs::enabled() {
                    cs2p_obs::quantile_observe("serve.request.latency_us", elapsed_us as f64);
                }
                if write_response_buffered(&mut conn.writer, &resp, scratch).is_err() {
                    cs2p_obs::counter_add("serve.fault.write_errors", 1);
                    return;
                }
                served += 1;
            }
            Ok(None) => return, // peer closed keep-alive cleanly
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Unparseable framing (truncated/corrupted request).
                cs2p_obs::counter_add("serve.fault.bad_frames", 1);
                let _ = write_response_buffered(
                    &mut conn.writer,
                    &Response::error(400, &e.to_string()),
                    scratch,
                );
                return;
            }
            Err(_) => {
                // Read timeout, slow-peer abort, or peer reset mid-request.
                cs2p_obs::counter_add("serve.fault.read_errors", 1);
                return;
            }
        }

        // Pipelined bytes already buffered are in-flight work: serve them
        // (even during drain) before deciding what to do with the conn.
        let more_buffered = !conn.reader.buffer().is_empty();
        if !more_buffered {
            if app.serving.shutdown.load(Ordering::SeqCst) {
                return; // drained: every received request was answered
            }
            match conn.wait_for_data(LINGER) {
                PollState::Ready => {}
                PollState::Closed => return,
                PollState::Idle => {
                    // Hand the idle connection back to the poller.
                    app.serving.intake_lock().push(conn);
                    app.serving.intake_cv.notify_all();
                    return;
                }
            }
        }
        if served >= MAX_REQUESTS_PER_TURN {
            // Fairness: let queued connections go first. If the queue is
            // full, keep serving rather than rejecting an active conn.
            match app.serving.queue.try_push(conn) {
                Ok(_) => return,
                Err(back) => {
                    conn = back;
                    served = 0;
                }
            }
        }
    }
}
