//! The player-side HTTP client and the remote predictor.
//!
//! [`HttpClient`] is a tiny blocking client with one keep-alive connection
//! (reconnecting on failure); its injectable clock drives the circuit
//! breaker's cooldown and nothing else. [`RemotePredictor`] makes the
//! prediction server look like any other [`ThroughputPredictor`]:
//! `observe` buffers the measurement, and the next prediction request
//! flushes it in the POST — exactly the Dash.js flow of §6 ("it sends a
//! POST request (containing the actual throughput of the last epoch) to
//! the server and fetches the result of throughput prediction").

use crate::http::{read_response, write_request, Request, Response};
use crate::protocol::{Degradation, PredictRequest, PredictResponse, SessionLog};
use crate::transport::{IoHalf, TransportWrapper};
use bytes::Bytes;
use cs2p_core::ThroughputPredictor;
use cs2p_obs::{Clock, MonotonicClock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Retry tuning for [`HttpClient`]: capped exponential backoff with
/// seeded jitter. Defaults are sized so tests stay fast; a deployment
/// would raise the caps.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total send attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff delay.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG — fixed seed, fixed delay sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            seed: 0,
        }
    }
}

/// The client's persistent backoff state: one jitter RNG plus the count
/// of consecutive failures. Deliberately **not** reset per request — a
/// burst of 503s across several keep-alive requests keeps escalating the
/// delay; only a successful (non-503) response resets it.
struct BackoffState {
    rng: ChaCha8Rng,
    consecutive_failures: u32,
}

impl BackoffState {
    fn new(seed: u64) -> Self {
        BackoffState {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xC52F_BAC0_FF5E_7D1A),
            consecutive_failures: 0,
        }
    }

    /// The next delay: `base << failures`, capped, with jitter drawn
    /// uniformly from `[raw/2, raw)` so synchronized clients spread out.
    fn next_delay(&mut self, policy: &RetryPolicy) -> Duration {
        let exp = self.consecutive_failures.min(20);
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let base = policy.base_backoff.as_micros().min(u64::MAX as u128) as u64;
        let cap = policy.max_backoff.as_micros().min(u64::MAX as u128) as u64;
        let raw = base.saturating_mul(1u64 << exp).min(cap.max(base));
        if raw < 2 {
            return Duration::from_micros(raw);
        }
        Duration::from_micros(self.rng.gen_range(raw / 2..raw))
    }

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
    }
}

/// How the client waits out a backoff delay. Swappable so chaos tests
/// record delays (or drive a manual clock) instead of really sleeping.
pub type Sleeper = Arc<dyn Fn(Duration) + Send + Sync>;

/// Tuning for the client-side circuit breaker (see
/// [`HttpClient::with_breaker`]). The breaker sits *in front of* the
/// retry policy: retries recover one request from a transient fault,
/// while the breaker stops a client from paying connect/retry latency
/// at all once the server is persistently failing or shedding — the
/// client-side half of the server's admission ladder.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failed logical requests (transport give-ups or 503
    /// sheds) that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing one half-open
    /// probe. Doubles on every re-open while the server stays bad.
    pub cooldown: Duration,
    /// Ceiling on the (pre-jitter) doubled cooldown.
    pub max_cooldown: Duration,
    /// Seed for the cooldown jitter RNG — fixed seed, fixed schedule.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_secs(10),
            seed: 0,
        }
    }
}

/// Externally visible circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast locally until the cooldown expires.
    Open,
    /// Cooldown expired: the next request is the recovery probe.
    HalfOpen,
}

/// The breaker state machine. All timing reads the client's injectable
/// clock, so tests crank a [`ManualClock`](cs2p_obs::ManualClock)
/// through open→half-open transitions deterministically.
struct CircuitBreaker {
    config: BreakerConfig,
    rng: ChaCha8Rng,
    state: BreakerState,
    consecutive_failures: u32,
    /// Clock reading (µs) when the open state admits a probe.
    open_until_us: u64,
    /// Consecutive opens without an intervening close — drives the
    /// doubling cooldown.
    reopens: u32,
}

impl CircuitBreaker {
    fn new(config: BreakerConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xB4EA_4E4B_0017_C52F);
        CircuitBreaker {
            config,
            rng,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_us: 0,
            reopens: 0,
        }
    }

    /// Gate for one logical request: `true` admits it (possibly as the
    /// half-open probe), `false` fails fast.
    fn admit(&mut self, now_us: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_us >= self.open_until_us {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    cs2p_obs::counter_add("client.breaker.fast_fails", 1);
                    false
                }
            }
        }
    }

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.reopens = 0;
            cs2p_obs::counter_add("client.breaker.closes", 1);
        }
    }

    fn on_failure(&mut self, now_us: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.config.failure_threshold.max(1);
        if !trip {
            return;
        }
        let base = self.config.cooldown.as_micros().min(u64::MAX as u128) as u64;
        let cap = self.config.max_cooldown.as_micros().min(u64::MAX as u128) as u64;
        let exp = self.reopens.min(20);
        let raw = base.saturating_mul(1u64 << exp).min(cap.max(base)).max(1);
        // Jitter uniformly in [raw, 1.5·raw) so a fleet of clients that
        // tripped together does not re-probe the server in lockstep.
        let spread = (raw / 2).max(1);
        let cooldown = raw.saturating_add(self.rng.gen_range(0..spread));
        self.state = BreakerState::Open;
        self.open_until_us = now_us.saturating_add(cooldown);
        self.reopens = self.reopens.saturating_add(1);
        cs2p_obs::counter_add("client.breaker.opens", 1);
    }
}

/// A blocking HTTP/1.1 client holding one keep-alive connection, with
/// seeded capped-exponential retry (see [`RetryPolicy`]) and an optional
/// per-connection transport hook for fault injection.
pub struct HttpClient {
    addr: SocketAddr,
    connection: Option<(BufReader<IoHalf>, BufWriter<IoHalf>)>,
    retry: RetryPolicy,
    backoff: BackoffState,
    sleeper: Sleeper,
    transport_wrapper: Option<Arc<dyn TransportWrapper>>,
    /// Connections opened so far — the `conn_seq` fault plans key on.
    connects: u64,
    /// When set, every logical request gets a fresh trace id from this
    /// (seeded) RNG, sent as `x-trace-id` and scoped over the client's
    /// own spans. Retries of one request share its id.
    trace_rng: Option<ChaCha8Rng>,
    /// The circuit breaker, when [`Self::with_breaker`] armed it.
    breaker: Option<CircuitBreaker>,
    /// `Retry-After` seconds from the most recent 503; floors the next
    /// backpressure delay and clears on the next non-503 success.
    retry_after_hint_secs: Option<u64>,
    /// Time source for the breaker cooldown (injectable so tests crank
    /// a [`ManualClock`](cs2p_obs::ManualClock)).
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClient")
            .field("addr", &self.addr)
            .field("connected", &self.connection.is_some())
            .field("retry", &self.retry)
            .field("consecutive_failures", &self.backoff.consecutive_failures)
            .field("transport_wrapper", &self.transport_wrapper.is_some())
            .field("connects", &self.connects)
            .field("tracing", &self.trace_rng.is_some())
            .field("breaker", &self.breaker.as_ref().map(|b| b.state))
            .finish()
    }
}

impl HttpClient {
    /// A client for the given server address (not yet connected).
    pub fn new(addr: SocketAddr) -> Self {
        let retry = RetryPolicy::default();
        let backoff = BackoffState::new(retry.seed);
        HttpClient {
            addr,
            connection: None,
            retry,
            backoff,
            sleeper: Arc::new(std::thread::sleep),
            transport_wrapper: None,
            connects: 0,
            trace_rng: None,
            breaker: None,
            retry_after_hint_secs: None,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Enables end-to-end request tracing: each logical request draws a
    /// trace id from a ChaCha RNG seeded here, propagates it to the
    /// server in the `x-trace-id` header, and scopes it over the
    /// client-side telemetry. Fixed seed, fixed id sequence — traces
    /// stay correlatable across deterministic reruns.
    pub fn with_trace_seed(mut self, seed: u64) -> Self {
        self.trace_rng = Some(ChaCha8Rng::seed_from_u64(seed ^ 0x7ACE_1D5E_ED00_C52F));
        self
    }

    /// Replaces the retry policy (resetting the backoff RNG to its seed).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.backoff = BackoffState::new(policy.seed);
        self.retry = policy;
        self
    }

    /// Installs a transport hook wrapping each new connection; `conn_seq`
    /// passed to the hook is this client's connect count (0-based).
    pub fn with_transport_wrapper(mut self, wrapper: Arc<dyn TransportWrapper>) -> Self {
        self.transport_wrapper = Some(wrapper);
        self
    }

    /// Replaces how backoff delays are waited out (tests record instead
    /// of sleeping).
    pub fn with_sleeper(mut self, sleeper: Sleeper) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Replaces the time source the breaker cooldown is measured on
    /// (its only reader). Tests install a
    /// [`ManualClock`](cs2p_obs::ManualClock) and crank it explicitly;
    /// the default is a real monotonic clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Arms a circuit breaker in front of the retry policy: after
    /// [`BreakerConfig::failure_threshold`] consecutive failed logical
    /// requests (transport give-ups or 503 sheds) the breaker opens and
    /// [`Self::send`] fails fast locally — no connect, no retries, no
    /// `net.client.errors` — until the (doubling, jittered) cooldown
    /// admits one half-open probe. Off by default.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(CircuitBreaker::new(config));
        self
    }

    /// The breaker's current state, or `None` when no breaker is armed.
    /// An expired open state still reads `Open` until the next request
    /// promotes it to the half-open probe.
    #[cfg(test)]
    fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| b.state)
    }

    /// Consecutive failed attempts the backoff state currently remembers
    /// (0 after a successful non-503 response).
    pub fn consecutive_failures(&self) -> u32 {
        self.backoff.consecutive_failures
    }

    fn connect(&mut self) -> io::Result<&mut (BufReader<IoHalf>, BufWriter<IoHalf>)> {
        match self.connection {
            Some(ref mut connection) => Ok(connection),
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                stream.set_nodelay(true)?;
                let conn_seq = self.connects;
                self.connects += 1;
                let (read_half, write_half) =
                    IoHalf::pair(&stream, conn_seq, self.transport_wrapper.as_ref())?;
                Ok(self
                    .connection
                    .insert((BufReader::new(read_half), BufWriter::new(write_half))))
            }
        }
    }

    /// Waits out one backoff delay from the persistent state and records
    /// it (`client.retry.backoff_us`).
    fn back_off(&mut self) {
        let delay = self.backoff.next_delay(&self.retry);
        cs2p_obs::observe("client.retry.backoff_us", delay.as_micros() as f64);
        (self.sleeper)(delay);
    }

    /// Records server backpressure (a 503 `Retry-After`) against the
    /// client's **persistent** backoff state and waits out the resulting
    /// delay. Consecutive 503s — including across separate requests on
    /// the same keep-alive client — keep doubling the delay; only a later
    /// non-503 response resets it. When the 503 carried a `Retry-After`
    /// header, its value floors the delay — the server knows how long it
    /// wants to drain better than the client's own schedule does
    /// (`client.retry.floored` counts how often the floor won).
    fn note_backpressure(&mut self) {
        cs2p_obs::counter_add("client.retry.backpressure", 1);
        let mut delay = self.backoff.next_delay(&self.retry);
        if let Some(secs) = self.retry_after_hint_secs {
            let floor = Duration::from_secs(secs);
            if delay < floor {
                delay = floor;
                cs2p_obs::counter_add("client.retry.floored", 1);
            }
        }
        cs2p_obs::observe("client.retry.backoff_us", delay.as_micros() as f64);
        (self.sleeper)(delay);
    }

    /// Sends one request, reusing the keep-alive connection. Transport
    /// failures (broken connection, reset, timeout) are retried up to
    /// [`RetryPolicy::max_attempts`] with seeded capped-exponential
    /// backoff; HTTP error statuses are returned to the caller, but a
    /// 503 does *not* reset the backoff state (see `note_backpressure`). With [`Self::with_breaker`] armed,
    /// an open breaker fails the request fast (`client.breaker.fast_fails`)
    /// without connecting or charging `net.client.*` / `client.retry.*`
    /// — nothing actually went over the wire.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        if let Some(b) = self.breaker.as_mut() {
            if !b.admit(self.clock.now_micros()) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "circuit breaker open",
                ));
            }
        }
        // One trace id per *logical* request: every retry attempt (and
        // the server handling whichever one lands) shares it.
        let trace_id = self.trace_rng.as_mut().map(|rng| rng.gen::<u64>());
        let _trace = trace_id.map(cs2p_obs::TraceScope::enter);
        let traced_req;
        let req = match trace_id {
            Some(id) => {
                let mut r = req.clone();
                r.headers.push(("x-trace-id".into(), id.to_string()));
                traced_req = r;
                &traced_req
            }
            None => req,
        };
        let _span = cs2p_obs::span("net.client.request");
        cs2p_obs::counter_add("net.client.requests", 1);
        let max_attempts = self.retry.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                // Stale keep-alive connection, reset, or timeout: back
                // off, then reconnect and retry.
                cs2p_obs::counter_add("client.retry.attempts", 1);
                cs2p_obs::counter_add("net.client.reconnects", 1);
                self.connection = None;
                self.back_off();
            }
            match self.try_send(req) {
                Ok(resp) => {
                    if resp.status != 503 {
                        self.backoff.on_success();
                        self.retry_after_hint_secs = None;
                        if let Some(b) = self.breaker.as_mut() {
                            b.on_success();
                        }
                    } else {
                        // Remember the server's drain hint for the next
                        // backpressure wait, and charge the breaker: a
                        // shedding server is exactly what it guards.
                        self.retry_after_hint_secs = resp
                            .header("retry-after")
                            .and_then(|v| v.trim().parse::<u64>().ok());
                        if let Some(b) = self.breaker.as_mut() {
                            b.on_failure(self.clock.now_micros());
                        }
                    }
                    if cs2p_obs::enabled() {
                        cs2p_obs::counter_add("net.client.bytes_out", req.body.len() as u64);
                        cs2p_obs::counter_add("net.client.bytes_in", resp.body.len() as u64);
                    }
                    return Ok(resp);
                }
                Err(e) => last_err = Some(e),
            }
        }
        if let Some(b) = self.breaker.as_mut() {
            b.on_failure(self.clock.now_micros());
        }
        cs2p_obs::counter_add("client.retry.giveups", 1);
        cs2p_obs::counter_add("net.client.errors", 1);
        // Invariant: `max_attempts >= 1`, so the loop ran and every pass
        // that did not return stored an error.
        #[allow(clippy::expect_used)]
        let err = last_err.expect("max_attempts >= 1");
        Err(err)
    }

    /// Drops the current keep-alive connection; the next request
    /// reconnects. Used after a response carrying `Connection: close`.
    pub fn reset_connection(&mut self) {
        self.connection = None;
    }

    fn try_send(&mut self, req: &Request) -> io::Result<Response> {
        let (reader, writer) = self.connect()?;
        write_request(writer, req)?;
        read_response(reader)
    }

    /// GETs a path, expecting a 2xx reply.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let resp = self.send(&Request::new("GET", path, Bytes::new()))?;
        if !(200..300).contains(&resp.status) {
            return Err(io::Error::other(format!("server returned {}", resp.status)));
        }
        Ok(resp)
    }
}

/// A [`ThroughputPredictor`] backed by the prediction server.
///
/// Caches the last fetched prediction window so that an MPC controller
/// asking for horizons 1..h costs one HTTP round trip per chunk, not h.
#[derive(Debug)]
pub struct RemotePredictor {
    client: HttpClient,
    session_id: u64,
    features: Vec<u32>,
    /// Measurement not yet shipped to the server.
    pending_measurement: Option<f64>,
    /// Whether the session has been registered (first request sent).
    registered: bool,
    /// Cached predictions from the last POST (index 0 = next epoch).
    cache: Vec<f64>,
    /// Whether the cache reflects the initial (cluster-median) prediction.
    cache_initial: bool,
    /// Degradation provenance of the cached predictions (`None` = the
    /// full HMM path served them). The ABR layer reads this to know how
    /// much to trust the window.
    last_degradation: Option<Degradation>,
    /// Horizon to request per POST.
    fetch_horizon: usize,
}

impl RemotePredictor {
    /// A remote predictor for one session.
    pub fn new(addr: SocketAddr, session_id: u64, features: Vec<u32>) -> Self {
        Self::from_client(HttpClient::new(addr), session_id, features)
    }

    /// A remote predictor over a pre-configured [`HttpClient`] (custom
    /// retry policy, sleeper, or transport hook).
    pub fn from_client(client: HttpClient, session_id: u64, features: Vec<u32>) -> Self {
        RemotePredictor {
            client,
            session_id,
            features,
            pending_measurement: None,
            registered: false,
            cache: Vec::new(),
            cache_initial: false,
            last_degradation: None,
            fetch_horizon: 8,
        }
    }

    /// Degradation provenance of the most recent server answer: `None`
    /// once the full HMM path served it, `Some` while the server is
    /// running degraded (cluster prior) or fallback (harmonic mean)
    /// under overload.
    pub fn last_degradation(&self) -> Option<Degradation> {
        self.last_degradation
    }

    /// Books a server answer's degradation provenance into the client's
    /// telemetry (`predict.client.degraded` / `predict.client.fallback`).
    fn note_degradation(&mut self, degradation: Option<Degradation>) {
        self.last_degradation = degradation;
        match degradation {
            Some(Degradation::Degraded) => cs2p_obs::counter_add("predict.client.degraded", 1),
            Some(Degradation::Fallback) => cs2p_obs::counter_add("predict.client.fallback", 1),
            None => {}
        }
    }

    /// Ensures the cache covers `k` epochs ahead, POSTing if necessary.
    /// Returns `None` on network failure or server backpressure
    /// (prediction is best-effort; the player degrades to no-prediction
    /// behaviour rather than stalling). If the server evicted this
    /// session (404 "unknown session"), re-registers transparently by
    /// resending the features.
    ///
    /// Only a 200 absorbs the unshipped measurement. After anything else
    /// it reached no filter, so it stays pending and the next request
    /// carries it again.
    fn ensure_cache(&mut self, k: usize) -> Option<()> {
        let dirty = self.pending_measurement.is_some() || !self.registered;
        if !dirty && self.cache.len() >= k {
            return Some(());
        }
        // Two attempts: the second only after a 404 told us the server
        // no longer knows this session and we must resend features.
        for _ in 0..2 {
            let preq = PredictRequest {
                session_id: self.session_id,
                features: (!self.registered).then(|| self.features.clone()),
                measured_mbps: self.pending_measurement,
                horizon: self.fetch_horizon.max(k),
            };
            let body = serde_json::to_vec(&preq).ok()?;
            let resp = self
                .client
                .send(&Request::new("POST", "/predict", body))
                .ok()?;
            match resp.status {
                200..=299 => {
                    let presp: PredictResponse = serde_json::from_slice(&resp.body).ok()?;
                    self.pending_measurement = None;
                    self.registered = true;
                    self.cache = presp.predictions_mbps;
                    self.cache_initial = presp.initial;
                    self.note_degradation(presp.degradation);
                    return Some(());
                }
                404 => {
                    // Evicted server-side: loop once more with features,
                    // so the re-registered session's fresh filter still
                    // sees the latest observation.
                    cs2p_obs::counter_add("predict.client.reinit", 1);
                    self.registered = false;
                    self.cache.clear();
                }
                503 => {
                    cs2p_obs::counter_add("predict.client.backpressure", 1);
                    // The 503 carried `Connection: close`; charge the
                    // client's persistent backoff state so a 503 burst
                    // escalates the wait instead of hammering the server.
                    self.client.note_backpressure();
                    self.client.reset_connection();
                    return None;
                }
                _ => return None,
            }
        }
        None
    }

    /// Uploads a session log (fire-and-forget semantics on error).
    pub fn upload_log(&mut self, log: &SessionLog) -> io::Result<()> {
        let body =
            serde_json::to_vec(log).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let resp = self.client.send(&Request::new("POST", "/log", body))?;
        if resp.status == 204 {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "log upload failed: {}",
                resp.status
            )))
        }
    }
}

impl ThroughputPredictor for RemotePredictor {
    fn name(&self) -> &str {
        "CS2P-remote"
    }

    fn predict_initial(&mut self) -> Option<f64> {
        self.ensure_cache(1)?;
        if self.cache_initial {
            self.cache.first().copied()
        } else {
            None
        }
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        self.ensure_cache(k)?;
        self.cache.get(k - 1).copied()
    }

    fn observe(&mut self, throughput: f64) {
        // If two observations land without an intervening prediction, ship
        // the first immediately so the server's filter sees every epoch.
        if self.pending_measurement.is_some() {
            let _ = self.ensure_cache(1);
        }
        self.pending_measurement = Some(throughput);
    }

    fn reset(&mut self) {
        self.pending_measurement = None;
        self.registered = false;
        self.cache.clear();
        self.cache_initial = false;
        self.last_degradation = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve;
    use cs2p_testkit::scenarios::tiny_engine;

    #[test]
    fn remote_predictor_mirrors_algorithm_one() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut p = RemotePredictor::new(server.addr(), 1, vec![1]);

        let init = p.predict_initial().unwrap();
        assert!((init - 5.0).abs() < 0.5);

        p.observe(5.2);
        let mid = p.predict_next().unwrap();
        assert!((mid - 5.0).abs() < 0.5);
        assert!(p.predict_initial().is_none()); // no longer initial

        // One observation + several horizon queries = 2 POSTs total.
        let _ = p.predict_ahead(3).unwrap();
        let _ = p.predict_ahead(5).unwrap();
        assert_eq!(server.predictions_served(), 2);
        server.shutdown();
    }

    #[test]
    fn double_observe_flushes_intermediate_measurement() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut p = RemotePredictor::new(server.addr(), 2, vec![0]);
        let _ = p.predict_initial();
        p.observe(1.0);
        p.observe(1.1); // must push the first to the server
        let _ = p.predict_next().unwrap();
        assert_eq!(server.predictions_served(), 3);
        server.shutdown();
    }

    #[test]
    fn reset_restarts_session() {
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let mut p = RemotePredictor::new(server.addr(), 3, vec![1]);
        let _ = p.predict_initial();
        p.observe(5.0);
        let _ = p.predict_next();
        // The ladder level the last 200 was served at is session state
        // like the cache: reset must not report it for the next session.
        p.last_degradation = Some(Degradation::Fallback);
        p.reset();
        assert_eq!(p.last_degradation(), None);
        // After reset the first prediction is initial again (server keeps
        // the old session state, but a fresh session id would normally be
        // used; here the same id resumes server-side midstream state).
        p.session_id = 4;
        let init = p.predict_initial();
        assert!(init.is_some());
        server.shutdown();
    }

    #[test]
    fn backpressure_backoff_persists_across_requests_until_success() {
        use parking_lot::Mutex;
        // Regression for the old per-request reset: consecutive 503s on
        // one keep-alive client must keep escalating the (seeded) delay;
        // only a successful response clears the state.
        let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
        let delays: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delays);
        let mut client = HttpClient::new(server.addr())
            .with_retry(RetryPolicy {
                max_attempts: 1,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_secs(1),
                seed: 7,
            })
            .with_sleeper(Arc::new(move |d| sink.lock().push(d)));
        // Three requests each answered with backpressure (simulated by
        // charging the state the way RemotePredictor does on a 503).
        client.note_backpressure();
        client.note_backpressure();
        client.note_backpressure();
        assert_eq!(client.consecutive_failures(), 3);
        let recorded = delays.lock().clone();
        assert_eq!(recorded.len(), 3);
        // Jitter windows [1,2), [2,4), [4,8) ms: strictly escalating.
        assert!(
            recorded[0] < recorded[1] && recorded[1] < recorded[2],
            "{recorded:?}"
        );
        // A successful response resets the state…
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.consecutive_failures(), 0);
        server.shutdown();
    }

    #[test]
    fn a_503_response_does_not_reset_backoff_state() {
        use crate::server::{serve_with, ServeConfig};
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        // Occupy the single slot so further connections get 503.
        let mut holder = HttpClient::new(server.addr());
        assert_eq!(holder.get("/healthz").unwrap().status, 200);
        let mut client = HttpClient::new(server.addr()).with_sleeper(Arc::new(|_| {}));
        client.note_backpressure();
        client.note_backpressure();
        assert_eq!(client.consecutive_failures(), 2);
        let resp = client
            .send(&Request::new("GET", "/healthz", Bytes::new()))
            .unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            client.consecutive_failures(),
            2,
            "a 503 must not clear the escalation state"
        );
        server.shutdown();
    }

    #[test]
    fn retry_backoff_delays_are_seed_deterministic() {
        use parking_lot::Mutex;
        let record = |seed| {
            let delays: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&delays);
            let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
            let mut client = HttpClient::new(addr)
                .with_retry(RetryPolicy {
                    seed,
                    ..RetryPolicy::default()
                })
                .with_sleeper(Arc::new(move |d| sink.lock().push(d)));
            for _ in 0..4 {
                client.note_backpressure();
            }
            let out = delays.lock().clone();
            out
        };
        assert_eq!(record(3), record(3));
        assert_ne!(record(3), record(4), "different seeds, different jitter");
    }

    #[test]
    fn shed_answer_neither_loses_nor_duplicates_the_measurement() {
        use crate::admission::AdmissionLevel;
        // Twin servers, twin predictors, one script; only `shed` sees 503s.
        let drive = |shed: bool| {
            let server = serve(tiny_engine(), "127.0.0.1:0").unwrap();
            let client = HttpClient::new(server.addr()).with_sleeper(Arc::new(|_| {}));
            let mut p = RemotePredictor::from_client(client, 1, vec![1]);
            let mut out = vec![p.predict_initial()];
            p.observe(5.2);
            out.push(p.predict_next());
            p.observe(4.7);
            if shed {
                server.force_admission_level(Some(AdmissionLevel::Shed));
                assert_eq!(p.predict_next(), None);
                assert_eq!(p.predict_next(), None);
                server.force_admission_level(None);
            }
            out.push(p.predict_next());
            out.push(p.predict_ahead(3));
            p.observe(5.0);
            out.push(p.predict_next());
            let served = server.predictions_served();
            server.shutdown();
            let bits: Vec<Option<u64>> = out.into_iter().map(|v| v.map(f64::to_bits)).collect();
            (bits, served)
        };
        let (clean, clean_served) = drive(false);
        assert!(clean.iter().all(Option::is_some));
        assert_eq!(drive(true), (clean, clean_served));
    }

    #[test]
    fn breaker_opens_after_threshold_and_fast_fails_until_cooldown() {
        use cs2p_obs::ManualClock;
        // Point at a port nobody listens on: every real attempt fails.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let clock = Arc::new(ManualClock::new());
        let mut client = HttpClient::new(addr)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            })
            .with_sleeper(Arc::new(|_| {}))
            .with_clock(Arc::clone(&clock) as Arc<dyn cs2p_obs::Clock>)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(1),
                max_cooldown: Duration::from_secs(1),
                seed: 11,
            });
        let req = Request::new("GET", "/healthz", Bytes::new());
        assert!(client.send(&req).is_err());
        assert_eq!(client.breaker_state(), Some(BreakerState::Closed));
        assert!(client.send(&req).is_err());
        assert_eq!(
            client.breaker_state(),
            Some(BreakerState::Open),
            "second consecutive give-up must trip the breaker"
        );
        // While open the request fails fast — locally, without charging
        // the retry/backoff state.
        let failures_before = client.consecutive_failures();
        let err = client.send(&req).unwrap_err();
        assert_eq!(err.to_string(), "circuit breaker open");
        assert_eq!(client.consecutive_failures(), failures_before);
        // Cooldown is 1 ms jittered up to 1.5 ms: 2 ms on the manual
        // clock guarantees expiry, and the next request is the probe.
        clock.advance(2_000);
        assert!(client.send(&req).is_err(), "probe still can't connect");
        assert_eq!(
            client.breaker_state(),
            Some(BreakerState::Open),
            "failed half-open probe must re-open immediately"
        );
        // The re-open doubled the cooldown: 2 ms raw, under 3 ms with
        // jitter. Still open at +1 ms, probing again at +3 ms.
        clock.advance(1_000);
        assert_eq!(
            client.send(&req).unwrap_err().to_string(),
            "circuit breaker open"
        );
        clock.advance(2_000);
        assert!(client.send(&req).is_err());
    }

    #[test]
    fn breaker_closes_on_a_successful_half_open_probe() {
        use crate::server::{serve_with, ServeConfig};
        use cs2p_obs::ManualClock;
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        // Occupy the single slot so the breaker client's requests are
        // shed with 503s.
        let mut holder = HttpClient::new(server.addr());
        assert_eq!(holder.get("/healthz").unwrap().status, 200);
        let clock = Arc::new(ManualClock::new());
        let mut client = HttpClient::new(server.addr())
            .with_sleeper(Arc::new(|_| {}))
            .with_clock(Arc::clone(&clock) as Arc<dyn cs2p_obs::Clock>)
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(1),
                max_cooldown: Duration::from_secs(1),
                seed: 3,
            });
        let req = Request::new("GET", "/healthz", Bytes::new());
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            client.breaker_state(),
            Some(BreakerState::Open),
            "threshold 1: a single 503 shed trips the breaker"
        );
        // Free the slot; probes succeed once the server reaps the dead
        // connection (each failed probe re-opens, so keep cranking the
        // clock far past any doubled cooldown).
        drop(holder);
        let mut closed = false;
        for _ in 0..100 {
            clock.advance(2_000_000);
            if matches!(client.send(&req), Ok(r) if r.status == 200) {
                closed = true;
                break;
            }
        }
        assert!(closed, "server never freed the connection slot");
        assert_eq!(client.breaker_state(), Some(BreakerState::Closed));
        server.shutdown();
    }

    #[test]
    fn retry_after_hint_floors_the_backpressure_delay() {
        use crate::server::{serve_with, ServeConfig};
        use parking_lot::Mutex;
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = serve_with(tiny_engine(), "127.0.0.1:0", config).unwrap();
        let mut holder = HttpClient::new(server.addr());
        assert_eq!(holder.get("/healthz").unwrap().status, 200);
        let delays: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&delays);
        let mut client =
            HttpClient::new(server.addr()).with_sleeper(Arc::new(move |d| sink.lock().push(d)));
        assert_eq!(client.retry_after_hint_secs, None);
        let resp = client
            .send(&Request::new("GET", "/healthz", Bytes::new()))
            .unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            client.retry_after_hint_secs,
            Some(1),
            "the 503's Retry-After header must be captured"
        );
        client.note_backpressure();
        assert_eq!(
            delays.lock().as_slice(),
            &[Duration::from_secs(1)],
            "the server's hint floors the policy's own (millisecond) delay"
        );
        // A later non-503 success clears the hint: the next delay is the
        // policy's own schedule again.
        drop(holder);
        client.reset_connection();
        let mut ok = false;
        for _ in 0..100 {
            if matches!(client.send(&Request::new("GET", "/healthz", Bytes::new())), Ok(r) if r.status == 200)
            {
                ok = true;
                break;
            }
            std::thread::yield_now();
            client.reset_connection();
        }
        assert!(ok, "server never freed the connection slot");
        assert_eq!(client.retry_after_hint_secs, None);
        delays.lock().clear();
        client.note_backpressure();
        assert!(
            delays.lock()[0] < Duration::from_secs(2),
            "hint cleared: back to the policy schedule"
        );
        server.shutdown();
    }
}
