//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded schedule of transport faults keyed by
//! connection sequence number. Installed as a
//! [`cs2p_net::TransportWrapper`] (client side via
//! `HttpClient::with_transport_wrapper`, server side via
//! `ServeConfig::transport_wrapper`), it wraps each scheduled
//! connection's read/write halves in a `FaultyStream` that injects
//! exactly one fault at a byte-deterministic point:
//!
//! - **connection reset** mid-response ([`FaultAction::ResetAfterReadBytes`]);
//! - **partial write + reset** mid-request ([`FaultAction::ResetAfterWriteBytes`]);
//! - **frame truncation** — bytes silently dropped while the connection
//!   stays open ([`FaultAction::TruncateWritesAfter`]);
//! - **frame corruption** — one byte XOR `0xFF`
//!   ([`FaultAction::CorruptWriteByte`]);
//! - **slow-client byte-dribbling** — writes capped at one byte
//!   ([`FaultAction::DribbleWrites`]);
//! - **injected delay** through the injectable clock
//!   ([`FaultAction::DelayReads`]).
//!
//! Every fault that actually *fires* is counted per class in the plan's
//! shared [`FaultTally`], which is what lets a chaos run assert the
//! accounting identity *faults injected == faults observed + survived*.
//! Forced store evictions — the sixth fault class — go through
//! [`cs2p_net::ServerHandle::force_evict`] rather than the transport and
//! are scheduled by [`run_chaos`].
//!
//! [`run_chaos`] is the load generator ([`crate::loadgen`]) with faults
//! as an input: a [`ChaosConfig`] picks the chaotic clients, their seeded
//! plans and the forced evictions, and the driver's resend rules run the
//! production client retry path. Its [`LoadReport`] carries everything
//! the `chaos_soak` suite needs to check the invariants, and
//! [`assert_recovered`] holds a report to the rules the driver books by —
//! the one checker the soak and `cs2p-eval chaos-bench` share. Thresholds in
//! seeded plans are kept below the size of the first request/response on
//! a connection, so an armed error fault always fires mid-frame — never
//! ambiguously at a frame boundary.

use crate::loadgen::{LoadConfig, LoadReport};
use cs2p_net::{BoxTransport, RetryPolicy, ServeStats, ServerHandle, TransportWrapper};
use cs2p_obs::ManualClock;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One fault, applied to one connection. Byte thresholds are absolute
/// offsets into that connection's read or write stream, so the firing
/// point is deterministic for a deterministic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Read half: fail with `ConnectionReset` once this many bytes have
    /// been read (a reset mid-response; the connection goes dead).
    ResetAfterReadBytes(u64),
    /// Write half: fail with `BrokenPipe` once this many bytes have been
    /// written (a partial write mid-request; the connection goes dead).
    ResetAfterWriteBytes(u64),
    /// Write half: silently drop every byte after the first N while the
    /// connection stays open — frame truncation. The peer is left
    /// waiting for bytes that never come.
    TruncateWritesAfter(u64),
    /// Write half: XOR `0xFF` into the byte at this absolute write
    /// offset — frame corruption. Offsets 0..4 hit the HTTP method and
    /// always produce an unparseable (non-UTF-8) request line.
    CorruptWriteByte(u64),
    /// Write half: cap every write at one byte (slow dribble), advancing
    /// the plan's manual clock by this many µs per write when one is
    /// installed.
    DribbleWrites {
        /// Clock advance per dribbled write (0 = byte-capping only).
        advance_us_per_write: u64,
    },
    /// Read half: advance the plan's manual clock before every read —
    /// injected delay. Server-side, with the plan clock shared with
    /// `ServeConfig::clock`, an advance larger than the slow-peer budget
    /// deterministically forces a slow-peer abort.
    DelayReads {
        /// Clock advance per read call.
        advance_us_per_read: u64,
    },
}

/// Monotone per-class counts of faults that actually fired, shared
/// between all `FaultyStream`s of one or more [`FaultPlan`]s.
#[derive(Debug, Default)]
pub struct FaultTally {
    resets_read: AtomicU64,
    resets_write: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
    dribbles: AtomicU64,
    delays: AtomicU64,
}

/// A point-in-time copy of a [`FaultTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Connections reset mid-read.
    pub resets_read: u64,
    /// Connections reset mid-write.
    pub resets_write: u64,
    /// Connections whose writes were truncated.
    pub truncations: u64,
    /// Connections with a corrupted byte actually sent.
    pub corruptions: u64,
    /// Connections that dribbled at least one write.
    pub dribbles: u64,
    /// Connections that injected at least one read delay.
    pub delays: u64,
}

impl FaultCounts {
    /// Faults that must each surface as exactly one client-visible
    /// transport failure (resets and truncations).
    pub fn transport_failures(&self) -> u64 {
        self.resets_read + self.resets_write + self.truncations
    }
}

impl FaultTally {
    /// Copies the current counts.
    pub fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            resets_read: self.resets_read.load(Ordering::Relaxed),
            resets_write: self.resets_write.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            dribbles: self.dribbles.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

/// A deterministic fault schedule: at most one [`FaultAction`] per
/// connection sequence number. Implements [`TransportWrapper`], so it
/// plugs straight into `ServeConfig` or `HttpClient`; connections with
/// no scheduled fault pass through unwrapped.
pub struct FaultPlan {
    scripts: BTreeMap<u64, FaultAction>,
    clock: Option<Arc<ManualClock>>,
    tally: Arc<FaultTally>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan (every connection passes through untouched).
    pub fn new() -> Self {
        FaultPlan {
            scripts: BTreeMap::new(),
            clock: None,
            tally: Arc::new(FaultTally::default()),
        }
    }

    /// Schedules `action` on connection `conn_seq` (replacing any
    /// previous action for that connection).
    pub fn fault(mut self, conn_seq: u64, action: FaultAction) -> Self {
        self.scripts.insert(conn_seq, action);
        self
    }

    /// Installs the manual clock that `DribbleWrites`/`DelayReads`
    /// advance — share it with `ServeConfig::clock` to drive the
    /// server's slow-peer deadline deterministically.
    pub fn with_clock(mut self, clock: Arc<ManualClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Shares a tally across several plans (e.g. one per chaos client).
    pub fn with_tally(mut self, tally: Arc<FaultTally>) -> Self {
        self.tally = tally;
        self
    }

    /// The tally this plan's fired faults are counted in.
    pub fn tally(&self) -> Arc<FaultTally> {
        Arc::clone(&self.tally)
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.scripts.len()
    }

    /// A seeded random plan over connections `0..n_conns`: each is
    /// faulted with probability `chance_percent`, drawing uniformly from
    /// the reset/truncate/corrupt/dribble classes. Thresholds stay below
    /// the first frame's size (requests ≥ ~110 bytes, responses ≥ ~90),
    /// so a fired fault always lands mid-frame — see the module docs for
    /// why that keeps chaos accounting exact.
    pub fn seeded(seed: u64, n_conns: u64, chance_percent: u8) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA_017_7AB);
        let mut plan = FaultPlan::new();
        for conn in 0..n_conns {
            if rng.gen_range(0..100u8) >= chance_percent.min(100) {
                continue;
            }
            let action = match rng.gen_range(0..5u8) {
                0 => FaultAction::ResetAfterReadBytes(rng.gen_range(5..60)),
                1 => FaultAction::ResetAfterWriteBytes(rng.gen_range(5..90)),
                2 => FaultAction::TruncateWritesAfter(rng.gen_range(5..90)),
                3 => FaultAction::CorruptWriteByte(rng.gen_range(0..4)),
                _ => FaultAction::DribbleWrites {
                    advance_us_per_write: 0,
                },
            };
            plan.scripts.insert(conn, action);
        }
        plan
    }
}

impl TransportWrapper for FaultPlan {
    fn wrap(
        &self,
        conn_seq: u64,
        read: BoxTransport,
        write: BoxTransport,
    ) -> (BoxTransport, BoxTransport) {
        let Some(&action) = self.scripts.get(&conn_seq) else {
            return (read, write);
        };
        let state = Arc::new(ConnState {
            action,
            fired: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            read_bytes: AtomicU64::new(0),
            written_bytes: AtomicU64::new(0),
            tally: Arc::clone(&self.tally),
            clock: self.clock.clone(),
        });
        (
            Box::new(FaultyStream {
                inner: read,
                state: Arc::clone(&state),
            }),
            Box::new(FaultyStream {
                inner: write,
                state,
            }),
        )
    }
}

/// State shared by the two halves of one faulted connection.
struct ConnState {
    action: FaultAction,
    /// The fault fired (counted exactly once per connection).
    fired: AtomicBool,
    /// A reset fault fired: every further operation on either half fails.
    dead: AtomicBool,
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    tally: Arc<FaultTally>,
    clock: Option<Arc<ManualClock>>,
}

impl ConnState {
    /// Counts the fault into `counter` the first time it fires.
    fn fire(&self, counter: &AtomicU64) {
        if !self.fired.swap(true, Ordering::Relaxed) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn injected_err(kind: io::ErrorKind) -> io::Error {
        io::Error::new(kind, "injected fault")
    }
}

/// One wrapped half of a faulted connection. Which faults apply is
/// decided by the operation (`read` vs `write`), so the same type serves
/// both halves.
struct FaultyStream {
    inner: BoxTransport,
    state: Arc<ConnState>,
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let s = &self.state;
        if s.dead.load(Ordering::Relaxed) {
            return Err(ConnState::injected_err(io::ErrorKind::ConnectionReset));
        }
        match s.action {
            FaultAction::ResetAfterReadBytes(limit) => {
                let done = s.read_bytes.load(Ordering::Relaxed);
                if done >= limit {
                    s.fire(&s.tally.resets_read);
                    s.dead.store(true, Ordering::Relaxed);
                    return Err(ConnState::injected_err(io::ErrorKind::ConnectionReset));
                }
                // Never read past the threshold, so the reset lands at a
                // byte-exact, workload-independent point.
                let cap = buf.len().min((limit - done) as usize);
                let n = self.inner.read(&mut buf[..cap])?;
                s.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
            FaultAction::DelayReads {
                advance_us_per_read,
            } => {
                if let Some(clock) = &s.clock {
                    clock.advance(advance_us_per_read);
                }
                s.fire(&s.tally.delays);
                self.inner.read(buf)
            }
            _ => self.inner.read(buf),
        }
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let s = &self.state;
        if s.dead.load(Ordering::Relaxed) {
            return Err(ConnState::injected_err(io::ErrorKind::BrokenPipe));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match s.action {
            FaultAction::ResetAfterWriteBytes(limit) => {
                let done = s.written_bytes.load(Ordering::Relaxed);
                if done >= limit {
                    s.fire(&s.tally.resets_write);
                    s.dead.store(true, Ordering::Relaxed);
                    return Err(ConnState::injected_err(io::ErrorKind::BrokenPipe));
                }
                let cap = buf.len().min((limit - done) as usize);
                let n = self.inner.write(&buf[..cap])?;
                s.written_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
            FaultAction::TruncateWritesAfter(limit) => {
                let done = s.written_bytes.load(Ordering::Relaxed);
                if done >= limit {
                    // Claim success, deliver nothing; the connection
                    // stays open so the peer waits for the missing bytes.
                    s.fire(&s.tally.truncations);
                    s.written_bytes
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    return Ok(buf.len());
                }
                let cap = buf.len().min((limit - done) as usize);
                let n = self.inner.write(&buf[..cap])?;
                s.written_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
            FaultAction::CorruptWriteByte(offset) => {
                let done = s.written_bytes.load(Ordering::Relaxed);
                let end = done + buf.len() as u64;
                let n = if (done..end).contains(&offset) {
                    let mut copy = buf.to_vec();
                    copy[(offset - done) as usize] ^= 0xFF;
                    let n = self.inner.write(&copy)?;
                    if done + n as u64 > offset {
                        s.fire(&s.tally.corruptions);
                    }
                    n
                } else {
                    self.inner.write(buf)?
                };
                s.written_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
            FaultAction::DribbleWrites {
                advance_us_per_write,
            } => {
                if let Some(clock) = &s.clock {
                    clock.advance(advance_us_per_write);
                }
                s.fire(&s.tally.dribbles);
                let n = self.inner.write(&buf[..1])?;
                s.written_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(n)
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(ConnState::injected_err(io::ErrorKind::BrokenPipe));
        }
        self.inner.flush()
    }
}

/// Shape of a [`run_chaos`] run: the loadgen workload plus the fault
/// schedule parameters. Everything is derived from `load.seed`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The underlying workload (payloads, sessions, partitioning are
    /// identical to [`crate::loadgen::run_load`] with this config).
    pub load: LoadConfig,
    /// Percent of clients that get a fault plan (the rest stay clean;
    /// their sessions must come out bit-identical to a fault-free run).
    pub chaotic_client_percent: u8,
    /// Connections `0..n` of each chaotic client eligible for a fault.
    pub faulty_conns_per_client: u64,
    /// Per-connection fault probability for chaotic clients.
    pub fault_chance_percent: u8,
    /// Force-evict each chaotic client's sessions right before this
    /// epoch's request (must be ≥ 1); `None` disables forced evictions.
    pub evict_before_epoch: Option<usize>,
    /// Client retry policy (seed is re-derived per client).
    pub retry: RetryPolicy,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            load: LoadConfig::default(),
            chaotic_client_percent: 50,
            faulty_conns_per_client: 4,
            fault_chance_percent: 60,
            evict_before_epoch: Some(2),
            retry: RetryPolicy {
                max_attempts: 6,
                base_backoff: std::time::Duration::from_micros(500),
                max_backoff: std::time::Duration::from_millis(5),
                seed: 0,
            },
        }
    }
}

impl ChaosConfig {
    /// Client `idx`'s seeded fault plan, or `None` when the seeded
    /// chaotic-client draw leaves that client clean.
    pub(crate) fn plan_for(&self, idx: usize) -> Option<FaultPlan> {
        let (seed, idx) = (self.load.seed, idx as u64);
        let mut draw = ChaCha8Rng::seed_from_u64(seed ^ idx.wrapping_mul(0xC4A0_5EED_0000_0001));
        (draw.gen_range(0..100u8) < self.chaotic_client_percent).then(|| {
            FaultPlan::seeded(
                seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                self.faulty_conns_per_client,
                self.fault_chance_percent,
            )
        })
    }
}

/// Runs `config.load` against `server` through the one load driver with
/// the fault schedule as its input: seeded per-client fault plans,
/// forced mid-session evictions, and resends until every frame is
/// answered (or the resend budget runs out — counted, never panicking).
/// Clean clients send byte-for-byte the same traffic as
/// [`crate::loadgen::run_load`] with `config.load`.
pub fn run_chaos(server: &ServerHandle, config: &ChaosConfig) -> LoadReport {
    crate::loadgen::drive(server.addr(), &config.load, Some((server, config)))
}

/// Panics unless `report` shows a run of `load` that recovered from every
/// fault it was dealt — the rules [`run_chaos`]'s driver books by:
///
/// - nothing abandoned, errored or shed;
/// - one re-registration per forced eviction;
/// - every session answered once per epoch;
/// - the send ledger of the run's framing balances. Singleton: every send
///   is one `ok`, `reinit`, `rejected` or `error_statuses`. Batched: a
///   frame-level 400 books one error status but a send per entry, so
///   only `ok` is exact (one per entry), and replays only add sends.
///
/// A clean [`crate::loadgen::run_load`] report passes too.
pub fn assert_recovered(report: &LoadReport, load: &LoadConfig) {
    let framing = if load.batch.is_some() {
        "batch"
    } else {
        "singleton"
    };
    let run = format!("seed {}, {framing} frames", load.seed);
    assert_eq!(report.gave_up, 0, "{run}: requests abandoned");
    assert_eq!(report.errors, 0, "{run}: requests errored");
    assert_eq!(report.rejected, 0, "{run}: requests shed");
    assert_eq!(
        report.reinit, report.forced_evictions,
        "{run}: every forced eviction re-registers exactly once"
    );
    for id in (0..load.n_sessions as u64).map(|s| load.session_id_base + s) {
        assert_eq!(
            report.predictions.get(&id).map_or(0, Vec::len),
            load.epochs_per_session,
            "{run}: session {id} lost predictions"
        );
    }
    if load.batch.is_none() {
        assert_eq!(
            report.sent,
            report.ok + report.reinit + report.rejected + report.error_statuses,
            "{run}: request ledger out of balance"
        );
    } else {
        assert_eq!(
            report.ok,
            load.total_requests(),
            "{run}: entry ledger out of balance"
        );
        assert!(
            report.sent >= report.ok + report.reinit,
            "{run}: sent {} < ok {} + reinit {}",
            report.sent,
            report.ok,
            report.reinit
        );
    }
}

/// Shuts `server` down on a helper thread and panics unless it drains
/// within 10 s — a stuck worker, poller or acceptor shows up here.
pub fn shutdown_bounded(server: ServerHandle) -> ServeStats {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown must complete in bounded time (stuck thread?)")
}

/// The global cs2p-obs registry's counter `name` (0 until first bumped).
pub fn counter(name: &str) -> u64 {
    cs2p_obs::Registry::global()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::Clock;
    use std::io::Cursor;

    /// In-memory transport half: reads from a cursor, records writes.
    struct MemStream {
        input: Cursor<Vec<u8>>,
        written: Arc<parking_lot::Mutex<Vec<u8>>>,
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn wrapped(
        plan: &FaultPlan,
        conn_seq: u64,
        input: &[u8],
    ) -> (BoxTransport, BoxTransport, Arc<parking_lot::Mutex<Vec<u8>>>) {
        let written = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mk = |w: &Arc<parking_lot::Mutex<Vec<u8>>>| -> BoxTransport {
            Box::new(MemStream {
                input: Cursor::new(input.to_vec()),
                written: Arc::clone(w),
            })
        };
        let (r, w) = plan.wrap(conn_seq, mk(&written), mk(&written));
        (r, w, written)
    }

    #[test]
    fn unscheduled_connections_pass_through() {
        let plan = FaultPlan::new().fault(3, FaultAction::ResetAfterReadBytes(0));
        let (mut r, mut w, written) = wrapped(&plan, 0, b"hello");
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        w.write_all(b"world").unwrap();
        assert_eq!(&*written.lock(), b"world");
        assert_eq!(plan.tally().snapshot(), FaultCounts::default());
    }

    #[test]
    fn reset_after_read_bytes_fires_once_at_the_threshold() {
        let plan = FaultPlan::new().fault(0, FaultAction::ResetAfterReadBytes(3));
        let (mut r, _w, _) = wrapped(&plan, 0, b"abcdef");
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 3, "capped at the threshold");
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Sticky: the connection stays dead, but the tally counts once.
        assert!(r.read(&mut buf).is_err());
        assert_eq!(plan.tally().snapshot().resets_read, 1);
    }

    #[test]
    fn reset_after_write_bytes_kills_both_halves() {
        let plan = FaultPlan::new().fault(0, FaultAction::ResetAfterWriteBytes(4));
        let (mut r, mut w, written) = wrapped(&plan, 0, b"input");
        assert_eq!(w.write(b"abcdefgh").unwrap(), 4, "partial write");
        assert_eq!(
            w.write(b"efgh").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(&*written.lock(), b"abcd");
        let mut buf = [0u8; 4];
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset,
            "read half must die with the write half"
        );
        assert_eq!(plan.tally().snapshot().resets_write, 1);
    }

    #[test]
    fn truncation_swallows_silently_and_leaves_reads_alive() {
        let plan = FaultPlan::new().fault(0, FaultAction::TruncateWritesAfter(2));
        let (mut r, mut w, written) = wrapped(&plan, 0, b"in");
        w.write_all(b"abcdef").unwrap(); // claims success
        w.flush().unwrap();
        assert_eq!(&*written.lock(), b"ab", "only the first 2 bytes got out");
        let mut buf = [0u8; 2];
        assert_eq!(r.read(&mut buf).unwrap(), 2, "reads keep working");
        assert_eq!(plan.tally().snapshot().truncations, 1);
    }

    #[test]
    fn corruption_flips_exactly_the_scheduled_byte() {
        let plan = FaultPlan::new().fault(0, FaultAction::CorruptWriteByte(6));
        let (_r, mut w, written) = wrapped(&plan, 0, b"");
        w.write_all(b"POST").unwrap(); // bytes 0..4
        w.write_all(b" /predict").unwrap(); // bytes 4..13; offset 6 = 'p'
        let out = written.lock().clone();
        assert_eq!(&out[..4], b"POST");
        assert_eq!(out[6], b'p' ^ 0xFF);
        assert_eq!(out[5], b'/');
        assert_eq!(out[7], b'r');
        assert_eq!(plan.tally().snapshot().corruptions, 1);
    }

    #[test]
    fn dribble_caps_writes_at_one_byte_and_advances_the_clock() {
        let clock = Arc::new(ManualClock::new());
        let plan = FaultPlan::new()
            .fault(
                0,
                FaultAction::DribbleWrites {
                    advance_us_per_write: 10,
                },
            )
            .with_clock(Arc::clone(&clock));
        let (_r, mut w, written) = wrapped(&plan, 0, b"");
        w.write_all(b"abc").unwrap(); // write_all loops over 1-byte writes
        assert_eq!(&*written.lock(), b"abc");
        assert_eq!(clock.now_micros(), 30);
        assert_eq!(plan.tally().snapshot().dribbles, 1, "counted once per conn");
    }

    #[test]
    fn delay_reads_advances_the_clock_per_read() {
        let clock = Arc::new(ManualClock::new());
        let plan = FaultPlan::new()
            .fault(
                0,
                FaultAction::DelayReads {
                    advance_us_per_read: 100,
                },
            )
            .with_clock(Arc::clone(&clock));
        let (mut r, _w, _) = wrapped(&plan, 0, b"xyz");
        let mut one = [0u8; 1];
        assert_eq!(r.read(&mut one).unwrap(), 1);
        assert_eq!(r.read(&mut one).unwrap(), 1);
        assert_eq!(clock.now_micros(), 200);
        assert_eq!(plan.tally().snapshot().delays, 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(9, 16, 60);
        let b = FaultPlan::seeded(9, 16, 60);
        let c = FaultPlan::seeded(10, 16, 60);
        assert_eq!(a.scripts, b.scripts);
        assert_ne!(a.scripts, c.scripts, "different seed, different plan");
        assert!(!a.is_empty(), "60% over 16 conns should schedule faults");
        assert_eq!(FaultPlan::seeded(9, 16, 0).len(), 0);
        assert_eq!(FaultPlan::seeded(9, 16, 100).len(), 16);
    }

    #[test]
    fn shared_tally_aggregates_across_plans() {
        let tally = Arc::new(FaultTally::default());
        for seed in 0..2 {
            let plan = FaultPlan::new()
                .fault(0, FaultAction::ResetAfterReadBytes(0))
                .with_tally(Arc::clone(&tally));
            let (mut r, _w, _) = wrapped(&plan, 0, b"x");
            let mut buf = [0u8; 1];
            assert!(r.read(&mut buf).is_err(), "seed {seed}");
        }
        assert_eq!(tally.snapshot().resets_read, 2);
        assert_eq!(tally.snapshot().transport_failures(), 2);
    }
}
