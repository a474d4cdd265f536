//! Transport abstraction: the byte-stream layer the HTTP client and
//! server run over, with an injectable per-connection wrapper hook.
//!
//! Production code talks to plain `TcpStream`s. Tests (and any future
//! middlebox, e.g. TLS) can install a [`TransportWrapper`] in
//! [`crate::ServeConfig`] or on [`crate::HttpClient`]; every new
//! connection's read and write halves are then passed through the hook,
//! which may interpose an arbitrary `Read + Write` adapter — the
//! testkit's `FaultyStream` injects resets, truncation, corruption, and
//! byte-dribbling this way without a single special case in the serving
//! hot path. When no wrapper is installed the I/O paths stay statically
//! dispatched on `TcpStream` (`IoHalf::Plain`); the `dyn` indirection
//! exists only on hooked connections.
//!
//! `DeadlineReader` implements the server's **slow-peer deadline**: a
//! budget on how long one request may take to arrive once its first byte
//! has been read, distinct from the idle keep-alive timeout (idle
//! connections park in the poller without arming anything) and from the
//! per-`read` socket timeout (which a byte-dribbling client never
//! trips). Time comes from an injectable [`cs2p_obs::Clock`], so tests
//! drive the deadline with a manual clock instead of wall-clock sleeps.

use cs2p_obs::Clock;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A bidirectional byte stream a connection can run over.
///
/// Blanket-implemented for everything `Read + Write + Send`, so a
/// wrapper type only needs the two std traits.
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// A boxed transport half (read and write halves are wrapped separately
/// because the server clones the socket per direction).
pub type BoxTransport = Box<dyn Transport>;

/// Hook wrapping each new connection's transport halves.
///
/// `conn_seq` is the connection's sequence number on the installing side
/// (server: accept order; client: connect order) — the key a
/// deterministic fault plan schedules on. State shared between the two
/// returned halves (byte counters, fault scripts) lives inside the
/// wrapper's return values.
pub trait TransportWrapper: Send + Sync {
    /// Wraps the read and write halves of connection `conn_seq`.
    fn wrap(
        &self,
        conn_seq: u64,
        read: BoxTransport,
        write: BoxTransport,
    ) -> (BoxTransport, BoxTransport);
}

/// One direction of a connection: a bare socket (the default, statically
/// dispatched) or a hook-wrapped transport.
pub(crate) enum IoHalf {
    /// Unhooked: reads/writes go straight to the socket.
    Plain(TcpStream),
    /// Hook-wrapped transport half.
    Wrapped(BoxTransport),
}

impl IoHalf {
    /// Builds the (read, write) halves for a connection, applying the
    /// wrapper when one is installed.
    pub(crate) fn pair(
        stream: &TcpStream,
        conn_seq: u64,
        wrapper: Option<&Arc<dyn TransportWrapper>>,
    ) -> io::Result<(IoHalf, IoHalf)> {
        let read = stream.try_clone()?;
        let write = stream.try_clone()?;
        Ok(match wrapper {
            None => (IoHalf::Plain(read), IoHalf::Plain(write)),
            Some(w) => {
                let (r, wr) = w.wrap(conn_seq, Box::new(read), Box::new(write));
                (IoHalf::Wrapped(r), IoHalf::Wrapped(wr))
            }
        })
    }
}

impl Read for IoHalf {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            IoHalf::Plain(s) => s.read(buf),
            IoHalf::Wrapped(t) => t.read(buf),
        }
    }
}

impl Write for IoHalf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            IoHalf::Plain(s) => s.write(buf),
            IoHalf::Wrapped(t) => t.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            IoHalf::Plain(s) => s.flush(),
            IoHalf::Wrapped(t) => t.flush(),
        }
    }
}

/// Enforces the slow-peer deadline on a connection's read half.
///
/// Self-arming: the first byte read of a request starts the budget; the
/// server disarms it once the request has been fully parsed (see
/// `serve_turn`). A read attempted past the deadline fails with
/// [`io::ErrorKind::TimedOut`] and bumps `serve.fault.slow_peer_aborts`.
pub(crate) struct DeadlineReader {
    inner: IoHalf,
    clock: Arc<dyn Clock>,
    /// Budget in microseconds for receiving one request.
    budget_us: u64,
    /// Absolute deadline for the in-flight request, once armed.
    deadline_us: Option<u64>,
}

impl DeadlineReader {
    pub(crate) fn new(inner: IoHalf, clock: Arc<dyn Clock>, budget_us: u64) -> Self {
        DeadlineReader {
            inner,
            clock,
            budget_us,
            deadline_us: None,
        }
    }

    /// Disarms the deadline: the current request has been fully received.
    pub(crate) fn finish_request(&mut self) {
        self.deadline_us = None;
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline_us {
            if self.clock.now_micros() > deadline {
                cs2p_obs::counter_add("serve.fault.slow_peer_aborts", 1);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "slow peer: request exceeded its transmission deadline",
                ));
            }
        }
        let n = self.inner.read(buf)?;
        if n > 0 && self.deadline_us.is_none() {
            self.deadline_us = Some(self.clock.now_micros().saturating_add(self.budget_us));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::ManualClock;
    use std::io::Cursor;

    /// An in-memory read half (Cursor) that also satisfies `Write`, so it
    /// can stand in for a `Transport` in unit tests.
    struct MemStream(Cursor<Vec<u8>>);

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn wrapped(data: &[u8]) -> IoHalf {
        IoHalf::Wrapped(Box::new(MemStream(Cursor::new(data.to_vec()))))
    }

    #[test]
    fn deadline_arms_on_first_byte_and_aborts_past_budget() {
        let clock = Arc::new(ManualClock::new());
        let mut r = DeadlineReader::new(wrapped(b"abcdef"), clock.clone(), 100);
        let mut one = [0u8; 1];
        assert_eq!(r.read(&mut one).unwrap(), 1); // arms at t=0, deadline 100
        clock.advance(50);
        assert_eq!(r.read(&mut one).unwrap(), 1); // still inside budget
        clock.advance(100); // now 150 > 100
        let err = r.read(&mut one).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn finish_request_rearms_for_the_next_request() {
        let clock = Arc::new(ManualClock::new());
        let mut r = DeadlineReader::new(wrapped(b"abcd"), clock.clone(), 100);
        let mut one = [0u8; 1];
        assert_eq!(r.read(&mut one).unwrap(), 1);
        clock.advance(90);
        r.finish_request();
        clock.advance(90); // 180 total — previous deadline long gone
        assert_eq!(r.read(&mut one).unwrap(), 1); // fresh budget from 180
        clock.advance(50);
        assert_eq!(r.read(&mut one).unwrap(), 1); // 230 < 180+100
        clock.advance(60);
        assert!(r.read(&mut one).is_err()); // 290 > 280
    }
}
