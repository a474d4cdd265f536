//! Crash-safe durability for the prediction server: a write-ahead log of
//! session-store mutations plus periodic atomic snapshots, and persisted
//! model bundles for every retained [`ModelVersion`].
//!
//! The paper's deployability story (§5.3: compact `<5KB` models pushed to
//! players and video servers) assumes the serving tier survives restarts.
//! Cross-session state is the whole point of CS2P — a crash that discards
//! every live HMM filter posterior and every retrained model version
//! forces all viewers through cold re-registration on a stale launch
//! model. This module makes that state durable:
//!
//! - **WAL** ([`Wal`]): length-prefixed, CRC32-framed records appended to
//!   generation-numbered segment files, group-committed (buffer + one
//!   write + `fdatasync`) every [`PersistConfig::commit_every_records`]
//!   records or [`PersistConfig::commit_interval`] on the server's
//!   injectable clock. Each record is one store mutation
//!   ([`WalRecord`]): session registration (full state), a measurement
//!   update (the post-request filter posterior and pending prediction),
//!   or a removal (eviction / `/log` retirement). Payloads use a
//!   hand-rolled little-endian binary layout — encoding happens on the
//!   request path under the shard lock, where JSON through the Value
//!   tree costs real serving throughput (`perf/`'s
//!   `persist.encode_record_ns` row times the encoder).
//! - **Snapshot compaction**: every
//!   [`PersistConfig::snapshot_every_records`] records the WAL rotates to
//!   a new generation, the sharded store is captured into `store.snap`,
//!   written atomically (write-temp + fsync + rename), and fully-covered
//!   generations are unlinked. The snapshot is the WAL's own format — a
//!   header frame, then one CRC32-framed [`WalRecord::Register`] per live
//!   session — so session state has one encoding on disk and every byte
//!   of it is checksummed. A snapshot taken while serving may already
//!   reflect some records of the new generation; replay is idempotent
//!   over that window (absolute filter/pending values,
//!   `observed_len`-guarded measurement appends).
//! - **Model registry**: [`RegistryDir`] implements
//!   [`cs2p_core::RegistryPersistence`] — every published version's
//!   [`ModelBundle`] is written at retrain time, the current-version
//!   pointer is swapped atomically, and GC unlinks retained-out bundles.
//! - **Recovery** ([`recover`]): replays the snapshot's records, then
//!   every uncovered WAL generation in order, through one replay step,
//!   and stops at the first torn or corrupt WAL record — the longest
//!   valid prefix wins, a snapshot with any bad frame is absent as a
//!   whole, and recovery never panics on arbitrary bytes. Replay is one
//!   pass over each file, streamed through one reused 64 KiB buffer
//!   that carries a partial frame across reads, so its memory does not
//!   grow with the files: frames are borrowed from that buffer, an
//!   `Update`'s posterior is copied straight into the session's own
//!   buffer, and the sessions sit in a `Vec` found through an id map,
//!   sorted by id once at the end. `ServerHandle::open_or_recover` turns the
//!   result back into a live server whose sessions, filter posteriors,
//!   pinned model versions, and store tick state are bit-identical to
//!   the committed prefix of the crashed run, and compacts at startup
//!   only when recovery found damage ([`RecoveredState::clean`],
//!   [`RecoveredState::snapshot_corrupt`]).
//!
//! What is deliberately **not** durable: quality-monitor sketches, the
//! completed-session recorder window, uploaded logs, fault counters, and
//! logical ticks consumed by requests that mutated nothing (a failed
//! lookup ages TTL clocks but writes no record). See DESIGN.md §3f.
//!
//! Telemetry: `serve.persist.{wal_records,wal_bytes,snapshots,
//! compactions,recoveries,truncated_records,recovery_us}`; [`recover`]
//! times its two phases (`models_us`, `replay_us`) for the
//! `serve.persist.recovered` event.

use cs2p_core::registry::RegistryPersistence;
use cs2p_core::{ModelBundle, ModelVersion, PredictionEngine};
use cs2p_ml::hmm::FilterState;
use cs2p_obs::Clock;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, IoSlice, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one framed record's payload. A corrupt length prefix
/// must not make recovery allocate gigabytes; anything larger is treated
/// as a torn record.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of framing per record: a `u32` length plus a `u32` CRC32.
const FRAME_HEADER: usize = 8;

/// Slicing-by-8 tables for CRC32 (IEEE 802.3, reflected polynomial
/// `0xEDB8_8320`), built at compile time. `CRC32_TABLES[0]` is the
/// classic bytewise table; `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the CRC a
/// whole 8-byte word.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding every WAL and
/// snapshot frame, with the values of the plain bytewise algorithm. On an
/// x86-64 CPU with PCLMULQDQ and SSE4.1 (detected at run time), the
/// longest 16-byte-multiple prefix of an input of 64 bytes or more goes
/// through a carry-less-multiply folding kernel; short inputs, the tail
/// bytes and every other CPU take slicing-by-8 tables. No feature flag
/// or setting picks the path.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(bytes) {
        return crc;
    }
    !crc32_table(!0, bytes)
}

/// Advances the (uninverted) CRC32 state `crc` over `bytes` with the
/// slicing-by-8 tables: eight bytes per step, the tail bytewise.
fn crc32_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The reflected CRC32 by carry-less multiplication: fold four 128-bit
/// lanes 512 bits at a time, fold them into one, fold in the remaining
/// 16-byte blocks, then reduce 128 → 64 → 32 bits with a Barrett
/// reduction. The method and its constants (powers of x modulo the
/// IEEE polynomial, bit-reflected) are those of Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" and
/// of Linux's `crc32-pclmul`. This module is the workspace's one
/// non-test `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Whether this CPU has the instructions the kernel uses (cached by
    /// the standard library after the first call).
    fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// CRC32 of `bytes`: the longest 16-byte-multiple prefix folded here,
    /// the tail bytes through the tables. `None` when `bytes` is shorter
    /// than 64 bytes or the CPU lacks the instructions.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < 64 || !available() {
            return None;
        }
        let (head, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `available` found PCLMULQDQ and SSE4.1, the target
        // features `fold` is compiled for, and `head` is at least 64
        // bytes long and a multiple of 16, as `fold` requires.
        let crc = unsafe { fold(!0, head) };
        Some(!super::crc32_table(crc, tail))
    }

    /// `a.lo × k.lo ⊕ a.hi × k.hi ⊕ next`: lane `a` advanced past the
    /// distance `k` encodes, and the block that distance later added.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(a: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE4.1, and `bytes` must be at
    /// least 64 bytes long and a multiple of 16.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        // Bit-reflected and shifted left by one, low lane first:
        // x^(4·128+32) and x^(4·128−32) mod P, the four-lane fold;
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        // x^(128+32) and x^(128−32) mod P, the one-lane fold;
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        // x^64 mod P, the 64 → 32 bit fold;
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        // P itself and µ = x^64 / P, the Barrett reduction.
        let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_set_epi32(0, 0, 0, -1);

        let len = bytes.len();
        let base = bytes.as_ptr();
        // SAFETY: every `at` passed here satisfies `at + 16 <= len` (the
        // length is at least 64 and a multiple of 16, and each loop
        // below advances only while a whole 16- or 64-byte step is
        // left), so the unaligned 16-byte read stays inside `bytes`.
        let block = |at: usize| unsafe { _mm_loadu_si128(base.add(at).cast::<__m128i>()) };

        let mut x0 = _mm_xor_si128(block(0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = block(16);
        let mut x2 = block(32);
        let mut x3 = block(48);
        let mut at = 64;
        while len - at >= 64 {
            x0 = fold_into(x0, k1k2, block(at));
            x1 = fold_into(x1, k1k2, block(at + 16));
            x2 = fold_into(x2, k1k2, block(at + 32));
            x3 = fold_into(x3, k1k2, block(at + 48));
            at += 64;
        }
        let mut x = fold_into(x0, k3k4, x1);
        x = fold_into(x, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        while len - at >= 16 {
            x = fold_into(x, k3k4, block(at));
            at += 16;
        }

        // 128 → 64 bits: the low half times x^(128−32) mod P, into the
        // high half.
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(k3k4, x, 0x01));
        // 64 → 32 bits.
        x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        );
        // Barrett reduction: the quotient's low 32 bits times P cancel
        // all but the remainder, left in bits 32..64.
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(r, x), 1) as u32
    }
}

/// Appends one `[len: u32 LE][crc32: u32 LE][payload]` frame to `out` in
/// place: reserves the header, lets `write` append the payload straight
/// after it, then patches in the payload's length and CRC. No
/// intermediate payload buffer.
fn frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    write(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Frames an already-encoded `payload` into `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    frame_with(out, |out| out.extend_from_slice(payload));
}

/// The decoded contents of one WAL segment or snapshot file (or byte
/// slice): every record of the longest valid frame prefix, plus whether
/// the file ended cleanly.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// `false` when decoding stopped at a torn or corrupt frame (short
    /// header, short payload, oversized length, or CRC mismatch).
    pub clean: bool,
    /// Bytes consumed by the valid prefix.
    pub valid_bytes: u64,
}

/// The payloads of the `[len][crc32][payload]` frames in `bytes`, borrowed
/// in place, up to the first torn or corrupt frame. Never panics on
/// arbitrary input.
struct Frames<'a> {
    cursor: Cursor<'a>,
    /// Bytes consumed by the valid prefix so far.
    valid: usize,
    /// Cleared at a torn or corrupt frame, which ends the iteration.
    clean: bool,
}

impl<'a> Frames<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Frames {
            cursor: Cursor { bytes, pos: 0 },
            valid: 0,
            clean: true,
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if !self.clean || self.valid == self.cursor.bytes.len() {
            return None;
        }
        let payload = self.cursor.frame();
        match payload {
            Some(_) => self.valid = self.cursor.pos,
            None => self.clean = false,
        }
        payload
    }
}

/// Decodes length-prefixed CRC-framed records from `bytes`, stopping at
/// the first torn or corrupt frame. Never panics on arbitrary input.
pub fn decode_frames(bytes: &[u8]) -> WalReplay {
    let mut frames = Frames::new(bytes);
    let records = frames.by_ref().map(<[u8]>::to_vec).collect();
    WalReplay {
        records,
        clean: frames.clean,
        valid_bytes: frames.valid as u64,
    }
}

/// The bytes of `path`; a missing file reads as empty.
fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Reads and decodes one WAL segment file. A missing file is an empty,
/// clean log (the segment was never created or already compacted away).
pub fn read_wal(path: &Path) -> io::Result<WalReplay> {
    Ok(decode_frames(&read_or_empty(path)?))
}

/// Bytes [`FrameReader`] reads per `read` call, and the size its buffer
/// keeps unless one frame is longer.
const STREAM_BUF: usize = 64 * 1024;

/// The frames of one file at a time, read through one reused buffer that
/// carries a partial frame across reads: what [`Frames`] yields over the
/// whole file's bytes, stopping at the same defects (short header, short
/// payload, oversized length, CRC mismatch), in bounded memory. The
/// buffer grows only to hold a frame longer than [`STREAM_BUF`], and
/// never past the bytes the file has left.
struct FrameReader {
    file: Option<File>,
    buf: Vec<u8>,
    /// `buf[start..end]` is read but not yet yielded.
    start: usize,
    end: usize,
    /// Bytes of the file not yet read into `buf`.
    left: u64,
    /// The file's length when opened.
    len: u64,
    /// Cleared at a torn or corrupt frame, which ends the file.
    clean: bool,
}

impl FrameReader {
    fn new() -> Self {
        FrameReader {
            file: None,
            buf: vec![0; STREAM_BUF],
            start: 0,
            end: 0,
            left: 0,
            len: 0,
            clean: true,
        }
    }

    /// Starts on the file at `path`, keeping the buffer. A missing file
    /// reads as empty and clean; `Ok(false)` says it was missing.
    fn open(&mut self, path: &Path) -> io::Result<bool> {
        let (file, len) = match File::open(path) {
            Ok(file) => {
                let len = file.metadata()?.len();
                (Some(file), len)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(e),
        };
        let found = file.is_some();
        (self.file, self.len, self.left) = (file, len, len);
        (self.start, self.end, self.clean) = (0, 0, true);
        Ok(found)
    }

    /// Makes `buf[start..]` hold at least `need` bytes. `false` when the
    /// file ends first, and then nothing is read or allocated.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        let have = self.end - self.start;
        if have >= need {
            return Ok(true);
        }
        if have as u64 + self.left < need as u64 {
            return Ok(false);
        }
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, have);
        if need > self.buf.len() {
            // Only a frame longer than the buffer gets here, and the
            // check above bounds it by the bytes the file has left.
            self.buf.reserve_exact(need - self.buf.len());
            self.buf.resize(need, 0);
        }
        let Some(file) = self.file.as_mut() else {
            return Ok(false);
        };
        while self.end < need {
            let room =
                (self.buf.len() - self.end).min(usize::try_from(self.left).unwrap_or(usize::MAX));
            match file.read(&mut self.buf[self.end..self.end + room]) {
                // The file shrank since it was opened.
                Ok(0) => {
                    self.left = 0;
                    return Ok(false);
                }
                Ok(n) => {
                    self.end += n;
                    self.left -= n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// The next frame's payload, borrowed from the buffer until the next
    /// call; `None` at the end of the file or at its first torn or
    /// corrupt frame, which clears [`clean`](Self::clean).
    fn next(&mut self) -> io::Result<Option<&[u8]>> {
        if !self.clean || (self.start == self.end && self.left == 0) {
            return Ok(None);
        }
        if !self.fill(FRAME_HEADER)? {
            self.clean = false;
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER];
        let (len, crc) = (
            u32::from_le_bytes(word(&header[..4])),
            u32::from_le_bytes(word(&header[4..])),
        );
        if len > MAX_RECORD_LEN || !self.fill(FRAME_HEADER + len as usize)? {
            self.clean = false;
            return Ok(None);
        }
        let payload = self.start + FRAME_HEADER..self.start + FRAME_HEADER + len as usize;
        if crc32(&self.buf[payload.clone()]) != crc {
            self.clean = false;
            return Ok(None);
        }
        self.start = payload.end;
        Ok(Some(&self.buf[payload]))
    }
}

/// Writes `parts`, in order, to `path` crash-safely: `<path>.tmp` +
/// fsync + rename. Readers (and post-crash recovery) see either the old
/// complete file or the new complete file, never a torn one.
fn atomic_write(path: &Path, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        // One call takes at most `IOV_MAX` parts and may stop short.
        IoSlice::advance_slices(&mut parts, 0);
        while !parts.is_empty() {
            match file.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        file.sync_data()?;
    }
    fs::rename(&tmp, path)
}

/// What the filesystem "does" with one group commit — the seam the
/// testkit's crash harness injects process kills and torn writes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Write and fsync the whole batch (the no-fault path).
    Write,
    /// Write only the first `n` bytes of the batch, then die: the classic
    /// torn write a power loss leaves behind. The WAL goes dead.
    ShortWrite(usize),
    /// Die before anything reaches the disk: the batch is lost whole and
    /// the WAL goes dead.
    Kill,
}

/// Per-commit fault hook (see [`CommitOutcome`]). `commit_index` counts
/// successful commits so far, so a seeded plan can kill the process model
/// at an exact commit point. Called with the framed batch bytes.
pub trait WalFaultHook: Send + Sync {
    /// Decides the fate of commit number `commit_index`.
    fn on_commit(&self, commit_index: u64, batch: &[u8]) -> CommitOutcome;
}

/// Counters describing a WAL's life so far (see [`Wal::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (framed into the commit buffer).
    pub records: u64,
    /// Framed bytes appended.
    pub bytes: u64,
    /// Group commits that reached the disk.
    pub commits: u64,
    /// Whether the WAL is dead (simulated crash or I/O error): appends
    /// are accepted and silently dropped, mirroring a killed process.
    pub dead: bool,
}

struct WalInner {
    file: File,
    /// Framed records awaiting the next group commit.
    buf: Vec<u8>,
    buffered_records: usize,
    last_commit_us: u64,
    stats: WalStats,
}

/// A group-committed, CRC-framed append-only log over one segment file.
///
/// Appends frame the payload into an in-memory batch; the batch reaches
/// the disk (one `write` + `fdatasync`) when `commit_every_records`
/// records have accumulated, when `commit_interval` has elapsed on the
/// injectable clock, or on an explicit [`flush`](Wal::flush). Everything
/// in an uncommitted batch is lost by a crash — that is the commit-point
/// contract the recovery tests are written against.
pub struct Wal {
    inner: Mutex<WalInner>,
    clock: Arc<dyn Clock>,
    commit_every_records: usize,
    commit_interval_us: Option<u64>,
    fsync_data: bool,
    hook: Option<Arc<dyn WalFaultHook>>,
}

impl Wal {
    /// Opens (creating or appending to) the segment at `path`.
    pub fn open(
        path: &Path,
        clock: Arc<dyn Clock>,
        commit_every_records: usize,
        commit_interval: Option<Duration>,
        fsync_data: bool,
        hook: Option<Arc<dyn WalFaultHook>>,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let now = clock.now_micros();
        Ok(Wal {
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                buffered_records: 0,
                last_commit_us: now,
                stats: WalStats::default(),
            }),
            clock,
            commit_every_records: commit_every_records.max(1),
            commit_interval_us: commit_interval.map(|d| d.as_micros().min(u64::MAX as u128) as u64),
            fsync_data,
            hook,
        })
    }

    /// Appends one record, group-committing when the batch is due. On a
    /// dead WAL (simulated crash, prior I/O error) the record is accepted
    /// and dropped — the process model keeps serving while its disk is
    /// gone, exactly what the crash battery recovers from.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        // Framing (length + CRC32) happens outside the mutex; the
        // critical section is one memcpy plus the commit check.
        let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
        frame_into(&mut framed, payload);
        self.append_framed(&framed, 1)
    }

    /// Appends pre-framed records in one lock acquisition — the batched
    /// endpoint stages a whole shard group and lands it here, paying the
    /// WAL mutex once per group instead of once per record. A commit
    /// boundary falling inside the group commits once, at its end.
    pub(crate) fn append_framed(&self, framed: &[u8], n_records: u64) -> io::Result<()> {
        if n_records == 0 {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        if inner.stats.dead {
            return Ok(());
        }
        inner.buf.extend_from_slice(framed);
        inner.buffered_records += n_records as usize;
        inner.stats.records += n_records;
        inner.stats.bytes += framed.len() as u64;
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("serve.persist.wal_records", n_records);
            cs2p_obs::counter_add("serve.persist.wal_bytes", framed.len() as u64);
        }
        let due = inner.buffered_records >= self.commit_every_records
            || self.commit_interval_us.is_some_and(|interval| {
                self.clock.now_micros().saturating_sub(inner.last_commit_us) >= interval
            });
        if due {
            self.commit_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Commits any buffered records now (graceful shutdown, compaction).
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.buffered_records > 0 {
            self.commit_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Flushes, then redirects subsequent appends to a fresh segment at
    /// `path` (WAL rotation at a compaction point). Returns `false` —
    /// and rotates nothing — when the WAL is dead.
    pub fn rotate(&self, path: &Path) -> io::Result<bool> {
        let mut inner = self.inner.lock();
        if inner.buffered_records > 0 {
            self.commit_locked(&mut inner)?;
        }
        if inner.stats.dead {
            return Ok(false);
        }
        inner.file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(true)
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        self.inner.lock().stats
    }

    fn commit_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        if inner.stats.dead {
            inner.buf.clear();
            inner.buffered_records = 0;
            return Ok(());
        }
        let outcome = match &self.hook {
            Some(hook) => hook.on_commit(inner.stats.commits, &inner.buf),
            None => CommitOutcome::Write,
        };
        let result = match outcome {
            CommitOutcome::Write => {
                let r = inner.file.write_all(&inner.buf).and_then(|()| {
                    if self.fsync_data {
                        inner.file.sync_data()
                    } else {
                        Ok(())
                    }
                });
                if r.is_ok() {
                    inner.stats.commits += 1;
                }
                r
            }
            CommitOutcome::ShortWrite(n) => {
                let n = n.min(inner.buf.len());
                let torn = inner.buf[..n].to_vec();
                let _ = inner
                    .file
                    .write_all(&torn)
                    .and_then(|()| inner.file.sync_data());
                inner.stats.dead = true;
                Ok(())
            }
            CommitOutcome::Kill => {
                inner.stats.dead = true;
                Ok(())
            }
        };
        inner.buf.clear();
        inner.buffered_records = 0;
        inner.last_commit_us = self.clock.now_micros();
        if let Err(e) = result {
            // Fail-open serving, fail-safe durability: an I/O error kills
            // the WAL (nothing after it is claimed durable) but the
            // server keeps answering requests.
            inner.stats.dead = true;
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "serve.persist.wal_dead",
                vec![("error", e.to_string().into())],
            );
        }
        Ok(())
    }
}

/// A served 1-step prediction awaiting its measurement, as persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistedPending {
    /// Predicted next-epoch throughput, Mbps.
    pub value: f64,
    /// Whether it was the session's initial (cluster-median) prediction.
    pub initial: bool,
}

/// One session's durable state: everything the server needs to rebuild
/// its in-memory session entry except the engine `Arc`, which recovery
/// re-resolves from the persisted bundle for `version`.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedSession {
    /// The model version the session is pinned to.
    pub version: u64,
    /// Index into the pinned engine's model list (`None` = global).
    pub model: Option<usize>,
    /// Whether registration found a cluster model.
    pub cluster_hit: bool,
    /// The HMM filter posterior after the session's last measurement.
    pub filter: FilterState,
    /// Registration features.
    pub features: Vec<u32>,
    /// Measured throughputs reported so far.
    pub observed: Vec<f64>,
    /// The last served 1-step prediction, if still unscored.
    pub pending: Option<PersistedPending>,
}

/// One logged session-store mutation. Updates carry absolute state (the
/// posterior and pending prediction *after* the request) plus the
/// absolute `observed_len`, so replaying a record whose effect a fuzzy
/// snapshot already includes is a no-op — the idempotence the
/// compaction-while-serving window relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session (re-)registered: full state at the end of the request.
    Register {
        /// Session id.
        id: u64,
        /// Logical tick of the mutating store access (the LRU stamp).
        tick: u64,
        /// Full session state.
        session: PersistedSession,
    },
    /// An existing session served a request: post-request deltas.
    Update {
        /// Session id.
        id: u64,
        /// Logical tick of the mutating store access (the LRU stamp).
        tick: u64,
        /// The measurement the request carried, if any.
        measured: Option<f64>,
        /// `observed.len()` after the request (guards replay idempotence).
        observed_len: u64,
        /// Filter posterior after the request.
        filter: FilterState,
        /// Pending 1-step prediction after the request.
        pending: Option<PersistedPending>,
    },
    /// The session left the store (LRU or forced eviction, or `/log`).
    Remove {
        /// Session id.
        id: u64,
    },
}

// Payload codec — the one encoding of session state, for WAL segments
// and `store.snap` alike. Records are encoded on the serving hot path —
// one per store mutation, under the owning shard's lock — so the payload
// is a hand-rolled little-endian layout (one-byte tag, fixed-width
// fields, u32 length-prefixed vectors) rather than JSON through the Value
// tree. Integrity is the frame's job (CRC32 over the payload); the codec
// only needs to be fast and unambiguous. `f64`s round-trip via
// `to_le_bytes`, so recovered posteriors are bit-identical. Decoding is
// total: any malformed payload yields `None`, which recovery treats
// exactly like a corrupt frame (truncate the WAL at the record; read the
// snapshot as absent).

const TAG_REGISTER: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_REMOVE: u8 = 3;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
        None => out.push(0),
    }
}

fn put_filter(out: &mut Vec<u8>, filter: &FilterState) {
    put_u32(out, filter.posterior.len() as u32);
    for &p in &filter.posterior {
        put_f64(out, p);
    }
    put_u64(out, filter.epoch as u64);
}

fn put_pending(out: &mut Vec<u8>, pending: &Option<PersistedPending>) {
    match pending {
        Some(p) => {
            out.push(1);
            put_f64(out, p.value);
            out.push(p.initial as u8);
        }
        None => out.push(0),
    }
}

fn put_session(out: &mut Vec<u8>, session: &PersistedSession) {
    put_u64(out, session.version);
    match session.model {
        Some(m) => {
            out.push(1);
            put_u64(out, m as u64);
        }
        None => out.push(0),
    }
    out.push(session.cluster_hit as u8);
    put_filter(out, &session.filter);
    put_u32(out, session.features.len() as u32);
    for &f in &session.features {
        put_u32(out, f);
    }
    put_u32(out, session.observed.len() as u32);
    for &w in &session.observed {
        put_f64(out, w);
    }
    put_pending(out, &session.pending);
}

/// A [`WalRecord::Register`] payload, encoded from borrowed state.
fn put_register(out: &mut Vec<u8>, id: u64, tick: u64, session: &PersistedSession) {
    out.push(TAG_REGISTER);
    put_u64(out, id);
    put_u64(out, tick);
    put_session(out, session);
}

/// A bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn opt_f64(&mut self) -> Option<Option<f64>> {
        Some(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// One `[len: u32][crc32: u32][payload]` frame: `None` on a short
    /// header, a short or oversized payload, or a CRC mismatch.
    fn frame(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        let crc = self.u32()?;
        if len > MAX_RECORD_LEN {
            return None;
        }
        let payload = self.take(len as usize)?;
        (crc32(payload) == crc).then_some(payload)
    }

    /// A `u32` count, then that many `N`-byte items, borrowed raw.
    fn array<const N: usize>(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        // The count is attacker-controlled on a corrupt payload; `take`
        // bounds it by what is actually present.
        self.take(len.checked_mul(N)?)
    }

    /// A filter posterior (raw little-endian `f64`s) and its epoch.
    fn filter(&mut self) -> Option<(&'a [u8], usize)> {
        let posterior = self.array::<8>()?;
        let epoch = usize::try_from(self.u64()?).ok()?;
        Some((posterior, epoch))
    }

    fn pending(&mut self) -> Option<Option<PersistedPending>> {
        Some(if self.bool()? {
            let value = self.f64()?;
            let initial = self.bool()?;
            Some(PersistedPending { value, initial })
        } else {
            None
        })
    }

    fn session(&mut self) -> Option<PersistedSession> {
        let version = self.u64()?;
        let model = if self.bool()? {
            Some(usize::try_from(self.u64()?).ok()?)
        } else {
            None
        };
        let cluster_hit = self.bool()?;
        let (posterior, epoch) = self.filter()?;
        let features = self.array::<4>()?;
        let observed = self.array::<8>()?;
        let pending = self.pending()?;
        Some(PersistedSession {
            version,
            model,
            cluster_hit,
            filter: FilterState {
                posterior: le_f64s(posterior).collect(),
                epoch,
            },
            features: features
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(word(w)))
                .collect(),
            observed: le_f64s(observed).collect(),
            pending,
        })
    }
}

/// One `N`-byte word of a `chunks_exact(N)` chunk.
fn word<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(chunk);
    out
}

/// The `f64`s of a raw little-endian array.
fn le_f64s(raw: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    raw.chunks_exact(8).map(|w| f64::from_le_bytes(word(w)))
}

/// A decoded payload that borrows from its frame what replay copies
/// straight into place: an `Update`'s posterior stays raw bytes until it
/// overwrites the session's own posterior buffer.
enum RecordRef<'a> {
    Register {
        id: u64,
        tick: u64,
        session: PersistedSession,
    },
    Update {
        id: u64,
        tick: u64,
        measured: Option<f64>,
        observed_len: u64,
        /// Little-endian `f64`s.
        posterior: &'a [u8],
        epoch: usize,
        pending: Option<PersistedPending>,
    },
    Remove {
        id: u64,
    },
}

impl<'a> RecordRef<'a> {
    /// Decodes a binary WAL payload. `None` on any malformation —
    /// unknown tag, short read, or trailing bytes — never a panic.
    fn decode(bytes: &'a [u8]) -> Option<Self> {
        let mut c = Cursor { bytes, pos: 0 };
        let record = match c.u8()? {
            TAG_REGISTER => RecordRef::Register {
                id: c.u64()?,
                tick: c.u64()?,
                session: c.session()?,
            },
            TAG_UPDATE => {
                let (id, tick, measured, observed_len) =
                    (c.u64()?, c.u64()?, c.opt_f64()?, c.u64()?);
                let (posterior, epoch) = c.filter()?;
                RecordRef::Update {
                    id,
                    tick,
                    measured,
                    observed_len,
                    posterior,
                    epoch,
                    pending: c.pending()?,
                }
            }
            TAG_REMOVE => RecordRef::Remove { id: c.u64()? },
            _ => return None,
        };
        (c.pos == bytes.len()).then_some(record)
    }
}

impl WalRecord {
    /// Encodes this record into its binary WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends this record's binary WAL payload to `out` — what the WAL
    /// and snapshot writers frame in place.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Register { id, tick, session } => put_register(out, *id, *tick, session),
            WalRecord::Update {
                id,
                tick,
                measured,
                observed_len,
                filter,
                pending,
            } => {
                out.push(TAG_UPDATE);
                put_u64(out, *id);
                put_u64(out, *tick);
                put_opt_f64(out, *measured);
                put_u64(out, *observed_len);
                put_filter(out, filter);
                put_pending(out, pending);
            }
            WalRecord::Remove { id } => {
                out.push(TAG_REMOVE);
                put_u64(out, *id);
            }
        }
    }

    /// Decodes a binary WAL payload. `None` on any malformation —
    /// unknown tag, short read, or trailing bytes — never a panic.
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        Some(match RecordRef::decode(bytes)? {
            RecordRef::Register { id, tick, session } => WalRecord::Register { id, tick, session },
            RecordRef::Update {
                id,
                tick,
                measured,
                observed_len,
                posterior,
                epoch,
                pending,
            } => WalRecord::Update {
                id,
                tick,
                measured,
                observed_len,
                filter: FilterState {
                    posterior: le_f64s(posterior).collect(),
                    epoch,
                },
                pending,
            },
            RecordRef::Remove { id } => WalRecord::Remove { id },
        })
    }
}

/// A snapshot framed straight from the live sessions, in visit order:
/// each one's [`WalRecord::Register`] frame (`tick` = its `last_touch`)
/// plus an `(id, start, end)` index, so no copy of the table is held.
#[derive(Debug, Default)]
pub struct Snapshot {
    frames: Vec<u8>,
    index: Vec<(u64, usize, usize)>,
}

impl Snapshot {
    /// Frames `id`'s `Register` record (`tick` its `last_touch`) from a borrow.
    pub fn push(&mut self, id: u64, tick: u64, session: &PersistedSession) {
        let start = self.frames.len();
        frame_with(&mut self.frames, |out| put_register(out, id, tick, session));
        self.index.push((id, start, self.frames.len()));
    }

    /// `store.snap` in file order, for one vectored write: a header frame
    /// (`covered_gen` — the greatest WAL generation the image fully
    /// reflects — the logical `tick`, and the entry count), framed into
    /// `header`, then the pushed frames in id order (ties in push order),
    /// whatever the shard layout. The frames are not copied again.
    fn file_parts<'a>(
        &'a mut self,
        header: &'a mut Vec<u8>,
        covered_gen: u64,
        tick: u64,
    ) -> Vec<IoSlice<'a>> {
        self.index.sort_unstable();
        frame_with(header, |out| {
            put_u64(out, covered_gen);
            put_u64(out, tick);
            put_u64(out, self.index.len() as u64);
        });
        let (header, this): (&'a Vec<u8>, &'a Self) = (header, self);
        let mut parts = Vec::with_capacity(1 + this.index.len());
        parts.push(IoSlice::new(header));
        parts.extend(
            this.index
                .iter()
                .map(|&(_, start, end)| IoSlice::new(&this.frames[start..end])),
        );
        parts
    }
}

/// Streams the open `store.snap` into the WAL generation it covers and a
/// scratch replay table, dropped on any defect. All or nothing: `None`
/// unless every frame is clean to the end of the file, every payload
/// decodes to a `Register`, and the count is the header's.
fn stream_snapshot(frames: &mut FrameReader, max_observed: usize) -> Option<(u64, Replay)> {
    let header = frames.next().ok()??;
    let mut c = Cursor {
        bytes: header,
        pos: 0,
    };
    let (covered_gen, tick, count) = (c.u64()?, c.u64()?, c.u64()?);
    if c.pos != header.len() {
        return None;
    }
    // Each entry is at least a frame header and a tag, so a corrupt
    // count cannot reserve more than the file could hold.
    let capacity = count.min(frames.len / (FRAME_HEADER as u64 + 1));
    let mut replay = Replay::new(tick, usize::try_from(capacity).ok()?, max_observed);
    let mut entries = 0u64;
    while let Some(payload) = frames.next().ok()? {
        let record = RecordRef::decode(payload)?;
        if !matches!(record, RecordRef::Register { .. }) {
            return None;
        }
        replay.apply(record);
        entries += 1;
    }
    (frames.clean && entries == count).then_some((covered_gen, replay))
}

/// Reads `store.snap` through `frames`; a missing file is an empty table
/// covering no generation. A corrupt or unreadable one is `None`
/// (`serve.persist.snapshot_corrupt`) — recovery treats it as absent
/// rather than panicking or applying part of it. The WAL generations it
/// covered were unlinked when it was written, so the sessions only it
/// held fall to the re-register path; recovery replays just the
/// generations it did not cover.
fn read_snapshot(
    frames: &mut FrameReader,
    path: &Path,
    max_observed: usize,
) -> Option<(u64, Replay)> {
    let snapshot = match frames.open(path) {
        Ok(false) => return Some((0, Replay::new(0, 0, max_observed))),
        Ok(true) => stream_snapshot(frames, max_observed),
        Err(_) => None,
    };
    if snapshot.is_none() {
        cs2p_obs::event(
            cs2p_obs::Level::Warn,
            "serve.persist.snapshot_corrupt",
            vec![("path", path.display().to_string().into())],
        );
    }
    snapshot
}

/// Recovery's working table: the sessions replayed so far, found by id,
/// and the logical tick. Snapshot entries (as `Register` records stamped
/// with their `last_touch`) and every uncovered WAL record pass through
/// the one replay step, [`apply`](Self::apply).
struct Replay {
    /// Only rises, to stay above every replayed stamp.
    tick: u64,
    /// `(id, last_touch, state)`, unordered.
    sessions: Vec<(u64, u64, PersistedSession)>,
    /// Session id -> position in `sessions`.
    index: HashMap<u64, usize, BuildHasherDefault<IdHasher>>,
    /// Cap on a session's measurement history.
    max_observed: usize,
}

/// Hashes a session id with one multiply. Replayed ids passed a CRC and
/// come from the server's own store, so SipHash's flooding resistance
/// buys nothing here; the odd multiplier keeps dense ids distinct in the
/// low bits and spreads them over the high ones.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Replay {
    fn new(tick: u64, capacity: usize, max_observed: usize) -> Self {
        Replay {
            tick,
            sessions: Vec::with_capacity(capacity),
            index: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            max_observed,
        }
    }

    fn apply(&mut self, record: RecordRef<'_>) {
        match record {
            RecordRef::Register { id, tick, session } => {
                self.tick = self.tick.max(tick + 1);
                match self.index.entry(id) {
                    Entry::Occupied(e) => self.sessions[*e.get()] = (id, tick, session),
                    Entry::Vacant(e) => {
                        e.insert(self.sessions.len());
                        self.sessions.push((id, tick, session));
                    }
                }
            }
            RecordRef::Update {
                id,
                tick,
                measured,
                observed_len,
                posterior,
                epoch,
                pending,
            } => {
                self.tick = self.tick.max(tick + 1);
                let Some(&i) = self.index.get(&id) else {
                    return;
                };
                let (_, last_touch, state) = &mut self.sessions[i];
                *last_touch = tick;
                if let Some(w) = measured {
                    if (state.observed.len() as u64) < observed_len
                        && state.observed.len() < self.max_observed
                    {
                        state.observed.push(w);
                    }
                }
                state.filter.posterior.clear();
                state.filter.posterior.extend(le_f64s(posterior));
                state.filter.epoch = epoch;
                state.pending = pending;
            }
            RecordRef::Remove { id } => {
                if let Some(i) = self.index.remove(&id) {
                    self.sessions.swap_remove(i);
                    if let Some(&(moved, _, _)) = self.sessions.get(i) {
                        self.index.insert(moved, i);
                    }
                }
            }
        }
    }
}

/// Durability knobs for [`crate::ServerHandle::open_or_recover`].
#[derive(Clone)]
pub struct PersistConfig {
    /// Group-commit after this many buffered records (min 1; 1 = commit
    /// every record, the strictest durability).
    pub commit_every_records: usize,
    /// Also commit once this much time has elapsed on the server's
    /// injectable clock since the last commit (checked at append).
    pub commit_interval: Option<Duration>,
    /// Rotate the WAL and write a store snapshot every this many records,
    /// counting the records a clean recovery replayed (0 disables periodic
    /// compaction: a snapshot is then written only to repair a recovery
    /// that found damage).
    pub snapshot_every_records: u64,
    /// `fdatasync` each commit. Disabling trades power-loss durability
    /// for throughput (process-crash durability is kept — the bytes are
    /// in the page cache).
    pub fsync_data: bool,
    /// Commit-point fault hook (the crash harness's kill switch).
    pub fault_hook: Option<Arc<dyn WalFaultHook>>,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            commit_every_records: 1,
            commit_interval: None,
            snapshot_every_records: 4096,
            fsync_data: true,
            fault_hook: None,
        }
    }
}

impl std::fmt::Debug for PersistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistConfig")
            .field("commit_every_records", &self.commit_every_records)
            .field("commit_interval", &self.commit_interval)
            .field("snapshot_every_records", &self.snapshot_every_records)
            .field("fsync_data", &self.fsync_data)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

/// Name of the store snapshot file inside a persistence directory.
const SNAPSHOT_FILE: &str = "store.snap";
/// Subdirectory holding model bundles and the current-version pointer.
const MODELS_DIR: &str = "models";
/// Name of the current-version pointer file inside [`MODELS_DIR`].
const CURRENT_FILE: &str = "CURRENT";

fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:06}.log"))
}

/// Parses a `wal-NNNNNN.log` file name into its generation number.
fn segment_gen(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Sorted generation numbers of the WAL segments present in `dir`.
fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(segment_gen) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// The registry's durability sink: one `v<N>.json` bundle per published
/// version plus an atomically-swapped `CURRENT` pointer, with GC
/// unlinking retained-out bundles. The bundle is written *before* the
/// pointer, so a crash between the two leaves `CURRENT` at the previous
/// (still present) version and the new bundle as a harmless orphan.
pub struct RegistryDir {
    dir: PathBuf,
}

impl RegistryDir {
    /// A sink writing under `dir` (created if missing).
    pub fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(RegistryDir {
            dir: dir.to_path_buf(),
        })
    }

    fn bundle_path(&self, version: ModelVersion) -> PathBuf {
        self.dir.join(format!("v{}.json", version.0))
    }

    /// Reads every recoverable `(version, engine)` pair plus the current
    /// pointer. Unparseable bundles are skipped (never a panic); a
    /// missing or dangling pointer yields `None`.
    #[allow(clippy::type_complexity)]
    pub fn load(dir: &Path) -> io::Result<(Vec<(u64, PredictionEngine)>, Option<u64>)> {
        let mut engines = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((engines, None)),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(version) = name
                .to_str()
                .and_then(|n| n.strip_prefix('v'))
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            match ModelBundle::read_atomic(&entry.path()) {
                Ok(bundle) => engines.push((version, bundle.into_engine())),
                Err(_) => cs2p_obs::event(
                    cs2p_obs::Level::Warn,
                    "serve.persist.bundle_corrupt",
                    vec![("version", version.into())],
                ),
            }
        }
        engines.sort_unstable_by_key(|(v, _)| *v);
        let current = fs::read_to_string(dir.join(CURRENT_FILE))
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|v| engines.iter().any(|(ev, _)| ev == v));
        Ok((engines, current))
    }
}

impl RegistryPersistence for RegistryDir {
    fn publish_version(&self, version: ModelVersion, engine: &PredictionEngine) {
        let bundle = ModelBundle::from_engine(engine);
        let write = bundle
            .write_atomic(&self.bundle_path(version))
            .and_then(|()| {
                atomic_write(
                    &self.dir.join(CURRENT_FILE),
                    &mut [IoSlice::new(version.0.to_string().as_bytes())],
                )
            });
        if let Err(e) = write {
            cs2p_obs::event(
                cs2p_obs::Level::Warn,
                "serve.persist.publish_failed",
                vec![
                    ("version", version.0.into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }

    fn collect_version(&self, version: ModelVersion) {
        let _ = fs::remove_file(self.bundle_path(version));
    }
}

/// A reusable staging buffer of framed WAL records. Fill it with
/// [`SessionPersist::stage`] while a shard lock is held, land it with
/// [`SessionPersist::log_staged`] — one WAL-mutex acquisition per shard
/// group instead of one per record.
#[derive(Debug, Default)]
pub struct WalBatch {
    framed: Vec<u8>,
    records: u64,
}

/// The server-facing durability orchestrator: owns the WAL (segment
/// rotation, generation numbering), the compaction cadence, and the
/// registry sink, all under one persistence directory.
pub struct SessionPersist {
    dir: PathBuf,
    wal: Wal,
    /// Generation of the segment currently appended to.
    gen: AtomicU64,
    /// Records appended since the last snapshot (compaction trigger).
    since_snapshot: AtomicU64,
    snapshot_every: u64,
    /// Serializes compactions; `try_lock` keeps the trigger non-blocking.
    compact_lock: Mutex<()>,
    registry_sink: Arc<RegistryDir>,
}

impl SessionPersist {
    /// Opens the persistence directory (created if missing) and starts a
    /// fresh WAL generation after the greatest one present — a torn tail
    /// in an old segment is never appended to.
    pub fn create(dir: &Path, clock: Arc<dyn Clock>, config: &PersistConfig) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let registry_sink = Arc::new(RegistryDir::create(&dir.join(MODELS_DIR))?);
        let gen = list_segments(dir)?.last().copied().unwrap_or(0) + 1;
        let wal = Wal::open(
            &segment_path(dir, gen),
            clock,
            config.commit_every_records,
            config.commit_interval,
            config.fsync_data,
            config.fault_hook.clone(),
        )?;
        Ok(SessionPersist {
            dir: dir.to_path_buf(),
            wal,
            gen: AtomicU64::new(gen),
            since_snapshot: AtomicU64::new(0),
            snapshot_every: config.snapshot_every_records,
            compact_lock: Mutex::new(()),
            registry_sink,
        })
    }

    /// The registry sink writing under this directory's `models/`.
    pub fn registry_sink(&self) -> Arc<RegistryDir> {
        Arc::clone(&self.registry_sink)
    }

    /// Appends one mutation record (called under the owning shard's lock,
    /// so WAL order agrees with each shard's mutation order).
    pub fn log(&self, record: &WalRecord) {
        let mut batch = WalBatch::default();
        self.stage(record, &mut batch);
        self.log_staged(&mut batch);
    }

    /// Encodes and frames `record` into `batch` without touching the
    /// WAL. The batched endpoint stages every record of a shard group
    /// this way (under the shard lock, so WAL order still agrees with
    /// the shard's mutation order) and lands the group with one
    /// [`log_staged`](Self::log_staged) call. The record is encoded in
    /// place after its frame header, so a warmed batch stages without
    /// allocating.
    pub fn stage(&self, record: &WalRecord, batch: &mut WalBatch) {
        frame_with(&mut batch.framed, |out| record.encode_into(out));
        batch.records += 1;
    }

    /// Appends everything staged in `batch` with one WAL-mutex
    /// acquisition, then resets `batch` for reuse (its buffer keeps its
    /// capacity — the next shard group stages allocation-free).
    pub fn log_staged(&self, batch: &mut WalBatch) {
        if batch.records == 0 {
            return;
        }
        let _ = self.wal.append_framed(&batch.framed, batch.records);
        self.since_snapshot
            .fetch_add(batch.records, Ordering::Relaxed);
        batch.framed.clear();
        batch.records = 0;
    }

    /// Counts `records` toward the compaction cadence: the WAL records a
    /// clean recovery replayed and left in place, so the next snapshot
    /// comes where it would have had the server never restarted.
    pub fn resume_cadence(&self, records: u64) {
        self.since_snapshot.fetch_add(records, Ordering::Relaxed);
    }

    /// Whether the compaction cadence is due. Cheap; called per request.
    pub fn should_compact(&self) -> bool {
        self.snapshot_every > 0
            && self.since_snapshot.load(Ordering::Relaxed) >= self.snapshot_every
            && !self.wal.stats().dead
    }

    /// Commits buffered records now (graceful shutdown).
    pub fn flush(&self) -> io::Result<()> {
        self.wal.flush()
    }

    /// Current WAL counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Rotates the WAL, writes a snapshot atomically, and unlinks
    /// fully-covered segments. `visit` pushes every live session and
    /// returns the logical tick; it runs outside every shard lock held by
    /// the caller (it takes each shard's lock itself) and may already see
    /// a few new-generation mutations — replay is idempotent over that
    /// window. A compaction already in flight makes this a no-op.
    pub fn compact_visiting(&self, visit: impl FnOnce(&mut Snapshot) -> u64) -> io::Result<()> {
        let Some(_guard) = self.compact_lock.try_lock() else {
            return Ok(());
        };
        let covered_gen = self.gen.load(Ordering::SeqCst);
        if !self.wal.rotate(&segment_path(&self.dir, covered_gen + 1))? {
            return Ok(()); // dead WAL: the process model has crashed
        }
        self.gen.store(covered_gen + 1, Ordering::SeqCst);
        self.since_snapshot.store(0, Ordering::SeqCst);
        let mut snapshot = Snapshot::default();
        let tick = visit(&mut snapshot);
        let mut header = Vec::new();
        let mut parts = snapshot.file_parts(&mut header, covered_gen, tick);
        atomic_write(&self.dir.join(SNAPSHOT_FILE), &mut parts)?;
        for gen in list_segments(&self.dir)? {
            if gen <= covered_gen {
                let _ = fs::remove_file(segment_path(&self.dir, gen));
            }
        }
        if cs2p_obs::enabled() {
            cs2p_obs::counter_add("serve.persist.snapshots", 1);
            cs2p_obs::counter_add("serve.persist.compactions", 1);
        }
        Ok(())
    }

    /// [`compact_visiting`](Self::compact_visiting) over owned
    /// `(tick, [(id, last_touch, state)])` rather than a store.
    pub fn compact_with(
        &self,
        collect: impl FnOnce() -> (u64, Vec<(u64, u64, PersistedSession)>),
    ) -> io::Result<()> {
        self.compact_visiting(|snapshot| {
            let (tick, entries) = collect();
            for (id, last_touch, state) in &entries {
                snapshot.push(*id, *last_touch, state);
            }
            tick
        })
    }
}

/// Everything [`recover`] pulled back from a persistence directory. The
/// server layer resolves each session's `version` against `engines`
/// (dropping sessions whose bundle was GC'd or corrupt) and rebuilds the
/// store with `tick` and the recovered LRU stamps.
#[derive(Debug)]
pub struct RecoveredState {
    /// The store's logical tick counter to resume from.
    pub tick: u64,
    /// `(id, last_touch, state)` for every recovered session, by id.
    pub sessions: Vec<(u64, u64, PersistedSession)>,
    /// Recovered `(version, engine)` pairs, ascending.
    pub engines: Vec<(u64, PredictionEngine)>,
    /// The persisted current-version pointer, when present and valid.
    pub current_version: Option<u64>,
    /// `false` when replay stopped at a torn or corrupt record.
    pub clean: bool,
    /// `store.snap` was present but did not decode (a missing one is a
    /// fresh start, not damage).
    pub snapshot_corrupt: bool,
    /// WAL records replayed (after snapshot-coverage skipping).
    pub wal_records: u64,
    /// Microseconds spent loading the model bundles.
    pub models_us: u64,
    /// Microseconds spent replaying the snapshot and the WAL.
    pub replay_us: u64,
}

/// Replays snapshot + WAL from `dir` into the state the committed prefix
/// of the crashed run had. Truncates at the first corrupt or torn WAL
/// record, reads a corrupt snapshot as absent, and never panics on
/// arbitrary bytes; a missing directory is an empty (fresh) state.
/// `max_observed` caps per-session measurement history (the server's
/// recorded-epochs bound).
pub fn recover(dir: &Path, max_observed: usize) -> io::Result<RecoveredState> {
    let start = Instant::now();
    let (engines, current_version) = RegistryDir::load(&dir.join(MODELS_DIR))?;
    let models_us = micros(start.elapsed());

    let start = Instant::now();
    let mut frames = FrameReader::new();
    let snapshot = read_snapshot(&mut frames, &dir.join(SNAPSHOT_FILE), max_observed);
    let snapshot_corrupt = snapshot.is_none();
    let (covered_gen, mut replay) =
        snapshot.unwrap_or_else(|| (0, Replay::new(0, 0, max_observed)));
    let mut clean = true;
    let mut wal_records = 0u64;
    'segments: for gen in list_segments(dir)? {
        if gen <= covered_gen {
            continue;
        }
        frames.open(&segment_path(dir, gen))?;
        while let Some(payload) = frames.next()? {
            let Some(record) = RecordRef::decode(payload) else {
                // A frame with a valid CRC but an unparseable body is
                // corruption past the framing layer: same contract,
                // truncate here.
                clean = false;
                break 'segments;
            };
            wal_records += 1;
            replay.apply(record);
        }
        if !frames.clean {
            clean = false;
            break;
        }
    }
    // Ids are unique, so the unstable sort is deterministic.
    replay.sessions.sort_unstable_by_key(|&(id, _, _)| id);
    let replay_us = micros(start.elapsed());

    if cs2p_obs::enabled() {
        cs2p_obs::counter_add("serve.persist.recoveries", 1);
        if !clean {
            cs2p_obs::counter_add("serve.persist.truncated_records", 1);
        }
    }
    Ok(RecoveredState {
        tick: replay.tick,
        sessions: replay.sessions,
        engines,
        current_version,
        clean,
        snapshot_corrupt,
        wal_records,
        models_us,
        replay_us,
    })
}

/// Whole microseconds, saturating.
pub(crate) fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs2p_obs::ManualClock;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cs2p-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition of the same CRC, with no tables,
    /// advancing the uninverted state `crc`.
    fn crc32_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    /// `n` xorshift bytes.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// The CRC32 of `bytes` by each path this CPU can run: `crc32` as
    /// dispatched, the tables alone, and the folding kernel alone (from
    /// 64 bytes, on a CPU that has it).
    fn crc32_by_every_path(bytes: &[u8]) -> Vec<u32> {
        let mut out = vec![crc32(bytes), !crc32_table(!0, bytes)];
        #[cfg(target_arch = "x86_64")]
        out.extend(clmul::crc32(bytes));
        out
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(4096 + 16);
        for align in 0..16 {
            // The reference state after each prefix, built byte by byte.
            let mut reference = !0u32;
            for len in 0..=4096 {
                let bytes = &buf[align..align + len];
                for got in crc32_by_every_path(bytes) {
                    assert_eq!(got, !reference, "len {len} at alignment {align}");
                }
                if len < 4096 {
                    reference = crc32_bitwise(reference, &[buf[align + len]]);
                }
            }
        }
        let megabyte = noise(1 << 20);
        let want = !crc32_bitwise(!0, &megabyte);
        let got = crc32_by_every_path(&megabyte);
        assert!(got.iter().all(|&crc| crc == want), "{got:x?} vs {want:x}");
    }

    #[test]
    fn in_place_framing_is_framing_the_encoded_payload() {
        let clock = Arc::new(ManualClock::new());
        let dir = temp_dir("frame");
        let persist = SessionPersist::create(&dir, clock, &PersistConfig::default()).unwrap();
        let mut staged = WalBatch::default();
        let mut framed = Vec::new();
        for record in codec_records() {
            persist.stage(&record, &mut staged);
            frame_into(&mut framed, &record.encode());
        }
        assert_eq!(staged.framed, framed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_session_history_frames_to_the_same_bytes_on_every_crc_path() {
        // One session's life: registered with a 40-epoch history, then
        // 64 updates of a six-state posterior, then retired.
        let filter = |epoch: usize| FilterState {
            posterior: (0..6).map(|i| (i + epoch) as f64 / 21.0).collect(),
            epoch,
        };
        let mut history = vec![WalRecord::Register {
            id: 11,
            tick: 0,
            session: PersistedSession {
                version: 2,
                model: Some(1),
                cluster_hit: true,
                filter: filter(40),
                features: vec![3, 1, 4, 1],
                observed: (0..40).map(|k| 0.5 + k as f64 / 8.0).collect(),
                pending: None,
            },
        }];
        history.extend((41..105).map(|epoch| WalRecord::Update {
            id: 11,
            tick: epoch as u64,
            measured: Some(epoch as f64 / 16.0),
            observed_len: epoch as u64,
            filter: filter(epoch),
            pending: Some(PersistedPending {
                value: 1.25,
                initial: false,
            }),
        }));
        history.push(WalRecord::Remove { id: 11 });

        let mut dispatched = Vec::new();
        // The tables alone, and the kernel wherever it runs.
        let mut by_path = [Vec::new(), Vec::new()];
        for record in &history {
            let payload = record.encode();
            frame_into(&mut dispatched, &payload);
            let crcs = crc32_by_every_path(&payload);
            for (out, crc) in by_path.iter_mut().zip([crcs[1], crcs[crcs.len() - 1]]) {
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
                out.extend_from_slice(&payload);
            }
        }
        assert!(history[1].encode().len() >= 64, "updates reach the kernel");
        assert_eq!(by_path[0], dispatched);
        assert_eq!(by_path[1], dispatched);
    }

    /// `(id, last_touch, state)` for the codec's `Register` records.
    fn register_entries() -> Vec<(u64, u64, PersistedSession)> {
        codec_records()
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::Register { id, tick, session } => Some((id, tick, session)),
                _ => None,
            })
            .collect()
    }

    fn snapshot_of(
        covered_gen: u64,
        tick: u64,
        entries: &[(u64, u64, PersistedSession)],
    ) -> Vec<u8> {
        let mut frames = Snapshot::default();
        for (id, last_touch, session) in entries {
            frames.push(*id, *last_touch, session);
        }
        file_bytes(&mut frames, covered_gen, tick)
    }

    /// The bytes `compact_visiting` writes for `snapshot`.
    fn file_bytes(snapshot: &mut Snapshot, covered_gen: u64, tick: u64) -> Vec<u8> {
        let mut header = Vec::new();
        let parts = snapshot.file_parts(&mut header, covered_gen, tick);
        parts.iter().flat_map(|part| part.iter().copied()).collect()
    }

    #[test]
    fn a_snapshot_framed_from_the_shards_is_the_records_in_id_order() {
        // Ids inserted out of order across four shards, one state
        // carrying NaN and -0.0; insert k takes logical tick k.
        let sessions = register_entries();
        let ids = [42u64, 7, 1_000_003, 0, 13, 999, 5];
        let store = crate::store::SessionStore::new(4, 100, None);
        for (k, &id) in ids.iter().enumerate() {
            let session = sessions[k % sessions.len()].2.clone();
            store.lock(id).insert(id, session);
        }
        let mut frames = Snapshot::default();
        let tick = store.visit(|id, last_touch, session| frames.push(id, last_touch, session));
        assert_eq!(tick, ids.len() as u64);

        let mut expected = Vec::new();
        let mut header = Vec::new();
        for v in [3, tick, ids.len() as u64] {
            put_u64(&mut header, v);
        }
        frame_into(&mut expected, &header);
        let mut by_id: Vec<(usize, u64)> = ids.iter().copied().enumerate().collect();
        by_id.sort_unstable_by_key(|&(_, id)| id);
        for (k, id) in by_id {
            let session = sessions[k % sessions.len()].2.clone();
            let record = WalRecord::Register {
                id,
                tick: k as u64,
                session,
            };
            frame_into(&mut expected, &record.encode());
        }
        assert_eq!(file_bytes(&mut frames, 3, tick), expected);
    }

    #[test]
    fn frames_roundtrip_and_truncation_yields_longest_valid_prefix() {
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize]).collect();
        for p in &payloads {
            frame_into(&mut buf, p);
        }
        let full = decode_frames(&buf);
        assert!(full.clean);
        assert_eq!(full.records, payloads);
        // Every truncation offset recovers exactly the frames that fit.
        let mut boundaries = vec![0usize];
        for p in &payloads {
            boundaries.push(boundaries.last().unwrap() + FRAME_HEADER + p.len());
        }
        for cut in 0..=buf.len() {
            let out = decode_frames(&buf[..cut]);
            let expect = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(out.records.len(), expect, "cut at {cut}");
            assert_eq!(out.clean, boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_decoding_without_panic() {
        let mut buf = Vec::new();
        frame_into(&mut buf, b"hello");
        frame_into(&mut buf, b"world");
        for i in 0..buf.len() {
            let mut torn = buf.clone();
            torn[i] ^= 0x40;
            let out = decode_frames(&torn);
            assert!(out.records.len() <= 2);
            // A flipped byte in the second frame must not lose the first.
            if i >= FRAME_HEADER + 5 {
                assert_eq!(out.records[0], b"hello");
            }
        }
    }

    #[test]
    fn wal_group_commit_batches_and_flush_drains() {
        let dir = temp_dir("wal");
        let path = dir.join("wal-000001.log");
        let clock = Arc::new(ManualClock::new());
        let wal = Wal::open(&path, clock, 3, None, true, None).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        assert_eq!(wal.stats().commits, 0, "below the batch threshold");
        assert!(read_wal(&path).unwrap().records.is_empty());
        wal.append(b"c").unwrap();
        assert_eq!(wal.stats().commits, 1);
        assert_eq!(read_wal(&path).unwrap().records.len(), 3);
        wal.append(b"d").unwrap();
        wal.flush().unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_interval_commit_uses_injectable_clock() {
        let dir = temp_dir("wal-clock");
        let path = dir.join("wal-000001.log");
        let clock = Arc::new(ManualClock::new());
        let wal = Wal::open(
            &path,
            Arc::clone(&clock) as Arc<dyn Clock>,
            usize::MAX,
            Some(Duration::from_millis(5)),
            true,
            None,
        )
        .unwrap();
        wal.append(b"a").unwrap();
        assert_eq!(wal.stats().commits, 0);
        clock.advance(5_000);
        wal.append(b"b").unwrap();
        assert_eq!(wal.stats().commits, 1, "interval elapsed on the clock");
        assert_eq!(read_wal(&path).unwrap().records.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    struct KillAt(u64);
    impl WalFaultHook for KillAt {
        fn on_commit(&self, commit_index: u64, _batch: &[u8]) -> CommitOutcome {
            if commit_index == self.0 {
                CommitOutcome::Kill
            } else {
                CommitOutcome::Write
            }
        }
    }

    #[test]
    fn killed_wal_loses_the_uncommitted_batch_and_goes_silent() {
        let dir = temp_dir("wal-kill");
        let path = dir.join("wal-000001.log");
        let clock = Arc::new(ManualClock::new());
        let wal = Wal::open(&path, clock, 1, None, true, Some(Arc::new(KillAt(1)))).unwrap();
        wal.append(b"durable").unwrap(); // commit 0: written
        wal.append(b"lost").unwrap(); // commit 1: killed
        wal.append(b"also-lost").unwrap(); // dead: dropped silently
        wal.flush().unwrap();
        assert!(wal.stats().dead);
        let replay = read_wal(&path).unwrap();
        assert!(replay.clean);
        assert_eq!(replay.records, vec![b"durable".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_leaves_a_torn_record_recovery_truncates() {
        let dir = temp_dir("wal-torn");
        let path = dir.join("wal-000001.log");
        let clock = Arc::new(ManualClock::new());
        struct TearAt(u64);
        impl WalFaultHook for TearAt {
            fn on_commit(&self, commit_index: u64, batch: &[u8]) -> CommitOutcome {
                if commit_index == self.0 {
                    CommitOutcome::ShortWrite(batch.len() / 2)
                } else {
                    CommitOutcome::Write
                }
            }
        }
        let wal = Wal::open(&path, clock, 1, None, true, Some(Arc::new(TearAt(1)))).unwrap();
        wal.append(b"first-record-payload").unwrap();
        wal.append(b"second-record-payload").unwrap(); // torn in half
        assert!(wal.stats().dead);
        let replay = read_wal(&path).unwrap();
        assert!(!replay.clean, "the torn tail must be detected");
        assert_eq!(replay.records, vec![b"first-record-payload".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("file.json");
        atomic_write(&path, &mut [IoSlice::new(b"one")]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, &mut [IoSlice::new(b"two")]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        // More parts than one vectored call takes, empty ones included.
        let chunks: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| vec![i as u8; i as usize % 5])
            .collect();
        let mut parts: Vec<IoSlice> = chunks.iter().map(|c| IoSlice::new(c)).collect();
        atomic_write(&path, &mut parts).unwrap();
        assert_eq!(fs::read(&path).unwrap(), chunks.concat());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrip_and_corrupt_snapshot_reads_as_absent() {
        let dir = temp_dir("snap");
        let path = dir.join(SNAPSHOT_FILE);
        let mut entries = register_entries();
        let bytes = snapshot_of(3, 41, &entries);
        atomic_write(&path, &mut [IoSlice::new(&bytes)]).unwrap();
        let mut frames = FrameReader::new();
        let (covered_gen, replay) =
            read_snapshot(&mut frames, &path, 1024).expect("read own snapshot");
        // The header's tick: already above every stamp (the greatest is 19).
        assert_eq!((covered_gen, replay.tick), (3, 41));
        // NaN-carrying state: compare encodings, as the codec test does.
        entries.sort_unstable_by_key(|&(id, _, _)| id);
        let encode = |(id, tick, session): (u64, u64, PersistedSession)| {
            WalRecord::Register { id, tick, session }.encode()
        };
        let last_frame = FRAME_HEADER + encode(entries[entries.len() - 1].clone()).len();
        let written = entries.into_iter().map(encode);
        assert!(replay.sessions.into_iter().map(encode).eq(written));
        // A torn file, and a clean one an entry short of its header's count.
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(read_snapshot(&mut frames, &path, 1024).is_none());
        fs::write(&path, &bytes[..bytes.len() - last_frame]).unwrap();
        assert!(read_snapshot(&mut frames, &path, 1024).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_an_empty_dir_is_a_fresh_state() {
        let dir = temp_dir("fresh");
        let state = recover(&dir, 1024).unwrap();
        assert!(state.sessions.is_empty());
        assert!(state.engines.is_empty());
        assert_eq!(state.current_version, None);
        assert!(state.clean);
        assert_eq!(state.tick, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_gen("wal-000007.log"), Some(7));
        assert_eq!(segment_gen("wal-junk.log"), None);
        assert_eq!(segment_gen("store.snap"), None);
        let p = segment_path(Path::new("/d"), 42);
        assert_eq!(
            segment_gen(p.file_name().unwrap().to_str().unwrap()),
            Some(42)
        );
    }

    fn codec_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Register {
                id: 7,
                tick: 19,
                session: PersistedSession {
                    version: 3,
                    model: Some(2),
                    cluster_hit: true,
                    filter: FilterState {
                        posterior: vec![0.25, 0.75],
                        epoch: 4,
                    },
                    features: vec![1, 0, 9],
                    observed: vec![1.5, f64::NAN, -0.0],
                    pending: Some(PersistedPending {
                        value: 2.5,
                        initial: false,
                    }),
                },
            },
            WalRecord::Register {
                id: 0,
                tick: 0,
                session: PersistedSession {
                    version: 1,
                    model: None,
                    cluster_hit: false,
                    filter: FilterState {
                        posterior: vec![],
                        epoch: 0,
                    },
                    features: vec![],
                    observed: vec![],
                    pending: None,
                },
            },
            WalRecord::Update {
                id: u64::MAX,
                tick: 88,
                measured: Some(f64::INFINITY),
                observed_len: 12,
                filter: FilterState {
                    posterior: vec![1.0],
                    epoch: 1,
                },
                pending: Some(PersistedPending {
                    value: -1.0,
                    initial: true,
                }),
            },
            WalRecord::Update {
                id: 5,
                tick: 6,
                measured: None,
                observed_len: 0,
                filter: FilterState {
                    posterior: vec![0.5, 0.5],
                    epoch: 2,
                },
                pending: None,
            },
            WalRecord::Remove { id: 99 },
        ]
    }

    #[test]
    fn wal_record_codec_roundtrips_bit_exactly() {
        for record in codec_records() {
            let bytes = record.encode();
            let back = WalRecord::decode(&bytes).expect("decode own encoding");
            // PartialEq treats NaN != NaN; compare the re-encoding
            // instead, which is bit-exact by construction.
            assert_eq!(back.encode(), bytes, "re-encode of {record:?}");
        }
    }

    #[test]
    fn wal_record_codec_rejects_malformed_payloads_without_panic() {
        assert!(WalRecord::decode(&[]).is_none(), "empty payload");
        assert!(WalRecord::decode(&[0xFF, 1, 2, 3]).is_none(), "unknown tag");
        for record in codec_records() {
            let bytes = record.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WalRecord::decode(&bytes[..cut]).is_none(),
                    "truncation at {cut} of {record:?}"
                );
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(
                WalRecord::decode(&extended).is_none(),
                "trailing byte after {record:?}"
            );
        }
        // A length prefix claiming more elements than the payload holds
        // must fail the bounds check, not allocate.
        let mut huge = vec![TAG_REMOVE];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        huge[0] = TAG_UPDATE;
        assert!(WalRecord::decode(&huge).is_none(), "short update");
    }
}
