//! Sharded, capacity-bounded session store for the prediction server.
//!
//! Session state (the per-viewer HMM filter) used to live in one global
//! `Mutex<HashMap>`, which serialized every request in the server. This
//! store splits the map into N shards keyed by `fnv1a(session_id)`, each
//! behind its own `parking_lot` mutex, so requests for different sessions
//! proceed in parallel while requests for the *same* session stay
//! serialized — exactly the atomicity the HMM filter update needs.
//!
//! Capacity is bounded per shard. When a shard is full, the least
//! recently used entry is evicted; when a logical TTL is configured,
//! entries idle for more than `ttl` store accesses are evicted first.
//! "Time" here is a logical tick (one per store access), not wall time,
//! so eviction behaviour is reproducible in tests. Every eviction bumps
//! [`SessionStore::evicted`] and the `serve.evicted` counter; an evicted
//! viewer that comes back simply gets the "unknown session" re-init path.

use std::collections::{hash_map, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// FNV-1a on the little-endian bytes of the id: cheap, stateless, and
/// well-mixed for sequential session ids.
fn fnv1a(id: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Logical-tick width of the eviction-rate telemetry window (see
/// [`SessionStore::pressure`]): the rate reported is over the last
/// *completed* window of this many store accesses, so repeated reads
/// between ticks see one consistent value.
const PRESSURE_WINDOW_TICKS: u64 = 256;

/// Point-in-time load view of the store — one consistent snapshot for
/// both the admission controller and the `/ops` surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorePressure {
    /// Live entries as a fraction of total capacity, in `[0, 1]`.
    pub occupancy: f64,
    /// Evictions per store access (logical tick) over the last completed
    /// telemetry window of `PRESSURE_WINDOW_TICKS` accesses; `0.0`
    /// until the first window completes.
    pub eviction_rate: f64,
}

/// Rolling bookkeeping behind [`SessionStore::pressure`].
#[derive(Debug, Default)]
struct PressureWindow {
    start_tick: u64,
    start_evicted: u64,
    rate: f64,
}

struct Entry<V> {
    value: V,
    last_touch: u64,
}

type Shard<V> = HashMap<u64, Entry<V>>;

/// Callback invoked with each evicted `(id, value)` pair (TTL, LRU, or
/// forced eviction — not explicit [`ShardGuard::remove`]). Runs while the
/// owning shard's lock is held, so it must be quick and must never
/// re-enter the store.
pub type EvictionSink<V> = Box<dyn Fn(u64, V) + Send + Sync>;

/// A sharded map from session id to per-session state with LRU + TTL
/// eviction under a per-shard capacity bound.
pub struct SessionStore<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard_cap: usize,
    ttl: Option<u64>,
    tick: AtomicU64,
    evicted: AtomicU64,
    live: AtomicUsize,
    sink: Option<EvictionSink<V>>,
    pressure: Mutex<PressureWindow>,
}

impl<V> SessionStore<V> {
    /// A store with `n_shards` shards holding at most `max_sessions`
    /// entries in total; entries idle for more than `ttl` store accesses
    /// (when `Some`) are evicted eagerly.
    pub fn new(n_shards: usize, max_sessions: usize, ttl: Option<u64>) -> Self {
        let n_shards = n_shards.max(1);
        let per_shard_cap = max_sessions.div_ceil(n_shards).max(1);
        SessionStore {
            shards: (0..n_shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap,
            ttl,
            tick: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            sink: None,
            pressure: Mutex::new(PressureWindow::default()),
        }
    }

    /// Installs an eviction sink: every evicted `(id, value)` is handed to
    /// `sink` instead of being silently dropped. This is the server's
    /// session-recorder seam — an evicted viewer is a *completed* session
    /// whose observations flow back into training. Call before sharing the
    /// store across threads.
    pub fn set_eviction_sink(&mut self, sink: EvictionSink<V>) {
        self.sink = Some(sink);
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity bound (per-shard cap × shards).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * self.shards.len()
    }

    /// Entries currently live across all shards.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted so far (TTL or LRU; explicit removes not counted).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// A cheap point-in-time load view: occupancy fraction plus the
    /// eviction rate over the last completed telemetry window of store
    /// accesses. The admission controller and `/ops` both read this one
    /// snapshot instead of stitching their own from raw counters.
    pub fn pressure(&self) -> StorePressure {
        let capacity = self.capacity();
        let occupancy = if capacity == 0 {
            0.0
        } else {
            (self.len() as f64 / capacity as f64).clamp(0.0, 1.0)
        };
        let tick = self.tick.load(Ordering::Relaxed);
        let evicted = self.evicted();
        let mut w = self.pressure.lock();
        let elapsed = tick.saturating_sub(w.start_tick);
        if elapsed >= PRESSURE_WINDOW_TICKS {
            w.rate = evicted.saturating_sub(w.start_evicted) as f64 / elapsed as f64;
            w.start_tick = tick;
            w.start_evicted = evicted;
        }
        StorePressure {
            occupancy,
            eviction_rate: w.rate,
        }
    }

    /// Forcibly evicts `id` right now (chaos/ops hook): counted both as a
    /// regular eviction and in `serve.fault.forced_evictions`. Returns
    /// whether the session was present. The next request for the session
    /// takes the same "unknown session" re-register path as a TTL/LRU
    /// eviction, which is exactly what fault tests force mid-session.
    pub fn force_evict(&self, id: u64) -> bool {
        let mut guard = self.lock(id);
        match guard.guard.remove(&id) {
            Some(entry) => {
                guard.report_evicted(id, entry.value);
                cs2p_obs::counter_add("serve.fault.forced_evictions", 1);
                true
            }
            None => false,
        }
    }

    /// Counts live entries matching `pred`, locking each shard in turn
    /// (without touching LRU stamps). Used for swap-time gauges like
    /// "sessions still pinned to an older model version".
    pub fn count_values(&self, pred: impl Fn(&V) -> bool) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().values().filter(|e| pred(&e.value)).count())
            .sum()
    }

    /// Index of the shard owning `id`. Stable for the store's lifetime —
    /// the batch handler uses it to group a frame's entries so each shard
    /// lock is taken once per batch instead of once per entry.
    pub fn shard_of(&self, id: u64) -> usize {
        (fnv1a(id) % self.shards.len() as u64) as usize
    }

    /// Locks the shard owning `id` and returns a guard scoped to that
    /// shard. All reads/writes for `id` go through the guard; the shard
    /// lock-hold time is recorded to `serve.shard.lock_us` on drop.
    pub fn lock(&self, id: u64) -> ShardGuard<'_, V> {
        self.lock_shard(self.shard_of(id))
    }

    /// Locks shard `shard_idx` directly (see [`Self::shard_of`]). One
    /// logical tick is consumed per lock, not per entry, so a batched
    /// access ages the TTL clock once per shard group — an explicitly
    /// amortized reading of "one store access".
    pub fn lock_shard(&self, shard_idx: usize) -> ShardGuard<'_, V> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let guard = self.shards[shard_idx].lock();
        ShardGuard {
            store: self,
            guard,
            now,
            held_since: cs2p_obs::enabled().then(Instant::now),
        }
    }

    /// Hands every live entry to `visit` as `(id, last_touch, &value)`
    /// for a durability snapshot and returns the logical tick read before
    /// the first shard. Locks each shard in turn **without** consuming a
    /// tick or touching LRU stamps — snapshotting must not perturb the
    /// eviction schedule it records. Entries mutated while later shards
    /// are visited may appear in either state; WAL replay is idempotent.
    pub fn visit(&self, mut visit: impl FnMut(u64, u64, &V)) -> u64 {
        let tick = self.tick.load(Ordering::SeqCst);
        for shard in &self.shards {
            for (id, entry) in shard.lock().iter() {
                visit(*id, entry.last_touch, &entry.value);
            }
        }
        tick
    }

    /// Rebuilds a store from recovered parts: the persisted tick counter
    /// and `(id, last_touch, value)` triples. Entries are placed directly
    /// in their shards with their original LRU stamps, so TTL/LRU
    /// behaviour continues exactly where the snapshot left off. A repeated
    /// id keeps its last triple. If the capacity bound shrank across the
    /// restart, each shard keeps its `per_shard_cap` entries with the
    /// greatest `(last_touch, id)` and drops the rest (counted as
    /// evictions; no sink is installed yet at restore time).
    pub fn restore(
        n_shards: usize,
        max_sessions: usize,
        ttl: Option<u64>,
        tick: u64,
        entries: Vec<(u64, u64, V)>,
    ) -> Self {
        Self::restore_with(n_shards, max_sessions, ttl, tick, entries, Some)
    }

    /// [`restore`](Self::restore), building each value from its recovered
    /// form on the way into its shard, so no converted copy of `entries`
    /// is ever held. An entry `convert` maps to `None` is skipped; it is
    /// not an eviction.
    pub fn restore_with<T>(
        n_shards: usize,
        max_sessions: usize,
        ttl: Option<u64>,
        tick: u64,
        entries: Vec<(u64, u64, T)>,
        mut convert: impl FnMut(T) -> Option<V>,
    ) -> Self {
        let mut store = Self::new(n_shards, max_sessions, ttl);
        *store.tick.get_mut() = tick;
        // Each shard is sized once, before its first insert.
        let mut per_shard = vec![0usize; store.shards.len()];
        for &(id, _, _) in &entries {
            per_shard[store.shard_of(id)] += 1;
        }
        for (shard, &n) in store.shards.iter_mut().zip(&per_shard) {
            shard.get_mut().reserve(n);
        }
        for (id, last_touch, recovered) in entries {
            if let Some(value) = convert(recovered) {
                let idx = store.shard_of(id);
                store.shards[idx]
                    .get_mut()
                    .insert(id, Entry { value, last_touch });
            }
        }
        let cap = store.per_shard_cap;
        let mut live = 0;
        for shard in &mut store.shards {
            let shard = shard.get_mut();
            if shard.len() > cap {
                let surplus = shard.len() - cap;
                let mut stamps: Vec<(u64, u64)> =
                    shard.iter().map(|(&id, e)| (e.last_touch, id)).collect();
                stamps.select_nth_unstable(surplus);
                for &(_, id) in &stamps[..surplus] {
                    shard.remove(&id);
                }
                *store.evicted.get_mut() += surplus as u64;
            }
            live += shard.len();
        }
        *store.live.get_mut() = live;
        store
    }
}

/// Exclusive access to one shard of a [`SessionStore`].
pub struct ShardGuard<'a, V> {
    store: &'a SessionStore<V>,
    guard: std::sync::MutexGuard<'a, Shard<V>>,
    now: u64,
    held_since: Option<Instant>,
}

impl<V> ShardGuard<'_, V> {
    /// The logical tick this guard was taken at — the `last_touch` stamp
    /// every mutation through this guard gets. WAL records carry it so
    /// replay restores LRU/TTL state exactly.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn expired(&self, entry: &Entry<V>) -> bool {
        match self.store.ttl {
            Some(ttl) => self.now.saturating_sub(entry.last_touch) > ttl,
            None => false,
        }
    }

    /// Books one eviction (counters + gauge) and hands the value to the
    /// eviction sink, if any. Runs under the shard lock.
    fn report_evicted(&self, id: u64, value: V) {
        self.store.evicted.fetch_add(1, Ordering::Relaxed);
        let live = self.store.live.fetch_sub(1, Ordering::Relaxed) - 1;
        cs2p_obs::counter_add("serve.evicted", 1);
        // Keep the occupancy gauge honest on the way *down* too — it
        // used to be refreshed only by the predict path, so a burst of
        // evictions left it stale until the next successful predict.
        if cs2p_obs::enabled() {
            cs2p_obs::gauge_set("serve.sessions", live as f64);
        }
        if let Some(sink) = &self.store.sink {
            sink(id, value);
        }
    }

    /// Mutable access to the session, touching its LRU stamp. An entry
    /// past its TTL is evicted here and reported as absent, so idle
    /// sessions get the same "unknown session" answer as never-seen ones.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        if self.guard.get(&id).is_some_and(|e| self.expired(e)) {
            if let Some(entry) = self.guard.remove(&id) {
                self.report_evicted(id, entry.value);
            }
            return None;
        }
        let now = self.now;
        self.guard.get_mut(&id).map(|entry| {
            entry.last_touch = now;
            &mut entry.value
        })
    }

    /// Inserts (or replaces) the session, enforcing TTL then the shard
    /// capacity bound: expired entries go first, and if the shard is
    /// still full the least recently touched entry is evicted.
    pub fn insert(&mut self, id: u64, value: V) {
        self.insert_mut(id, value);
    }

    /// [`insert`](Self::insert), handing back the value just stored.
    pub(crate) fn insert_mut(&mut self, id: u64, value: V) -> &mut V {
        if let Some(ttl) = self.store.ttl {
            let now = self.now;
            let expired: Vec<u64> = self
                .guard
                .iter()
                .filter(|(key, entry)| **key != id && now.saturating_sub(entry.last_touch) > ttl)
                .map(|(key, _)| *key)
                .collect();
            for key in expired {
                if let Some(entry) = self.guard.remove(&key) {
                    self.report_evicted(key, entry.value);
                }
            }
        }
        let replacing = self.guard.contains_key(&id);
        if !replacing && self.guard.len() >= self.store.per_shard_cap {
            if let Some(victim) = self
                .guard
                .iter()
                .min_by_key(|(key, entry)| (entry.last_touch, **key))
                .map(|(key, _)| *key)
            {
                if let Some(entry) = self.guard.remove(&victim) {
                    self.report_evicted(victim, entry.value);
                }
            }
        }
        let entry = Entry {
            value,
            last_touch: self.now,
        };
        match self.guard.entry(id) {
            hash_map::Entry::Occupied(mut slot) => {
                slot.insert(entry);
                &mut slot.into_mut().value
            }
            hash_map::Entry::Vacant(slot) => {
                self.store.live.fetch_add(1, Ordering::Relaxed);
                &mut slot.insert(entry).value
            }
        }
    }

    /// Removes the session without counting it as an eviction.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let out = self.guard.remove(&id).map(|e| e.value);
        if out.is_some() {
            let live = self.store.live.fetch_sub(1, Ordering::Relaxed) - 1;
            if cs2p_obs::enabled() {
                cs2p_obs::gauge_set("serve.sessions", live as f64);
            }
        }
        out
    }
}

impl<V> Drop for ShardGuard<'_, V> {
    fn drop(&mut self) {
        if let Some(start) = self.held_since {
            cs2p_obs::observe("serve.shard.lock_us", start.elapsed().as_micros() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_roundtrips() {
        let store = SessionStore::new(4, 100, None);
        store.lock(7).insert(7, "state");
        assert_eq!(store.lock(7).get_mut(7).copied(), Some("state"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.evicted(), 0);
    }

    #[test]
    fn capacity_bound_evicts_lru_not_newest() {
        // One shard so every id contends for the same capacity.
        let store = SessionStore::new(1, 2, None);
        store.lock(1).insert(1, 1);
        store.lock(2).insert(2, 2);
        store.lock(1).get_mut(1); // touch 1 → 2 becomes LRU
        store.lock(3).insert(3, 3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        assert!(store.lock(2).get_mut(2).is_none(), "LRU entry must go");
        assert!(store.lock(1).get_mut(1).is_some());
        assert!(store.lock(3).get_mut(3).is_some());
    }

    #[test]
    fn restore_into_a_smaller_capacity_keeps_the_most_recently_touched() {
        // The stale newcomer goes, not the fresher entry already placed.
        let store = SessionStore::restore(1, 1, None, 9, vec![(1, 5, "fresh"), (2, 1, "stale")]);
        assert_eq!((store.len(), store.evicted()), (1, 1));
        assert_eq!(store.lock(1).get_mut(1).copied(), Some("fresh"));
        assert!(store.lock(2).get_mut(2).is_none());
        // Equal stamps fall back to the id.
        let store =
            SessionStore::restore(1, 2, None, 9, vec![(7, 3, 'a'), (4, 3, 'b'), (9, 3, 'c')]);
        assert_eq!((store.len(), store.evicted()), (2, 1));
        assert!(store.lock(4).get_mut(4).is_none(), "(3, 4) is the least");
        // A repeated id keeps its last triple and is not an eviction.
        let store =
            SessionStore::restore(1, 2, None, 9, vec![(7, 3, 'a'), (4, 3, 'b'), (7, 5, 'd')]);
        assert_eq!((store.len(), store.evicted()), (2, 0));
        assert_eq!(store.lock(7).get_mut(7).copied(), Some('d'));
    }

    #[test]
    fn live_count_never_exceeds_capacity_under_churn() {
        let store = SessionStore::new(4, 8, None);
        for id in 0..500u64 {
            store.lock(id).insert(id, id);
            assert!(store.len() <= store.capacity(), "len {} > cap", store.len());
        }
        assert_eq!(store.evicted() as usize + store.len(), 500);
    }

    #[test]
    fn ttl_expires_idle_sessions_on_read() {
        let store = SessionStore::new(1, 100, Some(3));
        store.lock(1).insert(1, "old");
        // Burn ticks well past the TTL without touching session 1.
        for _ in 0..10 {
            store.lock(2).insert(2, "busy");
        }
        assert!(store.lock(1).get_mut(1).is_none(), "idle session expires");
        assert!(store.evicted() >= 1);
        assert!(store.lock(2).get_mut(2).is_some(), "active session stays");
    }

    #[test]
    fn remove_is_not_counted_as_eviction() {
        let store = SessionStore::new(2, 10, None);
        store.lock(5).insert(5, ());
        assert_eq!(store.lock(5).remove(5), Some(()));
        assert_eq!(store.lock(5).remove(5), None);
        assert_eq!(store.evicted(), 0);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn eviction_sink_sees_every_evicted_value_but_not_removes() {
        use std::sync::Arc;
        let drained = Arc::new(Mutex::new(Vec::new()));
        let mut store = SessionStore::new(1, 3, Some(10));
        let sink_drained = Arc::clone(&drained);
        store.set_eviction_sink(Box::new(move |id, value: u64| {
            sink_drained.lock().push((id, value));
        }));
        store.lock(1).insert(1, 10);
        store.lock(2).insert(2, 20);
        store.lock(3).insert(3, 30);
        // Capacity bound: inserting a fourth evicts the LRU entry (id 1).
        store.lock(4).insert(4, 40);
        // Forced eviction.
        assert!(store.force_evict(2));
        // TTL: burn ticks touching only id 4, then read the idle id 3.
        for _ in 0..12 {
            assert!(store.lock(4).get_mut(4).is_some());
        }
        assert!(store.lock(3).get_mut(3).is_none(), "3 expired");
        // Explicit remove must NOT reach the sink.
        store.lock(4).remove(4);
        let seen = drained.lock().clone();
        assert!(seen.contains(&(1, 10)), "LRU victim drained: {seen:?}");
        assert!(seen.contains(&(2, 20)), "forced victim drained: {seen:?}");
        assert!(seen.contains(&(3, 30)), "TTL victim drained: {seen:?}");
        assert!(
            !seen.iter().any(|&(id, _)| id == 4),
            "remove leaked: {seen:?}"
        );
        assert_eq!(store.evicted() as usize, seen.len());
    }

    #[test]
    fn pressure_reports_occupancy_and_windowed_eviction_rate() {
        let store = SessionStore::new(1, 4, None);
        assert_eq!(store.pressure().occupancy, 0.0);
        store.lock(1).insert(1, ());
        store.lock(2).insert(2, ());
        let p = store.pressure();
        assert!((p.occupancy - 0.5).abs() < 1e-12, "{p:?}");
        assert_eq!(p.eviction_rate, 0.0, "no completed window yet");
        // Churn well past capacity for more than a full telemetry
        // window: nearly every access evicts the LRU entry.
        for id in 0..(3 * PRESSURE_WINDOW_TICKS) {
            store.lock(id + 10).insert(id + 10, ());
        }
        let p = store.pressure();
        assert!((p.occupancy - 1.0).abs() < 1e-12, "{p:?}");
        assert!(p.eviction_rate > 0.5, "sustained churn must show: {p:?}");
        // A quiet store keeps reporting the last completed window until
        // the next one finishes (no mid-window flapping).
        let again = store.pressure();
        assert_eq!(again.eviction_rate, p.eviction_rate);
    }

    #[test]
    fn count_values_scans_all_shards() {
        let store = SessionStore::new(4, 100, None);
        for id in 0..10u64 {
            store.lock(id).insert(id, id % 3);
        }
        assert_eq!(store.count_values(|v| *v == 0), 4); // 0,3,6,9
        assert_eq!(store.count_values(|_| true), 10);
    }

    #[test]
    fn lock_shard_reaches_the_same_entries_as_lock() {
        let store = SessionStore::new(4, 100, None);
        for id in 0..32u64 {
            store.lock(id).insert(id, id * 10);
        }
        for id in 0..32u64 {
            let idx = store.shard_of(id);
            assert!(idx < store.n_shards());
            assert_eq!(store.lock_shard(idx).get_mut(id).copied(), Some(id * 10));
        }
    }

    #[test]
    fn distinct_shards_lock_independently() {
        // With enough shards, two ids land on different shards; holding
        // one guard must not block the other (checked via try-style
        // access from another thread through the public API).
        let store = std::sync::Arc::new(SessionStore::<u64>::new(16, 1000, None));
        let (a, b) = {
            // Find two ids on different shards.
            let mut pair = (0u64, 1u64);
            for candidate in 1..64u64 {
                if fnv1a(candidate) % 16 != fnv1a(0) % 16 {
                    pair = (0, candidate);
                    break;
                }
            }
            pair
        };
        let mut guard_a = store.lock(a);
        guard_a.insert(a, 0);
        let store2 = std::sync::Arc::clone(&store);
        let other = std::thread::spawn(move || {
            store2.lock(b).insert(b, 1);
        });
        other.join().expect("second shard must not deadlock");
        drop(guard_a);
        assert_eq!(store.len(), 2);
    }
}
