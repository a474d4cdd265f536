//! Model-based property test for the sharded session store: random
//! register/get/remove/force-evict programs run against both the real
//! `SessionStore` and a naive reference model (plain maps plus the
//! documented tick/TTL/LRU rules, no sharding machinery, no atomics).
//! After every operation the two must agree on the returned value, the
//! live count, and the eviction counter; with a single shard the
//! agreement is exact for LRU victim order and TTL expiry as well, since
//! any divergence in either shows up as a presence mismatch on a later
//! probe.
//!
//! The same reference model also checks the durability layer's
//! snapshot/restore: persisting a store mid-program and continuing on
//! the restored copy must be indistinguishable from never restarting —
//! same values, same tick clock, same TTL/LRU schedule.

use cs2p_ml::hmm::FilterState;
use cs2p_net::persist::{recover, PersistedSession, SessionPersist};
use cs2p_net::store::SessionStore;
use cs2p_net::PersistConfig;
use cs2p_obs::ManualClock;
use cs2p_testkit::crash::TempDir;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Same hash as the store (FNV-1a over the id's little-endian bytes) so
/// the reference model agrees on shard placement.
fn fnv1a(id: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
    ForceEvict(u64),
}

/// The documented store semantics, written the obvious slow way.
struct RefStore {
    shards: Vec<HashMap<u64, (u64, u64)>>, // id -> (value, last_touch)
    per_shard_cap: usize,
    ttl: Option<u64>,
    tick: u64,
    evicted: u64,
}

impl RefStore {
    fn new(n_shards: usize, max_sessions: usize, ttl: Option<u64>) -> Self {
        let n_shards = n_shards.max(1);
        RefStore {
            shards: vec![HashMap::new(); n_shards],
            per_shard_cap: max_sessions.div_ceil(n_shards).max(1),
            ttl,
            tick: 0,
            evicted: 0,
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Every operation locks one shard, which consumes one logical tick.
    fn next_tick(&mut self) -> u64 {
        let now = self.tick;
        self.tick += 1;
        now
    }

    fn shard_of(&self, id: u64) -> usize {
        (fnv1a(id) % self.shards.len() as u64) as usize
    }

    fn expired(ttl: Option<u64>, now: u64, last_touch: u64) -> bool {
        ttl.is_some_and(|t| now.saturating_sub(last_touch) > t)
    }

    fn get(&mut self, id: u64) -> Option<u64> {
        let now = self.next_tick();
        let ttl = self.ttl;
        let shard = self.shard_of(id);
        let shard = &mut self.shards[shard];
        if shard
            .get(&id)
            .is_some_and(|&(_, t)| Self::expired(ttl, now, t))
        {
            shard.remove(&id);
            self.evicted += 1;
            return None;
        }
        shard.get_mut(&id).map(|entry| {
            entry.1 = now;
            entry.0
        })
    }

    fn insert(&mut self, id: u64, value: u64) {
        let now = self.next_tick();
        let ttl = self.ttl;
        let cap = self.per_shard_cap;
        let shard = self.shard_of(id);
        let shard = &mut self.shards[shard];
        if ttl.is_some() {
            let before = shard.len();
            shard.retain(|key, &mut (_, t)| *key == id || !Self::expired(ttl, now, t));
            self.evicted += (before - shard.len()) as u64;
        }
        if !shard.contains_key(&id) && shard.len() >= cap {
            let victim = shard
                .iter()
                .min_by_key(|(key, &(_, t))| (t, **key))
                .map(|(key, _)| *key)
                .expect("full shard has a victim");
            shard.remove(&victim);
            self.evicted += 1;
        }
        shard.insert(id, (value, now));
    }

    /// A restart into `max_sessions`: each shard keeps its entries with
    /// the greatest `(last_touch, id)` up to the new cap and counts the
    /// rest as evicted.
    fn restart(&mut self, max_sessions: usize) {
        self.per_shard_cap = max_sessions.div_ceil(self.shards.len()).max(1);
        for shard in &mut self.shards {
            while shard.len() > self.per_shard_cap {
                let victim = shard
                    .iter()
                    .min_by_key(|(key, &(_, t))| (t, **key))
                    .map(|(key, _)| *key)
                    .expect("over-full shard has a victim");
                shard.remove(&victim);
                self.evicted += 1;
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<u64> {
        let _ = self.next_tick();
        let shard = self.shard_of(id);
        self.shards[shard].remove(&id).map(|(v, _)| v)
    }

    fn force_evict(&mut self, id: u64) -> bool {
        let _ = self.next_tick();
        let shard = self.shard_of(id);
        let present = self.shards[shard].remove(&id).is_some();
        if present {
            self.evicted += 1;
        }
        present
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0u64..12, any::<u64>()), 1..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, id, value)| match kind {
                0 => Op::Insert(id, value),
                1 => Op::Get(id),
                2 => Op::Remove(id),
                _ => Op::ForceEvict(id),
            })
            .collect()
    })
}

fn run_program(n_shards: usize, max_sessions: usize, ttl: Option<u64>, ops: &[Op]) {
    let store: SessionStore<u64> = SessionStore::new(n_shards, max_sessions, ttl);
    let mut model = RefStore::new(n_shards, max_sessions, ttl);
    run_ops(&store, &mut model, ops, 0);

    // Final sweep: presence (and surviving value) of every id must agree.
    // The probes consume ticks and may TTL-evict on both sides, so this
    // also exercises expiry one more time.
    for id in 0..12u64 {
        let real = store.lock(id).get_mut(id).copied();
        let expected = model.get(id);
        assert_eq!(real, expected, "final probe of {id}");
    }
    assert_eq!(store.evicted(), model.evicted, "final eviction counter");
}

/// Runs `ops` on both sides, asserting agreement after every step.
/// `evicted_offset` is the model's eviction count at the point the store
/// was (re)created — a restored store restarts its counter at zero while
/// the reference model's keeps running across the restart.
fn run_ops(store: &SessionStore<u64>, model: &mut RefStore, ops: &[Op], evicted_offset: u64) {
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(id, value) => {
                store.lock(id).insert(id, value);
                model.insert(id, value);
            }
            Op::Get(id) => {
                let real = store.lock(id).get_mut(id).copied();
                let expected = model.get(id);
                assert_eq!(real, expected, "step {step}: get({id})");
            }
            Op::Remove(id) => {
                let real = store.lock(id).remove(id);
                let expected = model.remove(id);
                assert_eq!(real, expected, "step {step}: remove({id})");
            }
            Op::ForceEvict(id) => {
                let real = store.force_evict(id);
                let expected = model.force_evict(id);
                assert_eq!(real, expected, "step {step}: force_evict({id})");
            }
        }
        assert_eq!(store.len(), model.len(), "step {step}: live count");
        assert_eq!(
            store.evicted() + evicted_offset,
            model.evicted,
            "step {step}: eviction counter"
        );
        assert!(
            store.len() <= store.capacity(),
            "step {step}: live {} over capacity {}",
            store.len(),
            store.capacity()
        );
    }
}

proptest! {
    /// One shard: the reference model is exact, including LRU victim
    /// order, TTL expiry, the capacity bound, and the eviction counter.
    #[test]
    fn single_shard_store_matches_naive_model(
        ops in arb_ops(),
        max_sessions in 1usize..6,
        ttl_raw in 0u64..8,
    ) {
        let ttl = (ttl_raw > 0).then_some(ttl_raw + 1);
        run_program(1, max_sessions, ttl, &ops);
    }

    /// Multiple shards: the model reuses the store's own hash for
    /// placement, so agreement stays exact across shard boundaries.
    #[test]
    fn sharded_store_matches_naive_model(
        ops in arb_ops(),
        n_shards in 1usize..5,
        max_sessions in 1usize..10,
        ttl_raw in 0u64..8,
    ) {
        let ttl = (ttl_raw > 0).then_some(ttl_raw + 1);
        run_program(n_shards, max_sessions, ttl, &ops);
    }

    /// Snapshot/restore round trip through the on-disk format, by the
    /// path the server runs: half the program, persist the store
    /// (`SessionPersist::compact_visiting` over `SessionStore::visit` →
    /// `recover` → `restore`, the reference value riding in a
    /// `PersistedSession`'s `version`), then the other half on the
    /// restored copy. The
    /// reference model never restarts — if the restored store disagrees
    /// with it on any value, tick, TTL expiry, or LRU victim,
    /// persistence lost or mangled state. Half the cases restart into a
    /// smaller `max_sessions`, where the model keeps each shard's most
    /// recently touched entries.
    #[test]
    fn snapshot_restore_is_invisible_to_the_model(
        ops_before in arb_ops(),
        ops_after in arb_ops(),
        n_shards in 1usize..5,
        max_sessions in 1usize..10,
        shrink in (0u8..2, 1usize..8).prop_map(|(on, by)| if on == 0 { 0 } else { by }),
        ttl_raw in 0u64..8,
    ) {
        let ttl = (ttl_raw > 0).then_some(ttl_raw + 1);
        let store: SessionStore<u64> = SessionStore::new(n_shards, max_sessions, ttl);
        let mut model = RefStore::new(n_shards, max_sessions, ttl);
        run_ops(&store, &mut model, &ops_before, 0);

        let mut entries = Vec::new();
        let tick = store.visit(|id, last_touch, &value| entries.push((id, last_touch, value)));
        entries.sort_unstable();
        prop_assert_eq!(tick, model.tick, "snapshot tick");
        let dir = TempDir::new("store-rt");
        let persist =
            SessionPersist::create(dir.path(), Arc::new(ManualClock::new()), &PersistConfig::default())
                .expect("open persistence dir");
        let carried = |value| PersistedSession {
            version: value,
            model: None,
            cluster_hit: false,
            filter: FilterState { posterior: vec![], epoch: 0 },
            features: vec![],
            observed: vec![],
            pending: None,
        };
        persist
            .compact_visiting(|snapshot| {
                store.visit(|id, last_touch, &value| snapshot.push(id, last_touch, &carried(value)))
            })
            .expect("write snapshot");
        let recovered = recover(dir.path(), 0).expect("read snapshot back");
        prop_assert_eq!(recovered.tick, tick);
        let read_back: Vec<(u64, u64, u64)> = recovered
            .sessions
            .into_iter()
            .map(|(id, last_touch, session)| (id, last_touch, session.version))
            .collect();
        prop_assert_eq!(&read_back, &entries);

        let evicted_at_restart = model.evicted;
        let restart_max = max_sessions.saturating_sub(shrink).max(1);
        model.restart(restart_max);
        let restored: SessionStore<u64> =
            SessionStore::restore(n_shards, restart_max, ttl, recovered.tick, read_back);
        prop_assert_eq!(
            restored.evicted() + evicted_at_restart,
            model.evicted,
            "evictions at restore"
        );
        prop_assert_eq!(restored.len(), model.len(), "live count after restore");
        run_ops(&restored, &mut model, &ops_after, evicted_at_restart);

        for id in 0..12u64 {
            let real = restored.lock(id).get_mut(id).copied();
            let expected = model.get(id);
            prop_assert_eq!(real, expected, "post-restore probe of {}", id);
        }
    }
}
