//! Traffic generation: everything a workload sends, encoded before timing.
//!
//! A [`Traffic`] is a table of request bodies plus, per connection, the
//! fixed sequence of operations of every window. It is a function of the
//! world (hence of `--seed`) and of counts from the specification alone,
//! so parent and change are offered the same bytes in the same order and
//! every response has one right answer. Next to each shape sits the
//! [`Expect`] that knows that answer.

use crate::reference::{answers, encode_frame, encode_single, fold, Replay, FOLD_START};
use crate::spec::{Churn, Spec};
use crate::world::Source;
use bytes::Bytes;
use cs2p_core::PredictionEngine;
use cs2p_net::{BatchPredictRequest, PredictRequest, PredictResponse, SessionLog, SessionStore};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /predict`, one entry, answered 200.
    Predict,
    /// `POST /predict_batch`, [`Traffic::frame_entries`] entries, answered 200.
    Batch,
    /// `POST /log`, no entry, answered 204.
    Log,
}

/// One request of a script: which body to send and which verification
/// unit (a session, or a frame's session group) its response belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub body: u32,
    pub unit: u32,
    pub kind: Kind,
}

/// One connection's operations; window `w` is
/// `ops[window_starts[w]..window_starts[w + 1]]`.
#[derive(Debug, Default)]
pub struct Script {
    pub ops: Vec<Op>,
    pub window_starts: Vec<usize>,
}

impl Script {
    pub fn windows(&self) -> usize {
        self.window_starts.len().saturating_sub(1)
    }

    pub fn window(&self, w: usize) -> &[Op] {
        &self.ops[self.window_starts[w]..self.window_starts[w + 1]]
    }
}

pub struct Traffic {
    pub bodies: Vec<Bytes>,
    /// One script per connection.
    pub scripts: Vec<Script>,
    /// `/predict_batch` frames sent during set-up, in order.
    pub setup: Vec<SetupFrame>,
    /// Verification units (fold slots).
    pub units: usize,
    /// Prediction entries all connections together carry per window.
    pub entries_per_window: usize,
    /// Entries of a [`Kind::Batch`] request.
    pub frame_entries: usize,
    /// Index of the first slot's log among `bodies`, when slots upload logs.
    pub slot_logs: Option<usize>,
}

impl Traffic {
    /// Prediction entries an operation carries.
    pub fn entries(&self, kind: Kind) -> usize {
        match kind {
            Kind::Predict => 1,
            Kind::Batch => self.frame_entries,
            Kind::Log => 0,
        }
    }

    /// Prediction entries of all windows of all connections.
    pub fn window_entries(&self) -> u64 {
        self.scripts
            .iter()
            .flat_map(|s| &s.ops)
            .map(|op| self.entries(op.kind) as u64)
            .sum()
    }

    /// A fold of every byte the traffic sends, in order: two seeds must
    /// differ here, one seed must repeat exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FOLD_START;
        for frame in &self.setup {
            h = fold(h, &frame.body);
        }
        for script in &self.scripts {
            for op in &script.ops {
                h = fold(h, &self.bodies[op.body as usize]);
            }
        }
        h
    }
}

/// A `/predict_batch` frame of the set-up: the next request of each of
/// the sessions `from..from + n` (slots, or pre-fill sessions).
#[derive(Debug, Clone)]
pub struct SetupFrame {
    pub body: Bytes,
    pub from: usize,
    pub n: usize,
}

/// The right answer to each operation of a script, in script order.
pub trait Expect {
    /// The body the server owes `op`, and (when `decoded`) the responses
    /// inside it.
    fn next(&mut self, op: &Op, decoded: bool) -> (Vec<u8>, Vec<PredictResponse>);
}

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

fn predict_request(id: u64, source: &Source, step: usize, horizon: usize) -> PredictRequest {
    PredictRequest {
        session_id: id,
        features: (step == 0).then(|| source.features.clone()),
        measured_mbps: Replay::measurement(&source.ring, step),
        horizon,
    }
}

fn single_body(req: &PredictRequest) -> Bytes {
    Bytes::from(serde_json::to_vec(req).expect("PredictRequest serialises"))
}

fn frame_body(entries: Vec<PredictRequest>) -> Bytes {
    Bytes::from(BatchPredictRequest { entries }.to_json_bytes())
}

fn log_body(id: u64) -> Bytes {
    let log = SessionLog {
        session_id: id,
        strategy: "CS2P+MPC".into(),
        qoe: 1.0,
        avg_bitrate_kbps: 1500.0,
        good_ratio: 1.0,
        rebuffer_seconds: 0.0,
        startup_delay_seconds: 0.5,
        throughput_pairs: Vec::new(),
        bitrates_kbps: Vec::new(),
    };
    Bytes::from(serde_json::to_vec(&log).expect("SessionLog serialises"))
}

// ---------------------------------------------------------------------------
// Long-lived session slots: predict_single, predict_batch64_wal, the
// train_refresh tail and the seeded recovery directory
// ---------------------------------------------------------------------------

/// A long-lived session: its id and the held-out session it replays.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub id: u64,
    pub source: usize,
}

pub fn slots(n: usize, n_sources: usize) -> Vec<Slot> {
    (0..n)
        .map(|i| Slot {
            id: 1 + i as u64,
            source: i % n_sources,
        })
        .collect()
}

/// Entries per set-up frame, in every workload.
pub const SETUP_FRAME: usize = 64;

/// The frames that ask every slot for its next prediction, given how many
/// responses each slot has had (`steps[i]` for `slots[i]`; 0 registers
/// it) — what set-up sends a fresh server and the recovery phase a
/// restarted one.
pub fn next_step_frames(
    slots: &[Slot],
    sources: &[Source],
    steps: &[usize],
    horizon: usize,
) -> Vec<SetupFrame> {
    slots
        .chunks(SETUP_FRAME)
        .zip(steps.chunks(SETUP_FRAME))
        .enumerate()
        .map(|(i, (group, steps))| SetupFrame {
            body: frame_body(
                group
                    .iter()
                    .zip(steps)
                    .map(|(s, &step)| predict_request(s.id, &sources[s.source], step, horizon))
                    .collect(),
            ),
            from: i * SETUP_FRAME,
            n: group.len(),
        })
        .collect()
}

fn registration_frames(slots: &[Slot], sources: &[Source], horizon: usize) -> Vec<SetupFrame> {
    next_step_frames(slots, sources, &vec![0; slots.len()], horizon)
}

/// One connection, `POST /predict`, the slots visited round-robin.
pub fn single_traffic(
    slots: &[Slot],
    sources: &[Source],
    spec: &Spec,
    window_requests: usize,
    n_windows: usize,
) -> Traffic {
    let ring = spec.ring_epochs;
    let mut bodies = Vec::with_capacity(slots.len() * ring);
    for s in slots {
        for step in 1..=ring {
            bodies.push(single_body(&predict_request(
                s.id,
                &sources[s.source],
                step,
                spec.horizon,
            )));
        }
    }
    let n = slots.len();
    let ops = (0..n_windows * window_requests)
        .map(|k| Op {
            body: ((k % n) * ring + (k / n) % ring) as u32,
            unit: (k % n) as u32,
            kind: Kind::Predict,
        })
        .collect();
    Traffic {
        bodies,
        scripts: vec![Script {
            ops,
            window_starts: (0..=n_windows).map(|w| w * window_requests).collect(),
        }],
        setup: registration_frames(slots, sources, spec.horizon),
        units: n,
        entries_per_window: window_requests,
        frame_entries: 1,
        slot_logs: None,
    }
}

/// `connections` connections, `POST /predict_batch`; group `g` is slots
/// `g * frame_entries ..`, owned by connection `g % connections`, which
/// visits its groups round-robin.
///
/// Sessions are finite, as a viewer's are: a session is its registration
/// and `life_steps - 1` measurements, then every session of the group
/// uploads its log (which removes it) and the group's next frame
/// registers it afresh. Without that the store snapshot, which carries
/// each session's measurement history, grows with every window and no two
/// windows are the same work. Groups are staggered over the phases of a
/// life — set-up ages group `g` by `(g / connections) % life_steps`
/// frames — so every round of every window holds the same mix:
/// `groups / life_steps` groups at each phase.
pub fn batch_traffic(
    slots: &[Slot],
    sources: &[Source],
    spec: &Spec,
    window_rounds: usize,
    n_windows: usize,
) -> Traffic {
    let b = &spec.workloads.predict_batch64_wal;
    let (ring, life, conns) = (spec.ring_epochs, b.life_steps, b.connections);
    let groups: Vec<&[Slot]> = slots.chunks_exact(b.frame_entries).collect();
    let frame = |group: &[Slot], step: usize| {
        frame_body(
            group
                .iter()
                .map(|s| predict_request(s.id, &sources[s.source], step, spec.horizon))
                .collect(),
        )
    };
    // Bodies: update frames by (group, ring position), then registration
    // frames by group, then logs by slot.
    let mut bodies = Vec::with_capacity(groups.len() * (ring + 1) + slots.len());
    for group in &groups {
        for step in 1..=ring {
            bodies.push(frame(group, step));
        }
    }
    let reg_base = bodies.len();
    bodies.extend(groups.iter().map(|group| frame(group, 0)));
    let log_base = bodies.len();
    bodies.extend(slots.iter().map(|s| log_body(s.id)));
    let update = |g: usize, steps: usize| (g * ring + (steps - 1) % ring) as u32;

    // Set-up: register every group, then age it to its phase.
    let setup_frame = |g: usize, body: usize| SetupFrame {
        body: bodies[body].clone(),
        from: g * b.frame_entries,
        n: b.frame_entries,
    };
    let mut setup: Vec<SetupFrame> = (0..groups.len())
        .map(|g| setup_frame(g, reg_base + g))
        .collect();
    let mut steps: Vec<usize> = vec![1; groups.len()];
    for (g, steps) in steps.iter_mut().enumerate() {
        for _ in 0..(g / conns) % life {
            setup.push(setup_frame(g, update(g, *steps) as usize));
            *steps += 1;
        }
    }

    let scripts = (0..conns)
        .map(|c| {
            let owned: Vec<usize> = (c..groups.len()).step_by(conns).collect();
            let mut script = Script {
                ops: Vec::new(),
                window_starts: vec![0],
            };
            for visit in 0..n_windows * window_rounds * owned.len() {
                let g = owned[visit % owned.len()];
                let batch = |body: u32| Op {
                    body,
                    unit: g as u32,
                    kind: Kind::Batch,
                };
                if steps[g] == life {
                    let first = g * b.frame_entries;
                    script
                        .ops
                        .extend((first..first + b.frame_entries).map(|slot| Op {
                            body: (log_base + slot) as u32,
                            unit: g as u32,
                            kind: Kind::Log,
                        }));
                    script.ops.push(batch((reg_base + g) as u32));
                    steps[g] = 1;
                } else {
                    script.ops.push(batch(update(g, steps[g])));
                    steps[g] += 1;
                }
                if (visit + 1) % (window_rounds * owned.len()) == 0 {
                    script.window_starts.push(script.ops.len());
                }
            }
            script
        })
        .collect();
    Traffic {
        bodies,
        scripts,
        setup,
        units: groups.len(),
        entries_per_window: window_rounds * groups.len() * b.frame_entries,
        frame_entries: b.frame_entries,
        slot_logs: Some(log_base),
    }
}

/// The reference for slot traffic: one [`Replay`] per slot. A
/// [`Kind::Predict`] unit is a slot, a [`Kind::Batch`] unit a group; a
/// [`Kind::Log`] ends the life of the slot its body names.
pub struct SlotExpect<'a> {
    pub replays: Vec<Replay<'a>>,
    /// Each slot's replay before its registration.
    fresh: Vec<Replay<'a>>,
    frame_entries: usize,
    slot_logs: Option<usize>,
}

impl<'a> SlotExpect<'a> {
    pub fn new(
        engine: &'a PredictionEngine,
        slots: &[Slot],
        sources: &'a [Source],
        horizon: usize,
        traffic: &Traffic,
    ) -> SlotExpect<'a> {
        let fresh: Vec<Replay<'a>> = slots
            .iter()
            .map(|s| Replay::new(engine, &sources[s.source], horizon))
            .collect();
        SlotExpect {
            replays: fresh.clone(),
            fresh,
            frame_entries: traffic.frame_entries,
            slot_logs: traffic.slot_logs,
        }
    }

    /// The next responses of slots `from..from + n`, as one frame.
    pub fn frame(&mut self, from: usize, n: usize) -> Vec<PredictResponse> {
        answers(&mut self.replays, from, n)
    }
}

impl Expect for SlotExpect<'_> {
    fn next(&mut self, op: &Op, decoded: bool) -> (Vec<u8>, Vec<PredictResponse>) {
        match op.kind {
            Kind::Predict => {
                let resp = self.replays[op.unit as usize].answer();
                (
                    encode_single(&resp),
                    if decoded { vec![resp] } else { vec![] },
                )
            }
            Kind::Batch => {
                let frame = self.frame(op.unit as usize * self.frame_entries, self.frame_entries);
                let kept = if decoded { frame.clone() } else { vec![] };
                (encode_frame(frame), kept)
            }
            Kind::Log => {
                let slot =
                    op.body as usize - self.slot_logs.expect("this traffic uploads slot logs");
                self.replays[slot] = self.fresh[slot].clone();
                (Vec::new(), Vec::new())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// session_churn
// ---------------------------------------------------------------------------

/// Bodies a churn session may send: registration, its predicts, its log.
fn churn_stride(spec: &Churn) -> usize {
    spec.predicts_per_session + 2
}

/// Everything `session_churn` sends, plus what the store must do with it.
pub struct ChurnTraffic {
    pub traffic: Traffic,
    /// The held-out session behind each id of the cycle, by body stride.
    pub cycle_sources: Vec<Source>,
    /// The sessions that fill the store in set-up, in registration order.
    pub prefill: Vec<Slot>,
    /// Evictions the store must report once set-up and every window ran.
    pub expected_evicted: u64,
    /// Sessions the store must hold at that point.
    pub expected_live: usize,
    /// `POST /log` uploads in the windows.
    pub logs: usize,
}

/// A reference model of one store shard: LRU order by last touch, bounded.
#[derive(Default)]
struct ShardModel {
    stamp_of: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
    clock: u64,
    evicted: u64,
}

impl ShardModel {
    fn touch(&mut self, id: u64) {
        let old = self
            .stamp_of
            .insert(id, self.clock)
            .expect("a predict or log finds its session: a live session was never evicted");
        self.by_stamp.remove(&old);
        self.by_stamp.insert(self.clock, id);
        self.clock += 1;
    }

    fn insert(&mut self, id: u64, cap: usize) {
        assert!(
            !self.stamp_of.contains_key(&id),
            "id {id} re-registered while its previous session is still stored: id_cycle too short"
        );
        if self.stamp_of.len() >= cap {
            let (&stamp, &victim) = self
                .by_stamp
                .iter()
                .next()
                .expect("a full shard has a victim");
            self.by_stamp.remove(&stamp);
            self.stamp_of.remove(&victim);
            self.evicted += 1;
        }
        self.stamp_of.insert(id, self.clock);
        self.by_stamp.insert(self.clock, id);
        self.clock += 1;
    }

    fn remove(&mut self, id: u64) {
        let stamp = self.stamp_of.remove(&id).expect("a log finds its session");
        self.by_stamp.remove(&stamp);
    }
}

/// Ids above every cycle id, for the sessions that fill the store in set-up.
const PREFILL_ID_BASE: u64 = 1 << 40;

/// `connections` connections; each session is a registration and
/// `predicts_per_session` predicts, even ids then upload a log (removing
/// the session), odd ids are abandoned and leave through LRU eviction.
///
/// Each connection owns the shards of its parity, so the order of
/// operations inside a shard — and with it every eviction — is fixed by
/// the script, not by how the two connections interleave.
pub fn churn_traffic(
    sources: &[Source],
    spec: &Spec,
    window_sessions: usize,
    n_windows: usize,
) -> ChurnTraffic {
    let churn = &spec.workloads.session_churn;
    let n_shards = spec.serve.n_shards;
    let conns = churn.connections;
    let stride = churn_stride(churn);
    let per_conn_ids = churn.id_cycle / conns;
    let per_conn_sessions = window_sessions / conns;
    // Only `shard_of` is used: the public hash the server routes by.
    let router: SessionStore<()> = SessionStore::new(n_shards, churn.max_sessions, None);
    let cap = churn.max_sessions.div_ceil(n_shards);

    // Deal ids 1, 2, 3, … to the connection owning their shard.
    let mut ids: Vec<Vec<u64>> = vec![Vec::with_capacity(per_conn_ids); conns];
    let mut next_id = 1u64;
    while ids.iter().any(|l| l.len() < per_conn_ids) {
        let owner = router.shard_of(next_id) % conns;
        if ids[owner].len() < per_conn_ids {
            ids[owner].push(next_id);
        }
        next_id += 1;
    }

    // Bodies: per connection, per cycle position, `stride` bodies.
    let mut bodies = Vec::with_capacity(conns * per_conn_ids * stride);
    let mut cycle_sources = Vec::with_capacity(conns * per_conn_ids);
    for list in &ids {
        for &id in list {
            let k = cycle_sources.len();
            let base = &sources[k % sources.len()];
            let source = if k % churn.oov_every == 0 {
                base.out_of_vocabulary((k / churn.oov_every) as u32 % 1024)
            } else {
                base.clone()
            };
            for step in 0..=churn.predicts_per_session {
                bodies.push(single_body(&predict_request(
                    id,
                    &source,
                    step,
                    spec.horizon,
                )));
            }
            bodies.push(if id % 2 == 0 {
                log_body(id)
            } else {
                Bytes::new()
            });
            cycle_sources.push(source);
        }
    }

    // Set-up: abandoned sessions until every shard is at capacity.
    let prefill: Vec<Slot> = (0..churn.prefill_sessions)
        .map(|i| Slot {
            id: PREFILL_ID_BASE + i as u64,
            source: i % sources.len(),
        })
        .collect();
    let mut shards: Vec<ShardModel> = (0..n_shards).map(|_| ShardModel::default()).collect();
    for slot in &prefill {
        shards[router.shard_of(slot.id)].insert(slot.id, cap);
    }
    assert!(
        shards.iter().all(|s| s.stamp_of.len() == cap),
        "prefill_sessions leaves a shard below capacity"
    );

    // Scripts, run through the shard models as they are built.
    let total_sessions = n_windows * per_conn_sessions;
    let mut logs = 0;
    let mut scripts = Vec::with_capacity(conns);
    for (c, list) in ids.iter().enumerate() {
        let mut script = Script {
            ops: Vec::with_capacity(total_sessions * stride),
            window_starts: vec![0],
        };
        for j in 0..total_sessions {
            let pos = j % per_conn_ids;
            let id = list[pos];
            let first_body = ((c * per_conn_ids + pos) * stride) as u32;
            let unit = (c * total_sessions + j) as u32;
            let shard = &mut shards[router.shard_of(id)];
            shard.insert(id, cap);
            for step in 0..=churn.predicts_per_session {
                if step > 0 {
                    shard.touch(id);
                }
                script.ops.push(Op {
                    body: first_body + step as u32,
                    unit,
                    kind: Kind::Predict,
                });
            }
            if id % 2 == 0 {
                shard.remove(id);
                logs += 1;
                script.ops.push(Op {
                    body: first_body + stride as u32 - 1,
                    unit,
                    kind: Kind::Log,
                });
            }
            if (j + 1) % per_conn_sessions == 0 {
                script.window_starts.push(script.ops.len());
            }
        }
        scripts.push(script);
    }

    ChurnTraffic {
        traffic: Traffic {
            bodies,
            scripts,
            setup: registration_frames(&prefill, sources, spec.horizon),
            units: conns * total_sessions,
            entries_per_window: conns * per_conn_sessions * (churn.predicts_per_session + 1),
            frame_entries: 1,
            slot_logs: None,
        },
        cycle_sources,
        prefill,
        expected_evicted: shards.iter().map(|s| s.evicted).sum(),
        expected_live: shards.iter().map(|s| s.stamp_of.len()).sum(),
        logs,
    }
}

/// The encoded and the decoded answer to each request of one session.
type Answers = Vec<(Vec<u8>, PredictResponse)>;

/// The reference for churn traffic. A session's responses depend only on
/// its cycle position, so they are computed once per position.
pub struct ChurnExpect<'a> {
    engine: &'a PredictionEngine,
    cycle_sources: &'a [Source],
    horizon: usize,
    stride: usize,
    memo: Vec<Option<Answers>>,
}

impl<'a> ChurnExpect<'a> {
    pub fn new(engine: &'a PredictionEngine, churn: &'a ChurnTraffic, spec: &Spec) -> Self {
        ChurnExpect {
            engine,
            cycle_sources: &churn.cycle_sources,
            horizon: spec.horizon,
            stride: churn_stride(&spec.workloads.session_churn),
            memo: vec![None; churn.cycle_sources.len()],
        }
    }
}

impl Expect for ChurnExpect<'_> {
    fn next(&mut self, op: &Op, decoded: bool) -> (Vec<u8>, Vec<PredictResponse>) {
        if op.kind == Kind::Log {
            return (Vec::new(), Vec::new());
        }
        let (pos, step) = (
            op.body as usize / self.stride,
            op.body as usize % self.stride,
        );
        let answers = self.memo[pos].get_or_insert_with(|| {
            let mut replay = Replay::new(self.engine, &self.cycle_sources[pos], self.horizon);
            (0..self.stride - 1)
                .map(|_| {
                    let resp = replay.answer();
                    (encode_single(&resp), resp)
                })
                .collect()
        });
        let (body, resp) = &answers[step];
        (
            body.clone(),
            if decoded { vec![resp.clone()] } else { vec![] },
        )
    }
}
