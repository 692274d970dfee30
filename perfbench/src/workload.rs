//! The three workloads: their keys, their op mixes, and the lazy,
//! seeded op streams every phase of a run (warm-up, timed phase, traced
//! replay, correctness gate) regenerates identically.
//!
//! Why each workload exists and how it is sized is in `README.md` next
//! to this crate.

use std::collections::VecDeque;
use std::time::Duration;

use intext_boolfn::{phi9, BoolFn};
use intext_core::{classify, Fragmentation, Region};
use intext_engine::TupleUpdate;
use intext_query::{HQuery, Query};
use intext_serve::Request;
use intext_tid::{Database, Tid, TupleDesc, TupleId, Vocabulary};

use crate::rng::Rng;

/// Worker threads of the server under test, sized for a machine with 2
/// hardware threads.
pub const WORKERS: usize = 2;
/// `shards` of hot-read's batch requests.
const SHARDS: usize = 2;
/// Scenarios per batch request.
const BATCH_SCENARIOS: usize = 16;
/// Chain length of every H-query instance.
const K: u8 = 3;

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    CompileChurn,
    DurableWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotRead,
        Workload::CompileChurn,
        Workload::DurableWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::CompileChurn => "compile-churn",
            Workload::DurableWrite => "durable-write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (each a closed loop on its own thread).
    pub fn connections(self) -> usize {
        match self {
            Workload::CompileChurn => 2,
            Workload::HotRead | Workload::DurableWrite => 1,
        }
    }

    /// Whether the whole process runs on one CPU. durable-write has one
    /// request in flight at a time, so it needs one. Left to the
    /// scheduler, each hand-off between its threads either stayed on
    /// one CPU or woke the other: a second source of fast and slow ops
    /// on top of the host's own (see README.md).
    pub fn pinned(self) -> bool {
        self == Workload::DurableWrite
    }

    /// `shards` of this workload's batch requests. Only hot-read's
    /// batches have both CPUs to themselves. compile-churn's run beside
    /// A's reads, where a second shard put three busy threads on two
    /// CPUs and moved batch p90 between 1.9 and 3.1 ms with the host's
    /// load; durable-write runs on one CPU.
    pub fn shards(self) -> usize {
        match self {
            Workload::HotRead => SHARDS,
            Workload::CompileChurn | Workload::DurableWrite => 1,
        }
    }

    /// What the `focus` latency class is on this workload.
    pub fn focus_name(self) -> &'static str {
        match self {
            Workload::HotRead => "exact",
            Workload::CompileChurn => "compile",
            Workload::DurableWrite => "write",
        }
    }

    /// Timed ops per connection for a run of `seconds`. The count is a
    /// pure function of the arguments — a run never stops on a clock —
    /// and the nominal rates make the timed phase last about `seconds`
    /// on a 2-thread x86-64 box.
    pub fn timed_ops(self, seconds: u64, conn: usize) -> u64 {
        let per_second = match (self, conn) {
            (Workload::HotRead, _) => 1200,
            (Workload::CompileChurn, 0) => 4000,
            (Workload::CompileChurn, _) => 46,
            (Workload::DurableWrite, _) => 1050,
        };
        seconds * per_second
    }

    /// Untimed warm-up ops per connection, drawn from the same stream
    /// ahead of the timed ones.
    pub fn warmup_ops(self, seconds: u64, conn: usize) -> u64 {
        (self.timed_ops(seconds, conn) / 10).max(20)
    }

    /// Mean client think time after each op of `conn`. Only
    /// compile-churn's B is paced, with seeded exponential think times
    /// so it never falls into lock-step with A: it compiles about every
    /// 40 ms while A reads back to back, so under 1% of A's reads wait
    /// behind a compile and about 4% share the CPU with a batch (far
    /// below 10%, see README.md). Every other loop runs back to back,
    /// which keeps the server's threads from parking between requests.
    fn mean_think_us(self, conn: usize) -> u64 {
        match (self, conn) {
            (Workload::CompileChurn, 1) => 18_000,
            _ => 0,
        }
    }
}

/// Latency class of an op. `Focus` is the class a workload exists for:
/// exact requests (hot-read), cold compiles (compile-churn), durable
/// updates (durable-write).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Read,
    Batch,
    Focus,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Read, Class::Batch, Class::Focus];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Batch => "batch",
            Class::Focus => "focus",
        }
    }
}

/// How a key is answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyKind {
    /// Theorem 5.2 d-D circuit.
    Dd,
    /// Proposition 3.7 OBDD.
    Obdd,
    /// Safe parsed UCQ, answered by lifted inference (never cached).
    Lifted,
    /// Unsafe parsed UCQ, grounded to a budgeted OBDD.
    Ground,
}

/// A query on a database shape: the unit the artifact cache keys on.
#[derive(Clone, Debug)]
pub struct Key {
    pub kind: KeyKind,
    pub query: Query,
    pub shape: Database,
}

impl Key {
    fn h(phi: &BoolFn, shape: &Database) -> Key {
        let kind = match classify(phi) {
            Region::DegenerateObdd => KeyKind::Obdd,
            Region::ZeroEulerDD => KeyKind::Dd,
            region => panic!("benchmark φ must be cacheable, got {region:?}"),
        };
        Key {
            kind,
            query: Query::from(HQuery::new(phi.clone())),
            shape: shape.clone(),
        }
    }

    fn parsed(kind: KeyKind, text: &str, shape: &Database) -> Key {
        let voc = Vocabulary::h(shape.k());
        Key {
            kind,
            query: Query::parse(text, &voc).expect("benchmark query texts parse"),
            shape: shape.clone(),
        }
    }

    /// Whether the engine caches this key's artifact.
    pub fn cached(&self) -> bool {
        self.kind != KeyKind::Lifted
    }

    /// The H-query, for keys that have one.
    pub fn hquery(&self) -> Option<&HQuery> {
        self.query.as_h()
    }

    /// A fresh probability scenario on this key's shape.
    pub fn scenario(&self, rng: &mut Rng) -> Tid {
        scenario(&self.shape, rng)
    }
}

/// Fresh probabilities on a fixed shape.
pub fn scenario(shape: &Database, rng: &mut Rng) -> Tid {
    let probs = (0..shape.len()).map(|_| rng.probability()).collect();
    Tid::new(shape.clone(), probs).expect("drawn probabilities are proper fractions")
}

/// Every tuple of the `(k, domain)` vocabulary, in canonical order.
fn universe(k: u8, domain: u32) -> Vec<TupleDesc> {
    let mut all: Vec<TupleDesc> = (0..domain).map(TupleDesc::R).collect();
    for i in 1..=k {
        for a in 0..domain {
            for b in 0..domain {
                all.push(TupleDesc::S(i, a, b));
            }
        }
    }
    all.extend((0..domain).map(TupleDesc::T));
    all
}

/// A random sub-instance holding exactly `permille / 1000` of the
/// vocabulary's tuples (in canonical order): a fixed size, so the
/// per-seed draw changes which tuples exist but not how many.
fn shape(k: u8, domain: u32, permille: u64, rng: &mut Rng) -> Database {
    let all = universe(k, domain);
    let keep = (all.len() as u64 * permille / 1000) as usize;
    let mut chosen: Vec<usize> = (0..all.len()).collect();
    rng.shuffle(&mut chosen);
    chosen.truncate(keep);
    chosen.sort_unstable();
    let mut db = Database::new(k, domain);
    for i in chosen {
        db.insert(all[i]).expect("universe tuples are distinct");
    }
    db
}

/// The complete instance minus `missing` random `S` tuples: next to the
/// grounding wall, yet one distinct cache key per draw.
fn near_complete(k: u8, domain: u32, missing: usize, rng: &mut Rng) -> Database {
    let mut all = universe(k, domain);
    for _ in 0..missing {
        let s_tuples: Vec<usize> = (0..all.len())
            .filter(|&i| matches!(all[i], TupleDesc::S(..)))
            .collect();
        all.remove(s_tuples[rng.index(s_tuples.len())]);
    }
    let mut db = Database::new(k, domain);
    for t in all {
        db.insert(t).expect("universe tuples are distinct");
    }
    db
}

/// The first `n` functions on `K + 1` variables that `keep` accepts, in
/// a fixed pseudo-random order that does not depend on the run seed: the
/// query set is part of the workload, the seed draws shapes and
/// probabilities. φ9 leads the d-D lists when `keep` accepts it.
fn functions(n: usize, salt: u64, keep: impl Fn(&BoolFn) -> bool) -> Vec<BoolFn> {
    let mut rng = Rng::new(0x5EED_F0F1, salt);
    let tables = 1u64 << (1u32 << (K + 1));
    let mut out: Vec<BoolFn> = Vec::with_capacity(n);
    if keep(&phi9()) {
        out.push(phi9());
    }
    while out.len() < n {
        let phi = BoolFn::from_table_u64(K + 1, rng.below(tables));
        if keep(&phi) && !out.contains(&phi) {
            out.push(phi);
        }
    }
    out.truncate(n);
    out
}

fn in_region(region: Region) -> impl Fn(&BoolFn) -> bool {
    move |phi| classify(phi) == region
}

/// Safe UCQs that are not H-shaped, so the engine answers them by lifted
/// inference (checked when the fixture is built).
const LIFTED: [&str; 3] = ["R(x), S2(x,y)", "S1(x,y), T(y)", "R(x), S3(x,y)"];
/// The canonical unsafe join; grounding is its only exact route.
const UNSAFE: &str = "R(x), S1(x,y), T(y)";

/// Every key a run uses, drawn once from the seed.
pub struct KeySet {
    pub workload: Workload,
    /// hot-read: single-scenario f64 reads. compile-churn: connection
    /// A's hot keys. durable-write: unused (reads follow the instance).
    pub reads: Vec<Key>,
    /// Keys batches run on.
    pub batches: Vec<Key>,
    /// hot-read: exact keys (domain 4). compile-churn: the cold keys
    /// connection B cycles through.
    pub focus: Vec<Key>,
    /// durable-write: the H-queries cached on the live instance.
    pub durable: Vec<HQuery>,
    /// durable-write: the initial live instance.
    pub instance: Option<Tid>,
}

/// Durable-write instance and cached-set sizes.
const DURABLE_DOMAIN: u32 = 6;
/// Half the domain-6 tuples: patch cost scales with the instance, the
/// fsync cost does not.
const DURABLE_PERMILLE: u64 = 500;
const DURABLE_DD: usize = 1;
const DURABLE_OBDD: usize = 8;
/// Writes logged into the WAL tail the set-up replays.
const DURABLE_TAIL_WRITES: u64 = 32;
/// A checkpoint every this many writes.
const CHECKPOINT_EVERY: u64 = 64;
/// Socket reads of patched artifacts after each write. The first wakes
/// the server's threads, parked through the write's fsyncs: it costs
/// about 1.6x the others, and how much more depends on how fast the
/// host wakes an idle vCPU. It is its own cost cluster, so it counts in
/// `ops_per_s` and the gate but not in the read latencies.
const READS_PER_WRITE: usize = 3;
/// A batch after every this many writes.
const BATCH_EVERY_WRITES: u64 = 2;

impl KeySet {
    pub fn new(workload: Workload, seed: u64) -> KeySet {
        let mut rng = Rng::new(seed, 1);
        let mut set = KeySet {
            workload,
            reads: Vec::new(),
            batches: Vec::new(),
            focus: Vec::new(),
            durable: Vec::new(),
            instance: None,
        };
        match workload {
            Workload::HotRead => {
                let dd = functions(4, 1, in_region(Region::ZeroEulerDD));
                let obdd = functions(4, 2, in_region(Region::DegenerateObdd));
                for _ in 0..6 {
                    let s = shape(K, 8, 800, &mut rng);
                    for phi in dd.iter().chain(&obdd) {
                        set.reads.push(Key::h(phi, &s));
                    }
                    for text in LIFTED {
                        set.reads.push(Key::parsed(KeyKind::Lifted, text, &s));
                    }
                }
                set.batches = set.reads.iter().filter(|k| k.cached()).cloned().collect();
                for _ in 0..6 {
                    let s = shape(K, 4, 800, &mut rng);
                    for phi in &dd[..2] {
                        set.focus.push(Key::h(phi, &s));
                    }
                }
            }
            Workload::CompileChurn => {
                let dd = functions(8, 3, in_region(Region::ZeroEulerDD));
                let obdd = functions(5, 4, in_region(Region::DegenerateObdd));
                // Hot keys: two d-D φ and one OBDD φ spread over four
                // shapes, so no single shape's circuit sets the read cost.
                for i in 0..4 {
                    let s = shape(K, 6, 800, &mut rng);
                    set.reads.push(Key::h(&dd[i % 2], &s));
                    set.reads.push(Key::h(&obdd[0], &s));
                }
                set.batches = set.reads.clone();
                // Cold keys: 60% d-D, 20% OBDD, 20% grounded unsafe UCQs.
                for _ in 0..4 {
                    let s = shape(K, 6, 800, &mut rng);
                    for phi in &dd[2..] {
                        set.focus.push(Key::h(phi, &s));
                    }
                }
                for _ in 0..2 {
                    let s = shape(K, 6, 800, &mut rng);
                    for phi in &obdd[1..] {
                        set.focus.push(Key::h(phi, &s));
                    }
                }
                // The grounded instances are part of the workload, like
                // the φ lists: which tuple is missing moves the grounding
                // cost, and it alone sets compile p90.
                let mut fixed = Rng::new(0x5EED_F0F1, 7);
                for _ in 0..8 {
                    let s = near_complete(1, 6, 1, &mut fixed);
                    set.focus.push(Key::parsed(KeyKind::Ground, UNSAFE, &s));
                }
            }
            Workload::DurableWrite => {
                // The d-D φ with the smallest fragmentation and OBDD φs
                // on two h-atoms keep patching near the fsync cost, so
                // neither half of a write falls below about a quarter.
                let mut phis = functions(DURABLE_DD, 5, |phi| {
                    classify(phi) == Region::ZeroEulerDD
                        && Fragmentation::of(phi).is_ok_and(|f| f.leaves.len() <= 5)
                });
                phis.extend(functions(DURABLE_OBDD, 6, |phi| {
                    classify(phi) == Region::DegenerateObdd && phi.support().count_ones() == 2
                }));
                set.durable = phis.into_iter().map(HQuery::new).collect();
                let s = shape(K, DURABLE_DOMAIN, DURABLE_PERMILLE, &mut rng);
                set.instance = Some(scenario(&s, &mut rng));
            }
        }
        set
    }
}

/// A live structural update of durable-write.
#[derive(Clone, Debug)]
pub enum Update {
    Insert(TupleDesc, intext_numeric::BigRational),
    Remove(TupleId),
}

impl Update {
    /// The update as the store's delta codec names it.
    pub fn delta(&self) -> TupleUpdate {
        match self {
            Update::Insert(desc, _) => TupleUpdate::Insert { desc: *desc },
            Update::Remove(id) => TupleUpdate::Remove { id: id.0 },
        }
    }

    /// Applies the update to a shape mirror.
    fn apply(&self, db: &mut Database) {
        match self {
            Update::Insert(desc, _) => {
                db.insert(*desc).expect("generator inserts absent tuples");
            }
            Update::Remove(id) => {
                db.remove(*id).expect("generator removes present tuples");
            }
        }
    }
}

/// What an op does.
#[derive(Clone, Debug)]
pub enum Action {
    /// A request sent over the connection's socket.
    Socket(Request),
    /// One durable structural update, composed in-process as
    /// `intext-serve --demo --wal` composes it.
    Write(Update),
    /// `DurableDir::checkpoint` of the live engine.
    Checkpoint,
}

/// One op of a connection's stream.
#[derive(Clone, Debug)]
pub struct Op {
    /// Position in the connection's stream (warm-up ops first).
    pub index: u64,
    /// Latency class; `None` for ops that count only in `ops_per_s`.
    pub class: Option<Class>,
    /// Index into the key list the op draws from (reads, batches or
    /// focus), for per-kind attribution; `None` for writes.
    pub key: Option<(Class, usize)>,
    pub action: Action,
    /// Client think time after the op.
    pub think: Duration,
}

/// The lazily generated op stream of one connection: the same
/// `(workload, seed, conn)` always yields the same ops.
pub struct Stream<'k> {
    keys: &'k KeySet,
    rng: Rng,
    conn: usize,
    next_index: u64,
    pending: VecDeque<Op>,
    /// compile-churn B: the round-robin order over cold keys.
    order: Vec<usize>,
    /// durable-write: mirror of the live shape, and writes so far.
    db: Option<Database>,
    writes: u64,
}

impl<'k> Stream<'k> {
    pub fn new(keys: &'k KeySet, seed: u64, conn: usize) -> Stream<'k> {
        let mut rng = Rng::new(seed, 100 + conn as u64);
        let mut order: Vec<usize> = (0..keys.focus.len()).collect();
        rng.shuffle(&mut order);
        Stream {
            keys,
            rng,
            conn,
            next_index: 0,
            pending: VecDeque::new(),
            order,
            db: keys.instance.as_ref().map(|t| t.database().clone()),
            writes: 0,
        }
    }

    /// The durable-write stream positioned after the fixture's WAL tail:
    /// the set-up recovers exactly the shape this stream starts from.
    pub fn after_tail(keys: &'k KeySet, seed: u64) -> (Stream<'k>, Vec<Update>) {
        let mut tail_gen = Stream::new(keys, seed, 99);
        let tail: Vec<Update> = (0..DURABLE_TAIL_WRITES)
            .map(|_| tail_gen.draw_update())
            .collect();
        let mut stream = Stream::new(keys, seed, 0);
        stream.db = tail_gen.db;
        (stream, tail)
    }

    fn op(&mut self, class: Option<Class>, key: Option<(Class, usize)>, action: Action) -> Op {
        let mean = self.keys.workload.mean_think_us(self.conn) as f64;
        let think = if mean > 0.0 {
            // Exponential, capped at five means.
            let u = (self.rng.below(1 << 53) as f64 + 1.0) / (1u64 << 53) as f64;
            Duration::from_micros(((-u.ln()).min(5.0) * mean) as u64)
        } else {
            Duration::ZERO
        };
        let op = Op {
            index: self.next_index,
            class,
            key,
            action,
            think,
        };
        self.next_index += 1;
        op
    }

    fn socket(&mut self, class: Class, list: Class, idx: usize, req: Request) -> Op {
        self.op(Some(class), Some((list, idx)), Action::Socket(req))
    }

    fn f64_read(&mut self, class: Class, list: Class, keys: &[Key], idx: usize) -> Op {
        let key = &keys[idx];
        let tid = key.scenario(&mut self.rng);
        let q = key.query.clone();
        self.socket(class, list, idx, Request::EvaluateF64 { q, tid })
    }

    fn batch(&mut self, idx: usize) -> Op {
        let key = &self.keys.batches[idx];
        let tids = (0..BATCH_SCENARIOS)
            .map(|_| key.scenario(&mut self.rng))
            .collect();
        let q = key.query.clone();
        self.socket(
            Class::Batch,
            Class::Batch,
            idx,
            Request::BatchF64 {
                q,
                tids,
                shards: self.keys.workload.shards(),
            },
        )
    }

    fn draw_update(&mut self) -> Update {
        let db = self.db.as_mut().expect("durable-write stream");
        let update = if self.writes.is_multiple_of(2) {
            let absent: Vec<TupleDesc> = universe(db.k(), db.domain_size())
                .into_iter()
                .filter(|t| db.tuple_id(*t).is_none())
                .collect();
            let desc = absent[self.rng.index(absent.len())];
            Update::Insert(desc, self.rng.probability())
        } else {
            Update::Remove(TupleId(self.rng.index(db.len()) as u32))
        };
        update.apply(db);
        self.writes += 1;
        update
    }

    /// The durable-write reads after a write: fresh probabilities on the
    /// live (post-update) shape.
    fn durable_read(&mut self, q: &HQuery, class: Option<Class>) -> Op {
        let db = self.db.as_ref().expect("durable-write stream");
        let tid = scenario(db, &mut self.rng);
        let q = Query::from(q.clone());
        self.op(class, None, Action::Socket(Request::EvaluateF64 { q, tid }))
    }

    fn durable_batch(&mut self, q: &HQuery) -> Op {
        let db = self.db.as_ref().expect("durable-write stream");
        let tids = (0..BATCH_SCENARIOS)
            .map(|_| scenario(db, &mut self.rng))
            .collect();
        let q = Query::from(q.clone());
        let req = Request::BatchF64 {
            q,
            tids,
            shards: self.keys.workload.shards(),
        };
        self.op(Some(Class::Batch), None, Action::Socket(req))
    }

    fn refill(&mut self) {
        let keys = self.keys;
        match (keys.workload, self.conn) {
            (Workload::HotRead, _) => {
                // 86% reads, 8% batches, 6% exact reads, interleaved.
                let roll = self.rng.below(100);
                let op = if roll < 6 {
                    let idx = self.rng.index(keys.focus.len());
                    let key = &keys.focus[idx];
                    let tid = key.scenario(&mut self.rng);
                    let q = key.query.clone();
                    self.socket(
                        Class::Focus,
                        Class::Focus,
                        idx,
                        Request::Evaluate { q, tid },
                    )
                } else if roll < 14 {
                    let idx = self.rng.index(keys.batches.len());
                    self.batch(idx)
                } else {
                    let idx = self.rng.index(keys.reads.len());
                    self.f64_read(Class::Read, Class::Read, &keys.reads, idx)
                };
                self.pending.push_back(op);
            }
            (Workload::CompileChurn, 0) => {
                let idx = self.rng.index(keys.reads.len());
                let op = self.f64_read(Class::Read, Class::Read, &keys.reads, idx);
                self.pending.push_back(op);
            }
            (Workload::CompileChurn, _) => {
                // One cold compile, then one batch on a hot key: the
                // batch never shares the CPU with this connection's
                // compile, so its p90 stays off the contended cluster.
                let cycle = self.next_index / 2;
                let idx = self.order[(cycle % self.order.len() as u64) as usize];
                let op = self.f64_read(Class::Focus, Class::Focus, &keys.focus, idx);
                self.pending.push_back(op);
                let idx = self.rng.index(keys.batches.len());
                let op = self.batch(idx);
                self.pending.push_back(op);
            }
            (Workload::DurableWrite, _) => {
                let update = self.draw_update();
                let write = self.op(Some(Class::Focus), None, Action::Write(update));
                self.pending.push_back(write);
                for i in 0..READS_PER_WRITE {
                    let q = &keys.durable[self.rng.index(keys.durable.len())];
                    // The first read is untimed: see READS_PER_WRITE.
                    let op = self.durable_read(q, (i > 0).then_some(Class::Read));
                    self.pending.push_back(op);
                }
                if self.writes.is_multiple_of(BATCH_EVERY_WRITES) {
                    let q = &keys.durable[self.rng.index(keys.durable.len())];
                    let op = self.durable_batch(q);
                    self.pending.push_back(op);
                }
                if self.writes.is_multiple_of(CHECKPOINT_EVERY) {
                    let op = self.op(None, None, Action::Checkpoint);
                    self.pending.push_back(op);
                }
            }
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}
