//! The systems under test, built and driven only through public APIs.
//!
//! [`KvWorld`] is the sharded KV service: one `ShardLock` (SpRwl with BRAVO
//! tracking and the versioned SGL, as `sprwl_server::run_det` builds it) and
//! one `KvShard` per shard. Its op path mirrors the server's private
//! `service_op`: GETs take a read guard and read untracked, SETs and MSETs
//! wait on `write_ready` and then run one write section per shard touched.
//! [`TpccWorld`] is TPC-C under one SpRwl with the self-tuner and capacity
//! stretching on; it has no server layer.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use htm_sim::{clock, CapacityProfile, Htm, HtmConfig, MemAccess, SchedulerKind, TxResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprwl::{ReaderTracking, SpRwl, SprwlConfig, StretchPolicy};
use sprwl_locks::{CommitMode, LockThread, Role, RwSync, SectionId};
use sprwl_server::service::SEC_KV_WRITE;
use sprwl_server::{block_on, shard_of, KvShard, ShardLock};
use sprwl_workloads::redis::{RedisGen, RedisOp, RedisSpec};
use sprwl_workloads::spec::{Mix, TpccTxKind};
use sprwl_workloads::tpcc::{self, TpccDb, TpccScale};

use crate::oracle::{conservation, Monotonic};
use crate::spans::{counted, Name, Tracer};
use crate::CLIENTS;

/// A system the closed-loop driver can run.
pub trait World: Sync {
    /// Per-client state: the op stream and the client's own checks.
    type Client: Send;
    /// One generated operation.
    type Op;

    /// The simulated-HTM runtime the clients claim threads from.
    fn htm(&self) -> &Htm;
    /// Client `idx`'s state, its op stream derived from `(seed, idx)`.
    fn client(&self, idx: usize, seed: u64) -> Self::Client;
    /// Draws the client's next op (outside the timed interval).
    fn next(&self, c: &mut Self::Client) -> Self::Op;
    /// Runs one op to completion. Returns its role and whether the
    /// client's checks on its results passed.
    fn run(
        &self,
        c: &mut Self::Client,
        op: Self::Op,
        t: &mut LockThread<'_>,
        tr: &mut Tracer,
    ) -> (Role, bool);
    /// Post-run checks after every client joined; one message per failure.
    fn verify(&self, clients: &[&Self::Client]) -> Vec<String>;
}

/// Counts the `Pending` returns of the future it wraps.
struct Polls<'p, F> {
    fut: F,
    pending: &'p mut u64,
}

impl<F: Future + Unpin> Future for Polls<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let r = Pin::new(&mut this.fut).poll(cx);
        if r.is_pending() {
            *this.pending += 1;
        }
        r
    }
}

/// `block_on` that reports how often the future returned `Pending`.
fn block_on_counted<F: Future + Unpin>(fut: F, tr: &mut Tracer) -> F::Output {
    let mut pending = 0;
    let out = block_on(Polls {
        fut,
        pending: &mut pending,
    });
    tr.add_pending(pending);
    out
}

/// Shards of the KV service.
pub const SHARDS: usize = 4;
/// Payload scratch cells per shard, as in the server's smoke config.
const PAYLOAD_CELLS: usize = 64;
/// Simulated cells reserved per shard lock, plus global slack (the
/// server's own sizing rule).
const LOCK_CELLS: usize = 512;
const SLACK_CELLS: usize = 4096;

struct Shard {
    lock: ShardLock,
    kv: KvShard,
}

/// The sharded KV service with every key of the keyspace preloaded.
pub struct KvWorld {
    htm: Htm,
    shards: Vec<Shard>,
    spec: RedisSpec,
    preload: Vec<u64>,
}

impl KvWorld {
    /// Builds the service and preloads every key of `spec.keyspace` with
    /// one increment. Each shard gets exactly the buckets and nodes its
    /// keys need, so no SET allocates.
    pub fn new(spec: RedisSpec, scheduler: SchedulerKind) -> Self {
        let mut keys = vec![0u64; SHARDS];
        for key in 0..spec.keyspace {
            keys[shard_of(key, SHARDS)] += 1;
        }
        let size = |n: u64| u32::try_from(n.max(1)).expect("shard keys fit in u32");
        let cells: usize = keys
            .iter()
            .map(|&n| {
                KvShard::cells_needed(size(n) as usize, size(n), CLIENTS, PAYLOAD_CELLS)
                    + LOCK_CELLS
            })
            .sum::<usize>()
            + SLACK_CELLS;
        let htm = Htm::new(
            HtmConfig {
                max_threads: CLIENTS,
                scheduler,
                ..HtmConfig::default()
            },
            cells,
        );
        let lock_cfg = SprwlConfig {
            reader_tracking: ReaderTracking::Bravo,
            versioned_sgl: true,
            ..SprwlConfig::default()
        };
        let shards: Vec<Shard> = keys
            .iter()
            .map(|&n| Shard {
                lock: ShardLock::new(SpRwl::new(&htm, lock_cfg.clone())),
                kv: KvShard::new(
                    htm.memory(),
                    size(n) as usize,
                    size(n),
                    CLIENTS,
                    PAYLOAD_CELLS,
                ),
            })
            .collect();
        let mut d = htm.direct(0);
        for key in 0..spec.keyspace {
            shards[shard_of(key, SHARDS)]
                .kv
                .bump(&mut d, 0, key, 0)
                .expect("untracked preload never aborts");
        }
        Self {
            htm,
            shards,
            spec,
            preload: keys,
        }
    }

    fn write_batch(
        &self,
        c: &mut KvClient,
        t: &mut LockThread<'_>,
        tr: &mut Tracer,
        s: usize,
        batch: &[u64],
        payload_bytes: u32,
    ) -> bool {
        let shard = &self.shards[s];
        let tid = t.tid();
        let sp = tr.begin(Name::GuardWriteReady);
        block_on_counted(shard.lock.write_ready(t.ctx.direct()), tr);
        tr.end(sp);
        let obs = &mut c.obs;
        let kv = &shard.kv;
        let sec = tr.begin(Name::WriteSection);
        shard.lock.write_section(t, SEC_KV_WRITE, &mut |a| {
            let body = tr.begin(Name::WriteBody);
            // Reset per attempt: the buffer must hold the committed
            // attempt's observations only.
            obs.clear();
            let mut res = Ok(batch.len() as u64);
            for &key in batch {
                let sp = tr.begin(Name::KvBump);
                let r = counted(tr, a, |a| kv.bump(a, tid, key, payload_bytes));
                tr.end(sp);
                match r {
                    Ok(old) => obs.push((key, old)),
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
            tr.end(body);
            res
        });
        tr.end(sec);
        c.increments[s] += batch.len() as u64;
        let mut ok = true;
        for &(key, old) in &c.obs {
            ok &= c.seen.bumped(key, old);
        }
        ok
    }
}

/// One KV client: its op stream and what it has seen.
#[derive(Debug)]
pub struct KvClient {
    gen: RedisGen,
    seen: Monotonic,
    increments: Vec<u64>,
    obs: Vec<(u64, u64)>,
    batches: Vec<Vec<u64>>,
}

impl World for KvWorld {
    type Client = KvClient;
    type Op = RedisOp;

    fn htm(&self) -> &Htm {
        &self.htm
    }

    fn client(&self, idx: usize, seed: u64) -> KvClient {
        KvClient {
            gen: RedisGen::new(self.spec.clone(), client_seed(seed, idx)),
            seen: Monotonic::new(self.spec.keyspace),
            increments: vec![0; SHARDS],
            obs: Vec::with_capacity(self.spec.mset_keys),
            batches: (0..SHARDS)
                .map(|_| Vec::with_capacity(self.spec.mset_keys))
                .collect(),
        }
    }

    fn next(&self, c: &mut KvClient) -> RedisOp {
        c.gen.next_op()
    }

    fn run(
        &self,
        c: &mut KvClient,
        op: RedisOp,
        t: &mut LockThread<'_>,
        tr: &mut Tracer,
    ) -> (Role, bool) {
        match op {
            RedisOp::Get { key } => {
                let shard = &self.shards[shard_of(key, SHARDS)];
                let tid = t.tid();
                let sp = tr.begin(Name::GuardRead);
                let guard = block_on_counted(shard.lock.read(t.ctx.direct(), tid), tr);
                tr.end(sp);
                let sp = tr.begin(Name::KvGet);
                let mut a = guard.access();
                let v = counted(tr, &mut a, |a| shard.kv.get(a, key))
                    .expect("direct reads never abort")
                    .unwrap_or(0);
                tr.end(sp);
                drop(guard);
                // The guard path bypasses `read_section`, so it records its
                // own commit, as the service does. Latency lives in the
                // benchmark's own samples.
                t.stats.record_commit(Role::Reader, CommitMode::Unins, 0);
                (Role::Reader, c.seen.read(key, v))
            }
            RedisOp::Set { key, payload_bytes } => {
                let ok = self.write_batch(c, t, tr, shard_of(key, SHARDS), &[key], payload_bytes);
                (Role::Writer, ok)
            }
            RedisOp::MSet {
                mut keys,
                payload_bytes,
            } => {
                // One write section per shard touched, keys deduped, never
                // two shard locks at once: the service's MSET.
                keys.sort_unstable();
                keys.dedup();
                for b in &mut c.batches {
                    b.clear();
                }
                for key in keys {
                    c.batches[shard_of(key, SHARDS)].push(key);
                }
                let mut ok = true;
                for s in 0..SHARDS {
                    let batch = std::mem::take(&mut c.batches[s]);
                    if !batch.is_empty() {
                        ok &= self.write_batch(c, t, tr, s, &batch, payload_bytes);
                    }
                    c.batches[s] = batch;
                }
                (Role::Writer, ok)
            }
        }
    }

    fn verify(&self, clients: &[&KvClient]) -> Vec<String> {
        let mem = self.htm.memory();
        let mut stored = vec![0u64; SHARDS];
        for key in 0..self.spec.keyspace {
            let s = shard_of(key, SHARDS);
            stored[s] += self.shards[s].kv.peek(mem, key).unwrap_or(0);
        }
        let mut committed = vec![0u64; SHARDS];
        for c in clients {
            for (acc, n) in committed.iter_mut().zip(&c.increments) {
                *acc += n;
            }
        }
        let mut errs = conservation(&stored, &self.preload, &committed);
        for (s, shard) in self.shards.iter().enumerate() {
            if let Err(e) = shard.lock.lock().check_quiescent(mem) {
                errs.push(format!("shard {s} lock not quiescent: {e}"));
            }
        }
        errs.extend(threads_released(&self.htm));
        errs
    }
}

/// TPC-C, one warehouse per client, under one self-tuning, stretching
/// SpRWL on the Broadwell-like capacity profile.
pub struct TpccWorld {
    htm: Htm,
    lock: SpRwl,
    db: TpccDb,
}

impl TpccWorld {
    /// Builds and loads the database.
    pub fn new(scheduler: SchedulerKind) -> Self {
        let scale = TpccScale::with_warehouses(CLIENTS as u32);
        let htm = Htm::new(
            HtmConfig {
                capacity: CapacityProfile::BROADWELL_SIM,
                max_threads: CLIENTS,
                scheduler,
                ..HtmConfig::default()
            },
            scale.cells_needed() + LOCK_CELLS,
        );
        let lock = SpRwl::new(
            &htm,
            SprwlConfig {
                // Reader tracking starts as flags and is left to the tuner.
                reader_tracking: ReaderTracking::Adaptive,
                self_tuning: true,
                stretch: StretchPolicy::ON,
                ..SprwlConfig::default()
            },
        );
        let db = TpccDb::new(htm.memory(), scale);
        Self { htm, lock, db }
    }

    fn section(
        &self,
        t: &mut LockThread<'_>,
        tr: &mut Tracer,
        role: Role,
        sec: u32,
        call: Name,
        body: &dyn Fn(&mut dyn MemAccess) -> TxResult<u64>,
    ) {
        let (sec_name, body_name) = match role {
            Role::Reader => (Name::ReadSection, Name::ReadBody),
            Role::Writer => (Name::WriteSection, Name::WriteBody),
        };
        let sp = tr.begin(sec_name);
        let f = &mut |a: &mut dyn MemAccess| {
            let b = tr.begin(body_name);
            let c = tr.begin(call);
            let r = counted(tr, a, body);
            tr.end(c);
            tr.end(b);
            r
        };
        match role {
            Role::Reader => self.lock.read_section(t, SectionId(sec), f),
            Role::Writer => self.lock.write_section(t, SectionId(sec), f),
        };
        tr.end(sp);
    }
}

/// One TPC-C client: its RNG and home warehouse.
#[derive(Debug)]
pub struct TpccClient {
    rng: StdRng,
    w: u32,
}

/// One generated TPC-C transaction with its input.
#[derive(Debug)]
pub enum TpccOp {
    /// Stock-Level (read-only, long).
    StockLevel(tpcc::StockLevelInput),
    /// Order-Status (read-only).
    OrderStatus(tpcc::OrderStatusInput),
    /// Payment (update, short).
    Payment(tpcc::PaymentInput),
    /// New-Order (update).
    NewOrder(tpcc::NewOrderInput),
    /// Delivery (update, all districts).
    Delivery(tpcc::DeliveryInput),
}

impl World for TpccWorld {
    type Client = TpccClient;
    type Op = TpccOp;

    fn htm(&self) -> &Htm {
        &self.htm
    }

    fn client(&self, idx: usize, seed: u64) -> TpccClient {
        TpccClient {
            rng: StdRng::seed_from_u64(client_seed(seed, idx)),
            w: idx as u32,
        }
    }

    fn next(&self, c: &mut TpccClient) -> TpccOp {
        let scale = self.db.scale();
        let (rng, w) = (&mut c.rng, c.w);
        match Mix::PAPER.pick(rng.gen_range(0..100)) {
            TpccTxKind::StockLevel => TpccOp::StockLevel(tpcc::gen_stock_level(rng, scale, w)),
            TpccTxKind::OrderStatus => TpccOp::OrderStatus(tpcc::gen_order_status(rng, scale, w)),
            TpccTxKind::Payment => TpccOp::Payment(tpcc::gen_payment(rng, scale, w)),
            TpccTxKind::NewOrder => {
                TpccOp::NewOrder(tpcc::gen_new_order(rng, scale, w, clock::now()))
            }
            TpccTxKind::Delivery => TpccOp::Delivery(tpcc::gen_delivery(rng, w, clock::now())),
        }
    }

    fn run(
        &self,
        _c: &mut TpccClient,
        op: TpccOp,
        t: &mut LockThread<'_>,
        tr: &mut Tracer,
    ) -> (Role, bool) {
        let db = &self.db;
        let role = match &op {
            TpccOp::StockLevel(i) => {
                self.section(t, tr, Role::Reader, 1, Name::StockLevel, &|a| {
                    db.stock_level(a, i)
                });
                Role::Reader
            }
            TpccOp::OrderStatus(i) => {
                self.section(t, tr, Role::Reader, 2, Name::OrderStatus, &|a| {
                    db.order_status(a, i)
                });
                Role::Reader
            }
            TpccOp::Payment(i) => {
                self.section(t, tr, Role::Writer, 3, Name::Payment, &|a| db.payment(a, i));
                Role::Writer
            }
            TpccOp::NewOrder(i) => {
                self.section(t, tr, Role::Writer, 4, Name::NewOrder, &|a| {
                    db.new_order(a, i)
                });
                Role::Writer
            }
            TpccOp::Delivery(i) => {
                self.section(t, tr, Role::Writer, 5, Name::Delivery, &|a| {
                    db.delivery(a, i)
                });
                Role::Writer
            }
        };
        (role, true)
    }

    fn verify(&self, _clients: &[&TpccClient]) -> Vec<String> {
        let mem = self.htm.memory();
        let mut errs = Vec::new();
        if !self.db.audit_ytd(mem) {
            errs.push("TPC-C audit failed: W_YTD != sum of D_YTD".to_string());
        }
        if !self.db.audit_order_queues(mem) {
            errs.push("TPC-C audit failed: D_NEXT_DELIV_O_ID > D_NEXT_O_ID".to_string());
        }
        if let Err(e) = self.lock.check_quiescent(mem) {
            errs.push(format!("TPC-C lock not quiescent: {e}"));
        }
        errs.extend(threads_released(&self.htm));
        errs
    }
}

/// Client `idx`'s stream seed, as the service derives its workers' seeds.
fn client_seed(seed: u64, idx: usize) -> u64 {
    seed ^ ((idx as u64 + 1) << 24)
}

fn threads_released(htm: &Htm) -> Option<String> {
    (htm.active_threads() != 0).then(|| {
        format!(
            "{} simulated threads still claimed after join",
            htm.active_threads()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{self, Mode};

    fn small() -> RedisSpec {
        RedisSpec {
            keyspace: 512,
            get_pct: 60,
            set_pct: 30,
            mset_keys: 4,
            ..RedisSpec::service_default()
        }
    }

    fn det() -> SchedulerKind {
        SchedulerKind::Deterministic { schedule_seed: 1 }
    }

    fn no_stall(_: u64) {
        panic!("stalled");
    }

    #[test]
    fn a_doctored_store_fails_conservation() {
        let w = KvWorld::new(small(), det());
        let clients = (0..CLIENTS).map(|i| w.client(i, 9)).collect();
        let out = driver::run(&w, clients, Mode::Det { ops: 200 }, &no_stall);
        let clients: Vec<&KvClient> = out.clients.iter().map(|c| &c.client).collect();
        assert_eq!(out.totals(), (400, 0));
        assert_eq!(w.verify(&clients), Vec::<String>::new());
        // One increment nobody committed.
        let key = 17;
        w.shards[shard_of(key, SHARDS)]
            .kv
            .bump(&mut w.htm.direct(0), 0, key, 0)
            .unwrap();
        let errs = w.verify(&clients);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("expected preload"), "{errs:?}");
    }

    #[test]
    fn a_decreasing_read_fails_the_op() {
        let w = KvWorld::new(small(), SchedulerKind::Os);
        let mut c = w.client(0, 9);
        let key = 5;
        let mut t = LockThread::new(w.htm.thread(0));
        let mut tr = Tracer::new(std::time::Instant::now(), 0);
        let get = || RedisOp::Get { key };
        assert_eq!(w.run(&mut c, get(), &mut t, &mut tr), (Role::Reader, true));
        // The client once saw the key far above what the store holds, so
        // the store now reads as having gone backwards.
        assert!(c.seen.bumped(key, 100));
        assert_eq!(w.run(&mut c, get(), &mut t, &mut tr), (Role::Reader, false));
    }

    #[test]
    fn tpcc_audits_pass_after_a_run() {
        let w = TpccWorld::new(det());
        let clients = (0..CLIENTS).map(|i| w.client(i, 3)).collect();
        let out = driver::run(&w, clients, Mode::Det { ops: 100 }, &no_stall);
        let clients: Vec<&TpccClient> = out.clients.iter().map(|c| &c.client).collect();
        assert_eq!(w.verify(&clients), Vec::<String>::new());
    }
}
