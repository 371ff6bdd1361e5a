//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced op records one span per call the benchmark makes into a layer:
//! the root op, the guard future, the section call, each body attempt, and
//! each `KvShard`/`TpccDb` call. Spans carry a name, start, end, parent and
//! op id, and stay in the client's own memory. When the op ends they are
//! folded into per-name totals (count, time, self time, accesses) and the
//! first few thousand ops' raw spans are kept for the JSONL dump written
//! when the run ends. Self time is a span's duration minus its children's.
//!
//! Accesses are counted by wrapping the `MemAccess` a body receives
//! ([`counted`]); a span's access count includes its children's.

use std::io::{self, Write};
use std::time::Instant;

use htm_sim::{AccessMode, CellId, MemAccess, TxResult};

use crate::sample::Reservoir;

/// Span names, one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The whole client op (the latency interval).
    Op,
    /// `block_on(ShardLock::read())`.
    GuardRead,
    /// `block_on(ShardLock::write_ready())`.
    GuardWriteReady,
    /// `KvShard::get` under a read guard.
    KvGet,
    /// `KvShard::bump` inside a write body.
    KvBump,
    /// `ShardLock::write_section` or `RwSync::write_section`.
    WriteSection,
    /// One write body attempt.
    WriteBody,
    /// `RwSync::read_section`.
    ReadSection,
    /// One read body attempt.
    ReadBody,
    /// `TpccDb::stock_level`.
    StockLevel,
    /// `TpccDb::order_status`.
    OrderStatus,
    /// `TpccDb::payment`.
    Payment,
    /// `TpccDb::new_order`.
    NewOrder,
    /// `TpccDb::delivery`.
    Delivery,
}

impl Name {
    /// Every name, in index order.
    pub const ALL: [Name; 14] = [
        Name::Op,
        Name::GuardRead,
        Name::GuardWriteReady,
        Name::KvGet,
        Name::KvBump,
        Name::WriteSection,
        Name::WriteBody,
        Name::ReadSection,
        Name::ReadBody,
        Name::StockLevel,
        Name::OrderStatus,
        Name::Payment,
        Name::NewOrder,
        Name::Delivery,
    ];

    /// Label used in the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::GuardRead => "server.guards.read",
            Name::GuardWriteReady => "server.guards.write_ready",
            Name::KvGet => "server.kv.get",
            Name::KvBump => "server.kv.bump",
            Name::WriteSection => "core.write_section",
            Name::WriteBody => "core.write_body",
            Name::ReadSection => "core.read_section",
            Name::ReadBody => "core.read_body",
            Name::StockLevel => "workloads.tpcc.stock_level",
            Name::OrderStatus => "workloads.tpcc.order_status",
            Name::Payment => "workloads.tpcc.payment",
            Name::NewOrder => "workloads.tpcc.new_order",
            Name::Delivery => "workloads.tpcc.delivery",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;
/// Duration samples kept per span name and client.
const NAME_SAMPLES: usize = 1 << 16;

/// One recorded span. Times are ns since the run's epoch; `parent` indexes
/// the op's span list.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    op: u64,
    start: u64,
    end: u64,
    acc: u64,
}

/// Per-name totals over every traced op of one client.
#[derive(Debug, Clone)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Accesses made inside these spans (children included).
    pub acc: u64,
    /// Duration samples, ns.
    pub durs: Reservoir,
}

/// One client's span recorder. Every method is a no-op while tracing is
/// off, so the untraced path pays one predictable branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    cur: Vec<Span>,
    open: Vec<u32>,
    child_ns: Vec<u64>,
    last_body_ns: Vec<Option<u64>>,
    raw: Vec<Span>,
    raw_cap: usize,
    /// Totals per [`Name`], indexed by `Name as usize`.
    pub agg: Vec<Agg>,
    /// Duration of each section's last (committed) write body attempt.
    pub committed_write_body: Reservoir,
    /// Write section time outside its committed body attempt.
    pub write_overhead: Reservoir,
    /// Duration of each section's last (committed) read body attempt.
    pub committed_read_body: Reservoir,
    /// `Pending` returns of guard futures in traced ops.
    pub pending_polls: u64,
}

impl Tracer {
    /// A recorder timing against `epoch` that keeps at most `raw_cap` raw
    /// spans for the dump. Starts off.
    pub fn new(epoch: Instant, raw_cap: usize) -> Self {
        let agg = Name::ALL
            .iter()
            .map(|_| Agg {
                count: 0,
                dur_ns: 0,
                self_ns: 0,
                acc: 0,
                durs: Reservoir::new(NAME_SAMPLES),
            })
            .collect();
        Self {
            on: false,
            epoch,
            op: 0,
            cur: Vec::with_capacity(64),
            open: Vec::with_capacity(8),
            child_ns: Vec::with_capacity(64),
            last_body_ns: Vec::with_capacity(64),
            raw: Vec::new(),
            raw_cap,
            agg,
            committed_write_body: Reservoir::new(NAME_SAMPLES),
            write_overhead: Reservoir::new(NAME_SAMPLES),
            committed_read_body: Reservoir::new(NAME_SAMPLES),
            pending_polls: 0,
        }
    }

    /// Turns recording on or off for the next op.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the run's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: Name) -> usize {
        if !self.on {
            return 0;
        }
        let t = self.now();
        self.begin_at(name, t)
    }

    /// Opens a span at time `t`.
    #[inline]
    pub fn begin_at(&mut self, name: Name, t: u64) -> usize {
        if !self.on {
            return 0;
        }
        let idx = self.cur.len();
        self.cur.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            start: t,
            end: t,
            acc: 0,
        });
        self.open.push(idx as u32);
        idx
    }

    /// Closes span `idx` (the innermost open one) now.
    #[inline]
    pub fn end(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let t = self.now();
        self.end_at(idx, t);
    }

    /// Closes span `idx` at time `t`.
    #[inline]
    pub fn end_at(&mut self, idx: usize, t: u64) {
        if !self.on {
            return;
        }
        debug_assert_eq!(self.open.last().copied(), Some(idx as u32));
        self.cur[idx].end = t;
        self.open.pop();
    }

    /// Adds `n` accesses to the innermost open span.
    #[inline]
    pub fn add_accesses(&mut self, n: u64) {
        if let Some(&i) = self.open.last() {
            self.cur[i as usize].acc += n;
        }
    }

    /// Adds `n` guard-future `Pending` returns.
    #[inline]
    pub fn add_pending(&mut self, n: u64) {
        if self.on {
            self.pending_polls += n;
        }
    }

    /// Folds the finished op's spans into the totals and starts a new op.
    pub fn finish_op(&mut self) {
        if !self.on {
            return;
        }
        debug_assert!(self.open.is_empty(), "op finished with open spans");
        let n = self.cur.len();
        self.child_ns.clear();
        self.child_ns.resize(n, 0);
        self.last_body_ns.clear();
        self.last_body_ns.resize(n, None);
        // Children sit after their parent, so a reverse walk sees every
        // child of a span before the span itself.
        for i in (0..n).rev() {
            let sp = self.cur[i];
            let dur = sp.end.saturating_sub(sp.start);
            if sp.parent != NO_PARENT {
                let p = sp.parent as usize;
                self.cur[p].acc += sp.acc;
                self.child_ns[p] += dur;
                if matches!(sp.name, Name::WriteBody | Name::ReadBody)
                    && self.last_body_ns[p].is_none()
                {
                    self.last_body_ns[p] = Some(dur);
                }
            }
            let a = &mut self.agg[sp.name as usize];
            a.count += 1;
            a.dur_ns += dur;
            a.self_ns += dur.saturating_sub(self.child_ns[i]);
            a.acc += sp.acc;
            a.durs.record(dur);
            let body = self.last_body_ns[i].unwrap_or(0);
            match sp.name {
                Name::WriteSection => {
                    self.committed_write_body.record(body);
                    self.write_overhead.record(dur.saturating_sub(body));
                }
                Name::ReadSection => self.committed_read_body.record(body),
                _ => {}
            }
        }
        if self.raw.len() + n <= self.raw_cap {
            self.raw.extend_from_slice(&self.cur);
        }
        self.cur.clear();
        self.op += 1;
    }

    /// Writes the kept raw spans as JSON lines, tagged with `client`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, client: usize, w: &mut impl Write) -> io::Result<()> {
        let mut first = 0;
        for (i, sp) in self.raw.iter().enumerate() {
            if sp.parent == NO_PARENT {
                first = i;
            }
            let parent = if sp.parent == NO_PARENT {
                -1
            } else {
                i64::from(sp.parent)
            };
            writeln!(
                w,
                "{{\"client\":{client},\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"accesses\":{}}}",
                sp.op,
                i - first,
                sp.name.label(),
                sp.start,
                sp.end,
                sp.acc
            )?;
        }
        Ok(())
    }
}

/// A `MemAccess` that counts every read and write it forwards.
struct Counted<'a> {
    inner: &'a mut dyn MemAccess,
    n: u64,
}

impl MemAccess for Counted<'_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        self.n += 1;
        self.inner.read(cell)
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        self.n += 1;
        self.inner.write(cell, val)
    }

    fn mode(&self) -> AccessMode {
        self.inner.mode()
    }
}

/// Runs `f` over `a`, counting its accesses into the innermost open span
/// when tracing is on.
#[inline]
pub fn counted<R>(
    tr: &mut Tracer,
    a: &mut dyn MemAccess,
    f: impl FnOnce(&mut dyn MemAccess) -> R,
) -> R {
    if !tr.on {
        return f(a);
    }
    let mut c = Counted { inner: a, n: 0 };
    let r = f(&mut c);
    tr.add_accesses(c.n);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_accesses_fold_up_the_tree() {
        let mut tr = Tracer::new(Instant::now(), 1024);
        tr.set_on(true);
        let op = tr.begin_at(Name::Op, 0);
        let sec = tr.begin_at(Name::WriteSection, 10);
        let b1 = tr.begin_at(Name::WriteBody, 20);
        tr.add_accesses(3);
        tr.end_at(b1, 30);
        let b2 = tr.begin_at(Name::WriteBody, 40);
        tr.add_accesses(5);
        tr.end_at(b2, 70);
        tr.end_at(sec, 80);
        tr.end_at(op, 100);
        tr.finish_op();
        let root = &tr.agg[Name::Op as usize];
        assert_eq!(
            (root.count, root.dur_ns, root.self_ns, root.acc),
            (1, 100, 30, 8)
        );
        let s = &tr.agg[Name::WriteSection as usize];
        assert_eq!((s.dur_ns, s.self_ns, s.acc), (70, 30, 8));
        let b = &tr.agg[Name::WriteBody as usize];
        assert_eq!((b.count, b.dur_ns, b.acc), (2, 40, 8));
        // The last attempt is the committed one: 30 ns, leaving 40 ns of
        // section overhead.
        assert_eq!(
            crate::sample::percentile(&[&tr.committed_write_body], 0.5),
            30.0
        );
        assert_eq!(crate::sample::percentile(&[&tr.write_overhead], 0.5), 40.0);
        let mut out = Vec::new();
        tr.write_jsonl(0, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(Instant::now(), 1024);
        let op = tr.begin(Name::Op);
        tr.end(op);
        tr.finish_op();
        assert_eq!(tr.agg[Name::Op as usize].count, 0);
    }
}
