//! The `cell_month` and `cell_month_sharded` workloads: m02's `HostCell`
//! cluster on the conservative-parallel `ShardedEngine`.

use std::cell::Cell as Shared;
use std::sync::Arc;
use std::time::Instant;

use sprite_bench::experiments::m02;
use sprite_kernel::{build_cluster_cells, HostCell, HostCellStats};
use sprite_net::{CostModel, ShardLink};
use sprite_sim::{Cell, CellCtx, CellId, ShardedEngine, SimDuration, SimTime, StateDigest};

use crate::clock::{Lap, Stopwatch};
use crate::spans::{self, Span};
use crate::{median, Rep};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct CellParams {
    /// Hosts (cells).
    pub hosts: u32,
    /// Simulated days.
    pub days: u64,
    /// Logical shards; the worker count equals it.
    pub shards: usize,
}

/// Host time a cell spent in its handlers. The engine touches a cell from
/// one thread at a time, so plain per-cell fields need no synchronisation.
#[derive(Debug, Clone, Copy, Default)]
struct CellTimes {
    busy_ns: u64,
    events: u64,
    digest_ns: u64,
}

/// A cell the driver can read back after a run.
trait Probe: Cell {
    fn stats(&self) -> HostCellStats;
    fn times(&self) -> CellTimes;
}

impl Probe for HostCell {
    fn stats(&self) -> HostCellStats {
        HostCell::stats(self)
    }
    fn times(&self) -> CellTimes {
        CellTimes::default()
    }
}

/// Wraps a cell and times its `on_timer`, `on_message` and `digest_into`.
struct Timed<C> {
    inner: C,
    busy_ns: u64,
    events: u64,
    // `digest_into` takes `&self`.
    digest_ns: Shared<u64>,
}

impl<C: Cell> Timed<C> {
    fn new(inner: C) -> Self {
        Timed {
            inner,
            busy_ns: 0,
            events: 0,
            digest_ns: Shared::new(0),
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut C)) {
        let start = Instant::now();
        f(&mut self.inner);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.events += 1;
    }
}

impl<C: Cell> Cell for Timed<C> {
    type Msg = C::Msg;

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut CellCtx<'_, C::Msg>) {
        self.timed(|c| c.on_timer(now, token, ctx));
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: CellId,
        msg: C::Msg,
        ctx: &mut CellCtx<'_, C::Msg>,
    ) {
        self.timed(|c| c.on_message(now, from, msg, ctx));
    }

    fn digest_into(&self, d: &mut StateDigest) {
        let start = Instant::now();
        self.inner.digest_into(d);
        self.digest_ns
            .set(self.digest_ns.get() + start.elapsed().as_nanos() as u64);
    }
}

impl Probe for Timed<HostCell> {
    fn stats(&self) -> HostCellStats {
        self.inner.stats()
    }
    fn times(&self) -> CellTimes {
        CellTimes {
            busy_ns: self.busy_ns,
            events: self.events,
            digest_ns: self.digest_ns.get(),
        }
    }
}

/// One repetition: build the cluster, run it, read the counters.
pub fn rep(p: CellParams, seed: u64, traced: bool) -> Rep {
    spans::record(traced);
    if traced {
        run_with(p, seed, true, Timed::new)
    } else {
        run_with(p, seed, false, |c| c)
    }
}

/// Times a repetition builds the cell world, keeping the last build. One
/// build takes about a millisecond, mostly allocation and page faults, too
/// little to time steadily once; `setup_s` is the median build.
const SETUP_BUILDS: usize = 9;

fn run_with<C: Probe>(p: CellParams, seed: u64, traced: bool, wrap: impl Fn(HostCell) -> C) -> Rep {
    let build = || {
        let link = ShardLink::new(CostModel::sun3(), SimDuration::from_secs(60));
        let cells: Vec<C> = build_cluster_cells(p.hosts, seed)
            .into_iter()
            .map(&wrap)
            .collect();
        let mut eng = ShardedEngine::new(cells, p.shards, link.lookahead());
        eng.set_workers(p.shards);
        eng.audit_every_windows(m02::audit_every_windows(m02::M02Params {
            hosts: p.hosts,
            days: p.days,
        }));
        if traced {
            let epoch = Instant::now();
            eng.set_stall_clock(Arc::new(move || epoch.elapsed().as_nanos() as u64));
        }
        for id in 0..p.hosts {
            eng.seed_timer(id, SimTime::from_micros(60_000_000), 0);
        }
        eng
    };
    let mut cpu = Vec::with_capacity(SETUP_BUILDS);
    let mut wall = Vec::with_capacity(SETUP_BUILDS);
    let mut eng = None;
    for _ in 0..SETUP_BUILDS {
        drop(eng.take());
        let setup = Stopwatch::start();
        eng = Some(build());
        let lap = setup.lap();
        cpu.push(lap.cpu_s);
        wall.push(lap.wall_s);
    }
    let mut eng = eng.expect("SETUP_BUILDS is at least 1");
    let setup = Lap {
        wall_s: median(&mut wall),
        cpu_s: median(&mut cpu),
    };

    let start = Stopwatch::start();
    spans::span(Span::Driver, || {
        spans::span(Span::SimRun, || {
            eng.run(SimTime::ZERO + SimDuration::from_secs(p.days * 86_400))
        })
    });
    let run = start.lap();
    let profile = spans::take();
    spans::record(false);

    let mut jobs = HostCellStats::default();
    let mut times = CellTimes::default();
    for cell in eng.cells() {
        let s = cell.stats();
        jobs.spawned += s.spawned;
        jobs.completed += s.completed;
        jobs.migrated_out += s.migrated_out;
        jobs.evicted += s.evicted;
        jobs.probes_sent += s.probes_sent;
        let t = cell.times();
        times.busy_ns += t.busy_ns;
        times.events += t.events;
        times.digest_ns += t.digest_ns;
    }
    let audit = eng.take_audit_stream();
    let events = eng.events_executed();
    let mut rep = Rep::new(setup, run);
    rep.attempted = jobs.spawned;
    rep.fingerprint = format!(
        "stream={:016x} checkpoints={} events={} windows={} spawned={} completed={} migrated={} evicted={}",
        m02::stream_digest(&audit),
        audit.len(),
        events,
        eng.windows(),
        jobs.spawned,
        jobs.completed,
        jobs.migrated_out,
        jobs.evicted,
    );
    if audit.is_empty() || jobs.spawned == 0 || jobs.completed > jobs.spawned {
        rep.fault = Some("no audit stream or implausible job totals".into());
    }

    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let shard_events: Vec<u64> = eng.shard_counters().iter().map(|s| s.events).collect();
    let max_events = shard_events.iter().copied().max().unwrap_or(0);
    let stall_ns: u64 = eng.worker_stalls().iter().map(|w| w.stall_ns).sum();
    let workers = eng.worker_stalls().len().max(1);
    // Thread-seconds: every worker is inside `run` for the whole span, and
    // spends it in cell handlers, digests, barrier stalls or the engine
    // itself (calendar queue, window selection, merge).
    let queue_self_ns = (workers as u64 * profile.get(Span::SimRun).total_ns)
        .saturating_sub(times.busy_ns + times.digest_ns + stall_ns);
    if traced {
        rep.set_profile(&profile);
    }
    let l = &mut rep.layer;
    l.insert("sim.events".into(), events as f64);
    l.insert("sim.windows".into(), eng.windows() as f64);
    l.insert(
        "sim.buckets_scanned_per_event".into(),
        per(eng.queue_counters().buckets_scanned as f64, events),
    );
    l.insert(
        "sim.cross_shard_ratio".into(),
        per(eng.cross_shard_messages() as f64, eng.messages_delivered()),
    );
    l.insert(
        "sim.shard_event_imbalance".into(),
        per(max_events as f64 * shard_events.len() as f64, events),
    );
    l.insert(
        "kernel.probe_yield".into(),
        per(jobs.migrated_out as f64, jobs.probes_sent),
    );
    if traced {
        l.insert("sim.queue_self_s".into(), queue_self_ns as f64 * 1e-9);
        l.insert(
            "sim.queue_ns_per_event".into(),
            per(queue_self_ns as f64, events),
        );
        l.insert("sim.barrier_stall_s".into(), stall_ns as f64 * 1e-9);
        l.insert("sim.digest_s".into(), times.digest_ns as f64 * 1e-9);
        l.insert("kernel.cell_busy_s".into(), times.busy_ns as f64 * 1e-9);
        l.insert(
            "kernel.cell_ns_per_event".into(),
            per(times.busy_ns as f64, times.events),
        );
    }
    rep
}
