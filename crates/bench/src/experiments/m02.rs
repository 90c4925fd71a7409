//! M2 — partitioned-parallel determinism macrobench.
//!
//! The conservative-parallel engine's contract is audacious enough to need
//! its own macrobench: shard a **5 000-host** cluster (100× the thesis's
//! 50 workstations) across worker threads, run a simulated month of
//! idle-host harvesting (~1.3 million process lifetimes), and produce a
//! digest stream **byte-identical** to the serial run's — same checkpoints,
//! same event counts, same digests, for any `--shards` / worker count.
//!
//! Each invocation drives the workload twice: once serial (1 shard, 1
//! worker) and once sharded (the `--shards` request), then compares the two
//! audit streams checkpoint by checkpoint. The stdout block prints only
//! partition-invariant facts — job totals, window/event/message counts, the
//! folded stream digest — so `scripts/bench_check.sh` can byte-compare it
//! across `--shards` values exactly like the golden tables. Partition-
//! *dependent* facts (per-shard effort, cross-shard message counts,
//! barrier-stall time, wall seconds) go to stderr and the JSON sidecar.
//!
//! Like m01, this is not part of the default suite: it prints only when
//! `--m02[=HOSTS:DAYS]` is requested, so the golden stdout of a plain run
//! is untouched.

use std::time::Instant;

use sprite_kernel::build_cluster_cells;
use sprite_net::{CostModel, ShardLink};
use sprite_sim::{
    Checkpoint, EngineCounters, ShardCounters, ShardedEngine, SimDuration, SimTime, StateDigest,
    WorkerCounters,
};

use crate::support::TableWriter;

/// Hosts in the full m02 cluster.
pub const FULL_HOSTS: u32 = 5_000;
/// Simulated days in the full run.
pub const FULL_DAYS: u64 = 30;
/// Master seed.
pub const FULL_SEED: u64 = 53;
/// Checkpoint cadence in barrier windows (one window covers one simulated
/// minute): daily at full scale, hourly for short runs — a pure function
/// of the parameters, so every partitioning checkpoints identically.
pub fn audit_every_windows(params: M02Params) -> u64 {
    (params.days * 1_440 / FULL_DAYS).clamp(60, 1_440)
}

/// Workload size knobs (the seed stays fixed so "same params" always means
/// "same history").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M02Params {
    /// Cluster size.
    pub hosts: u32,
    /// Simulated days.
    pub days: u64,
}

/// The full-scale parameters.
pub const FULL: M02Params = M02Params {
    hosts: FULL_HOSTS,
    days: FULL_DAYS,
};

/// Cluster-wide job accounting, summed over every host's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTotals {
    /// Jobs spawned.
    pub spawned: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs placed on a remote host at spawn.
    pub migrated: u64,
    /// Foreign jobs evicted home.
    pub evicted: u64,
    /// Load probes sent.
    pub probes: u64,
}

/// One drive of the workload at a given partitioning.
#[derive(Debug, Clone)]
pub struct M02Run {
    /// Logical shards.
    pub shards: usize,
    /// Effective worker threads (bounded by the machine).
    pub workers: usize,
    /// Barrier windows executed.
    pub windows: u64,
    /// Events executed (partition-invariant).
    pub events: u64,
    /// Messages delivered (partition-invariant).
    pub messages: u64,
    /// Messages that crossed shards (partition-*dependent*).
    pub cross_messages: u64,
    /// The digest stream.
    pub audit: Vec<Checkpoint>,
    /// Per-shard effort.
    pub shard_counters: Vec<ShardCounters>,
    /// Calendar-queue effort summed across shards.
    pub queue: EngineCounters,
    /// Per-worker barrier stalls.
    pub worker_stalls: Vec<WorkerCounters>,
    /// Cluster-wide job accounting.
    pub jobs: JobTotals,
    /// Wall-clock seconds for this drive.
    pub wall_seconds: f64,
}

/// Serial-vs-sharded comparison, the unit the gate checks.
#[derive(Debug, Clone)]
pub struct M02Report {
    /// Workload size.
    pub params: M02Params,
    /// The 1-shard / 1-worker reference drive.
    pub serial: M02Run,
    /// The requested-partitioning drive.
    pub sharded: M02Run,
    /// Whether the two digest streams are identical (checkpoint counts,
    /// event counts, times and digests all equal).
    pub digest_match: bool,
}

/// Drives the workload once. `shards` is the logical partition count;
/// `workers` is the requested thread count (0 = auto), which the engine
/// clamps to `[1, shards]`.
pub fn drive(params: M02Params, shards: usize, workers: usize) -> M02Run {
    let link = ShardLink::new(CostModel::sun3(), SimDuration::from_secs(60));
    let cells = build_cluster_cells(params.hosts, FULL_SEED);
    let mut eng = ShardedEngine::new(cells, shards, link.lookahead());
    eng.set_workers(workers);
    eng.audit_every_windows(audit_every_windows(params));
    let start = Instant::now();
    eng.set_stall_clock(std::sync::Arc::new(move || {
        start.elapsed().as_nanos() as u64
    }));
    for id in 0..params.hosts {
        eng.seed_timer(id, SimTime::from_micros(60_000_000), 0);
    }
    let wall = Instant::now();
    eng.run(SimTime::from_micros(params.days * 24 * 60 * 60_000_000));
    let wall_seconds = wall.elapsed().as_secs_f64();

    let mut jobs = JobTotals::default();
    for cell in eng.cells() {
        let s = cell.stats();
        jobs.spawned += s.spawned;
        jobs.completed += s.completed;
        jobs.migrated += s.migrated_out;
        jobs.evicted += s.evicted;
        jobs.probes += s.probes_sent;
    }
    M02Run {
        shards: eng.nshards(),
        workers: eng.worker_stalls().len().max(1),
        windows: eng.windows(),
        events: eng.events_executed(),
        messages: eng.messages_delivered(),
        cross_messages: eng.cross_shard_messages(),
        shard_counters: eng.shard_counters(),
        queue: eng.queue_counters(),
        worker_stalls: eng.worker_stalls().to_vec(),
        jobs,
        wall_seconds,
        audit: eng.take_audit_stream(),
    }
}

/// Runs the serial reference and the sharded drive and compares streams.
pub fn run(params: M02Params, shards: usize) -> M02Report {
    let serial = drive(params, 1, 1);
    let sharded = drive(params, shards, 0);
    let digest_match = serial.audit == sharded.audit;
    M02Report {
        params,
        serial,
        sharded,
        digest_match,
    }
}

/// Folds a digest stream into one u64 so the table can print "the whole
/// stream" in a line.
pub fn stream_digest(audit: &[Checkpoint]) -> u64 {
    let mut d = StateDigest::new();
    d.write_usize(audit.len());
    for c in audit {
        d.write_u64(c.events);
        d.write_u64(c.at.as_micros());
        d.write_u64(c.digest);
    }
    d.finish()
}

/// Renders the stdout block. Everything here is partition-invariant, so
/// the block must be byte-identical for every `--shards` value — that is
/// what `scripts/bench_check.sh` enforces.
pub fn render(r: &M02Report) -> String {
    let mut t = TableWriter::new(
        &format!(
            "M2: partitioned-parallel determinism macrobench ({} hosts x {} simulated days, seed {})",
            r.params.hosts, r.params.days, FULL_SEED
        ),
        &["metric", "value"],
    );
    let jobs = &r.serial.jobs;
    t.row(&["jobs: spawned".into(), jobs.spawned.to_string()]);
    t.row(&["jobs: completed".into(), jobs.completed.to_string()]);
    t.row(&[
        "jobs: migrated at spawn".into(),
        format!(
            "{} ({:.0}%)",
            jobs.migrated,
            100.0 * jobs.migrated as f64 / jobs.spawned.max(1) as f64
        ),
    ]);
    t.row(&["jobs: evicted home".into(), jobs.evicted.to_string()]);
    t.row(&["load probes sent".into(), jobs.probes.to_string()]);
    t.row(&["barrier windows".into(), r.serial.windows.to_string()]);
    t.row(&["events executed".into(), r.serial.events.to_string()]);
    t.row(&["messages delivered".into(), r.serial.messages.to_string()]);
    t.row(&[
        "digest checkpoints".into(),
        r.serial.audit.len().to_string(),
    ]);
    t.row(&[
        "digest stream (folded)".into(),
        format!("{:016x}", stream_digest(&r.serial.audit)),
    ]);
    t.row(&[
        "sharded stream identical".into(),
        if r.digest_match {
            "yes"
        } else {
            "NO — DIVERGED"
        }
        .to_string(),
    ]);
    t.note("the sharded drive re-runs the same workload partitioned across");
    t.note("worker threads; its digest stream must match the serial stream");
    t.note("byte for byte (shard/worker counts and wall time are on stderr)");
    t.render()
}

/// Calendar key comparisons per executed event — the queue's exact,
/// machine-independent work measure.
pub fn entries_compared_per_event(run: &M02Run) -> f64 {
    run.queue.entries_compared as f64 / run.events.max(1) as f64
}

/// Total barrier-stall nanoseconds across a drive's workers.
pub fn total_stall_ns(run: &M02Run) -> u64 {
    run.worker_stalls.iter().map(|w| w.stall_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_m02_streams_match_and_do_work() {
        let params = M02Params { hosts: 60, days: 1 };
        let report = run(params, 4);
        assert!(report.digest_match, "sharded stream diverged");
        assert!(!report.serial.audit.is_empty());
        assert!(report.serial.jobs.spawned > 0);
        assert!(report.serial.jobs.migrated > 0);
        assert_eq!(report.serial.events, report.sharded.events);
        assert_eq!(report.serial.messages, report.sharded.messages);
        assert_eq!(report.sharded.shards, 4);
        // Rendering is partition-invariant by construction: it reads only
        // the serial drive and the match flag.
        let text = render(&report);
        assert!(text.contains("sharded stream identical"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn stream_digest_is_sensitive() {
        let a = run(M02Params { hosts: 20, days: 1 }, 2);
        let b = run(M02Params { hosts: 21, days: 1 }, 2);
        assert_ne!(
            stream_digest(&a.serial.audit),
            stream_digest(&b.serial.audit)
        );
    }
}
