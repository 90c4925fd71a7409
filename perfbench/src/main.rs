//! End-to-end and per-layer host-time benchmark of the Sprite migration
//! simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--hosts N] [--days N] [--files N]
//! ```
//!
//! One invocation repeats one workload, built from the seed, until
//! `--seconds` have passed (at least [`MIN_REPS`] times), checks that every
//! repetition produced the same output fingerprint (the cell workloads also
//! on the other engine, serial against sharded), and prints every metric by
//! name and unit. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A traced invocation alternates untraced and traced
//! repetitions, so its fingerprint check also covers traced against
//! untraced. Timings are host time, the end-to-end ones CPU time of the
//! process; simulated values are printed as model outputs and are never
//! metrics. `--workload all` runs every workload in
//! both modes, each in its own process. See `README.md` beside this file.

mod build;
mod cells;
mod clock;
mod month;
mod selector;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sprite_core::{Migrator, PhaseBreakdown};
use sprite_hostsel::SelectorStats;
use sprite_kernel::Cluster;
use sprite_net::RpcOp;

use build::{BuildParams, FS_SERVERS};
use cells::CellParams;
use clock::Lap;
use month::MonthParams;
use spans::{Profile, Span};

/// Fewest repetitions per invocation, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 53;

/// End-to-end metrics (untraced), with units.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced), with units. `BENCHMARK.json` lists the same.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue_self_s", "s"),
    ("sim.queue_ns_per_event", "ns"),
    ("sim.buckets_scanned_per_event", "count"),
    ("sim.events", "count"),
    ("sim.windows", "count"),
    ("sim.barrier_stall_s", "s"),
    ("sim.cross_shard_ratio", "ratio"),
    ("sim.shard_event_imbalance", "ratio"),
    ("sim.digest_s", "s"),
    ("sim.hash_probes", "count"),
    ("kernel.cell_busy_s", "s"),
    ("kernel.cell_ns_per_event", "ns"),
    ("kernel.probe_yield", "ratio"),
    ("kernel.calls_s", "s"),
    ("kernel.calls", "count"),
    ("kernel.stale_handle_lookups", "count"),
    ("kernel.proc_slab_high_water", "count"),
    ("core.exec_migrate_s", "s"),
    ("core.exec_migrate_calls", "count"),
    ("core.evict_s", "s"),
    ("core.evict_calls", "count"),
    ("core.migrations", "count"),
    ("core.failures", "count"),
    ("hostsel.report_s", "s"),
    ("hostsel.report_calls", "count"),
    ("hostsel.select_s", "s"),
    ("hostsel.select_calls", "count"),
    ("hostsel.release_s", "s"),
    ("hostsel.grant_ratio", "ratio"),
    ("hostsel.conflicts", "count"),
    ("net.messages", "count"),
    ("net.bytes", "B"),
    ("fs.lookups", "count"),
    ("fs.opens", "count"),
    ("fs.block_fetches", "count"),
    ("fs.block_writebacks", "count"),
    ("fs.bytes_read", "B"),
    ("fs.bytes_written", "B"),
    ("fs.name_cache_hit_ratio", "ratio"),
    ("fs.replica_hits", "count"),
    ("fs.pageins", "count"),
    ("fs.pageouts", "count"),
    ("fs.prepare_sources_s", "s"),
    ("pmake.run_build_s", "s"),
    ("pmake.self_s", "s"),
    ("pmake.targets", "count"),
    ("pmake.remote_ratio", "ratio"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.activity_lookup_s", "s"),
    ("workloads.activity_lookup_calls", "count"),
    ("driver.self_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// RPC ops whose call counts are per-layer metrics (`net.rpc.<op>.calls`):
/// every op one of the workloads uses.
const RPC_OPS: &[RpcOp] = &[
    RpcOp::MigrateNegotiate,
    RpcOp::MigrateState,
    RpcOp::ProcNotifyHome,
    RpcOp::FsOpen,
    RpcOp::FsLookup,
    RpcOp::FsClose,
    RpcOp::FsBlockRead,
    RpcOp::FsBlockWrite,
    RpcOp::FsShardRedirect,
    RpcOp::FsReplicaRead,
    RpcOp::HostselQuery,
    RpcOp::HostselReport,
    RpcOp::HostselGossip,
];

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    setup: Lap,
    run: Lap,
    /// [`clock::REFERENCE_S`] over the reference kernel's CPU time around
    /// this repetition: what scales its CPU times to reference seconds.
    scale: f64,
    /// Operations attempted: migration attempts, or spawned jobs for the
    /// cell workloads.
    attempted: u64,
    /// Of those, operations that failed.
    failed: u64,
    /// Everything the simulation produced that identifies its result.
    fingerprint: String,
    /// A failed plausibility check.
    fault: Option<String>,
    /// Per-layer metrics: exact counters always, timings when traced.
    layer: BTreeMap<String, f64>,
    /// Simulated model outputs (not performance metrics).
    model: BTreeMap<String, f64>,
}

impl Rep {
    fn new(setup: Lap, run: Lap) -> Self {
        Rep {
            setup,
            run,
            scale: 1.0,
            ..Rep::default()
        }
    }

    /// Records the span-derived layer metrics of a traced repetition.
    fn set_profile(&mut self, p: &Profile) {
        let l = &mut self.layer;
        let mut put = |name: &str, v: f64| {
            l.insert(name.to_string(), v);
        };
        put(
            "driver.self_s",
            p.self_s(Span::Driver) + p.self_s(Span::DriverTick),
        );
        put("sim.queue_self_s", p.self_s(Span::SimRun));
        put("kernel.calls_s", p.total_s(Span::KernelCalls));
        put("kernel.calls", p.get(Span::KernelCalls).calls as f64);
        put("core.exec_migrate_s", p.total_s(Span::CoreExecMigrate));
        put(
            "core.exec_migrate_calls",
            p.get(Span::CoreExecMigrate).calls as f64,
        );
        put("core.evict_s", p.total_s(Span::CoreEvict));
        put("core.evict_calls", p.get(Span::CoreEvict).calls as f64);
        put("hostsel.report_s", p.total_s(Span::HostselReport));
        put(
            "hostsel.report_calls",
            p.get(Span::HostselReport).calls as f64,
        );
        put("hostsel.select_s", p.total_s(Span::HostselSelect));
        put(
            "hostsel.select_calls",
            p.get(Span::HostselSelect).calls as f64,
        );
        put("hostsel.release_s", p.total_s(Span::HostselRelease));
        put("workloads.trace_gen_s", p.total_s(Span::TraceGen));
        put(
            "workloads.activity_lookup_s",
            p.total_s(Span::ActivityLookup),
        );
        put(
            "workloads.activity_lookup_calls",
            p.get(Span::ActivityLookup).calls as f64,
        );
        put("fs.prepare_sources_s", p.total_s(Span::PrepareSources));
        put("pmake.run_build_s", p.total_s(Span::RunBuild));
        put("pmake.self_s", p.self_s(Span::RunBuild));
    }
}

/// Reads the counters a `Cluster`-based workload leaves behind.
fn cluster_layers(
    rep: &mut Rep,
    cluster: &Cluster,
    migrator: &Migrator,
    sel: &SelectorStats,
    phases: Option<&PhaseBreakdown>,
) {
    let ratio = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let slab = cluster.proc_slab_stats();
    let totals = migrator.totals();
    let net = cluster.net.stats();
    let fs = cluster.fs.stats();
    // A handle that outlived its process or stream is a kernel bug.
    let stale = slab.stale_lookups + cluster.fs.streams().stale_lookups();
    if stale > 0 {
        rep.fault
            .get_or_insert_with(|| format!("{stale} stale-handle lookups"));
    }
    let l = &mut rep.layer;
    let mut put = |name: &str, v: f64| {
        l.insert(name.to_string(), v);
    };
    put("kernel.stale_handle_lookups", stale as f64);
    put("kernel.proc_slab_high_water", slab.high_water as f64);
    put("core.migrations", totals.migrations as f64);
    put("core.failures", totals.failures as f64);
    put("hostsel.grant_ratio", ratio(sel.granted, sel.requests));
    put("hostsel.conflicts", sel.conflicts as f64);
    put("net.messages", net.messages as f64);
    put("net.bytes", net.bytes as f64);
    put("fs.lookups", fs.lookups as f64);
    put("fs.opens", fs.opens as f64);
    put("fs.block_fetches", fs.block_fetches as f64);
    put("fs.block_writebacks", fs.block_writebacks as f64);
    put("fs.bytes_read", fs.bytes_read as f64);
    put("fs.bytes_written", fs.bytes_written as f64);
    put(
        "fs.name_cache_hit_ratio",
        ratio(fs.name_cache_hits, fs.opens),
    );
    put("fs.replica_hits", fs.replica_hits as f64);
    put("fs.pageins", fs.pageins as f64);
    put("fs.pageouts", fs.pageouts as f64);
    for (op, s) in cluster.net.rpc_table().rows() {
        put(&format!("net.rpc.{}.calls", op.label()), s.calls as f64);
    }

    let m = &mut rep.model;
    let mut model = |name: String, v: f64| {
        m.insert(name, v);
    };
    let moves = totals.migrations.max(1) as f64;
    if let Some(ph) = phases {
        for (name, d) in [
            ("negotiate", ph.negotiate),
            ("virtual_memory", ph.virtual_memory),
            ("streams", ph.streams),
            ("process_state", ph.process_state),
            ("commit", ph.commit),
        ] {
            model(format!("core.phase.{name}_s"), d.as_secs_f64() / moves);
        }
    }
    model(
        "core.freeze_mean_ms".into(),
        totals.total_freeze.as_secs_f64() * 1e3 / moves,
    );
    model("hostsel.info_age_mean_s".into(), sel.info_age.mean());
    for (op, s) in cluster.net.rpc_table().rows() {
        if s.calls > 0 {
            model(
                format!("net.rpc.{}.rtt_mean_ms", op.label()),
                s.rtt.mean() * 1e3,
            );
        }
    }
    let loads = cluster.fs.server_loads();
    let busy_max = loads.iter().map(|s| s.busy).max().unwrap_or_default();
    let queue_wait: f64 = loads.iter().map(|s| s.queue_wait.as_secs_f64()).sum();
    model("fs.server_busy_max_s".into(), busy_max.as_secs_f64());
    model("fs.server_queue_wait_s".into(), queue_wait);
}

/// A workload with its size resolved.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Cells(CellParams),
    Month(MonthParams),
    Build(BuildParams),
}

impl Plan {
    fn rep(self, seed: u64, traced: bool) -> Rep {
        match self {
            Plan::Cells(p) => cells::rep(p, seed, traced),
            Plan::Month(p) => month::rep(p, seed, traced),
            Plan::Build(p) => build::rep(p, seed, traced),
        }
    }

    fn describe(self) -> String {
        match self {
            Plan::Cells(p) => format!(
                "hosts={} days={} shards={} workers={}",
                p.hosts, p.days, p.shards, p.shards
            ),
            Plan::Month(p) => format!("hosts={} days={}", p.hosts, p.days),
            Plan::Build(p) => format!(
                "hosts={} files={} fs_servers={FS_SERVERS}",
                p.hosts, p.files
            ),
        }
    }
}

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "cell_month",
    "cell_month_sharded",
    "mechanism_month",
    "build_batch",
];

#[derive(Debug, Clone, Default)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    hosts: Option<u32>,
    days: Option<u64>,
    files: Option<usize>,
    /// The size flags as given, passed on by `--workload all`.
    size_flags: Vec<String>,
}

const USAGE: &str =
    "usage: perfbench --workload <cell_month|cell_month_sharded|mechanism_month|build_batch|all> \
[--seed N] [--seconds S] [--trace 0|1] [--hosts N] [--days N] [--files N]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            seed: DEFAULT_SEED,
            seconds: 30,
            ..Args::default()
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            let positive = || -> Result<usize, String> {
                match num()? {
                    0 => Err(format!("{flag} must be at least 1")),
                    n => usize::try_from(n).map_err(|_| format!("{flag}: too large")),
                }
            };
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = num()?,
                "--seconds" => a.seconds = num()?,
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--hosts" => {
                    a.hosts = Some(u32::try_from(positive()?).map_err(|_| "--hosts: too large")?)
                }
                "--days" => a.days = Some(positive()? as u64),
                "--files" => a.files = Some(positive()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
            if !matches!(
                flag.as_str(),
                "--workload" | "--seed" | "--seconds" | "--trace"
            ) {
                a.size_flags.extend([flag, value]);
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!("unknown workload '{}'", a.workload));
        }
        Ok(a)
    }

    fn plan(&self) -> Result<Plan, String> {
        let nproc = nproc();
        let cells = |shards: usize| {
            Plan::Cells(CellParams {
                hosts: self.hosts.unwrap_or(2_000),
                days: self.days.unwrap_or(1),
                shards,
            })
        };
        Ok(match self.workload.as_str() {
            "cell_month" => cells(1),
            "cell_month_sharded" => cells(nproc),
            "mechanism_month" => Plan::Month(MonthParams {
                hosts: self.hosts.unwrap_or(120) as usize,
                days: self.days.unwrap_or(15),
            }),
            "build_batch" => {
                let hosts = self.hosts.unwrap_or(16) as usize;
                // The file servers, the home host and at least one idle target.
                if hosts < FS_SERVERS + 2 {
                    return Err(format!("build_batch needs --hosts >= {}", FS_SERVERS + 2));
                }
                Plan::Build(BuildParams {
                    hosts,
                    files: self.files.unwrap_or(1_500),
                })
            }
            other => unreachable!("workload '{other}' was validated by parse"),
        })
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Fingerprints recorded at the commit that added this benchmark, at the
/// default sizes: one `<workload> <seed> <fingerprint>` per line.
const BASELINE: &str = include_str!("../fingerprints.txt");

/// Compares a default-size fingerprint with the recorded one. A difference
/// is not a failure: a correctness fix is meant to change the model's
/// output, and a simulator-only speedup is meant to leave it alone.
fn baseline(workload: &str, seed: u64, fingerprint: &str) -> &'static str {
    let recorded = BASELINE.lines().find_map(|l| {
        let mut it = l.splitn(3, ' ');
        let hit = it.next()? == workload && it.next()?.parse::<u64>().ok()? == seed;
        hit.then(|| it.next()).flatten()
    });
    match recorded {
        None => "no fingerprint recorded for this workload and seed",
        Some(f) if f == fingerprint => "matches the recorded fingerprint",
        Some(_) => "DIFFERS from the recorded fingerprint (the simulated output changed)",
    }
}

/// The median, as `statistics.median` computes it.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Names and units of the per-layer metrics, RPC call counts included.
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(
            RPC_OPS
                .iter()
                .map(|op| (format!("net.rpc.{}.calls", op.label()), "count")),
        )
        .collect()
}

/// Per-layer metrics that only a sharded engine produces.
const SHARD_METRICS: [&str; 3] = [
    "sim.barrier_stall_s",
    "sim.cross_shard_ratio",
    "sim.shard_event_imbalance",
];

fn run_one(args: &Args) -> Result<bool, String> {
    let plan = args.plan()?;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // The reference kernel runs before the first repetition and after each
    // one; a repetition is scaled by the mean of the two runs around it.
    let mut kernel = vec![clock::reference_cpu_s()];
    let mut timed = |traced: bool| {
        let mut rep = plan.rep(args.seed, traced);
        let before = kernel[kernel.len() - 1];
        let after = clock::reference_cpu_s();
        kernel.push(after);
        rep.scale = clock::REFERENCE_S / ((before + after) / 2.0);
        rep
    };
    while plain.len() < MIN_REPS || start.elapsed() < window {
        plain.push(timed(false));
        if args.trace {
            traced.push(timed(true));
        }
    }
    // Read before the cross-check, whose engine holds more buffers.
    let peak_rss = peak_rss_mb()?;

    // The cell workloads run their inputs once more, untimed, on the other
    // engine: serial when the timed runs were sharded, sharded (at least two
    // shards and workers) when they were serial. Both must agree.
    let cross = match plan {
        Plan::Cells(p) => {
            let shards = if p.shards == 1 { nproc().max(2) } else { 1 };
            let rep = Plan::Cells(CellParams { shards, ..p }).rep(args.seed, args.trace);
            if shards > 1 {
                for name in SHARD_METRICS {
                    let v = rep.layer.get(name).copied().unwrap_or(0.0);
                    for r in &mut traced {
                        r.layer.insert(name.to_string(), v);
                    }
                }
            }
            Some((shards, rep))
        }
        _ => None,
    };

    // Every repetition, traced or not, must reproduce the first untraced one.
    let expected = plain[0].fingerprint.clone();
    let labelled = plain
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("untraced repetition {i}"), r))
        .chain(
            traced
                .iter()
                .enumerate()
                .map(|(i, r)| (format!("traced repetition {i}"), r)),
        )
        .chain(
            cross
                .iter()
                .map(|(shards, r)| (format!("{shards}-shard cross-check"), r)),
        );
    let mut attempted = 0;
    let mut failed = 0;
    let mut bad = 0;
    let mut first_bad = None;
    let mut checked = 0;
    for (label, rep) in labelled {
        checked += 1;
        attempted += rep.attempted;
        if rep.fingerprint != expected || rep.fault.is_some() {
            failed += rep.attempted;
            bad += 1;
            first_bad.get_or_insert_with(|| match &rep.fault {
                Some(fault) => format!("{label}: {fault}"),
                None => format!("{label}: fingerprint {}", rep.fingerprint),
            });
        } else {
            failed += rep.failed;
        }
    }
    let correct = first_bad.is_none();

    println!(
        "perfbench workload={} seed={} nproc={} trace={} {} repetitions={}+{} traced",
        args.workload,
        args.seed,
        nproc(),
        u8::from(args.trace),
        plan.describe(),
        plain.len(),
        traced.len()
    );
    println!("fingerprint {expected}");
    if let Some((shards, _)) = &cross {
        println!("cross-check: the same inputs also ran on {shards} shard(s) and worker(s)");
    }
    if args.size_flags.is_empty() {
        println!(
            "baseline: {}",
            baseline(&args.workload, args.seed, &expected)
        );
    }
    if let Some(first) = &first_bad {
        println!("CHECK FAILED: {bad} of {checked} repetitions differ or failed; first: {first}");
    }
    let failed_ratio = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!("failed_ratio {failed_ratio} ({failed} of {attempted} operations)");

    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    let setup_s = med(&plain, &|r| r.setup.cpu_s * r.scale);
    let run_s = med(&plain, &|r| r.run.cpu_s * r.scale);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced_run_s = med(&traced, &|r| r.run.cpu_s * r.scale);
        per_layer_catalog()
            .into_iter()
            .map(|(name, unit)| {
                let v = match name.as_str() {
                    "bench.traced_run_s" => traced_run_s,
                    "bench.trace_overhead_ratio" => traced_run_s / run_s,
                    _ => med(&traced, &|r| r.layer.get(&name).copied().unwrap_or(0.0)),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [setup_s, run_s, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect()
    };
    for (name, v, unit) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    let spread = |name: &str, mut times: Vec<f64>| {
        let mid = median(&mut times);
        if let (Some(lo), Some(hi)) = (times.first(), times.last()) {
            println!(
                "{name} over {} runs: min {lo:.4} median {mid:.4} max {hi:.4} s",
                times.len()
            );
        }
    };
    let each = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    spread("run_s", each(&plain, &|r| r.run.cpu_s * r.scale));
    spread("run_s (cpu, unscaled)", each(&plain, &|r| r.run.cpu_s));
    spread("run_s (wall)", each(&plain, &|r| r.run.wall_s));
    spread("traced run_s", each(&traced, &|r| r.run.cpu_s * r.scale));
    spread("reference kernel (cpu)", kernel);
    for (name, v) in &plain[0].model {
        println!("model {name} {v} (simulated; a model output, not a performance metric)");
    }
    let metrics: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&metrics)
    );
    Ok(correct)
}

/// Runs every workload in both modes, each in a child process of its own
/// so that peak memory is per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut run_s = BTreeMap::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .args(&args.size_flags)
                .output()
                .map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            // `run_s` is CPU time; a speedup from threads shows in wall time.
            if let Some(v) = stdout
                .lines()
                .filter(|_| trace == "0")
                .find_map(|l| l.strip_prefix("run_s (wall) over "))
                .and_then(|l| l.split(" median ").nth(1))
                .and_then(|v| v.split(' ').next())
                .and_then(|v| v.parse::<f64>().ok())
            {
                run_s.insert(workload, v);
            }
        }
    }
    if let (Some(serial), Some(sharded)) =
        (run_s.get("cell_month"), run_s.get("cell_month_sharded"))
    {
        println!(
            "derived: cell_month / cell_month_sharded wall-time run_s = {:.3} on nproc={} \
             (not parallel speedup alone: see README.md on the calendar artifact)",
            serial / sharded,
            nproc()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
