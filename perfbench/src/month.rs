//! The `mechanism_month` workload: an e11-style month through `Cluster`,
//! `Migrator` and `GossipDissemination`, driven by one periodic minute tick.
//!
//! The driver is the benchmark's own copy of e11's minute tick, so that
//! every call into a crate sits inside a span. It builds the gossip
//! selector for the requested host count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sprite_bench::support::{h, standard_cluster, standard_migrator};
use sprite_core::{MigrationReport, Migrator, PhaseBreakdown};
use sprite_fs::SpritePath;
use sprite_hostsel::{AvailabilityPolicy, GossipDissemination, HostInfo, HostSelector};
use sprite_kernel::{Cluster, ProcessId};
use sprite_net::HostId;
use sprite_sim::{DetRng, Engine, SimDuration, SimTime};
use sprite_workloads::{ActivityModel, ActivityTrace, DAY};

use crate::clock::Stopwatch;
use crate::selector::TimedSelector;
use crate::spans::{self, span, span_n, Span};
use crate::{cluster_layers, Rep};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct MonthParams {
    /// Hosts.
    pub hosts: usize,
    /// Simulated days.
    pub days: u64,
}

struct ActiveJob {
    pid: ProcessId,
    remaining: SimDuration,
    granted_host: Option<HostId>,
}

struct World {
    cluster: Cluster,
    migrator: Migrator,
    selector: TimedSelector<GossipDissemination>,
    rng: DetRng,
    program: SpritePath,
    traces: Vec<ActivityTrace>,
    jobs: Vec<ActiveJob>,
    bursts: BinaryHeap<Reverse<(SimTime, usize)>>,
    active: Vec<bool>,
    was_active: Vec<bool>,
    idle: Vec<SimDuration>,
    infos: Vec<HostInfo>,
    launched: u64,
    remote: u64,
    /// Simulated phase costs summed over every migration.
    phases: PhaseBreakdown,
}

fn add_phases(sum: &mut PhaseBreakdown, r: &MigrationReport) {
    sum.negotiate += r.phases.negotiate;
    sum.virtual_memory += r.phases.virtual_memory;
    sum.streams += r.phases.streams;
    sum.process_state += r.phases.process_state;
    sum.commit += r.phases.commit;
}

/// One simulated minute, in e11's order: load reports, owner-return
/// evictions, burst completions, job launches.
fn minute_tick(w: &mut World, t: SimTime) {
    let n = w.traces.len();
    span_n(Span::ActivityLookup, 2 * n as u64, || {
        for (i, tr) in w.traces.iter().enumerate() {
            w.active[i] = tr.active_at(t);
            w.idle[i] = tr.idle_duration_at(t);
        }
    });
    span_n(Span::KernelCalls, 2 * n as u64, || {
        for i in 0..n {
            let host = h(i as u32);
            w.infos[i] = HostInfo {
                host,
                load: w.cluster.host(host).resident().len() as f64,
                idle: w.idle[i],
                console_active: w.active[i],
                speed: 1.0,
            };
            w.cluster.host_mut(host).console_active = w.active[i];
        }
    });
    // Millions of reports a month: timed as one batch per tick.
    span_n(Span::HostselReport, n as u64, || {
        for info in &w.infos {
            w.selector.0.report(&mut w.cluster.net, t, *info);
        }
    });
    for i in 0..n {
        let host = h(i as u32);
        if w.active[i]
            && !w.was_active[i]
            && span(Span::KernelCalls, || {
                w.cluster.foreign_on(host).next().is_some()
            })
        {
            let evicted = span(Span::CoreEvict, || {
                w.migrator.evict_all(&mut w.cluster, t, host)
            })
            .expect("an owner's return always evicts its host");
            for r in &evicted {
                add_phases(&mut w.phases, r);
            }
        }
        w.was_active[i] = w.active[i];
    }
    while let Some(&Reverse((done, idx))) = w.bursts.peek() {
        if done > t {
            break;
        }
        w.bursts.pop();
        let job = &mut w.jobs[idx];
        if job.remaining.is_zero() {
            let pid = job.pid;
            let t2 = span(Span::KernelCalls, || w.cluster.exit(done, pid, 0)).expect("exit");
            if let Some(granted) = job.granted_host.take() {
                w.selector
                    .release(&mut w.cluster.net, t2, pid.home(), granted);
            }
        } else {
            let chunk = job.remaining.min(SimDuration::from_secs(60));
            job.remaining -= chunk;
            let pid = job.pid;
            let next =
                span(Span::KernelCalls, || w.cluster.run_cpu(done, pid, chunk)).expect("burst");
            w.bursts.push(Reverse((next, idx)));
        }
    }
    for i in 0..n {
        if !(w.active[i] && w.rng.chance(0.04)) {
            continue;
        }
        let home = h(i as u32);
        let (pid, t1) = span(Span::KernelCalls, || {
            w.cluster.spawn(t, home, &w.program, 32, 8)
        })
        .expect("spawn");
        w.launched += 1;
        let (choice, t2) = w.selector.select(&mut w.cluster.net, t1, home, &w.infos);
        let (start_at, granted) = match choice {
            Some(target) => {
                let moved = span(Span::CoreExecMigrate, || {
                    w.migrator
                        .exec_migrate(&mut w.cluster, t2, pid, target, &w.program, 32, 8)
                });
                match moved {
                    Ok(r) => {
                        w.remote += 1;
                        let at = r.resumed_at;
                        add_phases(&mut w.phases, &r);
                        (at, Some(target))
                    }
                    // A refused move runs at home; the failure is counted
                    // in the migrator's totals.
                    Err(_) => {
                        w.selector.release(&mut w.cluster.net, t2, home, target);
                        (t2, None)
                    }
                }
            }
            None => (t2, None),
        };
        let cpu = w
            .rng
            .jittered(SimDuration::from_secs(100), SimDuration::from_secs(40))
            .max(SimDuration::from_secs(10));
        w.jobs.push(ActiveJob {
            pid,
            remaining: cpu,
            granted_host: granted,
        });
        w.bursts.push(Reverse((start_at, w.jobs.len() - 1)));
    }
}

/// One repetition: generate the traces, build the cluster, run the month.
pub fn rep(p: MonthParams, seed: u64, traced: bool) -> Rep {
    spans::record(traced);
    let setup = Stopwatch::start();
    let (cluster, setup_done) = standard_cluster(p.hosts);
    let mut rng = DetRng::seed_from(seed);
    let model = ActivityModel::default();
    let horizon = SimDuration::from_secs(p.days * DAY);
    let traces: Vec<ActivityTrace> = span_n(Span::TraceGen, p.hosts as u64, || {
        (0..p.hosts)
            .map(|i| ActivityTrace::generate(&mut rng, &model, h(i as u32), horizon))
            .collect()
    });
    let mut gossip =
        GossipDissemination::new(p.hosts, 1, 4, AvailabilityPolicy::default(), seed ^ 0x6055);
    gossip.set_refresh_every(30);
    gossip.set_max_age(SimDuration::from_secs(45 * 60));
    let mut world = World {
        cluster,
        migrator: standard_migrator(p.hosts),
        selector: TimedSelector(gossip),
        rng,
        program: SpritePath::new("/bin/sim"),
        traces,
        jobs: Vec::new(),
        bursts: BinaryHeap::new(),
        active: vec![false; p.hosts],
        was_active: vec![false; p.hosts],
        idle: vec![SimDuration::ZERO; p.hosts],
        infos: (0..p.hosts)
            .map(|i| HostInfo::idle_host(h(i as u32), SimDuration::ZERO))
            .collect(),
        launched: 0,
        remote: 0,
        phases: PhaseBreakdown::default(),
    };
    let step = SimDuration::from_secs(60);
    let end = SimTime::ZERO + horizon;
    let mut engine: Engine<World> = Engine::new();
    engine.schedule_periodic_at(
        SimTime::ZERO.max_of(setup_done),
        step,
        move |w: &mut World, e: &mut Engine<World>| {
            let t = e.now();
            span(Span::DriverTick, || minute_tick(w, t));
            t + step < end
        },
    );
    let setup = setup.lap();

    let probes = sprite_sim::hash_probes();
    let start = Stopwatch::start();
    span(Span::Driver, || {
        span(Span::SimRun, || engine.run(&mut world))
    });
    let run = start.lap();
    let probes = sprite_sim::hash_probes() - probes;
    let profile = spans::take();
    spans::record(false);

    let w = world;
    let totals = w.migrator.totals();
    let mut rep = Rep::new(setup, run);
    rep.attempted = totals.migrations + totals.failures;
    rep.failed = totals.failures;
    rep.fingerprint = format!(
        "cluster={:016x} jobs={} remote={} migrations={} evictions={} failures={} events={}",
        w.cluster.digest(),
        w.launched,
        w.remote,
        totals.migrations,
        totals.evictions,
        totals.failures,
        engine.events_executed(),
    );
    if w.launched == 0 || w.remote == 0 || totals.migrations != w.remote + totals.evictions {
        rep.fault = Some("implausible job or migration totals".into());
    }
    cluster_layers(
        &mut rep,
        &w.cluster,
        &w.migrator,
        w.selector.stats(),
        Some(&w.phases),
    );
    let events = engine.events_executed();
    rep.layer.insert("sim.events".into(), events as f64);
    rep.layer.insert(
        "sim.buckets_scanned_per_event".into(),
        engine.counters().buckets_scanned as f64 / events.max(1) as f64,
    );
    if traced {
        rep.set_profile(&profile);
        rep.layer.insert("sim.hash_probes".into(), probes as f64);
        rep.layer.insert(
            "sim.queue_ns_per_event".into(),
            profile.get(Span::SimRun).self_ns as f64 / events.max(1) as f64,
        );
    }
    rep
}
