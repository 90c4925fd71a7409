//! The `build_batch` workload: one pmake build of many short compiles with
//! a wide shared-header fan-out (e05's sweep shape) over a striped file
//! service whose hot files grow read replicas.

use sprite_bench::support::{h, sharded_cluster, standard_migrator, warmed_selector};
use sprite_hostsel::HostSelector;
use sprite_pmake::{prepare_sources, run_build, DepGraph, PmakeConfig};
use sprite_sim::{DetRng, SimDuration};
use sprite_workloads::CompileWorkload;

use crate::clock::Stopwatch;
use crate::selector::TimedSelector;
use crate::spans::{self, span, Span};
use crate::{cluster_layers, Rep};

/// File-server daemons striping the root domain.
pub const FS_SERVERS: usize = 2;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    /// Hosts, including the [`FS_SERVERS`] file servers and the home host.
    pub hosts: usize,
    /// Compilations.
    pub files: usize,
}

/// One repetition: build the cluster and the source tree, run the build.
pub fn rep(p: BuildParams, seed: u64, traced: bool) -> Rep {
    spans::record(traced);
    let setup = Stopwatch::start();
    let (mut cluster, t0) = sharded_cluster(p.hosts, FS_SERVERS);
    let mut migrator = standard_migrator(p.hosts);
    // Server hosts and the home host are busy; the rest are idle targets.
    let home = h(FS_SERVERS as u32);
    let mut selector = TimedSelector(warmed_selector(
        &mut cluster,
        p.hosts,
        FS_SERVERS as u32 + 1,
    ));
    let workload = CompileWorkload {
        files: p.files,
        mean_cpu: SimDuration::from_millis(500),
        mean_src_bytes: 4 * 1024,
        headers_per_file: 32,
        header_pool: 8,
        link_cpu: SimDuration::from_secs(2),
    };
    let graph = DepGraph::from_workload(&workload, &mut DetRng::seed_from(seed));
    let t = span(Span::PrepareSources, || {
        prepare_sources(&mut cluster, &graph, home, t0)
    })
    .expect("prepare sources");
    let config = PmakeConfig::default();
    let setup = setup.lap();

    let probes = sprite_sim::hash_probes();
    let start = Stopwatch::start();
    let built = span(Span::Driver, || {
        span(Span::RunBuild, || {
            run_build(
                &mut cluster,
                &mut migrator,
                &mut selector,
                home,
                &graph,
                &config,
                t,
            )
        })
    });
    let run = start.lap();
    let probes = sprite_sim::hash_probes() - probes;
    let profile = spans::take();
    spans::record(false);

    let totals = migrator.totals();
    let mut rep = Rep::new(setup, run);
    rep.attempted = totals.migrations + totals.failures;
    rep.failed = totals.failures;
    let report = match built {
        Ok(report) => report,
        Err(e) => {
            rep.fault = Some(format!("build failed: {e}"));
            return rep;
        }
    };
    rep.fingerprint = format!(
        "cluster={:016x} targets={} remote={} local={} makespan_us={} migrations={} failures={}",
        cluster.digest(),
        report.targets_built,
        report.remote_builds,
        report.local_builds,
        report.makespan.as_micros(),
        totals.migrations,
        totals.failures,
    );
    if report.targets_built != graph.len() || report.remote_builds == 0 {
        rep.fault = Some("build left targets unbuilt or ran nothing remotely".into());
    }
    cluster_layers(&mut rep, &cluster, &migrator, selector.stats(), None);
    let builds = (report.remote_builds + report.local_builds).max(1);
    rep.layer
        .insert("pmake.targets".into(), report.targets_built as f64);
    rep.layer.insert(
        "pmake.remote_ratio".into(),
        report.remote_builds as f64 / builds as f64,
    );
    rep.model
        .insert("pmake.makespan_s".into(), report.makespan.as_secs_f64());
    if traced {
        rep.set_profile(&profile);
        rep.layer.insert("sim.hash_probes".into(), probes as f64);
    }
    rep
}
