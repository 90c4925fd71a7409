//! pmake — parallel make over the simulated Sprite cluster.
//!
//! Builds a [`DepGraph`] of targets by launching each ready job as a fresh
//! process and exec-time migrating it to an idle host chosen by a
//! [`HostSelector`](sprite_hostsel::HostSelector); dependencies and the
//! final sequential link bound the achievable speedup, and the shared file
//! server's CPU bends the curve — the two effects the paper's pmake
//! evaluation (Ch. 7.4) is about.

#![warn(missing_docs)]

mod graph;
mod run;

pub use graph::{Action, DepGraph, Target};
pub use run::{cluster_truth, prepare_sources, run_build, PmakeConfig, PmakeError, PmakeReport};

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_core::{MigrationConfig, Migrator};
    use sprite_fs::SpritePath;
    use sprite_hostsel::{AvailabilityPolicy, CentralServer, HostInfo, HostSelector};
    use sprite_kernel::Cluster;
    use sprite_net::{CostModel, HostId};
    use sprite_sim::{DetRng, SimDuration, SimTime};
    use sprite_workloads::CompileWorkload;

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    /// A cluster with a file server on host 0 and the selector warmed with
    /// every host's idle state.
    fn build_world(hosts: u32) -> (Cluster, Migrator, CentralServer) {
        let mut cluster = Cluster::new(CostModel::sun3(), hosts as usize);
        cluster.add_file_server(h(0), SpritePath::new("/"));
        let migrator = Migrator::new(MigrationConfig::default(), hosts as usize);
        let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
        for i in 0..hosts {
            let info = HostInfo::idle_host(h(i), SimDuration::from_secs(3600));
            selector.report(&mut cluster.net, SimTime::ZERO, info);
        }
        (cluster, migrator, selector)
    }

    fn workload(files: usize) -> CompileWorkload {
        CompileWorkload {
            files,
            mean_cpu: SimDuration::from_secs(10),
            link_cpu: SimDuration::from_secs(5),
            ..CompileWorkload::default()
        }
    }

    #[test]
    fn build_completes_and_produces_objects() {
        let (mut cluster, mut migrator, mut selector) = build_world(6);
        let graph = DepGraph::from_workload(&workload(8), &mut DetRng::seed_from(1));
        let home = h(1);
        let t = prepare_sources(&mut cluster, &graph, home, SimTime::ZERO).unwrap();
        let report = run_build(
            &mut cluster,
            &mut migrator,
            &mut selector,
            home,
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .unwrap();
        assert_eq!(report.targets_built, 9);
        assert!(report.remote_builds > 0, "some jobs went remote");
        // All object files (and the program) exist on the server.
        let server = cluster.fs.server(h(0)).unwrap();
        for i in 0..graph.len() {
            if let Action::Compile(job) = &graph.target(i).action {
                let id = server.lookup(&SpritePath::new(job.obj.as_str()));
                assert!(id.is_some(), "{} missing", job.obj);
            }
        }
        assert!(server.lookup(&SpritePath::new("/src/prog")).is_some());
        // No stray processes: everything exited and was reaped.
        assert_eq!(cluster.processes().count(), 0);
        // And no host still harbours foreign processes.
        for host in 0..6 {
            assert!(cluster.foreign_on(h(host)).next().is_none());
        }
    }

    #[test]
    fn migration_beats_single_host_build() {
        let files = 12;
        let serial = {
            let (mut cluster, mut migrator, mut selector) = build_world(8);
            let graph = DepGraph::from_workload(&workload(files), &mut DetRng::seed_from(2));
            let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
            let config = PmakeConfig {
                use_migration: false,
                ..PmakeConfig::default()
            };
            run_build(
                &mut cluster,
                &mut migrator,
                &mut selector,
                h(1),
                &graph,
                &config,
                t,
            )
            .unwrap()
        };
        let parallel = {
            let (mut cluster, mut migrator, mut selector) = build_world(8);
            let graph = DepGraph::from_workload(&workload(files), &mut DetRng::seed_from(2));
            let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
            run_build(
                &mut cluster,
                &mut migrator,
                &mut selector,
                h(1),
                &graph,
                &PmakeConfig::default(),
                t,
            )
            .unwrap()
        };
        let speedup = serial.makespan.as_secs_f64() / parallel.makespan.as_secs_f64();
        assert!(
            speedup > 2.0,
            "expected real speedup from 7 extra hosts, got {speedup:.2} \
             (serial {} parallel {})",
            serial.makespan,
            parallel.makespan
        );
        assert!(parallel.effective_parallelism > 2.0);
        assert_eq!(serial.remote_builds, 0);
    }

    #[test]
    fn speedup_saturates_with_amdahl_and_server_contention() {
        let files = 16;
        let mut makespans = Vec::new();
        for hosts in [2u32, 6, 12] {
            let (mut cluster, mut migrator, mut selector) = build_world(hosts);
            let graph = DepGraph::from_workload(&workload(files), &mut DetRng::seed_from(3));
            let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
            let r = run_build(
                &mut cluster,
                &mut migrator,
                &mut selector,
                h(1),
                &graph,
                &PmakeConfig::default(),
                t,
            )
            .unwrap();
            makespans.push(r.makespan);
        }
        assert!(makespans[1] < makespans[0], "6 hosts beat 2");
        // Doubling hosts again helps much less: the curve is bending.
        let gain1 = makespans[0].as_secs_f64() / makespans[1].as_secs_f64();
        let gain2 = makespans[1].as_secs_f64() / makespans[2].as_secs_f64();
        assert!(
            gain2 < gain1,
            "diminishing returns expected: gain1={gain1:.2} gain2={gain2:.2}"
        );
    }

    #[test]
    fn busy_hosts_are_not_used() {
        let (mut cluster, mut migrator, _) = build_world(4);
        // Fresh selector that believes every host is console-active.
        let mut selector = CentralServer::new(h(0), AvailabilityPolicy::default());
        for i in 0..4 {
            cluster.host_mut(h(i)).console_active = true;
            let info = HostInfo {
                host: h(i),
                load: 0.0,
                idle: SimDuration::ZERO,
                console_active: true,
                speed: 1.0,
            };
            selector.report(&mut cluster.net, SimTime::ZERO, info);
        }
        let graph = DepGraph::from_workload(&workload(4), &mut DetRng::seed_from(4));
        let t = prepare_sources(&mut cluster, &graph, h(1), SimTime::ZERO).unwrap();
        let report = run_build(
            &mut cluster,
            &mut migrator,
            &mut selector,
            h(1),
            &graph,
            &PmakeConfig::default(),
            t,
        )
        .unwrap();
        assert_eq!(report.remote_builds, 0, "no one to migrate to");
        assert_eq!(report.targets_built, 5);
    }
}
