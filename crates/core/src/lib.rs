//! Transparent process migration for the simulated Sprite cluster — the
//! reproduction of the paper's primary contribution.
//!
//! [`Migrator`] implements the full migration protocol (negotiate, freeze,
//! per-module state transfer, commit, resume) over the kernel, file-system,
//! VM and network substrates; [`Migrator::exec_migrate`] implements the
//! cheap exec-time path Sprite steers most remote execution through; and
//! [`Migrator::evict_all`] implements the eviction that reclaims a
//! workstation for its returning owner.
//!
//! Transparency is the design requirement: after any sequence of
//! migrations a process keeps its PID, its open files and their access
//! positions, its pending signals and its family relationships — and every
//! location-dependent kernel call still behaves as though the process had
//! never left home. The tests in this crate check exactly those properties.

#![warn(missing_docs)]

mod checkpoint;
mod protocol;
mod reclaim;

pub use checkpoint::{checkpoint_restart, CheckpointReport};
pub use protocol::{
    MigrationConfig, MigrationError, MigrationReport, MigrationResult, MigrationTotals, Migrator,
    PhaseBreakdown, EVICTION_RETRY_LIMIT,
};
pub use reclaim::{
    checkpoint_move, image_path, preferred_mechanism, restart_from_image, young_interval,
    CkptMoveReport, Mechanism,
};

#[cfg(test)]
mod tests {
    use super::*;
    use sprite_fs::{OpenMode, SpritePath};
    use sprite_kernel::{Cluster, KernelCall, ProcState, Signal};
    use sprite_net::{CostModel, HostId};
    use sprite_sim::{SimDuration, SimTime};
    use sprite_vm::{SegmentKind, VirtAddr, VmStrategy};

    fn h(i: u32) -> HostId {
        HostId::new(i)
    }

    fn setup() -> (Cluster, Migrator, SimTime) {
        let mut c = Cluster::new(CostModel::sun3(), 5);
        c.add_file_server(h(0), SpritePath::new("/"));
        let t = c
            .install_program(SimTime::ZERO, SpritePath::new("/bin/sim"), 32 * 1024)
            .unwrap();
        let m = Migrator::new(MigrationConfig::default(), 5);
        (c, m, t)
    }

    #[test]
    fn migrate_moves_process_and_preserves_memory() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 64, 16)
            .unwrap();
        // Fill memory with a recognizable pattern.
        let pattern: Vec<u8> = (0..20_000u32).map(|i| (i % 240) as u8).collect();
        let addr = VirtAddr::new(SegmentKind::Heap, 512);
        let t = {
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t2 = sp
                .write(&mut c.fs, &mut c.net, t, h(1), addr, &pattern)
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            t2
        };
        let report = m.migrate(&mut c, t, pid, h(2)).unwrap();
        assert_eq!(report.from, h(1));
        assert_eq!(report.to, h(2));
        let p = c.pcb(pid).unwrap();
        assert_eq!(p.current, h(2));
        assert_eq!(p.state, ProcState::Active);
        assert!(p.is_foreign());
        assert_eq!(p.migrations, 1);
        // Memory is byte-identical when touched from the new host.
        let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
        let (back, _) = sp
            .read(
                &mut c.fs,
                &mut c.net,
                report.resumed_at,
                h(2),
                addr,
                pattern.len() as u64,
            )
            .unwrap();
        assert_eq!(back, pattern);
        c.pcb_mut(pid).unwrap().space = Some(sp);
    }

    #[test]
    fn migrate_preserves_open_files_and_positions() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/out"))
            .unwrap();
        let (fd, t) = c
            .open_fd(t, pid, SpritePath::new("/out"), OpenMode::ReadWrite)
            .unwrap();
        let t = c.write_fd(t, pid, fd, b"before-migration ").unwrap();
        let report = m.migrate(&mut c, t, pid, h(3)).unwrap();
        // The same descriptor keeps working, appending where it left off.
        let t = c
            .write_fd(report.resumed_at, pid, fd, b"after-migration")
            .unwrap();
        let stream = c.pcb(pid).unwrap().fd(fd).unwrap();
        c.fs.seek(stream, 0).unwrap();
        let (data, _) = c.read_fd(t, pid, fd, 64).unwrap();
        assert_eq!(&data, b"before-migration after-migration");
        assert_eq!(report.streams_moved, 1);
        assert_eq!(report.shadows_created, 0, "sole reference: no shadow");
    }

    #[test]
    fn migrating_forked_sharer_creates_shadow_stream() {
        let (mut c, mut m, t) = setup();
        let (parent, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        c.fs.create(&mut c.net, t, h(1), SpritePath::new("/shared"))
            .unwrap();
        let (fd, t) = c
            .open_fd(t, parent, SpritePath::new("/shared"), OpenMode::ReadWrite)
            .unwrap();
        let (child, t) = c.fork(t, parent).unwrap();
        let report = m.migrate(&mut c, t, child, h(2)).unwrap();
        assert_eq!(report.shadows_created, 1);
        // Parent writes; child (remote) sees the shared access position.
        let t = c.write_fd(report.resumed_at, parent, fd, b"12345").unwrap();
        let t = c.write_fd(t, child, fd, b"67890").unwrap();
        let stream = c.pcb(parent).unwrap().fd(fd).unwrap();
        assert_eq!(c.fs.streams().get(stream).unwrap().offset(), 10);
        let _ = t;
    }

    #[test]
    fn signals_follow_a_twice_migrated_process() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r1 = m.migrate(&mut c, t, pid, h(2)).unwrap();
        let r2 = m.migrate(&mut c, r1.resumed_at, pid, h(3)).unwrap();
        assert_eq!(c.pcb(pid).unwrap().migrations, 2);
        assert_eq!(c.locate(pid), Some(h(3)));
        let t = c.kill(r2.resumed_at, h(4), pid, Signal::Usr1).unwrap();
        assert_eq!(c.take_signals(pid).collect::<Vec<_>>(), vec![Signal::Usr1]);
        let _ = t;
    }

    #[test]
    fn migration_back_home_erases_foreignness() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r1 = m.migrate(&mut c, t, pid, h(2)).unwrap();
        assert!(c.pcb(pid).unwrap().is_foreign());
        let gettime_foreign = {
            let t0 = r1.resumed_at;
            let t1 = c.kernel_call(t0, pid, KernelCall::GetTimeOfDay).unwrap();
            t1.elapsed_since(t0)
        };
        let r2 = m.migrate(&mut c, r1.resumed_at, pid, h(1)).unwrap();
        assert!(!c.pcb(pid).unwrap().is_foreign());
        let gettime_home = {
            let t0 = r2.resumed_at;
            let t1 = c.kernel_call(t0, pid, KernelCall::GetTimeOfDay).unwrap();
            t1.elapsed_since(t0)
        };
        assert!(gettime_home < gettime_foreign);
    }

    #[test]
    fn version_mismatch_refuses_migration() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        m.set_kernel_version(h(2), 2);
        match m.migrate(&mut c, t, pid, h(2)) {
            Err(MigrationError::VersionMismatch { from, to }) => {
                assert_eq!(from, (h(1), 1));
                assert_eq!(to, (h(2), 2));
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // The process is untouched and still migratable elsewhere.
        assert_eq!(c.pcb(pid).unwrap().state, ProcState::Active);
        assert!(m.migrate(&mut c, t, pid, h(3)).is_ok());
        assert_eq!(m.totals().failures, 1);
    }

    #[test]
    fn console_owner_refuses_foreign_processes() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        c.host_mut(h(2)).console_active = true;
        assert!(matches!(
            m.migrate(&mut c, t, pid, h(2)),
            Err(MigrationError::TargetRefused(_))
        ));
    }

    #[test]
    fn migrate_to_self_is_an_error() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        assert!(matches!(
            m.migrate(&mut c, t, pid, h(1)),
            Err(MigrationError::AlreadyThere(_))
        ));
    }

    #[test]
    fn exec_migration_is_much_cheaper_than_active_migration() {
        let (mut c, mut m, t) = setup();
        // A process with a big dirty image.
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 512, 16)
            .unwrap();
        let t = {
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let t2 = sp
                .write(
                    &mut c.fs,
                    &mut c.net,
                    t,
                    h(1),
                    VirtAddr::new(SegmentKind::Heap, 0),
                    &vec![9u8; 512 * 4096],
                )
                .unwrap();
            c.pcb_mut(pid).unwrap().space = Some(sp);
            t2
        };
        // Active migration of the dirty image...
        let active = m.migrate(&mut c, t, pid, h(2)).unwrap();
        // ...versus exec-time migration of a fresh identical process.
        let (pid2, t2) = c
            .spawn(
                active.resumed_at,
                h(1),
                &SpritePath::new("/bin/sim"),
                512,
                16,
            )
            .unwrap();
        let execm = m
            .exec_migrate(
                &mut c,
                t2,
                pid2,
                h(3),
                &SpritePath::new("/bin/sim"),
                512,
                16,
            )
            .unwrap();
        assert!(
            execm.total_time.as_secs_f64() < active.total_time.as_secs_f64() / 4.0,
            "exec-time {} should be far below active {}",
            execm.total_time,
            active.total_time
        );
        assert!(execm.vm.is_none());
        assert_eq!(m.totals().exec_migrations, 1);
        assert_eq!(c.pcb(pid2).unwrap().current, h(3));
    }

    #[test]
    fn eviction_returns_all_foreign_processes_home() {
        let (mut c, mut m, t) = setup();
        let (a, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let (b, t) = c
            .spawn(t, h(2), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r1 = m.migrate(&mut c, t, a, h(4)).unwrap();
        let r2 = m.migrate(&mut c, r1.resumed_at, b, h(4)).unwrap();
        assert_eq!(c.foreign_on(h(4)).count(), 2);
        // The owner comes back.
        c.host_mut(h(4)).console_active = true;
        let reports = m.evict_all(&mut c, r2.resumed_at, h(4)).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(c.foreign_on(h(4)).next().is_none());
        assert_eq!(c.pcb(a).unwrap().current, h(1));
        assert_eq!(c.pcb(b).unwrap().current, h(2));
        assert_eq!(m.totals().evictions, 2);
    }

    #[test]
    fn all_vm_strategies_migrate_correctly() {
        for strategy in VmStrategy::ALL {
            let (mut c, mut m, t) = setup();
            m.set_vm_strategy(strategy);
            let (pid, t) = c
                .spawn(t, h(1), &SpritePath::new("/bin/sim"), 32, 8)
                .unwrap();
            let pattern = vec![0x42u8; 8 * 4096];
            let addr = VirtAddr::new(SegmentKind::Heap, 0);
            let t = {
                let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
                let t2 = sp
                    .write(&mut c.fs, &mut c.net, t, h(1), addr, &pattern)
                    .unwrap();
                c.pcb_mut(pid).unwrap().space = Some(sp);
                t2
            };
            let report = m.migrate(&mut c, t, pid, h(2)).unwrap();
            let mut sp = c.pcb_mut(pid).unwrap().space.take().unwrap();
            let (back, _) = sp
                .read(
                    &mut c.fs,
                    &mut c.net,
                    report.resumed_at,
                    h(2),
                    addr,
                    pattern.len() as u64,
                )
                .unwrap();
            assert_eq!(back, pattern, "strategy {strategy} lost memory contents");
            c.pcb_mut(pid).unwrap().space = Some(sp);
        }
    }

    #[test]
    fn phase_breakdown_sums_to_total_protocol_time() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 32, 8)
            .unwrap();
        let report = m.migrate(&mut c, t, pid, h(2)).unwrap();
        let delta = report.phases.total().as_secs_f64() - report.total_time.as_secs_f64();
        assert!(
            delta.abs() < 1e-6,
            "phases {} vs total {}",
            report.phases.total(),
            report.total_time
        );
        assert!(report.freeze_time <= report.total_time);
        assert!(report.freeze_time > SimDuration::ZERO);
    }

    #[test]
    fn shared_writable_memory_blocks_migration() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        c.pcb_mut(pid).unwrap().shares_writable_memory = true;
        assert!(matches!(
            m.migrate(&mut c, t, pid, h(2)),
            Err(MigrationError::NotMigratable(_, _))
        ));
        // Releasing the sharing makes it migratable again.
        c.pcb_mut(pid).unwrap().shares_writable_memory = false;
        assert!(m.migrate(&mut c, t, pid, h(2)).is_ok());
    }

    #[test]
    fn eviction_can_resettle_instead_of_going_home() {
        let (mut c, mut m, t) = setup();
        let (a, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let (b, t) = c
            .spawn(t, h(2), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r1 = m.migrate(&mut c, t, a, h(3)).unwrap();
        let r2 = m.migrate(&mut c, r1.resumed_at, b, h(3)).unwrap();
        // Owner returns to host 3; host 4 is idle, so both jobs resettle
        // there rather than crowding their owners' machines.
        c.host_mut(h(3)).console_active = true;
        let (reports, resettled) = m
            .evict_all_reselecting(&mut c, r2.resumed_at, h(3), &[h(4), h(4)])
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(resettled, 2);
        assert_eq!(c.pcb(a).unwrap().current, h(4));
        assert_eq!(c.pcb(b).unwrap().current, h(4));
        assert!(c.foreign_on(h(3)).next().is_none());
        // With no candidates, eviction falls back home.
        c.host_mut(h(4)).console_active = true;
        let (reports2, resettled2) = m
            .evict_all_reselecting(&mut c, reports[1].resumed_at, h(4), &[])
            .unwrap();
        assert_eq!(reports2.len(), 2);
        assert_eq!(resettled2, 0);
        assert_eq!(c.pcb(a).unwrap().current, h(1));
        assert_eq!(c.pcb(b).unwrap().current, h(2));
    }

    #[test]
    fn exec_migrate_respects_console_and_versions_too() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        c.host_mut(h(2)).console_active = true;
        assert!(matches!(
            m.exec_migrate(&mut c, t, pid, h(2), &SpritePath::new("/bin/sim"), 16, 4),
            Err(MigrationError::TargetRefused(_))
        ));
        m.set_kernel_version(h(3), 7);
        assert!(matches!(
            m.exec_migrate(&mut c, t, pid, h(3), &SpritePath::new("/bin/sim"), 16, 4),
            Err(MigrationError::VersionMismatch { .. })
        ));
        assert_eq!(m.totals().failures, 2);
        assert_eq!(c.pcb(pid).unwrap().current, h(1), "unharmed at the source");
    }

    #[test]
    fn migration_totals_account_every_path() {
        let (mut c, mut m, t) = setup();
        let (a, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let (b, t) = c
            .spawn(t, h(2), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r1 = m.migrate(&mut c, t, a, h(3)).unwrap();
        let r2 = m
            .exec_migrate(
                &mut c,
                r1.resumed_at,
                b,
                h(3),
                &SpritePath::new("/bin/sim"),
                16,
                4,
            )
            .unwrap();
        let reports = m.evict_all(&mut c, r2.resumed_at, h(3)).unwrap();
        assert_eq!(reports.len(), 2);
        let totals = m.totals();
        assert_eq!(totals.migrations, 4, "1 active + 1 exec + 2 evictions");
        assert_eq!(totals.exec_migrations, 1);
        assert_eq!(totals.evictions, 2);
        assert_eq!(totals.failures, 0);
        assert!(totals.total_freeze > SimDuration::ZERO);
    }

    #[test]
    fn foreign_process_can_fork_and_children_follow_home_rules() {
        let (mut c, mut m, t) = setup();
        let (pid, t) = c
            .spawn(t, h(1), &SpritePath::new("/bin/sim"), 16, 4)
            .unwrap();
        let r = m.migrate(&mut c, t, pid, h(2)).unwrap();
        let (child, t) = c.fork(r.resumed_at, pid).unwrap();
        // The child runs where the parent runs, but belongs to the same home.
        assert_eq!(c.pcb(child).unwrap().current, h(2));
        assert_eq!(child.home(), h(1));
        assert!(c.pcb(child).unwrap().is_foreign());
        // Evicting the host sends both "home" to h1.
        let reports = m.evict_all(&mut c, t, h(2)).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(c.pcb(child).unwrap().current, h(1));
    }
}
