//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a crate's public API; the crates themselves are not
//! instrumented. Each span is aggregated into a count, a total and a self
//! time (total minus the time covered by child spans) per [`Span`] kind, so
//! even the hottest calls cost two clock reads and no allocation. Nothing
//! is written anywhere until the caller reads [`take`] at the end of a run.
//!
//! Recording is per thread and off by default: while it is off, [`span`]
//! only calls its closure.

use std::cell::RefCell;
use std::time::Instant;

/// What a span covers. The layer is the name's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// The whole timed run (its self time is the driver's own time).
    Driver,
    /// One minute tick of the month driver.
    DriverTick,
    /// `Engine::run` / `ShardedEngine::run`.
    SimRun,
    /// Calls into `Cluster` (spawn, run_cpu, exit, host-state reads).
    KernelCalls,
    /// `Migrator::exec_migrate`.
    CoreExecMigrate,
    /// `Migrator::evict_all`.
    CoreEvict,
    /// `HostSelector::report`.
    HostselReport,
    /// `HostSelector::select`.
    HostselSelect,
    /// `HostSelector::release`.
    HostselRelease,
    /// `ActivityTrace::active_at` / `idle_duration_at`, batched per tick.
    ActivityLookup,
    /// `ActivityTrace::generate` (set-up).
    TraceGen,
    /// `pmake::prepare_sources` (set-up; it is file-system work).
    PrepareSources,
    /// `pmake::run_build`.
    RunBuild,
}

const KINDS: usize = Span::RunBuild as usize + 1;

/// Aggregate of every span of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls covered (a batched span counts each call inside it).
    pub calls: u64,
    /// Host nanoseconds inside the spans.
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-kind aggregates of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile([Agg; KINDS]);

impl Profile {
    /// The aggregate of one kind.
    pub fn get(&self, kind: Span) -> Agg {
        self.0[kind as usize]
    }

    /// Total seconds of one kind.
    pub fn total_s(&self, kind: Span) -> f64 {
        self.get(kind).total_ns as f64 * 1e-9
    }

    /// Self seconds of one kind.
    pub fn self_s(&self, kind: Span) -> f64 {
        self.get(kind).self_ns as f64 * 1e-9
    }
}

struct Recorder {
    on: bool,
    /// Child nanoseconds accumulated by each open span.
    open: Vec<u64>,
    profile: Profile,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            on: false,
            open: Vec::new(),
            profile: Profile([Agg { calls: 0, total_ns: 0, self_ns: 0 }; KINDS]),
        })
    };
}

/// Turns recording on or off for this thread and clears the profile.
pub fn record(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.open.clear();
        r.profile = Profile::default();
    });
}

/// Whether this thread is recording.
fn recording() -> bool {
    RECORDER.with(|r| r.borrow().on)
}

/// Takes this thread's profile, leaving an empty one.
pub fn take() -> Profile {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().profile))
}

/// Runs `f` inside one span of `kind` covering one call.
pub fn span<R>(kind: Span, f: impl FnOnce() -> R) -> R {
    span_n(kind, 1, f)
}

/// Runs `f` inside one span of `kind` that covers `calls` calls (a batch
/// of hot calls is timed as one span).
pub fn span_n<R>(kind: Span, calls: u64, f: impl FnOnce() -> R) -> R {
    if !recording() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let children = r.open.pop().expect("span stack is balanced");
        if let Some(parent) = r.open.last_mut() {
            *parent += ns;
        }
        let agg = &mut r.profile.0[kind as usize];
        agg.calls += calls;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(children);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        record(true);
        span(Span::Driver, || {
            spin(2_000_000);
            span_n(Span::KernelCalls, 3, || spin(3_000_000));
        });
        let p = take();
        record(false);
        let outer = p.get(Span::Driver);
        let inner = p.get(Span::KernelCalls);
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.total_ns, inner.self_ns);
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        record(false);
        span(Span::SimRun, || spin(1000));
        assert_eq!(take().get(Span::SimRun).calls, 0);
    }
}
