//! Deterministic discrete-event simulation substrate for the Sprite
//! process-migration reproduction.
//!
//! The original system ran on Sun-3-class workstations attached to a 10 Mbit
//! Ethernet; this crate stands in for real time on that hardware. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated clock;
//! * [`Engine`] — a discrete-event loop whose events are closures over the
//!   simulation state, with deterministic tie-breaking; pending events live
//!   in a calendar queue (O(1) amortized, O(log k) when k entries share a
//!   timestamp), recurring work re-arms one boxed
//!   handler via [`Engine::schedule_periodic`], and [`EngineCounters`]
//!   exposes the engine's effort;
//! * [`DetRng`] — a seeded RNG (in-repo xoshiro256++, no external
//!   dependencies) plus the samplers the paper's workloads need
//!   (exponential inter-arrivals, heavy-tailed process lifetimes);
//! * [`FcfsResource`] — first-come-first-served service for modelling CPU and
//!   network contention (what bends the pmake speedup curve);
//! * [`OnlineStats`] / [`Samples`] / [`Counter`] — the aggregates the
//!   benchmark tables report;
//! * [`DetHashMap`] / [`DetHashSet`] — hash tables keyed by an in-repo
//!   FxHash-style hasher with a fixed seed, so hashing is both cheap and
//!   identical on every run (simulation state never uses `RandomState`);
//! * [`StateDigest`] / [`Checkpoint`] — an FNV-1a accumulator subsystems fold
//!   their observable state into, sampled by [`Engine::audit_every`] at fixed
//!   event-count checkpoints so replay divergence is detectable and
//!   bisectable;
//! * [`ShardedEngine`] / [`Cell`] — a conservative parallel (PDES) engine:
//!   cells partitioned across shards, per-shard calendar queues, barrier
//!   windows one lookahead wide, and a deterministic merge that keeps the
//!   digest stream byte-identical for any shard or worker count;
//! * [`Trace`] — an optional bounded narrative log for examples and debugging.
//!
//! Nothing in this crate (or anything built on it) consults the wall clock:
//! a simulation run is a pure function of its inputs and seed, so every
//! benchmark table is reproducible bit for bit. The sharded engine spawns
//! worker threads, but they are invisible to results — partitioning is
//! logical, and the merge order is a pure function of the workload (wall
//! time enters only through an explicitly injected stall-accounting clock
//! that never feeds back into simulation state).
//!
//! # Examples
//!
//! A tiny M/D/1-style simulation — exponential arrivals to a serial resource:
//!
//! ```
//! use sprite_sim::{DetRng, Engine, FcfsResource, OnlineStats, SimDuration};
//!
//! struct World {
//!     rng: DetRng,
//!     server: FcfsResource,
//!     waits: OnlineStats,
//! }
//!
//! fn arrival(world: &mut World, engine: &mut Engine<World>) {
//!     let now = engine.now();
//!     world.waits.record_duration(world.server.wait_at(now));
//!     world.server.acquire(now, SimDuration::from_millis(5));
//!     if world.waits.count() < 1000 {
//!         let gap = world.rng.exponential(SimDuration::from_millis(8));
//!         engine.schedule_in(gap, arrival);
//!     }
//! }
//!
//! let mut world = World {
//!     rng: DetRng::seed_from(42),
//!     server: FcfsResource::new(),
//!     waits: OnlineStats::new(),
//! };
//! let mut engine = Engine::new();
//! engine.schedule_in(SimDuration::ZERO, arrival);
//! engine.run(&mut world);
//! assert_eq!(world.waits.count(), 1000);
//! assert!(world.waits.mean() > 0.0); // 5/8 utilization => real queueing
//! ```

#![warn(missing_docs)]

mod calendar;
mod detmap;
mod digest;
mod event;
mod resource;
mod rng;
mod shard;
mod stats;
mod time;
mod trace;

pub use detmap::{hash_probes, take_hash_probes, DetHashMap, DetHashSet, DetState, FxHasher};
pub use digest::{Checkpoint, StateDigest};
pub use event::{Engine, Handler, PeriodicHandler};
pub use resource::{FcfsResource, SlottedResource, MAX_SLOTS};
pub use rng::DetRng;
pub use shard::{Cell, CellCtx, CellId, ShardCounters, ShardedEngine, StallClock, WorkerCounters};
pub use stats::{Counter, EngineCounters, OnlineStats, Samples};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
