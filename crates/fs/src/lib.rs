//! The Sprite distributed file system, rebuilt as a simulation substrate.
//!
//! "All the hosts on the network share a common high-performance file
//! system" [Nel88, Wel90] — and that shared file system is what makes
//! Sprite's process migration design work at all: programs see the same
//! names everywhere, paging happens through backing files that any kernel
//! can reach, and open files move between hosts by updating state at the
//! I/O server rather than copying data.
//!
//! This crate provides:
//!
//! * [`SpriteFs`] — the network-wide facade: create/open/read/write/close,
//!   paging, pseudo-device requests, and the stream-migration hook the
//!   migration mechanism calls;
//! * [`ServerState`] — per-server namespaces, authoritative file contents,
//!   the consistency protocol \[NWO88\], and a genuinely contended server CPU;
//! * [`BlockCache`] — per-client write-back block caches;
//! * [`StreamTable`] — streams and the shadow-stream machinery \[Wel90\] that
//!   keeps shared access positions correct across migrations.
//!
//! Every operation is costed against the era-calibrated
//! [`CostModel`](sprite_net::CostModel) and returns its simulated completion
//! time.

#![warn(missing_docs)]

mod cache;
mod file;
#[allow(clippy::module_inception)]
mod fs;
mod path;
mod replica;
mod server;
mod shard;
mod stream;

pub use cache::{BlockAddr, BlockCache};
pub use file::{FileId, FileKind, OpenMode};
pub use fs::{FsConfig, FsError, FsResult, FsStats, ServerLoad, SpriteFs};
pub use path::SpritePath;
pub use replica::{ReplicaSet, ReplicaTable, HOT_THRESHOLD};
pub use server::{ConsistencyActions, OpenRecord, ServerFile, ServerState};
pub use shard::{ShardGroup, ShardMap};
pub use stream::{MoveOutcome, ReleaseOutcome, Stream, StreamId, StreamTable};
