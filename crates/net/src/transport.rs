//! The typed kernel-to-kernel RPC layer.
//!
//! Sprite's kernels "work closely together using a remote-procedure-call
//! mechanism" (Ch. 3.2), and the paper's evaluation reports traffic *per
//! operation kind* — migration RPCs, file-server calls, host-selection
//! multicasts. [`Transport`] is the one seam every such interaction goes
//! through: each send is tagged with an [`RpcOp`], so the simulation can
//! produce the same per-operation accounting the paper's tables use while
//! charging the underlying [`Network`] exactly as before.
//!
//! The facade does four things on every send:
//!
//! 1. charges the shared wire / server CPUs through [`Network`] with
//!    unchanged arguments — simulated timing is byte-identical to calling
//!    the network directly;
//! 2. tallies a per-op [`RpcTable`] (calls, messages, bytes, round-trip
//!    time distribution) whose totals always equal [`NetStats`], because
//!    the table records the network counter *deltas* of each send;
//! 3. optionally records an `"rpc"`-tagged [`Trace`] line per send (and a
//!    `"fault"`-tagged line per surfaced failure);
//! 4. routes the send through a [`LinkPolicy`] — the fault-injection seam.
//!    The policy rules on every attempt with a [`LinkVerdict`]; the default
//!    [`Ideal`] policy always delivers with zero delay, keeping ideal-run
//!    behaviour (and the golden outputs) bit-identical. Lost round-trip
//!    attempts are retried with [`RPC_TIMEOUT`] + bounded exponential
//!    backoff charged to the simulated clock; exhausted or futile sends
//!    surface an [`RpcError`] instead of panicking.
//!
//! Canonical request/reply payloads live in the [`wire_size`] table next
//! to the [`CostModel`], replacing the magic `64`/`96`/`128` literals that
//! used to be scattered across the kernel, FS, VM and host-selection
//! crates.

use sprite_sim::{FcfsResource, OnlineStats, SimDuration, SimTime, StateDigest, Trace};

use crate::fault::{
    backoff_after, FaultStats, LinkVerdict, RpcError, RpcFailure, RpcResult, MAX_SEND_ATTEMPTS,
    RPC_TIMEOUT,
};
use crate::network::Network;
use crate::{CostModel, Delivery, HostId, NetStats, PAGE_SIZE};

/// Smallest message the protocol sends: an RPC header with a status word
/// (also the wire's minimum charged payload).
pub const CONTROL_BYTES: u64 = 64;
/// A host's load/idle-time report (host id, load average, idle seconds,
/// console flag).
pub const LOAD_REPORT_BYTES: u64 = 96;
/// A request carrying a file handle or path component plus credentials.
pub const HANDLE_BYTES: u64 = 128;
/// A reply carrying one page of data plus the RPC header.
pub const PAGE_REPLY_BYTES: u64 = PAGE_SIZE + CONTROL_BYTES;
/// One entry of a gossiped load batch: host id, load average, idle
/// seconds and the sender-side age stamp, packed. A gossip message is
/// [`CONTROL_BYTES`] of header plus one of these per carried entry, so
/// load traffic is O(k·f) per host-interval instead of O(hosts) queries.
pub const GOSSIP_ENTRY_BYTES: u64 = 24;

/// Every kind of cross-kernel interaction the reproduction performs.
///
/// One enum covers all five wire users — the migration protocol, process
/// control, the shared file system, virtual memory, and host selection —
/// so the per-op traffic table spans the whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcOp {
    /// Migration offer/accept handshake with the target kernel.
    MigrateNegotiate,
    /// Bulk transfer of packed process state (PCB, fds, signal masks).
    MigrateState,
    /// Commit notification to the home kernel after a migration lands.
    MigrateCommit,
    /// Per-stream file handle transfer during migration.
    StreamTransfer,
    /// A signal forwarded between kernels (home-routed delivery).
    SignalForward,
    /// A location-dependent kernel call forwarded to the home kernel.
    HomeCallForward,
    /// Fork/exit bookkeeping sent to a foreign process's home kernel.
    ProcNotifyHome,
    /// File open (name + credentials out, handle + attributes back).
    FsOpen,
    /// Name lookup for create/unlink (name out, status back).
    FsLookup,
    /// File close (handle out, status back).
    FsClose,
    /// Shared stream offset synchronization with the I/O server.
    FsShadowStream,
    /// Cache block read from the file server.
    FsBlockRead,
    /// Cache block write-through/write-back to the file server.
    FsBlockWrite,
    /// Cache consistency traffic (dirty-block recall, open invalidation).
    FsConsistency,
    /// Pseudo-device request/reply with a user-level server process.
    FsPseudo,
    /// Dirty VM page flushed to its backing swap file.
    VmPageFlush,
    /// VM page fetched from a backing file or the source host.
    VmPageFetch,
    /// Bulk address-space image transfer (pages and page tables).
    VmBulkImage,
    /// Host-selection request/release round trip with a selection service.
    HostselQuery,
    /// One-way load report to a selection service or gossip peer.
    HostselReport,
    /// Broadcast query for idle hosts.
    HostselMulticast,
    /// One-way reply from an idle host to a broadcast query.
    HostselReply,
    /// One-way release notice returning a borrowed host.
    HostselRelease,
    /// One-way batched load-vector push to a DetRng-chosen gossip peer
    /// (header plus `f` [`GOSSIP_ENTRY_BYTES`] entries, caller-sized).
    HostselGossip,
    /// Selection round trip with one of `c` sharded coordinator daemons.
    HostselShardQuery,
    /// First-contact round trip that teaches a client which server of a
    /// striped FS domain owns a name (prefix-table fetch).
    FsShardRedirect,
    /// Block read served by (or replica pull to) a read-replica server
    /// peer instead of the file's home server.
    FsReplicaRead,
    /// Home-server notice dropping a peer's read replica after a
    /// write-open bumped the file version.
    FsReplicaInvalidate,
    /// Checkpoint image write: one record of a process's frozen state
    /// streamed to its (sharded) image file. Caller-sized request.
    CkptWrite,
    /// Checkpoint image read during restart-elsewhere: the reborn process
    /// pulls one record back from the image file's shard server.
    CkptRestore,
}

/// Canonical request/reply payload sizes for one [`RpcOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSize {
    /// Request payload bytes (0 = caller-sized: bulk images, data writes).
    pub request: u64,
    /// Reply payload bytes (0 = one-way: datagrams and multicasts).
    pub reply: u64,
}

impl RpcOp {
    /// Every op, in table order.
    pub const ALL: [RpcOp; 30] = [
        RpcOp::MigrateNegotiate,
        RpcOp::MigrateState,
        RpcOp::MigrateCommit,
        RpcOp::StreamTransfer,
        RpcOp::SignalForward,
        RpcOp::HomeCallForward,
        RpcOp::ProcNotifyHome,
        RpcOp::FsOpen,
        RpcOp::FsLookup,
        RpcOp::FsClose,
        RpcOp::FsShadowStream,
        RpcOp::FsBlockRead,
        RpcOp::FsBlockWrite,
        RpcOp::FsConsistency,
        RpcOp::FsPseudo,
        RpcOp::VmPageFlush,
        RpcOp::VmPageFetch,
        RpcOp::VmBulkImage,
        RpcOp::HostselQuery,
        RpcOp::HostselReport,
        RpcOp::HostselMulticast,
        RpcOp::HostselReply,
        RpcOp::HostselRelease,
        RpcOp::HostselGossip,
        RpcOp::HostselShardQuery,
        RpcOp::FsShardRedirect,
        RpcOp::FsReplicaRead,
        RpcOp::FsReplicaInvalidate,
        RpcOp::CkptWrite,
        RpcOp::CkptRestore,
    ];

    /// Stable lower-case label for tables, traces and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RpcOp::MigrateNegotiate => "migrate-negotiate",
            RpcOp::MigrateState => "migrate-state",
            RpcOp::MigrateCommit => "migrate-commit",
            RpcOp::StreamTransfer => "stream-transfer",
            RpcOp::SignalForward => "signal-forward",
            RpcOp::HomeCallForward => "home-call-forward",
            RpcOp::ProcNotifyHome => "proc-notify-home",
            RpcOp::FsOpen => "fs-open",
            RpcOp::FsLookup => "fs-lookup",
            RpcOp::FsClose => "fs-close",
            RpcOp::FsShadowStream => "fs-shadow-stream",
            RpcOp::FsBlockRead => "fs-block-read",
            RpcOp::FsBlockWrite => "fs-block-write",
            RpcOp::FsConsistency => "fs-consistency",
            RpcOp::FsPseudo => "fs-pseudo",
            RpcOp::VmPageFlush => "vm-page-flush",
            RpcOp::VmPageFetch => "vm-page-fetch",
            RpcOp::VmBulkImage => "vm-bulk-image",
            RpcOp::HostselQuery => "hostsel-query",
            RpcOp::HostselReport => "hostsel-report",
            RpcOp::HostselMulticast => "hostsel-multicast",
            RpcOp::HostselReply => "hostsel-reply",
            RpcOp::HostselRelease => "hostsel-release",
            RpcOp::HostselGossip => "hostsel-gossip",
            RpcOp::HostselShardQuery => "hostsel-shard-query",
            RpcOp::FsShardRedirect => "fs-shard-redirect",
            RpcOp::FsReplicaRead => "fs-replica-read",
            RpcOp::FsReplicaInvalidate => "fs-replica-invalidate",
            RpcOp::CkptWrite => "ckpt-write",
            RpcOp::CkptRestore => "ckpt-restore",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for RpcOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Canonical wire sizes per op, in one place next to the [`CostModel`]
/// whose 2.6 ms small-RPC round trip and ~480 KB/s bulk rate they ride on.
///
/// A `request` of 0 means the payload is caller-sized (bulk images, block
/// writes); a `reply` of 0 means the op is one-way (datagrams,
/// multicasts). Dynamic payloads still go through the typed send methods —
/// the table records the op's *fixed* part.
pub fn wire_size(op: RpcOp) -> WireSize {
    let (request, reply) = match op {
        RpcOp::MigrateNegotiate => (HANDLE_BYTES, CONTROL_BYTES),
        RpcOp::MigrateState => (0, CONTROL_BYTES),
        RpcOp::MigrateCommit => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::StreamTransfer => (HANDLE_BYTES, CONTROL_BYTES),
        RpcOp::SignalForward => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::HomeCallForward => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::ProcNotifyHome => (HANDLE_BYTES, CONTROL_BYTES),
        RpcOp::FsOpen => (HANDLE_BYTES, HANDLE_BYTES),
        RpcOp::FsLookup => (HANDLE_BYTES, CONTROL_BYTES),
        RpcOp::FsClose => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::FsShadowStream => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::FsBlockRead => (CONTROL_BYTES, PAGE_REPLY_BYTES),
        RpcOp::FsBlockWrite => (0, CONTROL_BYTES),
        RpcOp::FsConsistency => (CONTROL_BYTES, CONTROL_BYTES),
        RpcOp::FsPseudo => (0, 0),
        RpcOp::VmPageFlush => (0, CONTROL_BYTES),
        RpcOp::VmPageFetch => (CONTROL_BYTES, PAGE_REPLY_BYTES),
        RpcOp::VmBulkImage => (0, CONTROL_BYTES),
        RpcOp::HostselQuery => (HANDLE_BYTES, HANDLE_BYTES),
        RpcOp::HostselReport => (LOAD_REPORT_BYTES, 0),
        RpcOp::HostselMulticast => (LOAD_REPORT_BYTES, 0),
        RpcOp::HostselReply => (CONTROL_BYTES, 0),
        RpcOp::HostselRelease => (CONTROL_BYTES, 0),
        // Caller-sized one-way: header + f gossip entries per message.
        RpcOp::HostselGossip => (0, 0),
        RpcOp::HostselShardQuery => (HANDLE_BYTES, HANDLE_BYTES),
        RpcOp::FsShardRedirect => (HANDLE_BYTES, HANDLE_BYTES),
        RpcOp::FsReplicaRead => (CONTROL_BYTES, PAGE_REPLY_BYTES),
        RpcOp::FsReplicaInvalidate => (CONTROL_BYTES, CONTROL_BYTES),
        // Caller-sized request: header + page records, sized per write.
        RpcOp::CkptWrite => (0, CONTROL_BYTES),
        RpcOp::CkptRestore => (CONTROL_BYTES, PAGE_REPLY_BYTES),
    };
    WireSize { request, reply }
}

/// Per-op traffic accumulated by a [`Transport`].
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Completed sends (RPC round trips, bulk transfers or datagrams).
    pub calls: u64,
    /// Messages those sends put on the wire.
    pub messages: u64,
    /// Payload bytes those sends moved.
    pub bytes: u64,
    /// Distribution of completion times (seconds), caller clock to done.
    pub rtt: OnlineStats,
}

/// The per-operation traffic table: one [`OpStats`] row per [`RpcOp`].
///
/// Rows are filled from [`NetStats`] counter deltas, so
/// [`RpcTable::total_messages`]/[`RpcTable::total_bytes`] equal the
/// network's own totals as long as every send goes through the transport.
/// Under an injected-fault policy the invariant still holds: wire traffic
/// charged by lost attempts is folded into the op's message/byte counters
/// (via the same delta construction), while `calls` counts only sends that
/// completed.
#[derive(Debug, Clone)]
pub struct RpcTable {
    rows: Vec<OpStats>,
}

impl Default for RpcTable {
    fn default() -> Self {
        RpcTable {
            rows: vec![OpStats::default(); RpcOp::ALL.len()],
        }
    }
}

impl RpcTable {
    /// An empty table.
    pub fn new() -> Self {
        RpcTable::default()
    }

    fn record(&mut self, op: RpcOp, messages: u64, bytes: u64, rtt: SimDuration) {
        let row = &mut self.rows[op.index()];
        row.calls += 1;
        row.messages += messages;
        row.bytes += bytes;
        row.rtt.record_duration(rtt);
    }

    /// Wire traffic from a send that ultimately failed: counted so table
    /// totals keep matching [`NetStats`], but with no completed call or RTT.
    fn record_failure(&mut self, op: RpcOp, messages: u64, bytes: u64) {
        let row = &mut self.rows[op.index()];
        row.messages += messages;
        row.bytes += bytes;
    }

    /// The row for one op.
    pub fn get(&self, op: RpcOp) -> &OpStats {
        &self.rows[op.index()]
    }

    /// Ops that saw traffic, in table order.
    pub fn rows(&self) -> impl Iterator<Item = (RpcOp, &OpStats)> {
        RpcOp::ALL
            .iter()
            .map(|op| (*op, &self.rows[op.index()]))
            .filter(|(_, row)| row.calls > 0)
    }

    /// One op's accumulated traffic (zeroed if the op never fired).
    pub fn row(&self, op: RpcOp) -> &OpStats {
        &self.rows[op.index()]
    }

    /// True if no op saw traffic.
    pub fn is_empty(&self) -> bool {
        self.rows().next().is_none()
    }

    /// Total sends across all ops.
    pub fn total_calls(&self) -> u64 {
        self.rows.iter().map(|r| r.calls).sum()
    }

    /// Total messages across all ops (equals [`NetStats::messages`]).
    pub fn total_messages(&self) -> u64 {
        self.rows.iter().map(|r| r.messages).sum()
    }

    /// Total bytes across all ops (equals [`NetStats::bytes`]).
    pub fn total_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.bytes).sum()
    }

    /// Folds every row's integer counters into `d`, in table order (the
    /// RTT distributions are float aggregates and stay out of digests).
    pub fn digest_into(&self, d: &mut StateDigest) {
        for row in &self.rows {
            d.write_u64(row.calls);
            d.write_u64(row.messages);
            d.write_u64(row.bytes);
            d.write_u64(row.rtt.count());
        }
    }

    /// Merges another table into this one (replication merges).
    pub fn merge(&mut self, other: &RpcTable) {
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            mine.calls += theirs.calls;
            mine.messages += theirs.messages;
            mine.bytes += theirs.bytes;
            mine.rtt.merge(&theirs.rtt);
        }
    }
}

/// Per-attempt hook every transport send passes through — the seam for
/// fault injection (added latency, drops, partitions, crashes) without
/// touching call sites. The policy rules on each attempt with a
/// [`LinkVerdict`]; retries consult it again at the retry's (later)
/// simulated time, so time-windowed policies see the clock advance.
pub trait LinkPolicy: std::fmt::Debug {
    /// Extra delay before `op`'s first byte hits the wire. `to` is `None`
    /// for multicasts. Simple latency-only policies override just this;
    /// the default adds nothing.
    fn delay(&mut self, op: RpcOp, from: HostId, to: Option<HostId>, bytes: u64) -> SimDuration {
        let _ = (op, from, to, bytes);
        SimDuration::ZERO
    }

    /// Rules on one send attempt at simulated time `now`. The default
    /// delivers after [`LinkPolicy::delay`], so latency-only policies and
    /// [`Ideal`] never see drops.
    fn verdict(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: Option<HostId>,
        bytes: u64,
    ) -> LinkVerdict {
        let _ = now;
        LinkVerdict::Deliver(self.delay(op, from, to, bytes))
    }
}

/// The default link policy: no injected delay, no faults — timing identical
/// to calling [`Network`] directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ideal;

impl LinkPolicy for Ideal {
    fn delay(&mut self, _: RpcOp, _: HostId, _: Option<HostId>, _: u64) -> SimDuration {
        SimDuration::ZERO
    }
}

/// The typed transport facade over [`Network`].
///
/// # Examples
///
/// ```
/// use sprite_net::{CostModel, HostId, RpcOp, Transport};
/// use sprite_sim::SimTime;
///
/// let mut net = Transport::new(CostModel::sun3(), 4);
/// let done = net.send(RpcOp::FsOpen, SimTime::ZERO, HostId::new(1), HostId::new(0), None)?;
/// assert!(done.elapsed(SimTime::ZERO).as_micros() > 2_600);
/// let row = net.rpc_table().get(RpcOp::FsOpen);
/// assert_eq!((row.calls, row.messages), (1, 2));
/// assert_eq!(net.rpc_table().total_bytes(), net.stats().bytes);
/// # Ok::<(), sprite_net::RpcError>(())
/// ```
#[derive(Debug)]
pub struct Transport {
    net: Network,
    table: RpcTable,
    faults: FaultStats,
    // lint: allow(digest-skip) human-facing narration, not simulation state
    trace: Trace,
    // lint: allow(digest-skip) fault policy digests via the FaultStats it drives
    policy: Box<dyn LinkPolicy>,
}

impl Transport {
    /// A transport over a fresh network of `hosts` machines.
    pub fn new(cost: CostModel, hosts: usize) -> Self {
        Transport {
            net: Network::new(cost, hosts),
            table: RpcTable::new(),
            faults: FaultStats::new(),
            trace: Trace::disabled(),
            policy: Box::new(Ideal),
        }
    }

    /// Installs a link policy (replacing [`Ideal`]).
    pub fn set_policy(&mut self, policy: Box<dyn LinkPolicy>) {
        self.policy = policy;
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        self.net.cost()
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.net.host_count()
    }

    /// Network-level traffic totals.
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Messages sent by one host.
    pub fn sent_by(&self, host: HostId) -> u64 {
        self.net.sent_by(host)
    }

    /// Resets the traffic counters, the per-op table *and* the fault table
    /// together, so every accounting view keeps matching [`NetStats`]
    /// across measurement phases.
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
        self.table = RpcTable::new();
        self.faults = FaultStats::new();
    }

    /// The per-op traffic table.
    pub fn rpc_table(&self) -> &RpcTable {
        &self.table
    }

    /// The per-op fault table (drops, delays, partitions, crashes, retries).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    /// Folds the transport's observable state into `d`: the underlying
    /// network (traffic totals, wire horizon, per-host counters), the
    /// per-op RPC table and the per-op fault table.
    pub fn digest_into(&self, d: &mut StateDigest) {
        self.net.digest_into(d);
        self.table.digest_into(d);
        self.faults.digest_into(d);
    }

    /// Starts recording an `"rpc"` narrative line per send, keeping the
    /// most recent `capacity` lines.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::enabled(capacity);
    }

    /// The transport's trace log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    fn tally(
        &mut self,
        op: RpcOp,
        start: SimTime,
        before: NetStats,
        done: SimTime,
        from: HostId,
        to: Option<HostId>,
    ) {
        let after = self.net.stats();
        let messages = after.messages - before.messages;
        let bytes = after.bytes - before.bytes;
        self.table
            .record(op, messages, bytes, done.elapsed_since(start));
        self.trace.record(done, "rpc", || match to {
            Some(to) => format!("{op} {from}->{to} {bytes}B in {messages} msg"),
            None => format!("{op} {from}->* {bytes}B in {messages} msg"),
        });
    }

    /// Books a failed send: folds the wire traffic its attempts charged into
    /// the op's table row (keeping totals == [`NetStats`]), counts the
    /// giveup, and records a `"fault"` trace line.
    fn fail(&mut self, err: RpcError, before: NetStats) -> RpcError {
        let fail = *err.failure();
        let after = self.net.stats();
        self.table.record_failure(
            fail.op,
            after.messages - before.messages,
            after.bytes - before.bytes,
        );
        self.faults.row_mut(fail.op).giveups += 1;
        self.trace.record(fail.at, "fault", || format!("{err}"));
        err
    }

    /// A typed RPC round trip using the op's canonical [`wire_size`].
    pub fn send(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        server_cpu: Option<&mut FcfsResource>,
    ) -> RpcResult<Delivery> {
        self.send_with_service(op, now, from, to, SimDuration::ZERO, server_cpu)
    }

    /// A typed RPC round trip with extra server-side service time.
    pub fn send_with_service(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        extra_service: SimDuration,
        server_cpu: Option<&mut FcfsResource>,
    ) -> RpcResult<Delivery> {
        let size = wire_size(op);
        debug_assert!(
            size.request > 0 && size.reply > 0,
            "{op} has no canonical round-trip size; use send_sized"
        );
        self.send_sized(
            op,
            now,
            from,
            to,
            size.request,
            size.reply,
            extra_service,
            server_cpu,
        )
    }

    /// A typed RPC round trip with caller-sized payloads — for ops whose
    /// payload varies (block writes, pseudo-device traffic, board pages).
    ///
    /// Round trips retry lost attempts: each drop charges the lost request
    /// on the wire, waits out [`RPC_TIMEOUT`], and backs off exponentially
    /// ([`backoff_after`]) before the next try, up to [`MAX_SEND_ATTEMPTS`].
    /// Partitions and crashes fail after a single detection timeout —
    /// retrying them is futile within the window.
    #[allow(clippy::too_many_arguments)]
    pub fn send_sized(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        request_bytes: u64,
        reply_bytes: u64,
        extra_service: SimDuration,
        mut server_cpu: Option<&mut FcfsResource>,
    ) -> RpcResult<Delivery> {
        let before = self.net.stats();
        let wire = request_bytes + reply_bytes;
        let mut t = now;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.policy.verdict(op, t, from, Some(to), wire) {
                LinkVerdict::Deliver(extra) => {
                    if !extra.is_zero() {
                        self.faults.row_mut(op).delays += 1;
                    }
                    let d = self.net.rpc_with_service(
                        t + extra,
                        from,
                        to,
                        request_bytes,
                        reply_bytes,
                        extra_service,
                        server_cpu.as_deref_mut(),
                    );
                    self.tally(op, now, before, d.done, from, Some(to));
                    return Ok(d);
                }
                LinkVerdict::Drop => {
                    // The request went out and was lost: charge it on the
                    // wire, then wait out the timeout before deciding.
                    self.faults.row_mut(op).drops += 1;
                    let lost = self.net.datagram(t, from, to, request_bytes);
                    t = lost.done + RPC_TIMEOUT;
                    if attempts >= MAX_SEND_ATTEMPTS {
                        let err = RpcError::Timeout(RpcFailure {
                            op,
                            from,
                            to: Some(to),
                            attempts,
                            at: t,
                        });
                        return Err(self.fail(err, before));
                    }
                    self.faults.row_mut(op).retries += 1;
                    t += backoff_after(attempts);
                }
                LinkVerdict::Partitioned => {
                    self.faults.row_mut(op).partitions += 1;
                    let lost = self.net.datagram(t, from, to, request_bytes);
                    let err = RpcError::PartitionUnreachable(RpcFailure {
                        op,
                        from,
                        to: Some(to),
                        attempts,
                        at: lost.done + RPC_TIMEOUT,
                    });
                    return Err(self.fail(err, before));
                }
                LinkVerdict::PeerCrashed => {
                    self.faults.row_mut(op).crashes += 1;
                    let lost = self.net.datagram(t, from, to, request_bytes);
                    let err = RpcError::PeerCrashed(RpcFailure {
                        op,
                        from,
                        to: Some(to),
                        attempts,
                        at: lost.done + RPC_TIMEOUT,
                    });
                    return Err(self.fail(err, before));
                }
            }
        }
    }

    /// A typed bulk transfer through the fragmenting path. Retries like a
    /// round trip; a lost transfer charges its first fragment (up to one
    /// page) before the sender times out and starts over.
    pub fn stream_bulk(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> RpcResult<Delivery> {
        let before = self.net.stats();
        let first_fragment = bytes.clamp(CONTROL_BYTES, PAGE_SIZE);
        let mut t = now;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.policy.verdict(op, t, from, Some(to), bytes) {
                LinkVerdict::Deliver(extra) => {
                    if !extra.is_zero() {
                        self.faults.row_mut(op).delays += 1;
                    }
                    let d = self.net.bulk(t + extra, from, to, bytes);
                    self.tally(op, now, before, d.done, from, Some(to));
                    return Ok(d);
                }
                LinkVerdict::Drop => {
                    self.faults.row_mut(op).drops += 1;
                    let lost = self.net.datagram(t, from, to, first_fragment);
                    t = lost.done + RPC_TIMEOUT;
                    if attempts >= MAX_SEND_ATTEMPTS {
                        let err = RpcError::Timeout(RpcFailure {
                            op,
                            from,
                            to: Some(to),
                            attempts,
                            at: t,
                        });
                        return Err(self.fail(err, before));
                    }
                    self.faults.row_mut(op).retries += 1;
                    t += backoff_after(attempts);
                }
                LinkVerdict::Partitioned => {
                    self.faults.row_mut(op).partitions += 1;
                    let lost = self.net.datagram(t, from, to, first_fragment);
                    let err = RpcError::PartitionUnreachable(RpcFailure {
                        op,
                        from,
                        to: Some(to),
                        attempts,
                        at: lost.done + RPC_TIMEOUT,
                    });
                    return Err(self.fail(err, before));
                }
                LinkVerdict::PeerCrashed => {
                    self.faults.row_mut(op).crashes += 1;
                    let lost = self.net.datagram(t, from, to, first_fragment);
                    let err = RpcError::PeerCrashed(RpcFailure {
                        op,
                        from,
                        to: Some(to),
                        attempts,
                        at: lost.done + RPC_TIMEOUT,
                    });
                    return Err(self.fail(err, before));
                }
            }
        }
    }

    /// A typed one-way datagram. One-ways are never retried — the sender is
    /// fire-and-forget, so a lost message surfaces as [`RpcError::Dropped`]
    /// at the send's completion time and the receiver simply never sees it
    /// (stale load boards fall out of exactly this).
    pub fn send_datagram(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        to: HostId,
        bytes: u64,
    ) -> RpcResult<Delivery> {
        let before = self.net.stats();
        match self.policy.verdict(op, now, from, Some(to), bytes) {
            LinkVerdict::Deliver(extra) => {
                if !extra.is_zero() {
                    self.faults.row_mut(op).delays += 1;
                }
                let d = self.net.datagram(now + extra, from, to, bytes);
                self.tally(op, now, before, d.done, from, Some(to));
                Ok(d)
            }
            verdict => {
                // The frame still leaves the sender's interface; nobody
                // useful receives it.
                let lost = self.net.datagram(now, from, to, bytes);
                let fail = RpcFailure {
                    op,
                    from,
                    to: Some(to),
                    attempts: 1,
                    at: lost.done,
                };
                let err = match verdict {
                    LinkVerdict::Partitioned => {
                        self.faults.row_mut(op).partitions += 1;
                        RpcError::PartitionUnreachable(fail)
                    }
                    LinkVerdict::PeerCrashed => {
                        self.faults.row_mut(op).crashes += 1;
                        RpcError::PeerCrashed(fail)
                    }
                    _ => {
                        self.faults.row_mut(op).drops += 1;
                        RpcError::Dropped(fail)
                    }
                };
                Err(self.fail(err, before))
            }
        }
    }

    /// A typed broadcast to every host. Like datagrams, multicasts are
    /// fire-and-forget: a lost broadcast surfaces as [`RpcError::Dropped`]
    /// with no retry.
    pub fn send_multicast(
        &mut self,
        op: RpcOp,
        now: SimTime,
        from: HostId,
        bytes: u64,
    ) -> RpcResult<Delivery> {
        let before = self.net.stats();
        match self.policy.verdict(op, now, from, None, bytes) {
            LinkVerdict::Deliver(extra) => {
                if !extra.is_zero() {
                    self.faults.row_mut(op).delays += 1;
                }
                let d = self.net.multicast(now + extra, from, bytes);
                self.tally(op, now, before, d.done, from, None);
                Ok(d)
            }
            verdict => {
                let lost = self.net.multicast(now, from, bytes);
                let fail = RpcFailure {
                    op,
                    from,
                    to: None,
                    attempts: 1,
                    at: lost.done,
                };
                let err = match verdict {
                    LinkVerdict::Partitioned => {
                        self.faults.row_mut(op).partitions += 1;
                        RpcError::PartitionUnreachable(fail)
                    }
                    LinkVerdict::PeerCrashed => {
                        self.faults.row_mut(op).crashes += 1;
                        RpcError::PeerCrashed(fail)
                    }
                    _ => {
                        self.faults.row_mut(op).drops += 1;
                        RpcError::Dropped(fail)
                    }
                };
                Err(self.fail(err, before))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashSchedule, DropPolicy, PartitionPolicy};

    fn t(hosts: usize) -> Transport {
        Transport::new(CostModel::sun3(), hosts)
    }

    fn a() -> HostId {
        HostId::new(0)
    }

    fn b() -> HostId {
        HostId::new(1)
    }

    /// Test-only unwrap: the policies in these tests are not supposed to
    /// surface failures unless the test says so.
    fn ok(d: RpcResult<Delivery>) -> Delivery {
        match d {
            Ok(d) => d,
            Err(e) => panic!("unexpected rpc failure: {e}"),
        }
    }

    #[test]
    fn every_op_has_a_label_and_a_row() {
        let table = RpcTable::new();
        let mut labels: Vec<&str> = RpcOp::ALL.iter().map(|op| op.label()).collect();
        assert_eq!(labels.len(), RpcOp::ALL.len());
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RpcOp::ALL.len(), "labels must be unique");
        for op in RpcOp::ALL {
            assert_eq!(table.get(op).calls, 0);
        }
    }

    #[test]
    fn typed_send_matches_raw_network_timing() {
        let mut x = t(2);
        let mut n = Network::new(CostModel::sun3(), 2);
        let d1 = ok(x.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        let d2 = n.rpc(SimTime::ZERO, a(), b(), HANDLE_BYTES, HANDLE_BYTES, None);
        assert_eq!(d1.done, d2.done);
    }

    #[test]
    fn table_totals_equal_net_stats() {
        let mut x = t(4);
        let mut now = SimTime::ZERO;
        now = ok(x.send(RpcOp::MigrateNegotiate, now, a(), b(), None)).done;
        now = ok(x.stream_bulk(RpcOp::VmBulkImage, now, a(), b(), 300 * 1024)).done;
        now = ok(x.send_datagram(RpcOp::HostselReport, now, b(), a(), LOAD_REPORT_BYTES)).done;
        now = ok(x.send_multicast(RpcOp::HostselMulticast, now, a(), LOAD_REPORT_BYTES)).done;
        let _ = ok(x.send_sized(
            RpcOp::FsBlockWrite,
            now,
            a(),
            b(),
            4096 + CONTROL_BYTES,
            CONTROL_BYTES,
            SimDuration::ZERO,
            None,
        ));
        let s = x.stats();
        assert_eq!(x.rpc_table().total_messages(), s.messages);
        assert_eq!(x.rpc_table().total_bytes(), s.bytes);
        assert_eq!(x.rpc_table().total_calls(), 5);
        assert!(!x.rpc_table().is_empty());
    }

    #[test]
    fn rtt_distribution_is_recorded() {
        let mut x = t(2);
        let d = ok(x.send(RpcOp::SignalForward, SimTime::ZERO, a(), b(), None));
        let row = x.rpc_table().get(RpcOp::SignalForward);
        assert_eq!(row.rtt.count(), 1);
        assert!((row.rtt.mean() - d.elapsed(SimTime::ZERO).as_secs_f64()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_table_and_stats_together() {
        let mut x = t(2);
        ok(x.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None));
        x.reset_stats();
        assert_eq!(x.stats().messages, 0);
        assert!(x.rpc_table().is_empty());
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
    }

    #[test]
    fn trace_records_rpc_lines() {
        let mut x = t(2);
        x.enable_trace(8);
        ok(x.send(RpcOp::MigrateCommit, SimTime::ZERO, a(), b(), None));
        let lines: Vec<String> = x.trace().entries().map(|e| e.to_string()).collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("rpc"), "{}", lines[0]);
        assert!(lines[0].contains("migrate-commit"), "{}", lines[0]);
    }

    #[test]
    fn link_policy_delay_shifts_completion() {
        #[derive(Debug)]
        struct Slow;
        impl LinkPolicy for Slow {
            fn delay(&mut self, _: RpcOp, _: HostId, _: Option<HostId>, _: u64) -> SimDuration {
                SimDuration::from_millis(5)
            }
        }
        let mut ideal = t(2);
        let mut slow = t(2);
        slow.set_policy(Box::new(Slow));
        let d1 = ok(ideal.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        let d2 = ok(slow.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        assert_eq!(d2.done, d1.done + SimDuration::from_millis(5));
        // The injected delay is part of the caller-visible round trip.
        let row = slow.rpc_table().get(RpcOp::FsOpen);
        assert!(row.rtt.mean() > ideal.rpc_table().get(RpcOp::FsOpen).rtt.mean());
    }

    #[test]
    fn merge_adds_counts_and_distributions() {
        let mut x = t(2);
        let mut y = t(2);
        ok(x.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        ok(y.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        ok(y.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None));
        let mut merged = x.rpc_table().clone();
        merged.merge(y.rpc_table());
        assert_eq!(merged.get(RpcOp::FsOpen).calls, 2);
        assert_eq!(merged.get(RpcOp::FsClose).calls, 1);
        assert_eq!(merged.get(RpcOp::FsOpen).rtt.count(), 2);
        assert_eq!(
            merged.total_messages(),
            x.stats().messages + y.stats().messages
        );
    }

    /// Drops the first `0.0` attempts of every send, then delivers — a
    /// deterministic way to exercise the retry path.
    #[derive(Debug)]
    struct DropFirst(u32);
    impl LinkPolicy for DropFirst {
        fn verdict(
            &mut self,
            _: RpcOp,
            _: SimTime,
            _: HostId,
            _: Option<HostId>,
            _: u64,
        ) -> LinkVerdict {
            if self.0 > 0 {
                self.0 -= 1;
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver(SimDuration::ZERO)
            }
        }
    }

    #[test]
    fn dropped_round_trip_retries_and_charges_the_timeout() {
        let mut ideal = t(2);
        let mut lossy = t(2);
        lossy.set_policy(Box::new(DropFirst(1)));
        let d1 = ok(ideal.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        let d2 = ok(lossy.send(RpcOp::FsOpen, SimTime::ZERO, a(), b(), None));
        // One lost attempt costs at least a timeout plus the first backoff.
        assert!(d2.done >= d1.done + RPC_TIMEOUT + backoff_after(1));
        let row = lossy.fault_stats().get(RpcOp::FsOpen);
        assert_eq!((row.drops, row.retries, row.giveups), (1, 1, 0));
        // The lost request was charged on the wire, and the table still
        // matches the network's own totals.
        assert_eq!(lossy.rpc_table().total_messages(), lossy.stats().messages);
        assert_eq!(lossy.rpc_table().total_bytes(), lossy.stats().bytes);
        assert_eq!(lossy.stats().messages, ideal.stats().messages + 1);
    }

    #[test]
    fn exhausted_retries_surface_a_timeout_error() {
        let mut x = t(2);
        x.set_policy(Box::new(DropPolicy::new(11, 1.0)));
        let err = x
            .send(RpcOp::MigrateNegotiate, SimTime::ZERO, a(), b(), None)
            .unwrap_err();
        match err {
            RpcError::Timeout(f) => {
                assert_eq!(f.attempts, MAX_SEND_ATTEMPTS);
                assert_eq!(f.op, RpcOp::MigrateNegotiate);
                assert!(f.at > SimTime::ZERO + RPC_TIMEOUT * u64::from(MAX_SEND_ATTEMPTS));
            }
            other => panic!("expected timeout, got {other}"),
        }
        assert!(err.is_transient());
        let row = x.fault_stats().get(RpcOp::MigrateNegotiate);
        assert_eq!(row.drops, u64::from(MAX_SEND_ATTEMPTS));
        assert_eq!(row.retries, u64::from(MAX_SEND_ATTEMPTS) - 1);
        assert_eq!(row.giveups, 1);
        // Every lost request was still charged on the wire and folded into
        // the table, so totals keep matching NetStats.
        assert_eq!(x.rpc_table().total_messages(), x.stats().messages);
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
        assert_eq!(x.rpc_table().get(RpcOp::MigrateNegotiate).calls, 0);
    }

    #[test]
    fn partition_fails_after_one_detection_timeout() {
        let mut x = t(4);
        x.set_policy(Box::new(PartitionPolicy::new(
            vec![b()],
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX),
        )));
        let err = x
            .send(RpcOp::SignalForward, SimTime::ZERO, a(), b(), None)
            .unwrap_err();
        match err {
            RpcError::PartitionUnreachable(f) => assert_eq!(f.attempts, 1),
            other => panic!("expected partition, got {other}"),
        }
        assert!(!err.is_transient());
        assert_eq!(x.fault_stats().get(RpcOp::SignalForward).partitions, 1);
    }

    #[test]
    fn crashed_peer_fails_after_one_detection_timeout() {
        let mut x = t(2);
        x.set_policy(Box::new(CrashSchedule::new(vec![(b(), SimTime::ZERO)])));
        let err = x
            .send(RpcOp::ProcNotifyHome, SimTime::ZERO, a(), b(), None)
            .unwrap_err();
        assert!(matches!(err, RpcError::PeerCrashed(f) if f.attempts == 1));
        assert!(!err.is_transient());
        assert_eq!(x.fault_stats().get(RpcOp::ProcNotifyHome).crashes, 1);
    }

    #[test]
    fn one_way_sends_are_never_retried() {
        let mut x = t(2);
        x.set_policy(Box::new(DropPolicy::new(3, 1.0)));
        let err = x
            .send_datagram(
                RpcOp::HostselReport,
                SimTime::ZERO,
                a(),
                b(),
                LOAD_REPORT_BYTES,
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::Dropped(f) if f.attempts == 1));
        let err = x
            .send_multicast(
                RpcOp::HostselMulticast,
                SimTime::ZERO,
                a(),
                LOAD_REPORT_BYTES,
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::Dropped(f) if f.attempts == 1 && f.to.is_none()));
        // The lost frames still went out on the wire.
        assert_eq!(x.rpc_table().total_messages(), x.stats().messages);
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
        assert_eq!(x.fault_stats().get(RpcOp::HostselReport).drops, 1);
    }

    #[test]
    fn same_fault_seed_replays_identically() {
        let drive = |seed: u64| {
            let mut x = t(4);
            x.set_policy(Box::new(DropPolicy::new(seed, 0.4)));
            let mut now = SimTime::ZERO;
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let to = HostId::new(1 + i % 3);
                match x.send(RpcOp::FsOpen, now, a(), to, None) {
                    Ok(d) => {
                        now = d.done;
                        outcomes.push(Ok(d.done));
                    }
                    Err(e) => {
                        now = e.at();
                        outcomes.push(Err(e));
                    }
                }
            }
            (outcomes, x.fault_stats().clone(), x.stats())
        };
        let (o1, f1, s1) = drive(77);
        let (o2, f2, s2) = drive(77);
        assert_eq!(o1, o2);
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
        let (o3, f3, _) = drive(78);
        assert!(o1 != o3 || f1 != f3, "different seed, different schedule");
    }

    #[test]
    fn reset_clears_fault_stats_with_the_rest() {
        let mut x = t(2);
        x.set_policy(Box::new(DropPolicy::new(5, 1.0)));
        let _ = x.send(RpcOp::FsClose, SimTime::ZERO, a(), b(), None);
        assert!(!x.fault_stats().is_empty());
        x.reset_stats();
        assert!(x.fault_stats().is_empty());
        assert_eq!(x.rpc_table().total_bytes(), x.stats().bytes);
    }

    #[test]
    fn wire_size_table_is_consistent() {
        for op in RpcOp::ALL {
            let s = wire_size(op);
            // Fixed-size payloads are at least a control message; 0 marks
            // caller-sized or one-way halves.
            if s.request > 0 {
                assert!(s.request >= CONTROL_BYTES, "{op}");
            }
            if s.reply > 0 {
                assert!(s.reply >= CONTROL_BYTES, "{op}");
            }
        }
        assert_eq!(wire_size(RpcOp::FsBlockRead).reply, PAGE_REPLY_BYTES);
        assert_eq!(wire_size(RpcOp::HostselReport).request, LOAD_REPORT_BYTES);
        // Gossip is caller-sized (header + entries); the shard query is a
        // normal handle-sized round trip.
        assert_eq!(
            wire_size(RpcOp::HostselGossip),
            WireSize {
                request: 0,
                reply: 0
            }
        );
        assert_eq!(wire_size(RpcOp::HostselShardQuery).reply, HANDLE_BYTES);
        const { assert!(GOSSIP_ENTRY_BYTES < CONTROL_BYTES) };
    }
}
