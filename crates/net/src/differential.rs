//! Differential check: for every [`RpcOp`], driving the typed [`Transport`]
//! and the crate-private raw [`Network`] with the same inputs must produce
//! identical completion times and identical [`NetStats`](crate::NetStats).
//! This is the refactor's core contract — the transport is an accounting
//! layer, not a timing change. A second differential pins the zero-fault
//! regression: a [`DropPolicy`] at rate 0 must charge exactly
//! [`Ideal`](crate::Ideal) timing, which is what keeps the golden
//! `experiments_output.txt` byte-stable.

use sprite_sim::{SimDuration, SimTime};

use crate::network::Network;
use crate::{wire_size, CostModel, DropPolicy, HostId, RpcOp, Transport};

const HOSTS: usize = 6;

/// Drives one op through the typed transport twice (idle then busy wire)
/// and returns both completion times. Panics on a fault because every
/// policy in this suite is supposed to deliver.
fn drive_typed(typed: &mut Transport, op: RpcOp, starts: [SimTime; 2]) -> Vec<SimTime> {
    let from = HostId::new(1);
    let to = HostId::new(2);
    let ws = wire_size(op);
    let mut done = Vec::new();
    for now in starts {
        let d = if op == RpcOp::HostselMulticast {
            typed.send_multicast(op, now, from, ws.request)
        } else if op == RpcOp::FsPseudo {
            // Fully caller-sized request/reply exchange.
            typed.send_sized(
                op,
                now,
                from,
                to,
                3_000,
                2_000,
                SimDuration::from_millis(2),
                None,
            )
        } else if ws.reply == 0 {
            // One-way load reports and replies.
            typed.send_datagram(op, now, from, to, ws.request)
        } else if op == RpcOp::MigrateState || op == RpcOp::VmBulkImage {
            // Fragmented bulk transfers (caller-sized).
            typed.stream_bulk(op, now, from, to, 100_000)
        } else if ws.request == 0 {
            // Caller-sized request with a typed control reply.
            typed.send_sized(
                op,
                now,
                from,
                to,
                5_000,
                ws.reply,
                SimDuration::from_millis(1),
                None,
            )
        } else {
            typed.send(op, now, from, to, None)
        };
        match d {
            Ok(d) => done.push(d.done),
            Err(e) => panic!("{op}: unexpected fault {e}"),
        }
    }
    done
}

#[test]
fn every_op_times_identically_to_the_raw_network() {
    let from = HostId::new(1);
    let to = HostId::new(2);
    // A non-zero start plus a second send at a busy time exercises wire
    // queueing identically on both sides.
    let starts = [
        SimTime::ZERO + SimDuration::from_millis(5),
        SimTime::ZERO + SimDuration::from_millis(6),
    ];
    for op in RpcOp::ALL {
        let ws = wire_size(op);
        let mut typed = Transport::new(CostModel::sun3(), HOSTS);
        let mut raw = Network::new(CostModel::sun3(), HOSTS);
        let typed_done = drive_typed(&mut typed, op, starts);
        for (i, now) in starts.into_iter().enumerate() {
            let b = if op == RpcOp::HostselMulticast {
                raw.multicast(now, from, ws.request).done
            } else if op == RpcOp::FsPseudo {
                let (req, reply, extra) = (3_000, 2_000, SimDuration::from_millis(2));
                raw.rpc_with_service(now, from, to, req, reply, extra, None)
                    .done
            } else if ws.reply == 0 {
                raw.datagram(now, from, to, ws.request).done
            } else if op == RpcOp::MigrateState || op == RpcOp::VmBulkImage {
                raw.bulk(now, from, to, 100_000).done
            } else if ws.request == 0 {
                let (req, extra) = (5_000, SimDuration::from_millis(1));
                raw.rpc_with_service(now, from, to, req, ws.reply, extra, None)
                    .done
            } else {
                raw.rpc(now, from, to, ws.request, ws.reply, None).done
            };
            assert_eq!(
                typed_done[i], b,
                "{op}: typed and raw completion times diverged"
            );
        }
        let (ts, rs) = (typed.stats(), raw.stats());
        assert_eq!(ts.messages, rs.messages, "{op}: message counts diverged");
        assert_eq!(ts.bytes, rs.bytes, "{op}: byte counts diverged");
        assert_eq!(ts.rpcs, rs.rpcs, "{op}: rpc counts diverged");
        // And the transport's own ledger agrees with the raw counters.
        assert_eq!(typed.rpc_table().total_messages(), rs.messages, "{op}");
        assert_eq!(typed.rpc_table().total_bytes(), rs.bytes, "{op}");
        assert_eq!(typed.rpc_table().get(op).calls, 2, "{op}");
    }
}

/// The zero-fault regression gate: a drop policy with rate 0 must charge
/// completion times identical to [`Ideal`](crate::Ideal) for every op,
/// record zero fault events, and keep identical traffic counters.
#[test]
fn drop_policy_at_rate_zero_matches_ideal_per_op() {
    let starts = [
        SimTime::ZERO + SimDuration::from_millis(5),
        SimTime::ZERO + SimDuration::from_millis(6),
    ];
    for op in RpcOp::ALL {
        let mut ideal = Transport::new(CostModel::sun3(), HOSTS);
        let mut faultless = Transport::new(CostModel::sun3(), HOSTS);
        faultless.set_policy(Box::new(DropPolicy::new(0xfa17, 0.0)));
        let a = drive_typed(&mut ideal, op, starts);
        let b = drive_typed(&mut faultless, op, starts);
        assert_eq!(a, b, "{op}: rate-0 drop policy changed completion times");
        assert_eq!(
            ideal.stats(),
            faultless.stats(),
            "{op}: rate-0 drop policy changed traffic counters"
        );
        assert!(
            faultless.fault_stats().is_empty(),
            "{op}: rate-0 drop policy recorded fault events"
        );
    }
}
