//! unused-allow, clean: each directive actually suppresses a diagnostic,
//! so it is used, not stale.

pub fn drive(net: &mut Transport, now: SimTime, a: HostId, b: HostId) {
    // lint: allow(no-unwrap-on-transport) the test driver injects no faults
    net.send(RpcOp::FsOpen, now, a, b, None).unwrap();
    net.send(RpcOp::FsClose, now, a, b, None).unwrap(); // lint: allow(no-unwrap-on-transport) same
}
