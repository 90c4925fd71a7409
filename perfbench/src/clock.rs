//! Stopwatches that read wall time and the process's CPU time together,
//! and the reference kernel that end-to-end times are scaled by.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// CPU seconds this process has run, summed over its threads.
///
/// The kernel leaves out time the process waited for a core, whether
/// another process or the hypervisor (steal time) held it, so on a shared
/// machine this is steadier than wall time.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Started at the beginning of a timed section.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall and CPU time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        Lap {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// CPU seconds that [`reference_cpu_s`] is scaled to: the end-to-end times
/// are CPU seconds on a host that runs the reference kernel in 50 ms.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the reference kernel and returns the CPU seconds it took.
///
/// The kernel is a fixed miniature of the simulator's hot loops: a minimum
/// scan over a crowded calendar bucket, an event heap, and keyed state with
/// small allocations. On a shared host, contention from other tenants slows
/// it about as much as it slows the workloads, which CPU time alone does
/// not correct. Its work must never change: every reported time is scaled
/// by it.
pub fn reference_cpu_s() -> f64 {
    let start = process_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut sum = 0u64;
    let mut bucket: Vec<(u64, u64)> = (0..2048u64).map(|i| (next() % 1_000_000, i)).collect();
    for _ in 0..6_000 {
        let (idx, _) = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| **e)
            .expect("bucket is not empty");
        bucket[idx].0 += 1 + next() % 60_000;
        sum = sum.wrapping_add(idx as u64);
    }
    let mut heap = BinaryHeap::new();
    for i in 0..20_000u64 {
        heap.push(Reverse((next() % 1_000_000, i)));
    }
    for _ in 0..150_000 {
        let Reverse((t, i)) = heap.pop().expect("heap is not empty");
        heap.push(Reverse((t + 1 + next() % 5_000, i)));
    }
    let mut map: HashMap<u32, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..150_000 {
        let k = (next() % 40_000) as u32;
        let v = map.entry(k).or_default();
        if v.len() > 6 {
            v.clear();
        } else {
            v.push(k);
        }
        sum = sum.wrapping_add(v.len() as u64);
    }
    std::hint::black_box(sum);
    process_cpu_s() - start
}
