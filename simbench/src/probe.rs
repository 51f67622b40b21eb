//! A fixed unit of host work, timed between cells, that tells how fast the
//! host is running right now.
//!
//! Other tenants of a shared host slow this process by up to ~1.8x, in
//! spells of seconds to minutes; the slowdown shows in compute-bound and
//! memory-bound code alike, and no steal time is reported. A run that
//! lands in a slow spell would read as a regression. The benchmark
//! therefore rescales each pass by how much slower than its reference the
//! probe ran in that pass (see [`Probe::factor`]). The probe is the
//! benchmark's own code, so no change to the simulator can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Nanoseconds one [`Probe::unit`] takes on a quiet host: the 2-vCPU
/// Xeon (2.1 GHz) the first baseline was taken on, in an uncontended
/// spell. It only sets the scale of the rescaled times; any constant
/// would do, as long as it never changes between two measurements that
/// are compared.
pub const REFERENCE_UNIT_NS: f64 = 250_000.0;

/// A benchmark-local mini event loop plus an integer-multiply kernel (the
/// two kinds of host work a slow spell slows), run on as many host threads
/// at once as the measured code uses.
pub struct Probe {
    lanes: Vec<Lane>,
    /// Per-lane probe time and units run since the last [`Probe::factor`].
    spent: Duration,
    units: u64,
}

/// One thread's share of the probe.
struct Lane {
    /// 2 MiB of per-"node" state the mini event loop reads and writes.
    state: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Probe {
    /// A probe that runs on `threads` host threads at once.
    pub fn new(threads: usize) -> Probe {
        let lanes = (0..threads.max(1))
            .map(|_| Lane {
                state: vec![0; 1 << 18],
                heap: BinaryHeap::with_capacity(4096),
            })
            .collect();
        Probe {
            lanes,
            spent: Duration::ZERO,
            units: 0,
        }
    }

    /// Run `units` probe units on every lane at once, adding their time to
    /// the current pass; returns the host time that took.
    pub fn run(&mut self, units: u64) -> Duration {
        let t = Instant::now();
        if let [lane] = self.lanes.as_mut_slice() {
            self.spent += lane.run(units);
        } else {
            self.spent += std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .map(|lane| s.spawn(move || lane.run(units)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a probe lane panicked"))
                    .sum::<Duration>()
            });
        }
        self.units += units * self.lanes.len() as u64;
        t.elapsed()
    }

    /// How many times slower than [`REFERENCE_UNIT_NS`] the units since
    /// the last call ran (1 when none ran); resets the count.
    pub fn factor(&mut self) -> f64 {
        let f = if self.units == 0 {
            1.0
        } else {
            self.spent.as_nanos() as f64 / self.units as f64 / REFERENCE_UNIT_NS
        };
        self.spent = Duration::ZERO;
        self.units = 0;
        f
    }

    /// Host time of one unit on one lane, the median of `n` timed units.
    pub fn unit_time(&mut self, n: usize) -> Duration {
        let lane = &mut self.lanes[0];
        let mut ts: Vec<Duration> = (0..n).map(|_| lane.run(1)).collect();
        ts.sort();
        ts[n / 2]
    }
}

impl Lane {
    /// Run `units` units; returns their host time.
    fn run(&mut self, units: u64) -> Duration {
        let t = Instant::now();
        for _ in 0..units {
            std::hint::black_box(self.unit());
        }
        t.elapsed()
    }

    /// One unit of fixed work.
    fn unit(&mut self) -> u64 {
        // Four independent multiply chains: port-bound, like the
        // simulator's arithmetic under a busy sibling thread.
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..100_000u64 {
            a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            b ^= a >> 7;
            c = c.rotate_left(5) ^ b;
            d = d.wrapping_add(c & a);
        }
        // A heap-ordered event loop over 2 MiB of state: cache- and
        // branch-bound, like the simulator's event loop.
        let nodes = self.state.len() as u64;
        self.heap.clear();
        self.heap
            .extend((0..2048u32).map(|i| Reverse((u64::from(i) * 7, i))));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            let Reverse((t, node)) = self.heap.pop().expect("the heap never drains");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = &mut self.state[node as usize];
            *s = s.wrapping_add(x);
            let next = (u64::from(node) + (x >> 40)) % nodes;
            self.heap.push(Reverse((t + 1 + (x & 1023), next as u32)));
        }
        a ^ b ^ c ^ d ^ x
    }
}
