//! Differential property test: the engine's two pending-event structures —
//! the 4-ary heap (cancelling lazily, by discarding popped corpses) and the
//! timing wheel (cancelling eagerly by handle) — must yield the identical
//! stream of live events under arbitrary schedule/cancel/pop
//! interleavings, including the simulation-realistic constraint that
//! pushes never go behind the last popped time.
//!
//! Seeded [`DetRng`] loops, no external dependencies; each iteration
//! derives its own substream, so a failure report's case index is enough
//! to replay it exactly.

use parsched_des::prelude::*;
use parsched_des::rng::DetRng;
use std::collections::HashSet;

/// Pop the next event that was never cancelled, discarding cancelled ones
/// (the lazy-invalidation idiom a comparison-based queue is stuck with).
fn pop_live(q: &mut BinaryHeapQueue<u64>, cancelled: &HashSet<u64>) -> Option<(SimTime, u64)> {
    loop {
        let s = q.pop()?;
        if !cancelled.contains(&s.seq) {
            return Some((s.time, s.seq));
        }
    }
}

/// Random schedule/cancel/pop interleavings over two time ranges:
///
/// * `near` — up to 100 ms past the last pop, the first wheel level's
///   neighbourhood where the machine's slice timers live;
/// * `overflow` — 4.9 h (2^44 ns, the wheel's whole span) plus up to
///   2^48 ns past the last pop. The pushes spread over sixteen top-level
///   epochs while the three levels can hold three at a time, so most of
///   these timers sit in the wheel's unordered overflow list, where insert,
///   cancel and pop are scans.
#[test]
fn cancel_interleavings_match_across_backends() {
    let root = DetRng::new(0xCC3);
    let ranges = [
        ("near", "cancel-differential", 0u64, 100_000_000u64),
        ("overflow", "cancel-differential-overflow", 1 << 44, 1 << 48),
    ];
    for (label, stream, offset, spread) in ranges {
        for case in 0..128u64 {
            let mut rng = root.substream_idx(stream, case);
            let len = rng.uniform_u64(1, 400) as usize;
            let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut cancelled = HashSet::new();
            // Timers still pending in the wheel, by (seq, handle).
            let mut live: Vec<(u64, TimerHandle)> = Vec::new();
            let mut seq = 0u64;
            let mut low_water = 0u64;
            for _ in 0..len {
                match rng.uniform_u64(0, 5) {
                    0..=2 => {
                        let time = SimTime(low_water + offset + rng.uniform_u64(0, spread));
                        seq += 1;
                        heap.push(Scheduled {
                            time,
                            seq,
                            event: seq,
                        });
                        let h = wheel.insert(time, seq, seq);
                        live.push((seq, h));
                    }
                    3 => {
                        if !live.is_empty() {
                            let i = rng.uniform_u64(0, live.len() as u64) as usize;
                            let (s, h) = live.swap_remove(i);
                            assert!(
                                wheel.cancel(h),
                                "{label} case {case}: live timer must cancel"
                            );
                            assert!(
                                !wheel.cancel(h),
                                "{label} case {case}: second cancel is stale"
                            );
                            cancelled.insert(s);
                        }
                    }
                    _ => {
                        let w = wheel.pop_min().map(|s| (s.time, s.seq));
                        let a = pop_live(&mut heap, &cancelled);
                        assert_eq!(w, a, "{label} case {case}: wheel vs heap");
                        if let Some((t, s)) = w {
                            low_water = t.nanos();
                            live.retain(|&(ls, _)| ls != s);
                        }
                    }
                }
                assert_eq!(
                    wheel.len(),
                    live.len(),
                    "{label} case {case}: wheel occupancy"
                );
            }
            // Drain both; the tails must agree exactly.
            loop {
                let w = wheel.pop_min().map(|s| (s.time, s.seq));
                let a = pop_live(&mut heap, &cancelled);
                assert_eq!(w, a, "{label} case {case}: drain wheel vs heap");
                if w.is_none() {
                    break;
                }
            }
        }
    }
}
