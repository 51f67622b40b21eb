//! Hierarchical timing wheel for cancellable timers.
//!
//! The machine layer schedules enormous numbers of *timers* — quantum
//! expiries, message-timeout guards — that are usually either cancelled
//! before they fire or fire within a few milliseconds of being set. A
//! comparison-based pending-event set pays `O(log n)` per operation and has
//! no remove-by-handle at all (the machine historically left stale timers in
//! the queue and discarded them on pop). The [`TimerWheel`] gives both
//! missing operations:
//!
//! * `O(1)` insert: the firing time indexes directly into a slot array.
//! * `O(1)` cancel by [`TimerHandle`]. The handle carries the timer's
//!   packed `(time, seq)` key — globally unique and never reused, because
//!   the engine's sequence numbers only grow — so a stale handle simply
//!   fails to find its key and is reported, never aliased onto a stranger.
//!
//! ## Geometry
//!
//! Three levels of 256 slots each. Level `l` slots are `2^(20 + 8l)` ns wide
//! (1.05 ms, 268 ms, 68.7 s), so the wheel spans ~4.9 hours of simulated
//! time before spilling into an unordered overflow list. The granule is
//! matched to the machine layer's timer population: quantum expiries are
//! 2–32 ms out, so they land within the first level's 256 slots with a few
//! per slot, keeping both the append and the occupancy scan short. Slots are indexed
//! by the absolute firing time's bit-field — no per-tick rotation or cascade
//! pass exists.
//!
//! Correctness of `peek`/`pop` relies on one invariant: *all entries stored
//! in a level share that level's epoch* (the firing-time bits above the
//! level's slot field). Each level remembers the epoch of its current
//! population; an insert that does not match an occupied level's epoch moves
//! up to the next level (or overflow). Within a single epoch the slot index
//! is monotone in firing time, so a level's earliest entries live in its
//! first occupied slot — found by scanning the occupancy bitmap from a
//! monotone hint.
//!
//! Entries are `(key, event)` pairs stored *unsorted* in their slot, so an
//! insert is a plain `push` no matter how out-of-order the key is — keeping
//! a slot sorted costs an `O(slot)` `memmove` per insert, which collapses
//! once thousands of timers share a level (the `queue_hold_wheel_n4096`
//! cliff). Order is established lazily, per slot, exactly once: when a
//! level's minimum is popped, the slot holding it is *drained* — its entries
//! are sorted ascending in one pass and moved to the level's drain buffer,
//! from which subsequent pops of the same slot are `O(1)` front-pops (the
//! batch-pop of same-slot events). Inserts that land in the slot currently
//! draining binary-insert into the buffer; an insert into an *earlier* slot
//! (rare: keys usually march forward with `now`) simply flushes the buffer
//! back before the earlier slot drains in its turn.
//!
//! The wheel keeps each tier's minimum key in [`TimerWheel::mins`] — one
//! `u128` per level plus one for the overflow list, `u128::MAX` meaning
//! empty, all in a single cache line — so `peek_key` is three compares with
//! no slot walking. Per level the minimum is the lesser of the drain
//! buffer's front and the cached minimum over the unsorted slots; both are
//! maintained incrementally, and only a pop or cancel that consumes the
//! cached slot minimum rescans (one slot, the first occupied one).
//!
//! The wheel orders by the same packed `(time, seq)` key as the
//! [event heap](crate::queue), so the engine can merge-pop across wheel
//! and heap and preserve the exact global event order.

use crate::queue::{pack, Scheduled};
use crate::time::SimTime;
use std::collections::VecDeque;

/// log2 of the finest slot width in nanoseconds (1.05 ms).
const GRAN_BITS: u32 = 20;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond them entries go to the overflow list.
const LEVELS: usize = 3;
/// `TimerHandle::level` value marking residence in the overflow list.
const OVERFLOW_LEVEL: u8 = LEVELS as u8;
/// `mins` sentinel for an empty tier. Unreachable by a real timer: it would
/// need both `time == u64::MAX` and `seq == u64::MAX`.
const EMPTY: u128 = u128::MAX;

#[inline]
fn slot_shift(level: usize) -> u32 {
    GRAN_BITS + SLOT_BITS * level as u32
}

#[inline]
fn slot_of(t: u64, level: usize) -> usize {
    ((t >> slot_shift(level)) & (SLOTS as u64 - 1)) as usize
}

#[inline]
fn epoch_of(t: u64, level: usize) -> u64 {
    t >> (GRAN_BITS + SLOT_BITS * (level as u32 + 1))
}

/// A claim ticket for a pending timer, returned by
/// [`TimerWheel::insert`] (via `Scheduler::schedule_timer`).
///
/// Handles are `Copy` and cheap to store. The handle is the timer's packed
/// `(time, seq)` key plus the level it was filed under; keys are never
/// reused (sequence numbers only grow), so cancelling a timer that already
/// fired or was already cancelled is detected by the key lookup failing —
/// it never affects an unrelated timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    key: u128,
    level: u8,
}

impl TimerHandle {
    /// Build a handle for an engine that is *not* backed by a timing wheel
    /// (the differential oracle's flat queue). The level is pinned to the
    /// overflow list, the one tier [`TimerWheel::cancel`] resolves by a
    /// plain key scan, so a foreign handle accidentally passed to a real
    /// wheel degrades to a lookup miss instead of an out-of-bounds level.
    pub fn external(key: u128) -> TimerHandle {
        TimerHandle {
            key,
            level: OVERFLOW_LEVEL,
        }
    }

    /// The packed `(time, seq)` key this handle refers to.
    pub fn key(&self) -> u128 {
        self.key
    }
}

#[derive(Debug)]
struct Level<E> {
    /// `(key, event)` pairs per slot, *unsorted* (order is established on
    /// drain). Fixed-size boxed array: the masked slot index provably
    /// fits, so indexing compiles without a bounds check.
    slots: Box<[Vec<(u128, E)>; SLOTS]>,
    /// One bit per slot: set iff the slot vector is non-empty.
    occ: [u64; SLOTS / 64],
    /// Shared firing-time epoch of every entry in this level
    /// (meaningful only while `len > 0`).
    epoch: u64,
    /// Entries currently stored in this level (slots plus drain buffer).
    len: usize,
    /// Lower bound on the first occupied slot (tightened by
    /// [`first_occupied`](Self::first_occupied); only lowered by inserts,
    /// reset when the level empties). Lets the occupancy scan skip the
    /// permanently-drained low words as the population marches forward.
    min_slot_hint: usize,
    /// The slot currently being drained, sorted ascending by key; pops are
    /// front-pops, same-slot inserts binary-insert. Invariant: while
    /// non-empty, `slots[drain_slot]` is empty (its tenants moved here).
    drain: VecDeque<(u128, E)>,
    /// Which slot `drain` came from (meaningful while `drain` is
    /// non-empty).
    drain_slot: usize,
    /// Cached minimum key over the *unsorted slots only* ([`EMPTY`] when
    /// every entry sits in the drain buffer). The level minimum is
    /// `min(slot_min, drain.front())`.
    slot_min: u128,
}

impl<E> Level<E> {
    fn new() -> Self {
        let slots: Vec<Vec<(u128, E)>> = (0..SLOTS).map(|_| Vec::new()).collect();
        Level {
            slots: match slots.into_boxed_slice().try_into() {
                Ok(a) => a,
                Err(_) => unreachable!("built with exactly SLOTS entries"),
            },
            occ: [0; SLOTS / 64],
            epoch: 0,
            len: 0,
            min_slot_hint: 0,
            drain: VecDeque::new(),
            drain_slot: 0,
            slot_min: EMPTY,
        }
    }

    /// Index of the first non-empty slot; `None` when no slot holds
    /// anything (entries may still sit in the drain buffer). Starts at
    /// `min_slot_hint` (a proven lower bound) and tightens it.
    #[inline]
    fn first_occupied(&mut self) -> Option<usize> {
        for w in (self.min_slot_hint >> 6)..self.occ.len() {
            let word = self.occ[w];
            if word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                self.min_slot_hint = s;
                return Some(s);
            }
        }
        None
    }

    /// Recompute `slot_min` from scratch: the least key in the first
    /// occupied slot (one full scan of that slot — it is unsorted), or
    /// [`EMPTY`] when every slot is empty. Within one epoch the slot index
    /// is monotone in firing time, so no later slot can undercut it.
    #[inline]
    fn recompute_slot_min(&mut self) -> u128 {
        match self.first_occupied() {
            None => EMPTY,
            Some(s) => self.slots[s & (SLOTS - 1)]
                .iter()
                .map(|&(k, _)| k)
                .min()
                .expect("occupied slot"),
        }
    }

    /// The level's least key: the cheaper of the drain front and the
    /// cached slot minimum.
    #[inline]
    fn min_key(&self) -> u128 {
        match self.drain.front() {
            Some(&(k, _)) => k.min(self.slot_min),
            None => self.slot_min,
        }
    }
}

/// Hierarchical timing wheel; see the [module docs](self) for the design.
#[derive(Debug)]
pub struct TimerWheel<E> {
    levels: [Level<E>; LEVELS],
    /// Entries whose firing time is beyond every level's epoch (unordered).
    overflow: Vec<(u128, E)>,
    len: usize,
    /// Minimum key per tier — `mins[l]` for level `l`, `mins[LEVELS]` for
    /// the overflow list — with [`EMPTY`] meaning the tier holds nothing.
    /// One cache line; the global minimum is the least of the four.
    mins: [u128; LEVELS + 1],
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: Vec::new(),
            len: 0,
            mins: [EMPTY; LEVELS + 1],
        }
    }

    /// Number of live timers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timers are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a timer firing at `time` with tiebreak `seq`. `seq` values
    /// must be unique across the wheel's lifetime (the engine's sequence
    /// counter guarantees this); key uniqueness is what makes handles safe.
    #[inline]
    pub fn insert(&mut self, time: SimTime, seq: u64, event: E) -> TimerHandle {
        let key = pack(time, seq);
        let t = time.nanos();
        let mut placed_level = OVERFLOW_LEVEL;
        for (l, level) in self.levels.iter().enumerate() {
            if level.len == 0 || level.epoch == epoch_of(t, l) {
                placed_level = l as u8;
                break;
            }
        }
        if placed_level == OVERFLOW_LEVEL {
            self.overflow.push((key, event));
        } else {
            let l = placed_level as usize;
            let level = &mut self.levels[l];
            let s = slot_of(t, l);
            if level.len == 0 {
                level.epoch = epoch_of(t, l);
                level.min_slot_hint = s;
                level.slot_min = EMPTY;
                debug_assert!(level.drain.is_empty());
            }
            if !level.drain.is_empty() && s == level.drain_slot {
                // The slot is mid-drain: keep the buffer sorted so pops
                // stay front-pops.
                let at = level
                    .drain
                    .binary_search_by(|&(k, _)| k.cmp(&key))
                    .unwrap_err();
                level.drain.insert(at, (key, event));
            } else {
                if s < level.min_slot_hint {
                    level.min_slot_hint = s;
                }
                level.slots[s & (SLOTS - 1)].push((key, event));
                level.occ[s >> 6] |= 1 << (s & 63);
                if key < level.slot_min {
                    level.slot_min = key;
                }
            }
            level.len += 1;
        }
        self.len += 1;
        let m = &mut self.mins[placed_level as usize];
        if key < *m {
            *m = key;
        }
        TimerHandle {
            key,
            level: placed_level,
        }
    }

    /// Cancel a pending timer. Returns `true` if the timer was still live
    /// (and is now removed), `false` if it already fired or was cancelled.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let key = handle.key;
        if handle.level == OVERFLOW_LEVEL {
            let Some(at) = self.overflow.iter().position(|&(k, _)| k == key) else {
                return false;
            };
            self.overflow.swap_remove(at);
            if self.mins[LEVELS] == key {
                self.mins[LEVELS] = self
                    .overflow
                    .iter()
                    .map(|&(k, _)| k)
                    .min()
                    .unwrap_or(EMPTY);
            }
        } else {
            let l = handle.level as usize;
            let level = &mut self.levels[l];
            let t = (key >> 64) as u64;
            // A populated level whose epoch moved on cannot still hold the
            // timer (the level emptied in between, firing it).
            if level.len == 0 || level.epoch != epoch_of(t, l) {
                return false;
            }
            let s = slot_of(t, l);
            if !level.drain.is_empty() && s == level.drain_slot {
                // The victim's slot is mid-drain; the buffer is sorted.
                let Ok(at) = level.drain.binary_search_by(|&(k, _)| k.cmp(&key)) else {
                    return false;
                };
                level.drain.remove(at);
            } else {
                // Unsorted slot: linear scan, from the tail — timers are
                // typically cancelled soon after being set, so the victim
                // sits near the end of its slot's push order even when the
                // slot has grown large.
                let vec = &mut level.slots[s & (SLOTS - 1)];
                let Some(at) = vec.iter().rposition(|&(k, _)| k == key) else {
                    return false;
                };
                vec.swap_remove(at);
                if vec.is_empty() {
                    level.occ[s >> 6] &= !(1 << (s & 63));
                }
                if level.slot_min == key {
                    level.slot_min = level.recompute_slot_min();
                }
            }
            level.len -= 1;
            if self.mins[l] == key {
                self.mins[l] = level.min_key();
            }
        }
        self.len -= 1;
        true
    }

    /// The packed `(time, seq)` key of the earliest pending timer.
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        let m = self.min_of_tiers();
        if m == EMPTY {
            None
        } else {
            Some(m)
        }
    }

    /// Remove and return the earliest pending timer.
    #[inline]
    pub fn pop_min(&mut self) -> Option<Scheduled<E>> {
        let key = self.min_of_tiers();
        if key == EMPTY {
            return None;
        }
        let tier = self
            .mins
            .iter()
            .position(|&m| m == key)
            .expect("minimum came from a tier");
        // A minimum can live in the overflow list only once the levels that
        // outlasted it drained — that rare case pays a linear scan.
        let event = if tier == LEVELS {
            let at = self
                .overflow
                .iter()
                .position(|&(k, _)| k == key)
                .expect("cached overflow minimum is live");
            let (_, event) = self.overflow.swap_remove(at);
            self.mins[LEVELS] = self
                .overflow
                .iter()
                .map(|&(k, _)| k)
                .min()
                .unwrap_or(EMPTY);
            event
        } else {
            let level = &mut self.levels[tier];
            let event = match level.drain.front() {
                // Batch-pop: the slot was sorted when draining began, so
                // the minimum is a front-pop.
                Some(&(k, _)) if k == key => level.drain.pop_front().expect("peeked front").1,
                _ => {
                    // The minimum sits in an unsorted slot: drain that
                    // slot — sort it once, pop from the front thereafter.
                    debug_assert_eq!(key, level.slot_min);
                    if let Some(&(front, _)) = level.drain.front() {
                        // Rare: an insert landed in an earlier slot after
                        // draining began; flush the remainder back.
                        let ds = level.drain_slot;
                        level.slots[ds & (SLOTS - 1)].extend(level.drain.drain(..));
                        level.occ[ds >> 6] |= 1 << (ds & 63);
                        if ds < level.min_slot_hint {
                            level.min_slot_hint = ds;
                        }
                        level.slot_min = level.slot_min.min(front);
                    }
                    let s = slot_of((key >> 64) as u64, tier);
                    let mut vec = std::mem::take(&mut level.slots[s & (SLOTS - 1)]);
                    vec.sort_unstable_by_key(|&(k, _)| k);
                    level.occ[s >> 6] &= !(1 << (s & 63));
                    level.drain = VecDeque::from(vec);
                    level.drain_slot = s;
                    level.slot_min = level.recompute_slot_min();
                    let (k, event) = level.drain.pop_front().expect("slot held the minimum");
                    debug_assert_eq!(k, key);
                    event
                }
            };
            level.len -= 1;
            self.mins[tier] = level.min_key();
            event
        };
        self.len -= 1;
        Some(Scheduled {
            time: SimTime((key >> 64) as u64),
            seq: key as u64,
            event,
        })
    }

    /// Least key across the four tier minima ([`EMPTY`] iff no timers).
    #[inline]
    fn min_of_tiers(&self) -> u128 {
        let m01 = self.mins[0].min(self.mins[1]);
        let m23 = self.mins[2].min(self.mins[3]);
        m01.min(m23)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(s) = w.pop_min() {
            out.push((s.time.nanos(), s.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(SimTime(1_000_000), 2, 2);
        w.insert(SimTime(50), 3, 3);
        w.insert(SimTime(1_000_000), 1, 1);
        w.insert(SimTime(50), 0, 0);
        assert_eq!(
            drain(&mut w),
            vec![(50, 0), (50, 3), (1_000_000, 1), (1_000_000, 2)]
        );
    }

    #[test]
    fn spans_levels_and_overflow() {
        let mut w = TimerWheel::new();
        // One entry per level plus one past the wheel's span.
        let times = [
            1u64 << 17,       // level 0
            1u64 << 25,       // level 1
            1u64 << 33,       // level 2
            1u64 << 45,       // overflow
            (1u64 << 17) + 7, // level 0 again
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(SimTime(t), i as u64, i as u64);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn cancel_removes_and_detects_staleness() {
        let mut w = TimerWheel::new();
        let h1 = w.insert(SimTime(100), 0, 0);
        let h2 = w.insert(SimTime(200), 1, 1);
        assert!(w.cancel(h1));
        assert!(!w.cancel(h1), "double cancel must fail");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_min().unwrap().seq, 1);
        assert!(!w.cancel(h2), "cancel after fire must fail");
        assert!(w.is_empty());
    }

    #[test]
    fn handle_reuse_does_not_alias() {
        let mut w = TimerWheel::new();
        let h1 = w.insert(SimTime(100), 0, 0);
        assert!(w.cancel(h1));
        // Same slot, different seq: the old handle must not cancel the
        // new tenant.
        let h2 = w.insert(SimTime(100), 1, 1);
        assert!(!w.cancel(h1));
        assert_eq!(w.len(), 1);
        assert!(w.cancel(h2));
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_min_then_peek_recovers() {
        let mut w = TimerWheel::new();
        let h = w.insert(SimTime(10), 0, 0);
        w.insert(SimTime(20), 1, 1);
        assert_eq!(w.peek_key().map(|k| (k >> 64) as u64), Some(10));
        assert!(w.cancel(h));
        assert_eq!(w.peek_key().map(|k| (k >> 64) as u64), Some(20));
        assert_eq!(w.pop_min().unwrap().time, SimTime(20));
    }

    #[test]
    fn mixed_epoch_inserts_stay_ordered() {
        // Entries whose level-0 epochs differ must not alias into the same
        // level-0 slot window; the epoch rule pushes them up a level.
        let mut w = TimerWheel::new();
        let a = 3u64 << 24; // epoch 3 at level 0
        let b = (4u64 << 24) | 5; // epoch 4, would alias slot-wise
        w.insert(SimTime(b), 0, 0);
        w.insert(SimTime(a), 1, 1);
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        assert_eq!(popped, vec![a, b]);
    }

    #[test]
    fn cancel_against_reused_level_epoch_fails_cleanly() {
        // A timer fires, its level drains, the level is re-tenanted under a
        // different epoch: the old handle must report dead, not remove a
        // stranger filed in the same slot index.
        let mut w = TimerWheel::new();
        let t1 = 5u64 << 16; // level 0, slot 5, epoch 0
        let h = w.insert(SimTime(t1), 0, 0);
        assert_eq!(w.pop_min().unwrap().seq, 0);
        let t2 = (1u64 << 24) | (5u64 << 16); // level 0, slot 5, epoch 1
        w.insert(SimTime(t2), 1, 1);
        assert!(!w.cancel(h), "stale handle must miss re-tenanted level");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn inserts_into_the_draining_slot_stay_ordered() {
        // Begin draining a dense slot, then keep inserting into it: the
        // late arrivals must merge into the sorted buffer, not jump the
        // queue or fall behind.
        let mut w = TimerWheel::new();
        let base = 5u64 << GRAN_BITS; // level 0, slot 5
        for i in 0..8u64 {
            w.insert(SimTime(base + i), i, i);
        }
        assert_eq!(w.pop_min().unwrap().seq, 0);
        assert_eq!(w.pop_min().unwrap().seq, 1); // slot now mid-drain
        w.insert(SimTime(base + 3), 100, 100); // ties time 3, higher seq
        w.insert(SimTime(base + 900), 101, 101); // same slot, latest time
        let rest: Vec<(u64, u64)> = drain(&mut w).into_iter().map(|(t, s)| (t - base, s)).collect();
        assert_eq!(
            rest,
            vec![(2, 2), (3, 3), (3, 100), (4, 4), (5, 5), (6, 6), (7, 7), (900, 101)]
        );
    }

    #[test]
    fn earlier_slot_insert_flushes_the_drain_back() {
        // After a slot starts draining, an insert into an *earlier* slot
        // undercuts the buffer; the next pop must serve the earlier slot
        // and re-file the buffered remainder without losing anything.
        let mut w = TimerWheel::new();
        let late = 5u64 << GRAN_BITS; // level 0, slot 5
        for i in 0..4u64 {
            w.insert(SimTime(late + i), i, i);
        }
        assert_eq!(w.pop_min().unwrap().seq, 0); // slot 5 mid-drain
        let early = (3u64 << GRAN_BITS) + 1; // level 0, slot 3
        w.insert(SimTime(early), 50, 50);
        assert_eq!(w.len(), 4);
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, s)| s).collect();
        assert_eq!(order, vec![50, 1, 2, 3]);
    }

    #[test]
    fn dense_random_interleaving_matches_sorted_order() {
        use crate::rng::DetRng;
        let mut rng = DetRng::new(0x77EE);
        let mut w = TimerWheel::new();
        let mut live: Vec<(u64, u64, TimerHandle)> = Vec::new();
        let mut seq = 0u64;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for _ in 0..10_000 {
            match rng.uniform_u64(0, 3) {
                0 | 1 => {
                    let t = rng.uniform_u64(0, 1 << 30);
                    let h = w.insert(SimTime(t), seq, seq);
                    live.push((t, seq, h));
                    seq += 1;
                }
                _ => {
                    if !live.is_empty() {
                        let i = rng.uniform_u64(0, live.len() as u64) as usize;
                        let (_, _, h) = live.swap_remove(i);
                        assert!(w.cancel(h));
                    }
                }
            }
        }
        expected.extend(live.iter().map(|&(t, s, _)| (t, s)));
        expected.sort_unstable();
        assert_eq!(drain(&mut w), expected);
    }

    #[test]
    fn random_insert_pop_cancel_storm_matches_reference() {
        // Heavier mixed workload than the dense test: pops interleave with
        // inserts and cancels, exercising drain/flush-back continuously
        // against a sorted-Vec reference.
        use crate::rng::DetRng;
        let mut rng = DetRng::new(0xBEEF_CAFE);
        let mut w = TimerWheel::new();
        let mut reference: Vec<(u128, u64)> = Vec::new(); // (key, seq)
        let mut handles: Vec<TimerHandle> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..20_000 {
            match rng.uniform_u64(0, 10) {
                0..=4 => {
                    let t = rng.uniform_u64(0, 1 << 32);
                    let h = w.insert(SimTime(t), seq, seq);
                    reference.push((pack(SimTime(t), seq), seq));
                    handles.push(h);
                    seq += 1;
                }
                5..=7 => {
                    let popped = w.pop_min();
                    if reference.is_empty() {
                        assert!(popped.is_none());
                    } else {
                        let at = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(k, _))| k)
                            .map(|(i, _)| i)
                            .unwrap();
                        let (_, want_seq) = reference.swap_remove(at);
                        assert_eq!(popped.unwrap().seq, want_seq);
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let i = rng.uniform_u64(0, handles.len() as u64) as usize;
                        let h = handles.swap_remove(i);
                        let live = reference.iter().position(|&(k, _)| k == h.key());
                        assert_eq!(w.cancel(h), live.is_some());
                        if let Some(at) = live {
                            reference.swap_remove(at);
                        }
                    }
                }
            }
            assert_eq!(w.len(), reference.len());
        }
    }
}
