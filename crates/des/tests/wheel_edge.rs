//! Edge-case tests for the timing wheel *as driven through the engine*:
//! epoch rollover at level boundaries, handle staleness across
//! fire/cancel/reuse, and the interaction between the wheel, the event
//! heap, and the schedule-at-now bypass. The wheel's unit tests exercise
//! it in isolation; these exercise the three-tier merge the engine
//! actually runs.

use parsched_des::prelude::*;

/// Level-0 epoch width: slot field covers bits 20..28, so the epoch (the
/// bits above) rolls every 2^28 ns (~268 ms).
const L0_EPOCH: u64 = 1 << 28;
/// Level-1 epoch width (~68.7 s).
const L1_EPOCH: u64 = 1 << 36;
/// Beyond every level's span (~4.9 h): the overflow list.
const PAST_WHEEL: u64 = 1 << 45;

/// Fires a batch of timers handed to it at event 0 and records the order
/// in which they come back.
struct TimerBatch {
    at: Vec<u64>,
    fired: Vec<u64>,
}

impl Model for TimerBatch {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
        if ev == u64::MAX {
            for &t in &self.at {
                sched.schedule_timer_at(SimTime(t), t);
            }
        } else {
            assert_eq!(now.nanos(), ev, "timer fired at the wrong instant");
            self.fired.push(ev);
        }
    }
}

fn run_batch(at: Vec<u64>) -> Vec<u64> {
    let mut model = TimerBatch {
        at,
        fired: Vec::new(),
    };
    let mut engine = Engine::new(QueueKind);
    engine.seed(SimTime::ZERO, u64::MAX);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    model.fired
}

#[test]
fn timers_straddling_level_epoch_boundaries_fire_in_time_order() {
    // Two timers on each side of the level-0 epoch boundary, inserted in
    // an order that forces the epoch rule to push mismatched entries up a
    // level rather than aliasing them into the same slot window.
    let at = vec![
        L0_EPOCH + 5,
        L0_EPOCH - 5,
        2 * L0_EPOCH + 1,
        L0_EPOCH - 1,
        L0_EPOCH,
    ];
    let mut sorted = at.clone();
    sorted.sort_unstable();
    assert_eq!(run_batch(at), sorted);
}

#[test]
fn timers_straddling_level1_and_overflow_fire_in_time_order() {
    let at = vec![
        PAST_WHEEL + 3, // overflow list
        L1_EPOCH + 9,   // level 1 epoch 1
        L1_EPOCH - 9,   // level 1 epoch 0 (level 0 already tenanted)
        7,              // level 0
        PAST_WHEEL - 1, // level 2
    ];
    let mut sorted = at.clone();
    sorted.sort_unstable();
    assert_eq!(run_batch(at), sorted);
}

#[test]
fn epoch_rollover_after_drain_retenants_cleanly() {
    // The wheel's level-0 population drains completely inside epoch 0;
    // timers set afterwards live in epoch 1 and reuse the same slots.
    struct Rollover {
        fired: Vec<u64>,
    }
    impl Model for Rollover {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.fired.push(now.nanos());
            if ev == 0 {
                // Re-tenant the level across the epoch boundary, slots
                // *below* the ones just vacated.
                sched.schedule_timer_at(SimTime(L0_EPOCH + 10), 1);
                sched.schedule_timer_at(SimTime(L0_EPOCH + 5), 1);
            }
        }
    }
    let mut model = Rollover { fired: Vec::new() };
    let mut engine = Engine::new(QueueKind);
    engine.seed(SimTime(L0_EPOCH - 100), 1);
    engine.seed(SimTime(L0_EPOCH - 50), 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(
        model.fired,
        vec![L0_EPOCH - 100, L0_EPOCH - 50, L0_EPOCH + 5, L0_EPOCH + 10]
    );
    assert_eq!(engine.pending(), 0);
}

#[test]
fn stale_handles_stay_dead_across_fire_and_reuse() {
    // A handle outlives its timer (fired or cancelled); cancelling it
    // later must fail and must not touch a newer timer in the same slot.
    #[derive(Default)]
    struct Stale {
        first: Option<TimerHandle>,
        cancelled_early: Option<TimerHandle>,
        fired: Vec<u64>,
        stale_results: Vec<bool>,
    }
    impl Model for Stale {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            match ev {
                0 => {
                    self.first = Some(sched.schedule_timer_at(SimTime(1000), 1));
                    let doomed = sched.schedule_timer_at(SimTime(2000), 9);
                    assert!(sched.cancel_timer(doomed), "live timer cancels");
                    self.cancelled_early = Some(doomed);
                    sched.schedule_at(SimTime(3000), 2);
                }
                1 => self.fired.push(now.nanos()),
                2 => {
                    // Both handles are now stale (one fired, one cancelled).
                    // Re-tenant time 1000's slot region before probing.
                    sched.schedule_timer_at(SimTime(4000), 1);
                    self.stale_results
                        .push(sched.cancel_timer(self.first.unwrap()));
                    self.stale_results
                        .push(sched.cancel_timer(self.cancelled_early.unwrap()));
                    assert_eq!(sched.timer_count(), 1, "new tenant untouched");
                }
                _ => unreachable!(),
            }
        }
    }
    let mut model = Stale::default();
    let mut engine = Engine::new(QueueKind);
    engine.seed(SimTime::ZERO, 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(model.stale_results, vec![false, false]);
    assert_eq!(model.fired, vec![1000, 4000]);
}

#[test]
fn schedule_at_now_merges_in_seq_order_across_all_tiers() {
    // At one instant, events land in all three tiers: the now-queue
    // (schedule_at(now) bypass), the wheel (schedule_timer_at(now)), and
    // the heap (a previously scheduled event at the same time).
    // Delivery must follow creation (seq) order exactly.
    struct Mixer {
        order: Vec<u64>,
    }
    impl Model for Mixer {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.order.push(ev);
            if ev == 0 {
                assert_eq!(now, SimTime(100));
                sched.schedule_at(SimTime(100), 10); // now-queue, seq 2
                sched.schedule_timer_at(SimTime(100), 11); // wheel, seq 3
                sched.schedule_at(SimTime(100), 12); // now-queue, seq 4
                sched.schedule_at(SimTime(200), 13); // heap, seq 5
            }
        }
    }
    let mut model = Mixer { order: Vec::new() };
    let mut engine = Engine::new(QueueKind);
    engine.seed(SimTime(100), 0); // seq 0
    engine.seed(SimTime(100), 1); // seq 1: heap event at the same time
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    // Seq order at t=100: the seeded 1 (seq 1) precedes the bypassed 10
    // (seq 2) even though the now-queue is the cheapest tier to peek.
    assert_eq!(model.order, vec![0, 1, 10, 11, 12, 13]);
}

#[test]
fn zero_delay_schedule_is_the_now_queue_bypass() {
    // schedule(0, ..) and schedule_now(..) route through schedule_at(now)
    // and must behave identically to it: same-time FIFO, no heap churn.
    struct Zero {
        order: Vec<u64>,
    }
    impl Model for Zero {
        type Event = u64;
        fn handle(&mut self, _now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.order.push(ev);
            if ev == 0 {
                sched.schedule_now(1);
                sched.schedule(SimDuration::ZERO, 2);
                sched.schedule_now(3);
            }
        }
    }
    let mut model = Zero { order: Vec::new() };
    let mut engine = Engine::new(QueueKind);
    engine.seed(SimTime(50), 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(model.order, vec![0, 1, 2, 3]);
    assert_eq!(engine.now(), SimTime(50), "zero-delay events do not advance time");
}
