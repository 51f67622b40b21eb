//! The traced run: a [`Model`] around `&mut Driver` that times each
//! `handle` call by `Event` kind, and an [`EventScheduler`] around the
//! engine's scheduler that counts timer traffic.
//!
//! A handler's time is the whole `Driver::handle` call, so it includes the
//! driver's processing of the notes the event makes the machine emit (job
//! loaded, job completed, ...). `PolicyTick` never reaches the machine:
//! its time is the driver's own (arrivals and gang rotation).

use parsched_core::prelude::Driver;
use parsched_des::{EventScheduler, Model, SimDuration, SimTime, TimerHandle};
use parsched_machine::Event;
use std::mem::Discriminant;
use std::time::Instant;

/// Metric names of the event kinds, in `Event` declaration order, plus
/// `other` for a kind this list does not know yet.
pub const KINDS: [&str; 15] = [
    "admit",
    "load_job",
    "dispatch",
    "slice_end",
    "transfer_done",
    "flit_tick",
    "hop_start",
    "alloc_escape",
    "policy_tick",
    "node_crash",
    "link_down",
    "link_up",
    "msg_retry",
    "msg_timeout",
    "other",
];

/// Index of `flit_tick` in [`KINDS`].
pub const FLIT_TICK: usize = 5;

/// The per-layer rollups of [`KINDS`]: `(metric, kinds)`.
pub const ROLLUPS: [(&str, &[&str]); 6] = [
    ("machine.cpu.self_s", &["dispatch", "slice_end"]),
    (
        "machine.net.self_s",
        &["transfer_done", "hop_start", "alloc_escape"],
    ),
    ("machine.wormhole.self_s", &["flit_tick"]),
    ("machine.load.self_s", &["admit", "load_job"]),
    ("core.policy.self_s", &["policy_tick"]),
    (
        "machine.fault.self_s",
        &[
            "node_crash",
            "link_down",
            "link_up",
            "msg_retry",
            "msg_timeout",
        ],
    ),
];

/// `SliceEnd` → `slice_end`; unknown names map to `other`.
fn kind_index(debug: &str) -> usize {
    let name = debug.split([' ', '{', '(']).next().unwrap_or("");
    let mut snake = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() && i > 0 {
            snake.push('_');
        }
        snake.push(ch.to_ascii_lowercase());
    }
    KINDS
        .iter()
        .position(|k| *k == snake)
        .unwrap_or(KINDS.len() - 1)
}

/// What a traced run accumulated. Sums over every run it traced.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Events handled, by kind.
    pub n: [u64; KINDS.len()],
    /// Host nanoseconds inside `Driver::handle`, by kind.
    pub ns: [u64; KINDS.len()],
    /// Cancellable timers scheduled.
    pub timer_sets: u64,
    /// `cancel_timer` calls.
    pub cancels: u64,
    /// Cancels that removed a still-pending timer.
    pub live_cancels: u64,
    /// Most pending timers seen after any event.
    pub timers_peak: usize,
    /// Event kinds seen so far, so the kind name is formatted once per kind.
    seen: Vec<(Discriminant<Event>, usize)>,
}

impl Tracer {
    fn kind(&mut self, ev: &Event) -> usize {
        let d = std::mem::discriminant(ev);
        if let Some(&(_, k)) = self.seen.iter().find(|(s, _)| *s == d) {
            return k;
        }
        let k = kind_index(&format!("{ev:?}"));
        self.seen.push((d, k));
        k
    }

    /// Host nanoseconds inside all handlers.
    pub fn handler_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// The driver, with each `handle` call timed and its scheduler counted.
pub struct Traced<'a> {
    driver: &'a mut Driver,
    tracer: &'a mut Tracer,
}

impl<'a> Traced<'a> {
    /// Trace `driver` into `tracer`.
    pub fn new(driver: &'a mut Driver, tracer: &'a mut Tracer) -> Traced<'a> {
        Traced { driver, tracer }
    }
}

impl Model for Traced<'_> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        let k = self.tracer.kind(&event);
        let mut counting = Counting {
            inner: sched,
            sets: 0,
            cancels: 0,
            live: 0,
        };
        let start = Instant::now();
        self.driver.handle(now, event, &mut counting);
        let ns = start.elapsed().as_nanos() as u64;
        let t = &mut *self.tracer;
        t.n[k] += 1;
        t.ns[k] += ns;
        t.timer_sets += counting.sets;
        t.cancels += counting.cancels;
        t.live_cancels += counting.live;
        t.timers_peak = t.timers_peak.max(counting.inner.timer_count());
    }
}

/// Forwards every call to the engine's scheduler, counting timer traffic.
struct Counting<'s, S> {
    inner: &'s mut S,
    sets: u64,
    cancels: u64,
    live: u64,
}

impl<E, S: EventScheduler<E>> EventScheduler<E> for Counting<'_, S> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        self.inner.schedule_at(time, event);
    }

    fn schedule_timer_at(&mut self, time: SimTime, event: E) -> TimerHandle {
        self.sets += 1;
        self.inner.schedule_timer_at(time, event)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.cancels += 1;
        let live = self.inner.cancel_timer(handle);
        self.live += u64::from(live);
        live
    }

    fn timer_count(&self) -> usize {
        self.inner.timer_count()
    }

    fn schedule(&mut self, delay: SimDuration, event: E) {
        self.inner.schedule(delay, event);
    }

    fn schedule_now(&mut self, event: E) {
        self.inner.schedule_now(event);
    }

    fn schedule_timer(&mut self, delay: SimDuration, event: E) -> TimerHandle {
        self.sets += 1;
        self.inner.schedule_timer(delay, event)
    }

    fn request_pause(&mut self) {
        self.inner.request_pause();
    }
}

/// Host cost of one `Instant::now()` pair and the subtraction between them,
/// the probe each traced `handle` call pays: the mean over `iters` pairs.
pub fn instant_pair_ns(iters: u32) -> f64 {
    let start = Instant::now();
    let mut acc = 0u128;
    for _ in 0..iters {
        let a = Instant::now();
        acc += a.elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_follow_the_event_variants() {
        assert_eq!(kind_index("SliceEnd { node: 3, seq: 9 }"), 3);
        assert_eq!(kind_index("FlitTick { chan: 0 }"), FLIT_TICK);
        assert_eq!(kind_index("MsgTimeout { msg: MsgId(1), gen: 0 }"), 13);
        assert_eq!(kind_index("Teleport { worm: 1 }"), KINDS.len() - 1);
    }

    #[test]
    fn rollups_name_known_kinds_once() {
        let mut all: Vec<&str> = ROLLUPS
            .iter()
            .flat_map(|(_, ks)| ks.iter().copied())
            .collect();
        all.sort_unstable();
        let mut known: Vec<&str> = KINDS[..KINDS.len() - 1].to_vec();
        known.sort_unstable();
        assert_eq!(all, known);
    }
}
