//! Typed simulation events and the recorder trait.
//!
//! [`ObsEvent`] is a small `Copy` enum of plain integer ids: constructing
//! one is a handful of register moves, so hook sites can build events
//! unconditionally and let a single `Option` branch decide whether anything
//! is recorded. Compare the previous scheme — `format!("{event:?}")` into a
//! string ring buffer on every event — which allocated even when the trace
//! was the only consumer.

use parsched_des::SimTime;
use std::any::Any;

/// Why a low-priority CPU slice ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumEndReason {
    /// The process's current phase (and possibly program) completed.
    Completed,
    /// The quantum expired mid-phase; the process requeued round-robin.
    Expired,
    /// High-priority work (or a policy parking) preempted the process,
    /// which loses the rest of its quantum (the T805 rule).
    Preempted,
    /// The process blocked (receive wait or buffer allocation).
    Blocked,
}

impl QuantumEndReason {
    /// Short lowercase label (used by exporters).
    pub fn label(self) -> &'static str {
        match self {
            QuantumEndReason::Completed => "completed",
            QuantumEndReason::Expired => "expired",
            QuantumEndReason::Preempted => "preempted",
            QuantumEndReason::Blocked => "blocked",
        }
    }
}

/// One simulation event, carrying plain integer ids only.
///
/// `job`, `rank`, `msg` and `chan` are the machine's dense table indices;
/// `node` is the global processor index; `partition` is the partition id of
/// the hierarchical scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A job arrived at the machine (admission; host-link load begins).
    JobArrived {
        /// Job id.
        job: u32,
    },
    /// The job's processes became runnable.
    JobLoaded {
        /// Job id.
        job: u32,
    },
    /// Every process of the job finished; its memory was freed.
    JobFinished {
        /// Job id.
        job: u32,
    },
    /// The partition scheduler admitted a job to a partition.
    PartitionAdmit {
        /// Job id.
        job: u32,
        /// Partition index.
        partition: u32,
    },
    /// A low-priority process was dispatched onto its node's CPU.
    QuantumStart {
        /// Global node index.
        node: u32,
        /// Job id.
        job: u32,
        /// Process rank within the job.
        rank: u32,
    },
    /// The running low-priority slice ended.
    QuantumEnd {
        /// Global node index.
        node: u32,
        /// Job id.
        job: u32,
        /// Process rank within the job.
        rank: u32,
        /// Why the slice ended.
        reason: QuantumEndReason,
    },
    /// A high-priority message handler started on a node's CPU.
    HandlerStart {
        /// Global node index.
        node: u32,
        /// Message the handler serves.
        msg: u32,
    },
    /// The running high-priority handler completed.
    HandlerEnd {
        /// Global node index.
        node: u32,
        /// Message the handler served.
        msg: u32,
    },
    /// A process injected a message (after paying the send overhead).
    MsgSend {
        /// Message id.
        msg: u32,
        /// Owning job.
        job: u32,
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Payload bytes, saturated at `u32::MAX` (4 GiB-1) so the event
        /// stays within its two-word size pin; the machine's own accounting
        /// keeps the exact 64-bit count.
        bytes: u32,
    },
    /// A message transfer started occupying a channel.
    HopStart {
        /// Message id.
        msg: u32,
        /// Channel table index.
        chan: u32,
    },
    /// The channel transfer completed.
    HopEnd {
        /// Message id.
        msg: u32,
        /// Channel table index.
        chan: u32,
    },
    /// A message landed in its destination mailbox.
    MsgDeliver {
        /// Message id.
        msg: u32,
        /// Owning job.
        job: u32,
        /// Destination node.
        node: u32,
    },
    /// A node's CPU fail-stopped (declared in the fault plan).
    NodeCrashed {
        /// Global node index.
        node: u32,
    },
    /// A link went down (declared outage window opened).
    LinkDown {
        /// Channel table index.
        chan: u32,
    },
    /// A link came back up.
    LinkUp {
        /// Channel table index.
        chan: u32,
    },
    /// A message was terminally dropped and accounted (its job was killed
    /// or its retry budget exhausted); it will never deliver.
    MsgDropped {
        /// Message id.
        msg: u32,
        /// Owning job.
        job: u32,
        /// Node the message last occupied.
        node: u32,
    },
    /// A failed delivery attempt (corruption, timeout, or mailbox
    /// overflow) scheduled a retransmission.
    MsgRetry {
        /// Message id.
        msg: u32,
        /// Retransmission number (1-based).
        attempt: u32,
    },
    /// A message's delivery timeout fired before it was delivered.
    MsgTimeout {
        /// Message id.
        msg: u32,
    },
    /// A job was killed by a fault (node crash or retry-budget
    /// exhaustion); the driver may requeue it.
    JobFailed {
        /// Job id.
        job: u32,
    },
    /// The partition scheduler requeued a failed job's work under a fresh
    /// job id.
    JobRequeued {
        /// The *new* job id the rerun executes under.
        job: u32,
        /// Partition the rerun was admitted to.
        partition: u32,
    },
    /// A job entered the open system (its arrival event fired at the super
    /// scheduler — before any admission decision, unlike
    /// [`ObsEvent::JobArrived`], which marks machine admission).
    JobSubmitted {
        /// Batch/submission index of the job.
        index: u32,
        /// Jobs in the system (arrived, not yet departed) including this
        /// one.
        in_system: u32,
    },
    /// A job left the open system (completed or terminally abandoned).
    JobDeparted {
        /// Batch/submission index of the job.
        index: u32,
        /// Jobs remaining in the system after this departure.
        in_system: u32,
    },
    /// A worm's head acquired a virtual channel on a link (wormhole
    /// switching only).
    WormVcAlloc {
        /// Message id.
        msg: u32,
        /// Channel table index.
        chan: u32,
        /// Virtual-channel index within the channel.
        vc: u16,
    },
    /// A worm stalled: no free virtual channel (or no credit) on the link
    /// its head needs.
    WormStall {
        /// Message id.
        msg: u32,
        /// Channel table index.
        chan: u32,
    },
    /// A link outage (or job kill) drained an in-flight worm; its flits
    /// are accounted as dropped and the message retries or dies.
    WormDrained {
        /// Message id.
        msg: u32,
        /// Channel table index.
        chan: u32,
    },
    /// Wall-clock time one shard thread of a parallel run spent in one
    /// phase (emitted once per shard and phase after the run, not during
    /// it — simulated `now` carries the run's makespan).
    ShardPhase {
        /// Shard index within the run.
        shard: u16,
        /// Phase discriminant: 0 = event-loop work, 1 = barrier wait,
        /// 2 = cross-shard merge (coordination leadership).
        phase: u8,
        /// Wall-clock nanoseconds accumulated in the phase.
        ns: u64,
    },
}

/// A timestamped event.
pub type TimedEvent = (SimTime, ObsEvent);

/// Sink for typed events.
///
/// The machine stores an `Option<Box<dyn Recorder>>`; `None` is the
/// zero-cost disabled state. Implementations must not mutate anything the
/// simulation reads — recording is observation only. Recorders are `Send`
/// so an instrumented machine can run inside a simulation shard's thread.
pub trait Recorder: Send {
    /// Record one event at simulated time `now`.
    fn record(&mut self, now: SimTime, ev: ObsEvent);

    /// Downcasting support, so a concrete recorder can be retrieved from
    /// the machine after a run.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Shared-reference downcasting (e.g. the deadlock watchdog peeking at
    /// an installed [`crate::RingRecorder`] without taking it).
    fn as_any(&self) -> &dyn Any;
}

/// A recorder that collects every event into a vector (bounded by a
/// capacity; excess events are counted, not stored).
#[derive(Debug, Default)]
pub struct CollectRecorder {
    events: Vec<TimedEvent>,
    cap: usize,
    dropped: u64,
}

/// Default capacity: generous for a full paper batch (a 16-node F3 run
/// records on the order of 10^5 events) while bounding a runaway run.
const DEFAULT_COLLECT_CAP: usize = 8_000_000;

impl CollectRecorder {
    /// A collector with the default capacity.
    pub fn new() -> CollectRecorder {
        CollectRecorder::with_capacity(DEFAULT_COLLECT_CAP)
    }

    /// A collector keeping at most `cap` events.
    pub fn with_capacity(cap: usize) -> CollectRecorder {
        CollectRecorder {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Events recorded so far, in order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Take ownership of the recorded events.
    pub fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Recorder for CollectRecorder {
    fn record(&mut self, now: SimTime, ev: ObsEvent) {
        if self.events.len() < self.cap {
            self.events.push((now, ev));
        } else {
            self.dropped += 1;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_event_is_small_and_copy() {
        // Keep the hot-path payload cheap: two words at most.
        assert!(std::mem::size_of::<ObsEvent>() <= 24);
        let ev = ObsEvent::JobArrived { job: 3 };
        let copy = ev;
        assert_eq!(ev, copy);
    }

    #[test]
    fn collector_caps_and_counts_drops() {
        let mut c = CollectRecorder::with_capacity(2);
        for i in 0..5u32 {
            c.record(SimTime(i as u64), ObsEvent::JobArrived { job: i });
        }
        assert_eq!(c.events().len(), 2);
        assert_eq!(c.dropped(), 3);
        let taken = c.take_events();
        assert_eq!(taken.len(), 2);
        assert!(c.events().is_empty());
    }

    #[test]
    fn reason_labels_are_lowercase() {
        for r in [
            QuantumEndReason::Completed,
            QuantumEndReason::Expired,
            QuantumEndReason::Preempted,
            QuantumEndReason::Blocked,
        ] {
            assert!(r.label().chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
