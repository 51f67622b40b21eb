//! Host-side timing of a sharded run.
//!
//! The kernel itself runs one [`Engine`](crate::engine::Engine) per
//! shard; the round loop that drives them (run slice, barrier, leader
//! round, barrier) lives with the scheduler that owns the global
//! decisions, `parsched-core`'s sharded runner. This module holds the
//! wall-clock breakdown each shard thread reports back.

/// Wall-clock breakdown of one shard thread's run through the round
/// loop: simulating (`work_ns`), blocked on the round barriers
/// (`barrier_ns`), or serving the leader round (`merge_ns`). Wall-clock
/// only — it never feeds a simulated result or a fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Time spent applying grants and running the engine's slice up to
    /// the round horizon.
    pub work_ns: u64,
    /// Time spent waiting at the two barriers of each round.
    pub barrier_ns: u64,
    /// Time spent in the leader round (shard 0 only): ingesting reports,
    /// serving requests, advancing the horizon.
    pub merge_ns: u64,
}
