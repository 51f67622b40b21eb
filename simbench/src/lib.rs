//! # simbench
//!
//! Host-time benchmark of the parsched simulator: four workloads, timed
//! end to end with tracing off, and split by layer in a separate traced
//! run. The layers are timed from outside, through the public calls the
//! simulator's own `run_batch` makes; nothing in the simulator crates is
//! instrumented. See `README.md` beside this crate for the workloads, the
//! metrics and what each later change should move.

pub mod cells;
pub mod pins;
pub mod pipeline;
pub mod probe;
pub mod report;
pub mod run;
pub mod trace;
