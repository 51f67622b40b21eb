//! Passes over a workload's cells, and the checks that count failures.
//!
//! Every pass is checked after its clock stops: each cell's [`Outcome`]
//! must equal the reference the verification pass recorded for it, so a
//! nondeterministic or crashing run counts as failed instead of timed.

use crate::cells::{Cell, Workload};
use crate::pins::{self, Pin};
use crate::pipeline::{check_invariants, run_staged, Outcome, Phases};
use crate::probe::Probe;
use crate::trace::Tracer;
use parsched_core::prelude::*;
use parsched_des::ShardTiming;
use parsched_machine::{Counters, JobSpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Cell runs attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that errored, did not drain, broke an invariant, or gave
    /// a result other than the pinned or reference one.
    pub failed: u64,
}

impl Tally {
    /// Count one cell run, reporting a failure on stderr.
    pub fn record(&mut self, cell: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("simbench: cell {cell} failed: {why}");
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(RunError::panicked(0, payload.as_ref()).diagnosis))
}

fn compare(got: Result<Outcome, String>, reference: &Option<Outcome>) -> Result<(), String> {
    match (got?, reference) {
        (o, Some(r)) if o == *r => Ok(()),
        (_, Some(_)) => Err("result differs from this run's verification pass".into()),
        (_, None) => Err("the verification pass of this cell failed".into()),
    }
}

/// Shard-runner host time of one pass, summed over cells and shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSums {
    /// Cells run.
    pub cells: u64,
    /// Shards used, summed over cells.
    pub shards: u64,
    /// Time inside the shards' engines.
    pub work: Duration,
    /// Time waiting at window barriers.
    pub barrier: Duration,
    /// Time routing and merging cross-shard mail.
    pub merge: Duration,
    /// Cells that fell back to the sequential path.
    pub fallbacks: u64,
}

impl std::ops::AddAssign for ShardSums {
    fn add_assign(&mut self, o: ShardSums) {
        self.cells += o.cells;
        self.shards += o.shards;
        self.work += o.work;
        self.barrier += o.barrier;
        self.merge += o.merge;
        self.fallbacks += o.fallbacks;
    }
}

/// Probe units to run before each cell of a timed pass.
pub struct Pacing<'a> {
    /// The probe.
    pub probe: &'a mut Probe,
    /// Units before each cell, in cell order.
    pub units: &'a [u64],
}

/// One pass over a workload's cells.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time of the whole pass, probe time excluded.
    pub wall: Duration,
    /// How many times slower than its reference the probe ran during the
    /// pass (1 when no probe ran).
    pub slowdown: f64,
    /// Config to seeded engine, summed over cells. For a sharded pass, the
    /// cell time outside the shard windows (planning, building the shard
    /// machines, seeding, merging the results).
    pub setup: Duration,
    /// Stage times, summed over cells (staged passes only).
    pub phases: Phases,
    /// Shard-runner times (sharded passes only).
    pub shard: ShardSums,
    /// Events processed, summed over cells.
    pub events: u64,
    /// Counters, summed over cells.
    pub counters: Counters,
    /// Nodes built, summed over cells.
    pub nodes: u64,
    /// Channels built, summed over cells.
    pub channels: u64,
}

impl Pass {
    /// Fold `other` into this running total (`slowdown` is not summed).
    pub fn add(&mut self, other: &Pass) {
        self.wall += other.wall;
        self.setup += other.setup;
        self.phases += other.phases;
        self.shard += other.shard;
        self.events += other.events;
        self.counters.absorb(&other.counters);
        self.nodes += other.nodes;
        self.channels += other.channels;
    }

    /// Check each cell against its reference and total the simulated work.
    fn settle(
        &mut self,
        cells: &[Cell],
        got: Vec<Result<Outcome, String>>,
        refs: &[Option<Outcome>],
        tally: &mut Tally,
    ) {
        for ((cell, r), reference) in cells.iter().zip(got).zip(refs) {
            if let Ok(o) = &r {
                self.events += o.events;
                self.counters.absorb(&o.counters);
            }
            tally.record(&cell.name, compare(r, reference));
        }
    }
}

/// Clone each batch up front: `run_batch` takes an owned batch, so copying
/// it is the caller's cost, not the simulator's.
fn batches(cells: &[Cell]) -> Vec<Vec<JobSpec>> {
    cells.iter().map(|c| c.batch.clone()).collect()
}

/// One pass through the staged pipeline, traced when `tracer` is given.
pub fn staged_pass(
    cells: &[Cell],
    refs: &[Option<Outcome>],
    tally: &mut Tally,
    pacing: Pacing,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let mut got = Vec::with_capacity(cells.len());
    let batches = batches(cells);
    let mut probing = Duration::ZERO;
    let t = Instant::now();
    for ((cell, batch), &units) in cells.iter().zip(batches).zip(pacing.units) {
        probing += pacing.probe.run(units);
        let r =
            guarded(|| run_staged(cell, batch, tracer.as_deref_mut()).map_err(|e| e.to_string()));
        got.push(r.map(|staged| {
            pass.nodes += staged.nodes as u64;
            pass.channels += staged.channels as u64;
            let (o, phases) = staged.finish();
            pass.phases += phases;
            o
        }));
    }
    pass.wall = t.elapsed() - probing;
    pass.slowdown = pacing.probe.factor();
    pass.setup = pass.phases.setup();
    pass.settle(cells, got, refs, tally);
    pass
}

/// One `run_batch_sharded` call at `default_shards`, with its setup time
/// (see [`Pass::setup`]) and shard timings.
fn sharded_cell(
    cell: &Cell,
    batch: Vec<JobSpec>,
) -> Result<(Outcome, Duration, ShardSums), String> {
    let k = default_shards(&cell.config);
    let start = Instant::now();
    let r = guarded(|| run_batch_sharded(&cell.config, batch, k).map_err(|e| e.to_string()))?;
    let wall = start.elapsed();
    let ns = |f: fn(&ShardTiming) -> u64| -> Duration {
        r.timings.iter().map(|t| Duration::from_nanos(f(t))).sum()
    };
    let span = r
        .timings
        .iter()
        .map(|t| Duration::from_nanos(t.work_ns + t.barrier_ns + t.merge_ns))
        .max()
        .unwrap_or(Duration::ZERO);
    let sums = ShardSums {
        cells: 1,
        shards: r.shards as u64,
        work: ns(|t| t.work_ns),
        barrier: ns(|t| t.barrier_ns),
        merge: ns(|t| t.merge_ns),
        fallbacks: u64::from(r.fallback.is_some()),
    };
    Ok((Outcome::of_sharded(&r), wall.saturating_sub(span), sums))
}

/// One pass through `run_batch_sharded` at `default_shards`.
pub fn sharded_pass(
    cells: &[Cell],
    refs: &[Option<Outcome>],
    tally: &mut Tally,
    pacing: Pacing,
) -> Pass {
    let mut pass = Pass::default();
    let mut got = Vec::with_capacity(cells.len());
    let batches = batches(cells);
    let mut probing = Duration::ZERO;
    let t = Instant::now();
    for ((cell, batch), &units) in cells.iter().zip(batches).zip(pacing.units) {
        probing += pacing.probe.run(units);
        got.push(sharded_cell(cell, batch).map(|(o, setup, sums)| {
            pass.setup += setup;
            pass.shard += sums;
            o
        }));
    }
    pass.wall = t.elapsed() - probing;
    pass.slowdown = pacing.probe.factor();
    pass.settle(cells, got, refs, tally);
    pass
}

/// What the verification pass found.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Each cell's reference outcome (`None` where a check failed).
    pub refs: Vec<Option<Outcome>>,
    /// Each cell's host time, as the timed passes will run it.
    pub times: Vec<Duration>,
    /// The pass's summed setup time, measured as the timed passes measure
    /// it.
    pub setup: Duration,
}

/// The untimed first pass: run every cell through the staged pipeline,
/// check the oracle's invariants on its machine, compare it with its pin
/// when `pins` is given, and (for the sharded workload) check that
/// `run_batch_sharded` at `default_shards` reproduces it.
pub fn verify(
    workload: Workload,
    cells: &[Cell],
    pins: Option<&HashMap<&str, Pin>>,
    tally: &mut Tally,
) -> Verified {
    let mut v = Verified::default();
    for cell in cells {
        let r = guarded(|| {
            let staged = run_staged(cell, cell.batch.clone(), None).map_err(|e| e.to_string())?;
            let o = staged.outcome();
            check_invariants(&staged.driver.machine, o.makespan);
            let (_, phases) = staged.finish();
            Ok((o, phases))
        });
        if !workload.sharded() {
            let phases = r.as_ref().map_or(Phases::default(), |(_, p)| *p);
            v.setup += phases.setup();
            v.times.push(phases.total());
        }
        let verdict = r.and_then(|(o, _)| match pins {
            Some(p) => pins::check(p.get(cell.name.as_str()), &o).map(|()| o),
            None => Ok(o),
        });
        let reference = verdict.as_ref().ok().cloned();
        tally.record(&cell.name, verdict.map(drop));
        if workload.sharded() {
            let start = Instant::now();
            let r = sharded_cell(cell, cell.batch.clone());
            if let Ok((_, s, _)) = &r {
                v.setup += *s;
            }
            v.times.push(start.elapsed());
            let verdict = match (r, &reference) {
                (Ok((o, ..)), Some(seq)) if o == *seq => Ok(()),
                (Ok(_), Some(_)) => Err("the sharded run differs from the sequential one".into()),
                (Ok(_), None) => Err("no sequential result to compare with".into()),
                (Err(e), _) => Err(e),
            };
            tally.record(&cell.name, verdict);
        }
        v.refs.push(reference);
    }
    v
}
