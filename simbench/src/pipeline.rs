//! `run_batch`, reassembled from the public calls it makes, with a clock
//! read between them.
//!
//! The order of calls is the one `parsched_core::experiment::execute`
//! uses: `ExperimentConfig::try_plan` → `SystemNet::from_plan` →
//! `Machine::new` → `Driver::new`/`with_*`/`Engine::new`/`Driver::start` →
//! `Engine::run` → `Driver::response_times` + `MachineStats::capture`. The
//! equivalence tests hold this copy to the front door bit for bit.

use crate::cells::Cell;
use crate::trace::{Traced, Tracer};
use parsched_core::prelude::*;
use parsched_des::{Engine, RunOutcome, SimDuration, SimTime, Summary};
use parsched_machine::{Counters, Event, JobSpec, JobState, Machine, MachineStats, SystemNet};
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// Host time of each stage of one run (or a sum over runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `ExperimentConfig::try_plan`: topology construction.
    pub plan: Duration,
    /// `SystemNet::from_plan`: global node and channel wiring.
    pub wiring: Duration,
    /// `Machine::new`.
    pub machine_new: Duration,
    /// Driver construction, engine construction and `Driver::start`.
    pub start: Duration,
    /// `Engine::run`.
    pub run: Duration,
    /// Response times, their summary and `MachineStats::capture`.
    pub report: Duration,
    /// Dropping the driver (and its machine) and the engine.
    pub teardown: Duration,
}

impl Phases {
    /// Config to seeded engine: the `setup_s` share of a run.
    pub fn setup(&self) -> Duration {
        self.plan + self.wiring + self.machine_new + self.start
    }

    /// Every stage.
    pub fn total(&self) -> Duration {
        self.setup() + self.run + self.report + self.teardown
    }
}

impl AddAssign for Phases {
    fn add_assign(&mut self, o: Phases) {
        self.plan += o.plan;
        self.wiring += o.wiring;
        self.machine_new += o.machine_new;
        self.start += o.start;
        self.run += o.run;
        self.report += o.report;
        self.teardown += o.teardown;
    }
}

/// The simulated result of one run: everything two runs of the same cell
/// must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-job response times in submission order.
    pub response_times: Vec<SimDuration>,
    /// Completion time of the whole batch.
    pub makespan: SimDuration,
    /// Engine events processed.
    pub events: u64,
    /// Machine-wide counters.
    pub counters: Counters,
}

impl Outcome {
    /// The outcome of a `run_batch_sharded` call.
    pub fn of_sharded(r: &ShardedRunResult) -> Outcome {
        Outcome {
            response_times: r.response_times.clone(),
            makespan: r.makespan,
            events: r.events,
            counters: r.counters.clone(),
        }
    }
}

/// A run that drained, still holding its driver and engine so a caller
/// can inspect the machine before [`Staged::finish`] tears it down.
pub struct Staged {
    /// The driver; `driver.machine` is the simulated machine.
    pub driver: Driver,
    /// The engine, stopped at the end of the run.
    pub engine: Engine<Event>,
    /// What `run_batch` would have returned as `RunResult::stats`.
    pub stats: MachineStats,
    /// Nodes in the machine.
    pub nodes: usize,
    /// Directed channels in the machine.
    pub channels: usize,
    /// Stage timings; `teardown` is filled in by [`Staged::finish`].
    pub phases: Phases,
    response_times: Vec<SimDuration>,
}

impl Staged {
    /// The simulated result.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            response_times: self.response_times.clone(),
            makespan: self.engine.now().since(SimTime::ZERO),
            events: self.engine.events_processed(),
            counters: self.driver.machine.counters.clone(),
        }
    }

    /// Drop the machine and engine, timing it as the teardown stage.
    pub fn finish(self) -> (Outcome, Phases) {
        let outcome = self.outcome();
        let mut phases = self.phases;
        let Staged {
            driver,
            engine,
            stats,
            ..
        } = self;
        let t = Instant::now();
        drop((driver, engine, stats));
        phases.teardown = t.elapsed();
        (outcome, phases)
    }
}

/// Run `batch` (already ordered) under `cell.config`, timing each stage.
/// With a tracer, `Engine::run` drives a [`Traced`] wrapper instead of the
/// driver itself.
pub fn run_staged(
    cell: &Cell,
    batch: Vec<JobSpec>,
    tracer: Option<&mut Tracer>,
) -> Result<Staged, RunError> {
    let config = &cell.config;
    let t0 = Instant::now();
    let plan = config.try_plan().map_err(|e| {
        RunError::aborted(format!(
            "unrealizable configuration {}: {e}",
            config.label()
        ))
    })?;
    let t1 = Instant::now();
    let net = SystemNet::from_plan(&plan);
    let t2 = Instant::now();
    let (nodes, channels) = (net.nodes(), net.channels().len());
    let machine = Machine::new(config.machine.clone(), net);
    let t3 = Instant::now();
    let mut driver = Driver::new(
        machine,
        plan,
        config.policy,
        config.rule,
        config.placement,
        batch,
    );
    if let Some(mpl) = config.mpl {
        driver = driver.with_mpl(mpl);
    }
    driver = driver.with_discipline(config.discipline);
    let mut engine: Engine<Event> = Engine::new(config.queue);
    engine.max_events = config.machine.max_events;
    driver.start(&mut engine);
    let t4 = Instant::now();
    let outcome = match tracer {
        None => engine.run(&mut driver),
        Some(tracer) => engine.run(&mut Traced::new(&mut driver, tracer)),
    };
    let t5 = Instant::now();
    if outcome != RunOutcome::Drained || !driver.all_done() {
        return Err(RunError {
            outcome: Some(outcome),
            diagnosis: driver.diagnose(),
        });
    }
    let response_times = driver.response_times();
    std::hint::black_box(Summary::of_durations(&response_times));
    let stats = MachineStats::capture(&driver.machine, engine.now());
    let t6 = Instant::now();
    Ok(Staged {
        driver,
        engine,
        stats,
        nodes,
        channels,
        phases: Phases {
            plan: t1 - t0,
            wiring: t2 - t1,
            machine_new: t3 - t2,
            start: t4 - t3,
            run: t5 - t4,
            report: t6 - t5,
            teardown: Duration::ZERO,
        },
        response_times,
    })
}

/// The oracle's invariants after a drained run: message, flit and work
/// conservation. Panics (with the violated law) on a violation.
///
/// `check_work_conservation` reads each job through
/// `JobSummary::capture`, which asserts the job is `Done` even though the
/// law is defined for fault-killed (`Failed`) incarnations too. On a run
/// with such an incarnation the same law is checked here from the same
/// machine fields.
pub fn check_invariants(machine: &Machine, makespan: SimDuration) {
    use parsched_oracle::invariants as inv;
    inv::check_message_conservation(machine);
    inv::check_flit_conservation(&machine.counters);
    if machine.jobs().iter().all(|j| j.state == JobState::Done) {
        inv::check_work_conservation(machine, makespan);
        return;
    }
    let mut total = SimDuration::ZERO;
    for job in machine.jobs() {
        assert!(
            matches!(job.state, JobState::Done | JobState::Failed),
            "job {} not terminal at quiesce",
            job.name
        );
        let cpu: SimDuration = job
            .proc_keys
            .iter()
            .map(|pk| machine.processes()[pk.idx()].cpu_time)
            .sum();
        if job.state == JobState::Done {
            assert!(
                cpu >= job.total_compute,
                "work lost: job {} accrued {cpu} CPU < demand {}",
                job.name,
                job.total_compute
            );
        }
        total += cpu;
    }
    let capacity = SimDuration::from_nanos(makespan.nanos() * machine.net().nodes() as u64);
    assert!(
        total <= capacity,
        "CPU time minted: jobs accrued {total} > capacity {capacity}"
    );
}
