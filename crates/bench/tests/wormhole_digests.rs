//! Pinned digests of wormhole runs, recorded from the per-channel flit
//! path (one `FlitTick` event per channel per flit time).
//!
//! Each row of `wormhole_digests.tsv` holds two FNV-1a digests of one run:
//!
//! * **result** — per-job response times, makespan, machine `Counters`,
//!   `MachineStats` (floats by exact `Debug` text) and the full `ObsEvent`
//!   stream;
//! * **order** — the time-stamped sequence of every handled event except
//!   the flit ticks themselves (every `FlitTick`, group ticks included),
//!   so how ticks are batched into engine events may change but nothing
//!   else may move.
//!
//! Rows cover every wormhole case among the differential oracle's first
//! 480 cases (root seed `0x0DD50F0A`), the three t4k wormhole cells, and a
//! set of small machine-level scenarios that drive worms through every
//! express-mode transition (see `crates/machine/src/system/wormhole.rs`).
//!
//! * `express_transitions_match_flit_path` and
//!   `first_oracle_cases_match_flit_path` run on every `cargo test`;
//! * `all_wormhole_digests_match_flit_path` (`#[ignore]`d; run it with
//!   `--release --include-ignored`) covers every row; `scripts/tier1.sh
//!   tier1-full` runs it.
//!
//! `WORM_DIGEST_REGEN=1 cargo test --release -p parsched-bench --test
//! wormhole_digests -- --include-ignored all_wormhole --nocapture` prints
//! fresh rows instead of checking them.

use parsched_bench::scale::{t4k, Cell4k};
use parsched_core::{Driver, ExperimentConfig};
use parsched_des::{Engine, EventScheduler, Model, QueueKind, RunOutcome, SimDuration, SimTime};
use parsched_machine::fault::{FaultPlan, LinkWindow, NodeCrash, RetryPolicy};
use parsched_machine::program::ProcSpec;
use parsched_machine::wormhole::ExpressStats;
use parsched_machine::{
    Event, JobId, JobSpec, Machine, MachineConfig, MachineStats, Op, Rank, Switching, SystemNet,
    Tag,
};
use parsched_obs::{ObsEvent, Recorder};
use parsched_oracle::Scenario;
use parsched_topology::{build, Topology};
use std::any::Any;
use std::mem::Discriminant;

const FIXTURE: &str = include_str!("wormhole_digests.tsv");
const ORACLE_SEED: u64 = 0x0DD5_0F0A;
const ORACLE_CASES: u64 = 480;
/// Oracle rows checked by the fast test.
const FAST_ORACLE_ROWS: usize = 40;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An `ObsEvent` sink that folds the stream into a digest as it goes.
struct DigestRecorder {
    h: u64,
}

impl Recorder for DigestRecorder {
    fn record(&mut self, now: SimTime, ev: ObsEvent) {
        self.h = fnv(self.h, &now.nanos().to_le_bytes());
        self.h = fnv(self.h, format!("{ev:?}").as_bytes());
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn obs_digest(machine: &mut Machine) -> u64 {
    let mut rec = machine.recorder.take().expect("digest recorder installed");
    rec.as_any_mut()
        .downcast_mut::<DigestRecorder>()
        .expect("a DigestRecorder")
        .h
}

/// Wraps a model and digests every handled event that is not a flit tick.
struct OrderDigest<M> {
    inner: M,
    /// Per event kind: is it a flit tick? (The name is formatted once per
    /// kind, so the tick hot path pays a discriminant lookup only.)
    kinds: Vec<(Discriminant<Event>, bool)>,
    h: u64,
    ticks: u64,
}

impl<M> OrderDigest<M> {
    fn new(inner: M) -> Self {
        OrderDigest {
            inner,
            kinds: Vec::new(),
            h: FNV_OFFSET,
            ticks: 0,
        }
    }

    fn is_tick(&mut self, ev: &Event) -> bool {
        let d = std::mem::discriminant(ev);
        if let Some(&(_, tick)) = self.kinds.iter().find(|(k, _)| *k == d) {
            return tick;
        }
        let name = format!("{ev:?}");
        let tick = name.starts_with("FlitTick");
        self.kinds.push((d, tick));
        tick
    }
}

impl<M: Model<Event = Event>> Model for OrderDigest<M> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        if self.is_tick(&event) {
            self.ticks += 1;
        } else {
            self.h = fnv(self.h, &now.nanos().to_le_bytes());
            self.h = fnv(self.h, format!("{event:?}").as_bytes());
        }
        self.inner.handle(now, event, sched);
    }
}

/// The two digests of one run, plus how many tick events the engine
/// handled (not pinned: it is what folding changes).
#[derive(Debug, Clone, Copy)]
struct Digests {
    result: u64,
    order: u64,
    ticks: u64,
}

fn result_digest(
    responses: &[SimDuration],
    makespan: SimDuration,
    machine: &mut Machine,
    end: SimTime,
) -> u64 {
    let mut h = FNV_OFFSET;
    for r in responses {
        h = fnv(h, &r.nanos().to_le_bytes());
    }
    h = fnv(h, &makespan.nanos().to_le_bytes());
    h = fnv(h, format!("{:?}", machine.counters).as_bytes());
    h = fnv(
        h,
        format!("{:?}", MachineStats::capture(machine, end)).as_bytes(),
    );
    fnv(h, &obs_digest(machine).to_le_bytes())
}

/// A policy-driven run, built the way the library's sequential runner
/// builds it.
fn run_config(config: &ExperimentConfig, batch: Vec<JobSpec>, arrivals: &[SimTime]) -> Digests {
    let plan = config.plan();
    let mut machine = Machine::new(config.machine.clone(), SystemNet::from_plan(&plan));
    machine.recorder = Some(Box::new(DigestRecorder { h: FNV_OFFSET }));
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
    if !arrivals.is_empty() {
        driver = driver.with_arrivals(arrivals.to_vec());
    }
    let mut engine: Engine<Event> = Engine::new(QueueKind);
    engine.max_events = config.machine.max_events;
    driver.start(&mut engine);
    let mut model = OrderDigest::new(driver);
    let outcome = engine.run(&mut model);
    assert_eq!(outcome, RunOutcome::Drained, "run did not drain");
    assert!(model.inner.all_done(), "{}", model.inner.diagnose());
    let end = engine.now();
    let responses = model.inner.response_times();
    let result = result_digest(
        &responses,
        end.since(SimTime::ZERO),
        &mut model.inner.machine,
        end,
    );
    Digests {
        result,
        order: model.h,
        ticks: model.ticks,
    }
}

// ----------------------------------------------------------------------
// Machine-level express-mode scenarios
// ----------------------------------------------------------------------

/// Wormhole on the paper's timings, except that sends cost no CPU (so a
/// worm starts exactly when its `Send` op is reached) and jobs load in
/// 1 ms (longer than a flit time, as the express path requires).
fn express_cfg() -> MachineConfig {
    MachineConfig {
        switching: Switching::Wormhole,
        job_load_latency: SimDuration::from_millis(1),
        host_link_per_byte: SimDuration::ZERO,
        send_overhead: SimDuration::ZERO,
        send_per_byte: SimDuration::ZERO,
        ..MachineConfig::default()
    }
}

fn send(to: u32, bytes: u64, tag: u32) -> Op {
    Op::Send {
        to: Rank(to),
        bytes,
        tag: Tag(tag),
    }
}

fn recv(tag: u32) -> Op {
    Op::Recv { tag: Tag(tag) }
}

fn compute_us(us: u64) -> Op {
    Op::Compute(SimDuration::from_micros(us))
}

/// One job: `(node, program)` per rank.
fn job(ranks: Vec<(u32, Vec<Op>)>) -> (JobSpec, Vec<u32>) {
    let placement = ranks.iter().map(|(n, _)| *n).collect();
    let procs = ranks
        .into_iter()
        .map(|(_, program)| ProcSpec {
            program,
            mem_bytes: 0,
        })
        .collect();
    (
        JobSpec {
            name: "express".into(),
            ship_bytes: 0,
            procs,
        },
        placement,
    )
}

/// A named machine-level scenario, with what its run must show of the
/// express path (so a scenario that stops exercising its transition fails
/// instead of silently passing).
struct MachineCase {
    name: &'static str,
    topology: Topology,
    cfg: MachineConfig,
    job: (JobSpec, Vec<u32>),
    express: fn(&ExpressStats) -> bool,
}

fn folds(s: &ExpressStats) -> bool {
    s.folded > 0 && s.exits == 0
}

fn exits(s: &ExpressStats) -> bool {
    s.folded > 0 && s.exits > 0
}

fn refuses(s: &ExpressStats) -> bool {
    s.folded > 0 && s.refused > 0
}

/// 16 KiB worm: 257 flits, ~9.7 ms on the wire at the paper's link speed.
const LONG: u64 = 16 * 1024;

fn ring8() -> Topology {
    build::ring(8).unwrap()
}

fn machine_cases() -> Vec<MachineCase> {
    // A lone worm: express from its second flit time to delivery.
    let mut cases = vec![MachineCase {
        name: "express_lone_worm",
        topology: ring8(),
        cfg: express_cfg(),
        job: job(vec![(0, vec![send(1, LONG, 1)]), (3, vec![recv(1)])]),
        express: folds,
    }];
    // Worm A (0->3, class 0) is folded when worm B (7->0->1->2, class 1
    // after the dateline) takes the other-class VC on A's links 0->1 and
    // 1->2: the two share the physical links round-robin.
    cases.push(MachineCase {
        name: "express_other_class_vc",
        topology: ring8(),
        cfg: express_cfg(),
        job: job(vec![
            (0, vec![send(1, LONG, 1)]),
            (3, vec![recv(1)]),
            (7, vec![compute_us(3_000), send(3, LONG / 2, 2)]),
            (2, vec![recv(2)]),
        ]),
        express: exits,
    });
    // The same node sends twice: the second worm queues for the class-0
    // VC of link 0->1 behind the first, express, worm.
    cases.push(MachineCase {
        name: "express_waiter",
        topology: ring8(),
        cfg: express_cfg(),
        job: job(vec![
            (
                0,
                vec![send(1, LONG, 1), compute_us(1_000), send(2, LONG / 4, 2)],
            ),
            (3, vec![recv(1)]),
            (2, vec![recv(2)]),
        ]),
        express: exits,
    });
    // Worm B (1->3) holds link 1->2 when express worm A (0->3) arrives:
    // A's head waits at node 1 until B's tail hands the VC over.
    cases.push(MachineCase {
        name: "express_head_blocked",
        topology: ring8(),
        cfg: express_cfg(),
        job: job(vec![
            (1, vec![send(1, LONG, 1)]),
            (3, vec![recv(1), recv(2)]),
            (0, vec![compute_us(1_000), send(1, LONG / 4, 2)]),
        ]),
        express: exits,
    });
    // Link 1-2 goes down under an express worm: the worm is drained,
    // retried after backoff, waits out the outage and then completes.
    let mut link_down = express_cfg();
    link_down.faults = FaultPlan {
        links: vec![LinkWindow {
            from: 1,
            to: 2,
            down_at: SimTime::ZERO + SimDuration::from_millis(4),
            up_at: SimTime::ZERO + SimDuration::from_millis(7),
        }],
        retry: RetryPolicy {
            max_retries: 4,
            base_backoff: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(8),
            msg_timeout: None,
        },
        ..FaultPlan::default()
    };
    cases.push(MachineCase {
        name: "express_link_down",
        topology: ring8(),
        cfg: link_down,
        job: job(vec![(0, vec![send(1, LONG, 1)]), (3, vec![recv(1)])]),
        express: exits,
    });
    // The receiver's node crashes mid-worm: the job is killed and its
    // express worm drained out of the network.
    let mut crash = express_cfg();
    crash.faults = FaultPlan {
        crashes: vec![NodeCrash {
            node: 3,
            at: SimTime::ZERO + SimDuration::from_millis(5),
        }],
        ..FaultPlan::default()
    };
    cases.push(MachineCase {
        name: "express_crash",
        topology: ring8(),
        cfg: crash,
        job: job(vec![(0, vec![send(1, LONG, 1)]), (3, vec![recv(1)])]),
        express: exits,
    });
    // One flit buffer per VC: downstream links park and are re-armed by
    // their upstream neighbour every flit time.
    let mut credits1 = express_cfg();
    credits1.vc_credits = 1;
    cases.push(MachineCase {
        name: "express_vc_credits_1",
        topology: ring8(),
        cfg: credits1,
        job: job(vec![
            (0, vec![send(1, LONG, 1)]),
            (3, vec![recv(1)]),
            (5, vec![send(3, LONG / 2, 2)]),
            (7, vec![recv(2)]),
        ]),
        express: exits,
    });
    // Node 0's memory holds one 16 KiB send buffer, not two, so the
    // second send blocks until the first worm's tail leaves node 0. The
    // release starts the second worm (over link 0->7) inside the first
    // worm's block, arming a tick one flit time ahead: folding must stop
    // there for the rest of the block.
    let mut same_instant = express_cfg();
    same_instant.os_overhead = 0;
    same_instant.transit_reserve = 0;
    same_instant.mem_capacity = LONG + 4 * 1024;
    cases.push(MachineCase {
        name: "express_same_instant_schedule",
        topology: ring8(),
        cfg: same_instant,
        job: job(vec![
            (0, vec![send(1, LONG, 1), send(2, LONG, 2)]),
            (3, vec![recv(1)]),
            (5, vec![recv(2)]),
        ]),
        express: refuses,
    });
    // A 4x4 torus with two VCs per class: several worms share links in
    // the same class without waiting.
    let mut torus = express_cfg();
    torus.vcs_per_class = 2;
    cases.push(MachineCase {
        name: "express_torus_shared_class",
        topology: build::torus(4, 4).unwrap(),
        cfg: torus,
        job: job(vec![
            (0, vec![send(1, LONG, 1)]),
            (2, vec![recv(1), recv(2)]),
            (4, vec![compute_us(2_000), send(1, LONG / 2, 2)]),
        ]),
        express: folds,
    });
    cases
}

fn run_machine_case(case: &MachineCase) -> (Digests, ExpressStats) {
    let mut machine = Machine::new(case.cfg.clone(), SystemNet::single(&case.topology));
    machine.recorder = Some(Box::new(DigestRecorder { h: FNV_OFFSET }));
    let (spec, placement) = case.job.clone();
    let id: JobId = machine.queue_job(spec, placement, SimDuration::from_millis(2));
    let mut engine: Engine<Event> = Engine::new(QueueKind);
    engine.max_events = 10_000_000;
    machine.seed_faults(&mut engine);
    engine.seed(SimTime::ZERO, Event::Admit { job: id });
    let mut model = OrderDigest::new(machine);
    assert_eq!(
        engine.run(&mut model),
        RunOutcome::Drained,
        "{} did not drain",
        case.name
    );
    let end = engine.now();
    let m = &mut model.inner;
    let j = m.job(id);
    let span = j.finished_at.since(j.submitted_at);
    let state = format!("{:?}", j.state);
    let express = m.wormhole().expect("wormhole machine").express;
    let mut h = result_digest(&[span], end.since(SimTime::ZERO), m, end);
    h = fnv(h, state.as_bytes());
    (
        Digests {
            result: h,
            order: model.h,
            ticks: model.ticks,
        },
        express,
    )
}

// ----------------------------------------------------------------------
// Rows
// ----------------------------------------------------------------------

/// Every wormhole case among the oracle's first `ORACLE_CASES` cases.
fn oracle_wormhole_cases() -> Vec<Scenario> {
    (0..ORACLE_CASES)
        .map(|case| Scenario::generate(ORACLE_SEED, case))
        .filter(|s| s.switching == Switching::Wormhole)
        .collect()
}

fn oracle_row(s: &Scenario) -> (String, Digests) {
    (
        format!("oracle_{}", s.case),
        run_config(&s.config(), s.batch(), &s.arrivals),
    )
}

fn t4k_row(cell: Cell4k) -> (String, Digests) {
    let (config, batch) = t4k(cell, Switching::Wormhole);
    (
        format!("t4k_{}_worm", cell.label()),
        run_config(&config, batch, &[]),
    )
}

fn pinned() -> Vec<(&'static str, u64, u64)> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 3, "bad fixture row {l:?}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex digest");
            (f[0], hex(f[1]), hex(f[2]))
        })
        .collect()
}

fn regen() -> bool {
    std::env::var_os("WORM_DIGEST_REGEN").is_some()
}

/// Check (or, under `WORM_DIGEST_REGEN`, print) one row.
fn check(name: &str, d: Digests) {
    if regen() {
        println!("{name}\t{:016x}\t{:016x}", d.result, d.order);
        return;
    }
    let pins = pinned();
    let &(_, result, order) = pins
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no pinned row for {name}"));
    assert_eq!(
        (d.result, d.order),
        (result, order),
        "{name}: digests moved (result {:016x} vs pinned {result:016x}, \
         order {:016x} vs pinned {order:016x}; {} tick events)",
        d.result,
        d.order,
        d.ticks
    );
}

fn check_machine_case(case: &MachineCase) {
    let (digests, express) = run_machine_case(case);
    check(case.name, digests);
    assert!(
        (case.express)(&express),
        "{}: unexpected express path {express:?}",
        case.name
    );
}

#[test]
fn express_transitions_match_flit_path() {
    for case in machine_cases() {
        check_machine_case(&case);
    }
}

#[test]
fn first_oracle_cases_match_flit_path() {
    for s in oracle_wormhole_cases().iter().take(FAST_ORACLE_ROWS) {
        let (name, d) = oracle_row(s);
        check(&name, d);
    }
}

#[test]
#[ignore = "long: every wormhole oracle case plus the t4k cells (run with --release)"]
fn all_wormhole_digests_match_flit_path() {
    let mut rows = 0;
    for case in machine_cases() {
        check_machine_case(&case);
        rows += 1;
    }
    for s in &oracle_wormhole_cases() {
        let (name, d) = oracle_row(s);
        check(&name, d);
        rows += 1;
    }
    for cell in Cell4k::all() {
        let (name, d) = t4k_row(cell);
        check(&name, d);
        rows += 1;
    }
    if !regen() {
        assert_eq!(rows, pinned().len(), "fixture has rows no test checks");
    }
}
