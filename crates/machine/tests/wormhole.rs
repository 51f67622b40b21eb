//! End-to-end tests of wormhole switching: flit-pipelined delivery across
//! every topology family, credit/flit conservation, VC contention, fault
//! drains (link outages and job kills), and deterministic replay.
#![allow(clippy::field_reassign_with_default)]

use parsched_des::prelude::*;
use parsched_machine::fault::{LinkWindow, NodeCrash};
use parsched_machine::prelude::*;
use parsched_topology::{build, Topology};

fn wormhole_cfg() -> MachineConfig {
    MachineConfig {
        switching: Switching::Wormhole,
        job_load_latency: SimDuration::ZERO,
        host_link_per_byte: SimDuration::ZERO,
        ..MachineConfig::default()
    }
}

fn run(machine: &mut Machine, jobs: &[JobId]) -> SimTime {
    let mut engine = Engine::new(QueueKind);
    engine.max_events = 10_000_000;
    machine.seed_faults(&mut engine);
    for &j in jobs {
        engine.seed(SimTime::ZERO, Event::Admit { job: j });
    }
    let outcome = engine.run(machine);
    assert_eq!(outcome, RunOutcome::Drained, "simulation did not drain");
    engine.now()
}

fn pair_spec(bytes: u64) -> JobSpec {
    JobSpec {
        name: "worm".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![Op::Send {
                    to: Rank(1),
                    bytes,
                    tag: Tag(1),
                }],
                mem_bytes: 0,
            },
            ProcSpec {
                program: vec![Op::Recv { tag: Tag(1) }],
                mem_bytes: 0,
            },
        ],
    }
}

/// The invariant the differential oracle also checks: every injected flit
/// is ejected or accounted dropped, every issued credit came back, and no
/// virtual channel or worm outlives the run.
fn assert_flit_conservation(m: &Machine) {
    let c = &m.counters;
    assert_eq!(
        c.flits_injected,
        c.flits_ejected + c.flits_dropped,
        "flit conservation"
    );
    assert_eq!(c.credits_issued, c.credits_returned, "credit conservation");
    let wh = m.wormhole().expect("wormhole machine");
    assert_eq!(wh.occupied_vcs(), 0, "VC leak");
    assert!(wh.worms.iter().all(|w| w.is_none()), "worm leak");
}

#[test]
fn wormhole_delivers_across_every_topology_family() {
    // (topology, src host, dst host): each pair crosses the part of the
    // fabric its escape classes exist for (ring/torus wraparound, fat-tree
    // up/down turn, dragonfly global link).
    let cases: Vec<(Topology, u32, u32)> = vec![
        (build::linear(4).unwrap(), 0, 3),
        (build::ring(6).unwrap(), 0, 4),
        (build::torus(4, 4).unwrap(), 0, 15),
        (build::fat_tree(4).unwrap(), 0, 15),
        (build::dragonfly(2, 1, 1).unwrap(), 1, 11),
    ];
    for (topo, src, dst) in cases {
        let kind = topo.kind();
        let mut m = Machine::new(wormhole_cfg(), SystemNet::single(&topo));
        let job = m.queue_job(pair_spec(4096), vec![src, dst], SimDuration::from_millis(2));
        run(&mut m, &[job]);
        assert!(m.all_jobs_done(), "undelivered on {kind:?}");
        assert_eq!(m.counters.messages_consumed, 1, "{kind:?}");
        // 4096 B = 64 payload flits + 1 header, injected exactly once.
        assert_eq!(m.counters.flits_injected, 65, "{kind:?}");
        assert_eq!(m.counters.flits_dropped, 0, "{kind:?}");
        assert!(m.counters.vc_allocs as usize >= 1, "{kind:?}");
        assert_flit_conservation(&m);
        for n in 0..m.node_count() {
            assert_eq!(m.node(n as u32).mmu.used(), 0, "leak on {kind:?} node {n}");
        }
    }
}

#[test]
fn wormhole_pipelines_long_messages_unlike_saf() {
    // A 50 KB worm over 7 links: the head streams while the tail is still
    // at the source, so the makespan is one serialization plus the
    // pipeline fill — not 7 serializations like store-and-forward.
    let mut times = Vec::new();
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut cfg = wormhole_cfg();
        cfg.switching = switching;
        let mut m = Machine::new(cfg, SystemNet::single(&build::linear(8).unwrap()));
        let job = m.queue_job(pair_spec(50_000), vec![0, 7], SimDuration::from_millis(2));
        let end = run(&mut m, &[job]);
        assert!(m.all_jobs_done());
        times.push(end.since(SimTime::ZERO));
    }
    assert!(
        times[1].as_secs_f64() < times[0].as_secs_f64() * 0.4,
        "wormhole {} not much faster than SAF {}",
        times[1],
        times[0]
    );
}

#[test]
fn worms_contend_for_the_single_escape_vc() {
    // Two jobs funnel through the shared middle links of a linear array.
    // With one escape class x one VC per class, the second worm must wait
    // for the first to release each link's only VC — both still deliver.
    let mut m = Machine::new(
        wormhole_cfg(),
        SystemNet::single(&build::linear(4).unwrap()),
    );
    let a = m.queue_job(pair_spec(8192), vec![0, 3], SimDuration::from_millis(2));
    let b = m.queue_job(pair_spec(8192), vec![0, 3], SimDuration::from_millis(2));
    run(&mut m, &[a, b]);
    assert!(m.all_jobs_done());
    assert_eq!(m.counters.messages_consumed, 2);
    // Each worm allocates a VC on each of its 3 links.
    assert_eq!(m.counters.vc_allocs, 6);
    assert_flit_conservation(&m);
}

#[test]
fn link_outage_drains_the_worm_and_retry_redelivers() {
    // The outage window opens mid-worm (injection ~30.5 ms after t=0, the
    // 783-flit worm occupies its only link for ~29.5 ms): the resident
    // worm is torn down, its untransmitted flits are accounted dropped,
    // and the retry protocol re-runs the whole worm after repair.
    let mut cfg = wormhole_cfg();
    cfg.faults.links.push(LinkWindow {
        from: 0,
        to: 1,
        down_at: SimTime::ZERO + SimDuration::from_millis(40),
        up_at: SimTime::ZERO + SimDuration::from_millis(55),
    });
    let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
    let job = m.queue_job(pair_spec(50_000), vec![0, 1], SimDuration::from_millis(2));
    run(&mut m, &[job]);
    assert_eq!(m.job(job).state, JobState::Done);
    assert!(m.counters.retries >= 1, "outage must force a retry");
    assert!(
        m.counters.flits_dropped > 0,
        "drained flits must be accounted"
    );
    assert_eq!(m.counters.messages_consumed, 1);
    assert_flit_conservation(&m);
    for n in 0..2 {
        assert_eq!(m.node(n).mmu.used(), 0, "leak on node {n}");
    }
}

#[test]
fn node_crash_mid_worm_drains_without_retry() {
    // The destination CPU fail-stops while the worm is on the wire: the
    // job is killed, the worm drained, and every in-network flit accounted
    // dropped — conservation must still balance.
    let mut cfg = wormhole_cfg();
    cfg.faults.crashes.push(NodeCrash {
        node: 1,
        at: SimTime::ZERO + SimDuration::from_millis(40),
    });
    let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
    let job = m.queue_job(pair_spec(50_000), vec![0, 1], SimDuration::from_millis(2));
    run(&mut m, &[job]);
    assert_eq!(m.job(job).state, JobState::Failed);
    assert!(m.counters.flits_dropped > 0, "killed worm must drop flits");
    assert_eq!(
        m.counters.messages_sent,
        m.counters.messages_consumed + m.counters.messages_dropped
    );
    assert_flit_conservation(&m);
}

#[test]
fn wormhole_replay_is_deterministic() {
    fn run_once() -> Vec<parsched_obs::TimedEvent> {
        let mut cfg = wormhole_cfg();
        cfg.faults.links.push(LinkWindow {
            from: 1,
            to: 2,
            down_at: SimTime::ZERO + SimDuration::from_millis(35),
            up_at: SimTime::ZERO + SimDuration::from_millis(45),
        });
        cfg.faults.drop_prob = 0.05;
        cfg.faults.drop_seed = 11;
        let mut m = Machine::new(cfg, SystemNet::single(&build::ring(6).unwrap()));
        let a = m.queue_job(pair_spec(20_000), vec![0, 4], SimDuration::from_millis(2));
        let b = m.queue_job(pair_spec(20_000), vec![2, 5], SimDuration::from_millis(2));
        m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
        run(&mut m, &[a, b]);
        assert_flit_conservation(&m);
        let rec = m
            .recorder
            .as_mut()
            .and_then(|r| {
                r.as_any_mut()
                    .downcast_mut::<parsched_obs::CollectRecorder>()
            })
            .expect("collector installed");
        rec.take_events()
    }
    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty());
    assert_eq!(first, second, "wormhole replay diverged");
}

#[test]
fn vc_indices_past_255_stay_in_their_class_band() {
    // 2 escape classes x 255 VCs = 510 slots per ring link. Two worms
    // cross the dateline link 7->0 at once, both in class 1, whose band
    // starts at slot 255: the second one's VC is slot 256, which an 8-bit
    // index would alias onto class 0's slot 0.
    let per_class = 255u8;
    let mut cfg = wormhole_cfg();
    cfg.vcs_per_class = per_class;
    let mut m = Machine::new(cfg, SystemNet::single(&build::ring(8).unwrap()));
    let a = m.queue_job(pair_spec(16_384), vec![7, 1], SimDuration::from_millis(2));
    let b = m.queue_job(pair_spec(16_384), vec![6, 0], SimDuration::from_millis(2));
    m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
    run(&mut m, &[a, b]);
    assert!(m.all_jobs_done());
    assert_flit_conservation(&m);
    let dateline = m.net().channel_id(7, 0).expect("ring link 7->0") as u32;
    let rec = m
        .recorder
        .as_mut()
        .and_then(|r| {
            r.as_any_mut()
                .downcast_mut::<parsched_obs::CollectRecorder>()
        })
        .expect("collector installed");
    let mut vcs: Vec<u32> = rec
        .take_events()
        .into_iter()
        .filter_map(|(_, ev)| match ev {
            parsched_obs::ObsEvent::WormVcAlloc { chan, vc, .. } if chan == dateline => {
                Some(u32::from(vc))
            }
            _ => None,
        })
        .collect();
    vcs.sort_unstable();
    assert_eq!(
        vcs,
        vec![u32::from(per_class), u32::from(per_class) + 1],
        "both dateline worms hold class-1 VCs, side by side"
    );
}

#[test]
fn folding_needs_slow_loads_and_no_one_flit_worms() {
    // Folded tick groups are sound only when no tick but a group's last
    // can emit a scheduler note; see `WormholeState::new`.
    let folded = |load_latency: SimDuration, first_send: u64| {
        let mut cfg = wormhole_cfg();
        cfg.job_load_latency = load_latency;
        let mut m = Machine::new(cfg, SystemNet::single(&build::ring(8).unwrap()));
        let spec = JobSpec {
            name: "worms".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![
                        Op::Send {
                            to: Rank(1),
                            bytes: first_send,
                            tag: Tag(1),
                        },
                        Op::Send {
                            to: Rank(1),
                            bytes: 16_384,
                            tag: Tag(2),
                        },
                    ],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![Op::Recv { tag: Tag(1) }, Op::Recv { tag: Tag(2) }],
                    mem_bytes: 0,
                },
            ],
        };
        let job = m.queue_job(spec, vec![0, 3], SimDuration::from_millis(2));
        run(&mut m, &[job]);
        assert!(m.all_jobs_done());
        assert_flit_conservation(&m);
        m.wormhole().expect("wormhole machine").express.folded
    };
    let slow = SimDuration::from_millis(1);
    assert!(folded(slow, 64) > 0, "multi-flit worms fold");
    assert_eq!(folded(slow, 0), 0, "a one-flit worm in the partition");
    assert_eq!(
        folded(SimDuration::ZERO, 64),
        0,
        "loads faster than a flit time"
    );
}
