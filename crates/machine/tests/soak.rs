//! Soak test for message-slot reuse.
//!
//! The machine recycles message-table slots through a free list, so the
//! table ("arena") should plateau at the peak number of messages
//! simultaneously in flight — not grow with every send. This drives a
//! 16-node hypercube through a message-heavy batch and checks both the
//! bound and, against pinned pre-slab values, that recycling changed
//! nothing observable: notes, counters, and the finish time are exactly
//! what the grow-forever table produced.

use parsched_des::prelude::*;
use parsched_machine::prelude::*;
use parsched_topology::build;

/// An all-pairs exchange: every rank sends `rounds` tagged messages to
/// every other rank, with a little compute in between, then absorbs all
/// its receipts. Worst-case mailbox and transit pressure for the size.
fn exchange_job(name: &str, width: usize, rounds: u32) -> JobSpec {
    let procs = (0..width)
        .map(|r| {
            let mut program = Vec::new();
            for round in 0..rounds {
                for peer in 0..width {
                    if peer == r {
                        continue;
                    }
                    program.push(Op::Send {
                        to: Rank(peer as u32),
                        bytes: 4_000,
                        tag: Tag(round),
                    });
                }
                program.push(Op::Compute(SimDuration::from_micros(200)));
                program.push(Op::RecvAny {
                    count: (width - 1) as u32,
                    tag: Tag(round),
                });
            }
            ProcSpec {
                program,
                mem_bytes: 50_000,
            }
        })
        .collect();
    JobSpec {
        name: name.into(),
        ship_bytes: 0,
        procs,
    }
}

#[test]
fn message_slots_are_recycled_without_changing_behaviour() {
    let mut m = Machine::new(
        MachineConfig::default(),
        SystemNet::single(&build::hypercube(4).unwrap()),
    );
    let q = SimDuration::from_millis(2);
    let placement: Vec<u32> = (0..16).collect();
    let jobs: Vec<JobId> = (0..4)
        .map(|i| {
            m.queue_job(
                exchange_job(&format!("soak-{i}"), 16, 6),
                placement.clone(),
                q,
            )
        })
        .collect();

    let mut engine = Engine::new(QueueKind);
    engine.max_events = 50_000_000;
    for &j in &jobs {
        engine.seed(SimTime::ZERO, Event::Admit { job: j });
    }
    let outcome = engine.run(&mut m);
    assert_eq!(outcome, RunOutcome::Drained, "simulation did not drain");
    assert!(m.all_jobs_done(), "soak batch did not complete");
    let notes = m.drain_notes();

    // 4 jobs x 6 rounds x 16 ranks x 15 peers = 5760 messages...
    let expected_msgs = 4 * 6 * 16 * 15;
    assert_eq!(m.counters.messages_sent, expected_msgs);
    assert_eq!(m.counters.messages_consumed, expected_msgs);
    // ...but the arena plateaus at the in-flight peak: slots are reused.
    let arena = m.message_arena_len();
    assert!(
        arena < expected_msgs as usize / 4,
        "arena grew to {arena}; slots are not being recycled"
    );

    // Pinned from the pre-slab machine (grow-forever message table): slot
    // recycling must be invisible to everything the simulation observes.
    assert_eq!(engine.now(), SimTime(4_263_426_856));
    assert_eq!(m.counters.hop_transfers, 12_288);
    assert_eq!(m.counters.self_sends, 0);
    let completions: Vec<JobId> = notes
        .iter()
        .filter_map(|n| match n {
            Note::JobCompleted(j) => Some(*j),
            _ => None,
        })
        .collect();
    assert_eq!(completions, jobs, "completion order drifted");
}
