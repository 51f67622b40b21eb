//! The benchmark times the simulator from outside; these tests keep that
//! outside copy equal to the front door. Run with `--release`: they
//! simulate every cell of every workload several times.

use parsched_core::prelude::*;
use simbench::cells::{Cell, Workload, DEFAULT_SEED};
use simbench::pipeline::{run_staged, Outcome};
use simbench::report::{end_to_end, Layers};
use simbench::run::{verify, Tally};
use simbench::trace::{Tracer, KINDS};

fn all_cells(seed: u64) -> Vec<Cell> {
    Workload::ALL
        .into_iter()
        .flat_map(|w| w.cells(seed))
        .collect()
}

fn staged(cell: &Cell, tracer: Option<&mut Tracer>) -> (Outcome, String) {
    let s = run_staged(cell, cell.batch.clone(), tracer).expect("cell simulates");
    let stats = format!("{:?}", s.stats);
    (s.finish().0, stats)
}

#[test]
fn staged_pipeline_equals_run_batch_on_every_cell() {
    for cell in all_cells(DEFAULT_SEED) {
        let (got, stats) = staged(&cell, None);
        let front = run_batch(&cell.config, cell.batch.clone()).expect("cell simulates");
        assert_eq!(got.response_times, front.response_times, "{}", cell.name);
        assert_eq!(got.makespan, front.makespan, "{}", cell.name);
        assert_eq!(got.events, front.events, "{}", cell.name);
        assert_eq!(stats, format!("{:?}", front.stats), "{}", cell.name);
        // `RunResult` carries no `Counters`; the one-shard path of the
        // sharded runner is `run_batch`'s sequence of calls and returns them.
        let one = run_batch_sharded(&cell.config, cell.batch.clone(), 1).expect("cell simulates");
        assert_eq!(got, Outcome::of_sharded(&one), "{}", cell.name);
    }
}

#[test]
fn sharded_cells_equal_one_shard() {
    for cell in Workload::Shard1k.cells(DEFAULT_SEED) {
        let one = run_batch_sharded(&cell.config, cell.batch.clone(), 1).expect("simulates");
        // Two shards as well as `default_shards`, so the check has teeth on
        // a one-core host where the default is one.
        for k in [default_shards(&cell.config), 2] {
            let r = run_batch_sharded(&cell.config, cell.batch.clone(), k).expect("simulates");
            assert_eq!(r.fallback, None, "{} at {k} shards", cell.name);
            assert_eq!(
                Outcome::of_sharded(&r),
                Outcome::of_sharded(&one),
                "{} at {k} shards",
                cell.name
            );
        }
    }
}

#[test]
fn traced_run_equals_untraced_run() {
    for cell in all_cells(DEFAULT_SEED) {
        let (plain, plain_stats) = staged(&cell, None);
        let mut tracer = Tracer::default();
        let (traced, traced_stats) = staged(&cell, Some(&mut tracer));
        assert_eq!(traced, plain, "{}", cell.name);
        assert_eq!(traced_stats, plain_stats, "{}", cell.name);
        assert_eq!(tracer.n.iter().sum::<u64>(), plain.events, "{}", cell.name);
        assert_eq!(
            tracer.n[KINDS.len() - 1],
            0,
            "{}: an event kind has no name",
            cell.name
        );
    }
}

#[test]
fn seeds_jitter_compute_and_keep_job_shapes() {
    for w in Workload::ALL {
        let base = w.cells(DEFAULT_SEED);
        let seeded = w.cells(7);
        assert_eq!(
            format!("{seeded:?}"),
            format!("{:?}", w.cells(7)),
            "{}: a seed must give the same cells every time",
            w.name()
        );
        assert_eq!(base.len(), seeded.len());
        let mut moved = false;
        for (a, b) in base.iter().zip(&seeded) {
            assert_eq!(a.name, b.name);
            assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
            assert_eq!(a.batch.len(), b.batch.len());
            for (ja, jb) in a.batch.iter().zip(&b.batch) {
                assert_eq!(ja.width(), jb.width(), "{}", a.name);
                assert_eq!(ja.total_bytes(), jb.total_bytes(), "{}", a.name);
                assert_eq!(ja.ship_bytes, jb.ship_bytes, "{}", a.name);
                for (pa, pb) in ja.procs.iter().zip(&jb.procs) {
                    assert_eq!(pa.program.len(), pb.program.len(), "{}", a.name);
                    assert_eq!(pa.mem_bytes, pb.mem_bytes, "{}", a.name);
                }
                let (da, db) = (
                    ja.total_compute().as_secs_f64(),
                    jb.total_compute().as_secs_f64(),
                );
                assert!((db / da - 1.0).abs() <= 0.031, "{}: {da} -> {db}", a.name);
                moved |= da != db;
            }
        }
        assert!(moved, "{}: seed 7 moved no compute demand", w.name());
    }
}

#[test]
fn every_workload_verifies_on_the_default_and_a_jittered_seed() {
    let pins = simbench::pins::pins();
    for w in Workload::ALL {
        for (seed, pins) in [(DEFAULT_SEED, Some(&pins)), (5, None)] {
            let mut tally = Tally::default();
            let v = verify(w, &w.cells(seed), pins, &mut tally);
            assert_eq!(tally.failed, 0, "{} seed {seed}", w.name());
            assert!(
                v.refs.iter().all(Option::is_some),
                "{} seed {seed}",
                w.name()
            );
            assert_eq!(v.times.len(), v.refs.len());
        }
    }
}

/// The `(name, unit)` of each entry of one top-level list of
/// `BENCHMARK.json` (the unit is empty for workloads).
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        entry.find(&tag).map_or(String::new(), |at| {
            let rest = &entry[at + tag.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let layers: Vec<(String, String)> = Layers::default()
        .metrics()
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    let end_to_end: Vec<(String, String)> = end_to_end(1.0, 1.0, 1.0, 1, 0)
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), end_to_end);
    let workloads: Vec<String> = listed(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
}
