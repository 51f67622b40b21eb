//! The four workloads and the cells each one runs.
//!
//! A cell is one `(ExperimentConfig, ordered batch)` pair: exactly what a
//! user hands `run_batch`. The benchmark generates every cell from a seed;
//! the simulator only ever sees the generated configs and batches.
//!
//! [`DEFAULT_SEED`] gives the canonical cells, whose results are pinned in
//! `pinned.tsv`. Any other seed scales every `Compute` op of a job by one
//! factor drawn from [`DetRng`] in `1 ± JITTER`, so each job keeps its
//! shape (ranks, messages, memory) and only its CPU demand moves.

use parsched_bench::scale::{t4k, torus1k, tscale, Cell1k, Cell4k, ScalePoint};
use parsched_core::prelude::*;
use parsched_des::rng::DetRng;
use parsched_machine::{JobSpec, Op, Switching};
use parsched_topology::paper_configs;
use parsched_workload::{paper_batch, App, Arch, BatchSizes, CostModel};

/// The seed whose cells are the unjittered, pinned ones.
pub const DEFAULT_SEED: u64 = 0;

/// Half-width of the per-job compute jitter of a non-default seed. Small,
/// so a pass does about the same host work on every seed, and the run-to-run
/// spread of `wall_s` is the host's, not the workload's.
const JITTER: f64 = 0.03;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 3–6 grid on the 16-node machine (208 runs).
    Paper16,
    /// The three `scale::t4k` cells under wormhole switching.
    Worm4k,
    /// The three t64k cells under store-and-forward switching.
    Saf64k,
    /// The three `scale::torus1k` cells through the sharded runner.
    Shard1k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper16,
        Workload::Worm4k,
        Workload::Saf64k,
        Workload::Shard1k,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper16",
            Workload::Worm4k => "worm4k",
            Workload::Saf64k => "saf64k",
            Workload::Shard1k => "shard1k",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed passes go through `run_batch_sharded` rather than
    /// the staged sequential pipeline.
    pub fn sharded(self) -> bool {
        self == Workload::Shard1k
    }

    /// The workload's cells for `seed`, in run order.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let rng = DetRng::new(seed).substream(self.name());
        match self {
            Workload::Paper16 => paper16(seed, &rng),
            Workload::Worm4k => Cell4k::all()
                .into_iter()
                .map(|c| {
                    let (config, batch) = t4k(c, Switching::Wormhole);
                    Cell::new(format!("t4k_{}_worm", c.label()), config, batch, seed, &rng)
                })
                .collect(),
            Workload::Saf64k => Cell4k::all()
                .into_iter()
                .map(|c| {
                    let (config, batch) = tscale(c, ScalePoint::T64k, Switching::StoreAndForward);
                    Cell::new(format!("t64k_{}_saf", c.label()), config, batch, seed, &rng)
                })
                .collect(),
            Workload::Shard1k => Cell1k::all()
                .into_iter()
                .map(|c| {
                    let (config, batch) = torus1k(c);
                    Cell::new(format!("t1k_{}", c.label()), config, batch, seed, &rng)
                })
                .collect(),
        }
    }
}

/// One run of the simulator: a configuration and its batch, already in
/// submission order.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable name; keys the pinned results.
    pub name: String,
    /// The run's configuration.
    pub config: ExperimentConfig,
    /// The batch, in submission order.
    pub batch: Vec<JobSpec>,
}

impl Cell {
    fn new(
        name: String,
        config: ExperimentConfig,
        mut batch: Vec<JobSpec>,
        seed: u64,
        rng: &DetRng,
    ) -> Cell {
        jitter(&mut batch, seed, &rng.substream(&name));
        Cell {
            name,
            config,
            batch,
        }
    }
}

/// 2 apps x 2 architectures x 13 partitionings x {static, ts} x
/// {smallest-first, largest-first}: every run behind Figures 3–6, in the
/// order `figure` scores them.
fn paper16(seed: u64, rng: &DetRng) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in [App::MatMul, App::Sort] {
        for arch in [Arch::Fixed, Arch::Adaptive] {
            for (p, kind) in paper_configs(false) {
                let mut batch =
                    paper_batch(app, arch, p, &BatchSizes::default(), &CostModel::default());
                // One draw per (app, arch, partition size): every topology,
                // policy and order of a figure column runs the same batch.
                let key = format!("{}-{}-{p}", app.label(), arch.label());
                jitter(&mut batch, seed, &rng.substream(&key));
                for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
                    let config = ExperimentConfig::paper(p, kind, policy);
                    for (order, tag) in [
                        (BatchOrder::SmallestFirst, "sf"),
                        (BatchOrder::LargestFirst, "lf"),
                    ] {
                        cells.push(Cell {
                            name: format!(
                                "{}-{}-{}-{}-{tag}",
                                app.label(),
                                arch.label(),
                                config.label(),
                                policy.label()
                            ),
                            config: config.clone(),
                            batch: order_batch(batch.clone(), order),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Scale each job's compute ops by one factor in `1 ± JITTER` (identity on
/// the default seed).
fn jitter(batch: &mut [JobSpec], seed: u64, rng: &DetRng) {
    if seed == DEFAULT_SEED {
        return;
    }
    for (i, job) in batch.iter_mut().enumerate() {
        let factor = rng
            .substream_idx("job", i as u64)
            .uniform(1.0 - JITTER, 1.0 + JITTER);
        for op in job.procs.iter_mut().flat_map(|p| p.program.iter_mut()) {
            if let Op::Compute(d) = op {
                *d = d.mul_f64(factor);
            }
        }
    }
}

/// FNV-1a digest of the cells' configurations and batches, so a result can
/// be traced to the exact inputs that produced it.
pub fn fingerprint(cells: &[Cell]) -> u64 {
    let mut h = FNV_BASIS;
    for c in cells {
        h = fnv(
            h,
            format!("{}{:?}{:?}", c.name, c.config, c.batch).as_bytes(),
        );
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a digest.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
