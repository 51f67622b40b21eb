//! The benchmark's one command.
//!
//! ```text
//! simbench --workload <paper16|worm4k|saf64k|shard1k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run starts with an untimed verification pass: the default-seed
//! cells against their pins, then the seed's cells against the oracle's
//! invariants (and, for `shard1k`, the sharded runner against the
//! sequential one). It then repeats passes over the seed's cells for
//! `--seconds`, checking each against the verification pass.
//!
//! `--trace 0` prints the end-to-end metrics: medians over the timed
//! passes. `--trace 1` alternates untraced and traced passes and prints
//! the per-layer metrics. The last line of stdout is the JSON result; the
//! line before it is the run manifest.

use parsched_core::prelude::default_shards;
use simbench::cells::{fingerprint, Workload, DEFAULT_SEED};
use simbench::pins;
use simbench::probe::Probe;
use simbench::report::{end_to_end, json_str, median, quantile, result_json, Layers, Metric};
use simbench::run::{sharded_pass, staged_pass, verify, Pacing, Pass, Tally};
use simbench::trace::instant_pair_ns;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed passes (or traced rounds) a run makes, however short
/// `--seconds` is.
const MIN_PASSES: usize = 3;

/// Share of each cell's time spent probing the host just before it.
const PROBE_SHARE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <paper16|worm4k|saf64k|shard1k> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// High-water resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// `median, p<q> (n=N)` with the highest of p75/p90/p95/p99 that still has
/// ten samples above it.
fn spread(xs: &[f64]) -> String {
    let n = xs.len();
    let tail = [(0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.75, "p75")]
        .into_iter()
        .find(|(q, _)| (n as f64) * (1.0 - q) >= 10.0);
    match tail {
        Some((q, name)) => {
            format!(
                "median {:.6}, {name} {:.6} (n={n})",
                median(xs),
                quantile(xs, q)
            )
        }
        None => format!(
            "median {:.6}, max {:.6} (n={n})",
            median(xs),
            quantile(xs, 1.0)
        ),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&argv, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String], args: &Args) -> Result<(), String> {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let cells = w.cells(args.seed);
    let pins = pins::pins();
    let mut tally = Tally::default();

    // Verification: the pinned default-seed cells first, so every run
    // re-proves the pins whatever its seed; then the seed's own cells,
    // whose outcomes every timed pass must reproduce.
    let (v, cold_setup) = if args.seed == DEFAULT_SEED {
        let v = verify(w, &cells, Some(&pins), &mut tally);
        let cold = v.setup;
        (v, cold)
    } else {
        let cold = verify(w, &w.cells(DEFAULT_SEED), Some(&pins), &mut tally).setup;
        (verify(w, &cells, None, &mut tally), cold)
    };
    let refs = &v.refs;

    // Peak memory of running the cells once: later passes repeat the same
    // cells, and what they add is the allocator's response to repetition.
    let rss = peak_rss_mb()?;

    // Before each cell, probe the host for about PROBE_SHARE of the cell's
    // own time, on as many threads as the cell runs on.
    let threads = if w.sharded() {
        cells
            .iter()
            .map(|c| default_shards(&c.config))
            .max()
            .unwrap_or(1)
    } else {
        1
    };
    let mut probe = Probe::new(threads);
    let unit = probe.unit_time(15).as_secs_f64();
    let units: Vec<u64> = v
        .times
        .iter()
        .map(|t| ((PROBE_SHARE * t.as_secs_f64() / unit).round() as u64).max(1))
        .collect();

    // Per untraced pass: wall and setup time as measured, and the probe's
    // slowdown during the pass.
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut slowdowns = Vec::new();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut record = |p: &Pass| {
        walls.push(p.wall.as_secs_f64());
        setups.push(p.setup.as_secs_f64());
        slowdowns.push(p.slowdown);
    };
    if !args.trace {
        let mut passes = 0;
        while passes < MIN_PASSES || start.elapsed() < budget {
            let pacing = Pacing {
                probe: &mut probe,
                units: &units,
            };
            let p = if w.sharded() {
                sharded_pass(&cells, refs, &mut tally, pacing)
            } else {
                staged_pass(&cells, refs, &mut tally, pacing, None)
            };
            record(&p);
            passes += 1;
        }
    } else {
        layers.instant_pair_ns = instant_pair_ns(1_000_000);
        let mut traced_slowdowns = Vec::new();
        let mut round = 0;
        while round < MIN_PASSES || start.elapsed() < budget {
            if w.sharded() {
                let pacing = Pacing {
                    probe: &mut probe,
                    units: &units,
                };
                let p = sharded_pass(&cells, refs, &mut tally, pacing);
                layers.sharded_passes += 1;
                layers.shard += p.shard;
            }
            // Alternate which of the pair runs first, so neither always
            // inherits the other's cache and allocator state.
            for traced in [round % 2 == 0, round % 2 == 1] {
                let pacing = Pacing {
                    probe: &mut probe,
                    units: &units,
                };
                if traced {
                    let tracer = Some(&mut layers.tracer);
                    let p = staged_pass(&cells, refs, &mut tally, pacing, tracer);
                    layers.traced_passes += 1;
                    layers.traced.add(&p);
                    traced_slowdowns.push(p.slowdown);
                } else {
                    let p = staged_pass(&cells, refs, &mut tally, pacing, None);
                    layers.untraced_passes += 1;
                    layers.untraced.add(&p);
                    record(&p);
                }
            }
            round += 1;
        }
        let mut all = slowdowns.clone();
        all.extend(traced_slowdowns);
        layers.host_slowdown = median(&all);
    }
    let rescaled =
        |xs: &[f64]| -> Vec<f64> { xs.iter().zip(&slowdowns).map(|(x, f)| x / f).collect() };
    let wall_s = median(&rescaled(&walls));
    let setup_s = median(&rescaled(&setups));

    println!(
        "simbench {} seed {}: {} cells, {} {} passes in {:.2} s",
        w.name(),
        args.seed,
        cells.len(),
        walls.len(),
        match (args.trace, w.sharded()) {
            (false, true) => "sharded",
            (false, false) => "staged",
            (true, _) => "untraced staged",
        },
        start.elapsed().as_secs_f64()
    );
    let ms: Vec<String> = walls.iter().map(|w| format!("{:.0}", w * 1e3)).collect();
    println!(
        "  pass wall as measured  {}; in run order (ms): {}",
        spread(&walls),
        ms.join(" ")
    );
    println!("  pass setup as measured {}", spread(&setups));
    println!("  host slowdown (probe)  {}", spread(&slowdowns));
    println!(
        "  rescaled to the probe's reference speed: wall_s {wall_s:.6}, setup_s {setup_s:.6}; \
         cold first-pass setup {:.6} as measured",
        cold_setup.as_secs_f64()
    );
    println!(
        "  cell runs attempted {}, failed {} (failed_frac {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted as f64
    );
    let metrics = if args.trace {
        let m = layers.metrics();
        print_reconciliation(&layers, &m);
        m
    } else {
        end_to_end(wall_s, setup_s, rss, tally.attempted, tally.failed)
    };
    println!(
        "{{\"manifest\": {{\"command\": {}, \"workload\": {}, \"seed\": {}, \"default_seed\": {}, \
         \"git_rev\": {}, \"available_parallelism\": {}, \"os\": {}, \"arch\": {}, \
         \"cells\": {}, \"config_fingerprint\": \"{:016x}\", \"passes\": {}, \
         \"setup_s\": {}, \"setup_cold_s\": {}, \"slowdown_median\": {}, \"peak_rss_mb\": {}}}}}",
        json_str(&argv.join(" ")),
        json_str(w.name()),
        args.seed,
        DEFAULT_SEED,
        git_rev().map_or("null".into(), |r| json_str(&r)),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(std::env::consts::OS),
        json_str(std::env::consts::ARCH),
        cells.len(),
        fingerprint(&cells),
        walls.len(),
        json_str("warm: median over the timed passes, rescaled by the probe; the cold first pass is setup_cold_s, as measured"),
        cold_setup.as_secs_f64(),
        median(&slowdowns),
        rss,
    );
    println!(
        "{}",
        result_json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn value(m: &[Metric], name: &str) -> f64 {
    m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value)
}

/// The traced run's accounting, in words: handler self times plus the
/// engine's own time make up `Engine::run`, and the stages make up the
/// pass.
fn print_reconciliation(layers: &Layers, m: &[Metric]) {
    let handlers: f64 = m
        .iter()
        .filter(|x| x.name.starts_with("handler.") && x.name.ends_with(".self_s"))
        .map(|x| x.value)
        .sum();
    let per_pass = |d: Duration, n: u32| d.as_secs_f64() / f64::from(n.max(1));
    println!(
        "  traced des.run_s {:.6} = handlers {:.6} + des.self_s {:.6}",
        value(m, "des.run_s"),
        handlers,
        value(m, "des.self_s")
    );
    for (label, pass, n) in [
        ("traced", &layers.traced, layers.traced_passes),
        ("untraced", &layers.untraced, layers.untraced_passes),
    ] {
        let ph = &pass.phases;
        println!(
            "  {label} wall {:.6} s/pass: setup {:.6} + run {:.6} + report {:.6} + teardown {:.6} \
             = {:.6} (unaccounted {:.3}%)",
            per_pass(pass.wall, n),
            per_pass(ph.setup(), n),
            per_pass(ph.run, n),
            per_pass(ph.report, n),
            per_pass(ph.teardown, n),
            per_pass(ph.total(), n),
            100.0 * (1.0 - ph.total().as_secs_f64() / pass.wall.as_secs_f64().max(1e-12))
        );
    }
    println!(
        "  tracing overhead {:.1}% of the untraced pass; Instant pair {:.1} ns, {} traced handler calls",
        100.0 * value(m, "trace.overhead_frac"),
        layers.instant_pair_ns,
        layers.tracer.n.iter().sum::<u64>()
    );
}
