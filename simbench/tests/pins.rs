//! The pinned results are the front door's results, and agree with the
//! repository's own goldens.
//!
//! To re-pin after an intentional model change, rewrite `pinned.tsv` from
//! the front door with
//!
//! ```text
//! SIMBENCH_REPIN=1 cargo test --release --test pins pins_match_the_front_door
//! ```

use parsched_core::prelude::*;
use simbench::cells::{Workload, DEFAULT_SEED};
use simbench::pins::{pins, Pin};

fn repo_file(name: &str) -> String {
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn pins_match_the_front_door() {
    let repin = std::env::var_os("SIMBENCH_REPIN").is_some();
    let pinned = pins();
    let mut count = 0;
    let mut lines = String::new();
    for w in Workload::ALL {
        for cell in w.cells(DEFAULT_SEED) {
            let r = run_batch(&cell.config, cell.batch.clone()).expect("cell simulates");
            let got = Pin::of(&r.response_times, r.makespan);
            if repin {
                lines += &got.line(w.name(), &cell.name);
                lines.push('\n');
            } else {
                assert_eq!(pinned.get(cell.name.as_str()), Some(&got), "{}", cell.name);
            }
            count += 1;
        }
    }
    if repin {
        let path = format!("{}/pinned.tsv", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, lines).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    } else {
        assert_eq!(
            pinned.len(),
            count,
            "pinned.tsv holds cells no workload runs"
        );
    }
}

/// Value of `"key": "0x..."` in `BENCH_parsched.json`'s golden map.
fn bench_golden(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": \"0x");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no golden {key}"))
        + needle.len();
    u64::from_str_radix(&json[at..at + 16], 16).expect("golden is 16 hex digits")
}

#[test]
fn scale_pins_equal_the_perf_goldens() {
    let json = repo_file("BENCH_parsched.json");
    let pinned = pins();
    for (w, golden_of) in [
        (Workload::Worm4k, "t4k_{}_worm_seq"),
        (Workload::Saf64k, "t64k_{}_saf_seq"),
        (Workload::Shard1k, "t1k_{}_seq"),
    ] {
        for cell in w.cells(DEFAULT_SEED) {
            let label = cell.name.split('_').nth(1).expect("cell name has a label");
            let key = golden_of.replace("{}", label);
            assert_eq!(
                pinned[cell.name.as_str()].mean_bits,
                bench_golden(&json, &key),
                "{} vs {key}",
                cell.name
            );
        }
    }
}

#[test]
fn paper16_figure3_rows_equal_the_f3_golden() {
    let src = repo_file("tests/golden_f3.rs");
    let pinned = pins();
    let mean = |name: String| f64::from_bits(pinned[name.as_str()].mean_bits);
    let mut rows = 0;
    for line in src.lines().map(str::trim).filter(|l| l.starts_with("(\"")) {
        let fields: Vec<&str> = line
            .trim_matches(|c| matches!(c, '(' | ')' | ','))
            .split(", ")
            .collect();
        let label = fields[0].trim_matches('"');
        if label == "16H" {
            continue; // the real machine could not wire it; paper16 leaves it out
        }
        for (policy, bits) in [("static", fields[1]), ("ts", fields[2])] {
            let golden = u64::from_str_radix(bits.trim_start_matches("0x"), 16).expect("hex");
            let scored = (mean(format!("matmul-fixed-{label}-{policy}-sf"))
                + mean(format!("matmul-fixed-{label}-{policy}-lf")))
                / 2.0;
            assert_eq!(scored.to_bits(), golden, "{label} {policy}");
        }
        rows += 1;
    }
    assert_eq!(rows, 13, "expected the 13 paper configurations");
}
