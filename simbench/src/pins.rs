//! Simulated results of the default-seed cells, pinned bit-exactly in
//! `pinned.tsv`.
//!
//! A pin holds only what a user of the simulator sees: the mean response
//! time's bits, the makespan and a digest of every response time. Event
//! and counter totals are left out on purpose, so a change that removes
//! events while keeping every result (a wormhole express path, say) still
//! passes. Regenerate after an intentional model change with
//! `SIMBENCH_REPIN=1 cargo test --release --test pins pins_match_the_front_door`.

use crate::cells::{fnv, FNV_BASIS};
use crate::pipeline::Outcome;
use parsched_des::{SimDuration, Summary};
use std::collections::HashMap;

/// The pinned file, one line per cell:
/// `workload  cell  mean_bits  makespan_ns  response_digest  mean_s`.
pub const PINNED: &str = include_str!("../pinned.tsv");

/// One cell's pinned result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// `f64::to_bits` of the mean response time.
    pub mean_bits: u64,
    /// Makespan in nanoseconds.
    pub makespan_ns: u64,
    /// [`response_digest`] of the response times.
    pub response_digest: u64,
}

impl Pin {
    /// The pin of a run's response times and makespan.
    pub fn of(response_times: &[SimDuration], makespan: SimDuration) -> Pin {
        Pin {
            mean_bits: Summary::of_durations(response_times).mean.to_bits(),
            makespan_ns: makespan.nanos(),
            response_digest: response_digest(response_times),
        }
    }

    /// The `pinned.tsv` line for `cell` of `workload`.
    pub fn line(&self, workload: &str, cell: &str) -> String {
        format!(
            "{workload}\t{cell}\t{:016x}\t{}\t{:016x}\t{}",
            self.mean_bits,
            self.makespan_ns,
            self.response_digest,
            f64::from_bits(self.mean_bits)
        )
    }
}

/// FNV-1a digest of the response times in submission order.
pub fn response_digest(response_times: &[SimDuration]) -> u64 {
    response_times
        .iter()
        .fold(FNV_BASIS, |h, d| fnv(h, &d.nanos().to_le_bytes()))
}

/// Every pin, keyed by cell name.
pub fn pins() -> HashMap<&'static str, Pin> {
    PINNED
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert!(f.len() >= 5, "pinned.tsv: short line {l:?}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("pinned.tsv: hex field");
            let pin = Pin {
                mean_bits: hex(f[2]),
                makespan_ns: f[3].parse().expect("pinned.tsv: makespan field"),
                response_digest: hex(f[4]),
            };
            (f[1], pin)
        })
        .collect()
}

/// Compare an outcome against its pin, describing the first difference.
pub fn check(pin: Option<&Pin>, o: &Outcome) -> Result<(), String> {
    let pin = pin.ok_or("no pinned result for this cell")?;
    let got = Pin::of(&o.response_times, o.makespan);
    if got == *pin {
        return Ok(());
    }
    Err(format!(
        "differs from pinned result: mean {} (pinned {}), makespan {} ns (pinned {}), \
         response digest {:016x} (pinned {:016x})",
        f64::from_bits(got.mean_bits),
        f64::from_bits(pin.mean_bits),
        got.makespan_ns,
        pin.makespan_ns,
        got.response_digest,
        pin.response_digest
    ))
}
