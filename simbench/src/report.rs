//! Metric assembly and the one-line JSON result.

use crate::run::{Pass, ShardSums};
use crate::trace::{Tracer, FLIT_TICK, KINDS, ROLLUPS};
use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    vec![
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
    ]
}

/// Everything a traced run measured, summed over its passes.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced staged passes.
    pub traced_passes: u32,
    /// Their sums.
    pub traced: Pass,
    /// Their handler and scheduler counts.
    pub tracer: Tracer,
    /// Untraced staged passes run beside them.
    pub untraced_passes: u32,
    /// Their sums.
    pub untraced: Pass,
    /// Untraced `run_batch_sharded` passes.
    pub sharded_passes: u32,
    /// Their shard-runner sums.
    pub shard: ShardSums,
    /// Host cost of one `Instant` pair, in nanoseconds.
    pub instant_pair_ns: f64,
    /// Median probe slowdown over the run's staged passes.
    pub host_slowdown: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// Every per-layer metric, as a mean per pass. Times and counts of the
    /// staged layers come from the traced passes, except `des.ns_per_event`
    /// which is the untraced passes' `Engine::run` time per event; shard
    /// times come from the untraced sharded passes. Times are as measured,
    /// not rescaled: `trace.host_slowdown` says how slow the host ran.
    pub fn metrics(&self) -> Vec<Metric> {
        let tp = f64::from(self.traced_passes.max(1));
        let t = &self.traced;
        let ph = &t.phases;
        let tr = &self.tracer;
        let per = |d: Duration| secs(d) / tp;
        let handler_s = tr.handler_ns() as f64 * 1e-9 / tp;
        let mut m = vec![
            metric("topology.plan_s", per(ph.plan), "s"),
            metric("topology.nodes", t.nodes as f64 / tp, "count"),
            metric("topology.channels", t.channels as f64 / tp, "count"),
            metric("machine.wiring_s", per(ph.wiring), "s"),
            metric("machine.new_s", per(ph.machine_new), "s"),
            metric("core.start_s", per(ph.start), "s"),
            metric("core.report_s", per(ph.report), "s"),
            metric("core.teardown_s", per(ph.teardown), "s"),
            metric("des.run_s", per(ph.run), "s"),
            metric("des.events", t.events as f64 / tp, "count"),
            metric(
                "des.ns_per_event",
                ratio(
                    self.untraced.phases.run.as_nanos() as f64,
                    self.untraced.events as f64,
                ),
                "ns",
            ),
            metric("des.self_s", per(ph.run) - handler_s, "s"),
            metric("des.timers_peak", tr.timers_peak as f64, "count"),
            metric("des.timer_sets", tr.timer_sets as f64 / tp, "count"),
            metric("des.cancels", tr.cancels as f64 / tp, "count"),
            metric(
                "des.cancel_live_frac",
                ratio(tr.live_cancels as f64, tr.cancels as f64),
                "ratio",
            ),
        ];
        for (i, kind) in KINDS.iter().enumerate() {
            m.push(metric(
                format!("handler.{kind}.n"),
                tr.n[i] as f64 / tp,
                "count",
            ));
            m.push(metric(
                format!("handler.{kind}.self_s"),
                tr.ns[i] as f64 * 1e-9 / tp,
                "s",
            ));
        }
        for (name, kinds) in ROLLUPS {
            let ns: u64 = kinds
                .iter()
                .map(|k| tr.ns[KINDS.iter().position(|x| x == k).expect("rollup kind")])
                .sum();
            m.push(metric(name, ns as f64 * 1e-9 / tp, "s"));
        }
        let c = &t.counters;
        let count = |x: u64| x as f64 / tp;
        m.extend([
            metric("net.messages", count(c.messages_sent), "count"),
            metric("net.hop_transfers", count(c.hop_transfers), "count"),
            metric("net.send_blocks", count(c.send_blocks), "count"),
            metric("net.transit_escapes", count(c.transit_escapes), "count"),
            metric("wormhole.flits", count(c.flits_injected), "count"),
            metric("wormhole.link_moves", count(c.credits_issued), "count"),
            metric("wormhole.vc_allocs", count(c.vc_allocs), "count"),
            metric("wormhole.credit_stalls", count(c.credit_stalls), "count"),
            metric(
                "wormhole.moves_per_tick",
                ratio(c.credits_issued as f64, tr.n[FLIT_TICK] as f64),
                "ratio",
            ),
        ]);
        let s = &self.shard;
        let sp = f64::from(self.sharded_passes.max(1));
        let busy = s.work + s.barrier + s.merge;
        m.extend([
            metric(
                "shard.k",
                if s.cells == 0 {
                    1.0
                } else {
                    s.shards as f64 / s.cells as f64
                },
                "count",
            ),
            metric("shard.work_s", secs(s.work) / sp, "s"),
            metric("shard.barrier_s", secs(s.barrier) / sp, "s"),
            metric("shard.merge_s", secs(s.merge) / sp, "s"),
            metric(
                "shard.barrier_frac",
                ratio(secs(s.barrier), secs(busy)),
                "ratio",
            ),
            metric("shard.fallbacks", s.fallbacks as f64 / sp, "count"),
        ]);
        let traced_wall = secs(t.wall) / tp;
        let untraced_wall = secs(self.untraced.wall) / f64::from(self.untraced_passes.max(1));
        m.extend([
            metric(
                "trace.overhead_frac",
                ratio(traced_wall, untraced_wall) - 1.0,
                "ratio",
            ),
            metric("trace.instant_pair_ns", self.instant_pair_ns, "ns"),
            metric("trace.host_slowdown", self.host_slowdown, "ratio"),
            metric(
                "trace.wall_gap_frac",
                ratio(secs(t.wall) - secs(ph.total()), secs(t.wall)),
                "ratio",
            ),
        ]);
        m
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[metric("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn layer_names_are_unique() {
        let names: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
