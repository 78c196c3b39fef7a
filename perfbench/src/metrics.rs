//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is listed here once, with its
//! unit. `BENCHMARK.json` names the same metrics; the benchmark's tests
//! check that the two lists agree.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("flit_hops_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_accepted_flit_rate", "flit/node/cycle"),
    ("delivered_frac", "fraction"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// metric of a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("network.step_ns_per_flit_hop", "ns"),
    ("network.step_us_p50", "us"),
    ("network.step_us_p99", "us"),
    ("network.step_share", "fraction"),
    ("network.new_s", "s"),
    ("router.vc_allocations", "count"),
    ("router.alloc_conflicts", "count"),
    ("router.vc_alloc_success_ratio", "fraction"),
    ("router.credit_stalls", "count"),
    ("router.preemptions", "count"),
    ("router.occupancy_mean_flits", "flits"),
    ("router.flits_forwarded", "count"),
    ("router.misroutes", "count"),
    ("router.useful_hop_ratio", "fraction"),
    ("router.packets_dropped", "count"),
    ("router.drop_frac", "fraction"),
    ("traffic.draw_ns_per_call", "ns"),
    ("traffic.packets_offered", "count"),
    ("interface.inject_ns_per_call", "ns"),
    ("interface.drain_ns_per_call", "ns"),
    ("runner.self_share", "fraction"),
    ("runner.backpressure_frac", "fraction"),
    ("runner.source_queue_peak", "packets"),
    ("runner.latency_samples", "count"),
    ("pool.point_s_p50", "s"),
    ("pool.point_s_max", "s"),
    ("pool.points_requested", "count"),
    ("pool.cache_hit_ratio", "fraction"),
    ("exec.busy_frac", "fraction"),
    ("exec.waves", "count"),
    ("sweep.rounds", "count"),
    ("sim_saturation_load_vc", "flit/node/cycle"),
    ("sim_saturation_load_dropping", "flit/node/cycle"),
    ("sim_saturation_load_deflection", "flit/node/cycle"),
    ("probe.overhead_frac", "fraction"),
    ("telemetry.windows", "count"),
    ("journey.records", "count"),
    ("journey.inconsistent", "count"),
    ("journey.source_queue_cycles", "cycles"),
    ("journey.vc_alloc_cycles", "cycles"),
    ("journey.switch_wait_cycles", "cycles"),
    ("journey.credit_stall_cycles", "cycles"),
    ("journey.channel_cycles", "cycles"),
    ("trace.overhead_frac", "fraction"),
];

/// Correctness tally: one attempt per checked simulation run or sweep
/// point; a run fails if any of its checks fails.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs checked.
    pub attempted: u64,
    /// Runs with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked run; `errors` lists its failed checks.
    pub fn run(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures
                .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        }
    }
}

/// Pushes `msg()` onto `errors` unless `ok`.
pub fn expect(errors: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        errors.push(msg());
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter in `registry` order. Values print with
/// every digit (`f64` round-trip formatting).
pub fn result_line(
    tally: &Tally,
    registry: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// Records a failure for every registry metric that is missing or not
/// finite, and replaces such values with 0 so the result line stays
/// valid JSON.
pub fn audit(
    tally: &mut Tally,
    registry: &[(&'static str, &'static str)],
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut errors = Vec::new();
    for (name, _) in registry {
        let v = values.entry(name).or_insert(f64::NAN);
        if !v.is_finite() {
            errors.push(format!("metric {name} was not measured"));
            *v = 0.0;
        }
    }
    tally.run("metrics", errors);
}
