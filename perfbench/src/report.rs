//! Metric names, units and the result line.

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_s_geomean", "s"),
    ("ns_per_step_geomean", "ns"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`). A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("parse.ms", "ms"),
    ("graph.preprocess_ms", "ms"),
    ("analyze.ms", "ms"),
    ("analyze.iterations", "count"),
    ("codegen.ms", "ms"),
    ("codegen.c_kb", "KB"),
    ("codegen.folded", "count"),
    ("codegen.elided", "count"),
    ("codegen.fused", "count"),
    ("backend.compile.gcc_s", "s"),
    ("backend.compile.detect_ms", "ms"),
    ("backend.cache.hit_ms", "ms"),
    ("backend.cache.hits", "count"),
    ("backend.cache.misses", "count"),
    ("backend.run.dispatch_ms", "ms"),
    ("backend.run.child_rss_kb", "KB"),
    ("sim.ns_per_step", "ns"),
    ("sim.full_over_bare", "ratio"),
    ("sim.cov_over_bare", "ratio"),
    ("serve.ack_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.prep_ms", "ms"),
    ("serve.cache_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.samples", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_cover_pct", "%"),
];

/// Collected metric values, by name.
#[derive(Debug, Default)]
pub struct Metrics(std::collections::BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Ops attempted and failed in the measured pass(es).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op; `ok` is false for an error, a degraded result or a
    /// digest that differs from the interpreter reference.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Print one row per model: its median and sample count.
pub fn print_per_model(label: &str, samples: &crate::stats::PerModel) {
    println!("{label} per model (median of n):");
    for (model, (median, n)) in samples.summary() {
        println!("  {model:<8} {median:>14.6} (n={n})");
    }
}

/// Print the human-readable table, then the result line (the last line
/// of standard output).
pub fn emit(workload: &str, traced: bool, metrics: &Metrics, tally: Tally) {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {workload}: ops {} failed_ops {}",
        tally.attempted, tally.failed
    );
    if !traced {
        println!("  (host.probe_ms {:.4})", metrics.get("host.probe_ms"));
    }
    for (name, unit) in names {
        println!("  {name:<28} {:>16.4} {unit}", metrics.get(name));
    }
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
