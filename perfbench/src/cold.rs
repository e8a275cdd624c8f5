//! `cold_compile`: a closed loop with one client. Each op is
//! `parse_mdlx` + `AccMoS::run` with the build cache disabled, so every
//! op pays preprocessing, code generation and a full gcc `-O3` compile —
//! what a user pays for a first simulation.

use crate::common::{self, secs, Ctx, OpLayers, OpSource};
use crate::plan::OpInput;
use crate::report::{Metrics, Tally};
use crate::stats::{self, PerModel};
use crate::trace::Trace;
use accmos::{AccMoS, RunOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal wall time of one round (ten cold compiles) on a 2-core host:
/// `--seconds 35` buys two rounds, so every model's median and p95 come
/// from two ops.
const ROUND_S: f64 = 17.5;

/// Share of the MDLX-write samples cut from each end for `setup_s`.
const SETUP_TRIM: f64 = 0.2;

pub fn run(ctx: &mut Ctx) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    // Set-up: write the models to MDLX text (the models themselves are
    // built outside the timing: they stand for files on disk).
    let models = common::build_models(&ctx.models());
    let write = || -> (BTreeMap<&'static str, String>, f64) {
        let start = Instant::now();
        let texts = models
            .iter()
            .map(|(n, model)| (*n, accmos::write_mdlx(model)))
            .collect();
        (texts, secs(start))
    };
    let (texts, first_write) = write();
    // The host switches between speed modes ~1.5x apart every few
    // seconds, and a write takes a few ms, so one burst of writes samples
    // one mode. `setup_s` is the trimmed mean of this write and one more
    // timed before each op, so its samples span the pass.
    let mut setup = vec![first_write];

    // A traced run replays the same ops.
    let ops = common::with_tests(ctx.plan().rounds(common::rounds(ctx, ROUND_S)), &models);
    let inputs: Vec<OpInput> = ops.iter().map(|(i, _)| i.clone()).collect();
    ctx.refs.ensure(&inputs, 2);

    let probe_before = crate::sys::host_probe_ms();
    let pipeline = AccMoS::new().without_cache();
    let mut job_s = PerModel::default();
    let mut pass_s = 0.0;
    for (input, tests) in &ops {
        setup.push(write().1);
        let start = Instant::now();
        let out = accmos::parse_mdlx(&texts[input.model])
            .map_err(accmos::AccMoSError::from)
            .and_then(|model| pipeline.run(&model, input.steps, tests, &RunOptions::default()));
        let op_s = secs(start);
        job_s.push(input.model, op_s);
        pass_s += op_s;
        tally.count(ctx.check(input, &out));
    }
    let probe_after = crate::sys::host_probe_ms();
    m.set("setup_s", stats::trimmed_mean(&setup, SETUP_TRIM));

    let steps = ctx.steps() as f64;
    let mut ns_per_step = PerModel::default();
    for (model, v) in job_s.medians() {
        ns_per_step.push(model, v * 1e9 / steps);
    }
    crate::report::print_per_model("op time (s)", &job_s);
    m.set("pass_s", pass_s);
    m.set("job_s_geomean", job_s.geo_of_medians());
    m.set("ns_per_step_geomean", ns_per_step.geo_of_medians());
    m.set("latency_ms_p50", job_s.geo_of(0.5) * 1e3);
    m.set("latency_ms_p95", job_s.geo_of(0.95) * 1e3);
    m.set("jobs_per_s", ops.len() as f64 / pass_s);
    m.set(
        "peak_rss_mb",
        crate::sys::children_max_rss_kb() as f64 / 1024.0,
    );
    m.set("host.probe_ms", stats::median(&[probe_before, probe_after]));

    if ctx.traced {
        let mut trace = Trace::new();
        let mut layers = OpLayers::default();
        let start = Instant::now();
        for (op, (input, tests)) in ops.iter().enumerate() {
            let source = OpSource::Mdlx(&texts[input.model]);
            let ok = common::traced_op(
                ctx,
                &mut trace,
                &mut layers,
                op as u64,
                input,
                &pipeline,
                source,
                tests,
            );
            tally.count(ok);
        }
        let traced_s = secs(start);
        layers.write(&mut m);
        // The cache is off: every op is a compile.
        m.set("backend.cache.hits", 0.0);
        m.set("trace.overhead_pct", (traced_s / pass_s - 1.0) * 100.0);
        m.set(
            "trace.layer_cover_pct",
            trace.layer_cover_pct(&common::WRAPPERS),
        );
        common::common_layers(ctx, &mut m);
        crate::write_trace(ctx, &trace)?;
    }
    Ok((m, tally))
}
