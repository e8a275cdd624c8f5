//! `warm_stepping`: a closed loop with one client over a build cache the
//! set-up filled. Each op is `AccMoS::run` of 1M steps with its own
//! stimulus: a cache hit, so stepping the generated code dominates (the
//! paper's headline quantity).

use crate::common::{self, secs, Ctx, OpLayers, OpSource, Ops};
use crate::plan::OpInput;
use crate::report::{Metrics, Tally};
use crate::stats::PerModel;
use crate::trace::Trace;
use accmos::{AccMoS, BuildCache, CodegenOptions, RunOptions};
use accmos_ir::{DiagnosticPolicy, Model};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Nominal wall time of one round (ten 1M-step runs) on a 2-core host.
const ROUND_S: f64 = 6.0;

/// Steps of each model's single set-up run (it exists to fill the cache).
const SETUP_STEPS: u64 = 1_000;

/// Fill the cache: each model compiled and run once on two client
/// threads (one per core) that take the models from one queue, largest
/// first, so the set-up's length does not depend on the seed's model
/// order. Returns the set-up time and, per model, the gcc time of its
/// build.
fn setup(
    ctx: &Ctx,
    pipeline: &AccMoS,
    models: &BTreeMap<&'static str, Model>,
) -> Result<(f64, PerModel), String> {
    let mut queue: Vec<&'static str> = models.keys().copied().collect();
    // Popped from the back: the most actors first.
    queue.sort_by_key(|name| models[name].root.actor_count());
    let queue = Mutex::new(queue);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let Some(name) = queue.lock().expect("queue lock").pop() else {
                    break;
                };
                let r = setup_one(ctx, pipeline, name, &models[name]);
                results.lock().expect("results lock").push(r);
            });
        }
    });
    let elapsed = secs(start);
    let mut gcc = PerModel::default();
    for r in results.into_inner().expect("results lock") {
        let (name, gcc_s) = r?;
        gcc.push(name, gcc_s);
    }
    Ok((elapsed, gcc))
}

/// One model's set-up: `AccMoS::run` (untraced) or `prepare` (traced, to
/// read the gcc time from the prepared simulation).
fn setup_one(
    ctx: &Ctx,
    pipeline: &AccMoS,
    name: &'static str,
    model: &Model,
) -> Result<(&'static str, f64), String> {
    let fail = |e: String| format!("set-up of {name}: {e}");
    if ctx.traced {
        let sim = pipeline.prepare(model).map_err(|e| fail(e.to_string()))?;
        sim.clean();
        return Ok((name, sim.compile_time().as_secs_f64()));
    }
    let tests = OpInput {
        model: name,
        stim: 0,
        steps: SETUP_STEPS,
    }
    .tests(model);
    match pipeline.run(model, SETUP_STEPS, &tests, &RunOptions::default()) {
        Ok(o) if !o.degraded() => Ok((name, 0.0)),
        Ok(o) => Err(fail(format!("degraded: {:?}", o.fallback_reason))),
        Err(e) => Err(fail(e.to_string())),
    }
}

/// Seconds of the serve pass a traced run adds for the serve layers.
const SERVE_PROBE_S: u64 = 5;

/// `bin` (the `accmos` CLI) is needed by the traced run only: it ends
/// with a short `accmos serve` pass that measures the serve layers, which
/// no listed workload measures otherwise.
pub fn run(ctx: &mut Ctx, bin: Option<&std::path::Path>) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let models = common::build_models(&ctx.models());
    let cache = BuildCache::at(ctx.run.state().join("cache"));
    let pipeline = AccMoS::new().with_cache(cache.clone());

    // One warm-up round (checked, not timed), then the timed rounds; a
    // traced run replays the timed rounds.
    let mut plan = ctx.plan();
    let warmup = common::with_tests(plan.rounds(1), &models);
    let timed = common::with_tests(plan.rounds(common::rounds(ctx, ROUND_S)), &models);
    let inputs: Vec<OpInput> = warmup.iter().chain(&timed).map(|(i, _)| i.clone()).collect();
    ctx.refs.ensure(&inputs, 2);

    let gcc_before = cache.stats().misses;
    let (setup_s, setup_gcc) = setup(ctx, &pipeline, &models)?;
    m.set("setup_s", setup_s);
    if cache.stats().misses == gcc_before {
        return Err("set-up compiled nothing: the run's cache was not empty".into());
    }

    let probe_before = crate::sys::host_probe_ms();
    let opts = RunOptions::default();
    for (input, tests) in &warmup {
        let out = pipeline.run(&models[input.model], input.steps, tests, &opts);
        tally.count(ctx.check(input, &out));
    }
    let mut op_s = PerModel::default();
    let mut rss_kb = PerModel::default();
    let pass_start = Instant::now();
    for (input, tests) in &timed {
        let start = Instant::now();
        let out = pipeline.run(&models[input.model], input.steps, tests, &opts);
        op_s.push(input.model, secs(start));
        if let Ok(o) = &out {
            rss_kb.push(input.model, o.peak_rss_kb as f64);
        }
        tally.count(ctx.check(input, &out));
    }
    let pass_s = secs(pass_start);
    let probe_after = crate::sys::host_probe_ms();

    let steps = ctx.steps() as f64;
    let mut ns_per_step = PerModel::default();
    for (model, v) in op_s.medians() {
        ns_per_step.push(model, v * 1e9 / steps);
    }
    crate::report::print_per_model("op time (s)", &op_s);
    m.set("pass_s", pass_s);
    m.set("job_s_geomean", op_s.geo_of_medians());
    m.set("ns_per_step_geomean", ns_per_step.geo_of_medians());
    m.set("latency_ms_p50", op_s.geo_of(0.5) * 1e3);
    m.set("latency_ms_p95", op_s.geo_of(0.95) * 1e3);
    m.set("jobs_per_s", timed.len() as f64 / pass_s);
    // The supervisor samples the child's VmHWM while it polls, so one
    // sample can miss the peak: take each model's median, then the
    // largest model.
    let rss_kb = rss_kb.medians().into_values().fold(0.0, f64::max);
    m.set("peak_rss_mb", rss_kb / 1024.0);
    m.set(
        "host.probe_ms",
        crate::stats::median(&[probe_before, probe_after]),
    );

    if ctx.traced {
        let mut trace = Trace::new();
        let mut layers = OpLayers::default();
        let stats_before = cache.stats();
        let start = Instant::now();
        for (op, (input, tests)) in timed.iter().enumerate() {
            let source = OpSource::Model(&models[input.model]);
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
        let stats_after = cache.stats();
        layers.write(&mut m);
        m.set(
            "backend.cache.hits",
            (stats_after.hits - stats_before.hits) as f64,
        );
        m.set(
            "backend.cache.misses",
            (stats_after.misses - stats_before.misses) as f64,
        );
        m.set("trace.overhead_pct", (traced_s / pass_s - 1.0) * 100.0);
        m.set(
            "trace.layer_cover_pct",
            trace.layer_cover_pct(&common::WRAPPERS),
        );

        // The variants put a number on what instrumentation costs per
        // step.
        let full = layers.sim_ns_per_step.medians();
        let (cov, bare) = variants(ctx, &models, &cache, &timed, &mut tally);
        // A model whose traced op failed (counted in `tally`) has no
        // full-build figure and drops out of the ratios.
        let ratio = |other: &BTreeMap<&'static str, f64>| {
            let r: Vec<f64> = other
                .iter()
                .filter_map(|(name, ns)| full.get(name).map(|f| f / ns))
                .collect();
            crate::stats::geomean(&r)
        };
        m.set("sim.full_over_bare", ratio(&bare));
        m.set("sim.cov_over_bare", ratio(&cov));
        m.set("backend.compile.gcc_s", setup_gcc.geo_of_medians());
        common::common_layers(ctx, &mut m);
        crate::write_trace(ctx, &trace)?;
        let bin = bin.ok_or("the traced run needs the accmos CLI")?;
        let seconds = if ctx.tiny { 1 } else { SERVE_PROBE_S };
        for (name, value) in crate::serve::layer_probe(ctx, bin, seconds, &mut tally)? {
            m.set(name, value);
        }
    }
    Ok((m, tally))
}

/// Per-step time (ns) per model of the coverage-only
/// (`DiagnosticPolicy::none()`) and bare (`instrument = false`) builds,
/// each run once on the model's first timed input. All three builds must
/// produce the interpreter's digest.
fn variants(
    ctx: &Ctx,
    models: &BTreeMap<&'static str, Model>,
    cache: &BuildCache,
    timed: &Ops,
    tally: &mut Tally,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let cov_opts = CodegenOptions {
        policy: DiagnosticPolicy::none(),
        ..CodegenOptions::accmos()
    };
    let bare_opts = CodegenOptions {
        instrument: false,
        ..CodegenOptions::accmos()
    };
    let mut cov = BTreeMap::new();
    let mut bare = BTreeMap::new();
    for (name, model) in models {
        let (input, tests) = timed
            .iter()
            .find(|(i, _)| i.model == *name)
            .expect("every model is timed");
        for (opts, out_map) in [(&cov_opts, &mut cov), (&bare_opts, &mut bare)] {
            let pipeline = AccMoS::new()
                .with_codegen(opts.clone())
                .with_cache(cache.clone());
            let out = pipeline.run(model, input.steps, tests, &RunOptions::default());
            if let Ok(o) = &out {
                out_map.insert(
                    *name,
                    o.report.wall.as_secs_f64() * 1e9 / input.steps as f64,
                );
            }
            tally.count(ctx.check(input, &out));
        }
    }
    (cov, bare)
}
