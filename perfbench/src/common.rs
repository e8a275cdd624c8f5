//! What every workload shares: the run context, op checking, and the
//! per-layer figures that do not depend on the workload's ops.

use crate::plan::{OpInput, Plan, Workload};
use crate::refs::Refs;
use crate::report::Metrics;
use crate::stats::{self, PerModel};
use crate::sys::RunDir;
use accmos::{AccMoSError, RunOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// One run's settings and private state.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Smoke-test sizes: three small models, few short ops.
    pub tiny: bool,
    pub traced: bool,
    pub run: RunDir,
    pub refs: Refs,
}

impl Ctx {
    /// The models this run visits.
    pub fn models(&self) -> Vec<&'static str> {
        if self.tiny {
            vec!["SPV", "LEDLC", "CSEV"]
        } else {
            crate::plan::model_names()
        }
    }

    /// Steps per op.
    pub fn steps(&self) -> u64 {
        match (self.tiny, self.workload) {
            (false, w) => w.steps(),
            (true, Workload::ColdCompile) => 2_000,
            (true, Workload::WarmStepping) => 20_000,
            (true, Workload::ServeStream) => 500,
        }
    }

    /// The run's seeded plan over [`Ctx::models`].
    pub fn plan(&self) -> Plan {
        Plan::new(self.workload, self.seed, self.steps(), &self.models())
    }

    /// Whether an op's outcome is a success: no error, not degraded, and
    /// the interpreter's digest.
    pub fn check(&self, input: &OpInput, out: &Result<RunOutcome, AccMoSError>) -> bool {
        match out {
            Ok(o) => !o.degraded() && self.digest_ok(input, o.report.output_digest),
            Err(e) => {
                eprintln!("op {} stim {} failed: {e}", input.model, input.stim);
                false
            }
        }
    }

    pub fn digest_ok(&self, input: &OpInput, digest: u64) -> bool {
        let ok = self.refs.get(input) == Some(digest);
        if !ok {
            eprintln!(
                "digest mismatch: {} stim {} steps {}: got {digest:016x}, reference {:?}",
                input.model,
                input.stim,
                input.steps,
                self.refs.get(input).map(|d| format!("{d:016x}"))
            );
        }
        ok
    }
}

/// Op inputs with their test vectors, built before timing starts.
pub type Ops = Vec<(OpInput, accmos_ir::TestVectors)>;

/// Attach each input's test vectors.
pub fn with_tests(inputs: Vec<OpInput>, models: &BTreeMap<&'static str, accmos_ir::Model>) -> Ops {
    inputs
        .into_iter()
        .map(|i| {
            let tests = i.tests(&models[i.model]);
            (i, tests)
        })
        .collect()
}

/// Rounds one pass runs: `--seconds` buys `seconds / round_s` (`round_s`
/// is the nominal wall time of one round on a 2-core host), at least
/// one; one in the tiny smoke mode.
pub fn rounds(ctx: &Ctx, round_s: f64) -> usize {
    if ctx.tiny {
        return 1;
    }
    ((ctx.seconds as f64 / round_s).round() as usize).max(1)
}

/// Build each named model once.
pub fn build_models(names: &[&'static str]) -> BTreeMap<&'static str, accmos_ir::Model> {
    names.iter().map(|n| (*n, crate::plan::model(n))).collect()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-layer figures every traced run reports regardless of workload:
/// static code counters, parse time, compiler detection, host speed.
pub fn common_layers(ctx: &Ctx, m: &mut Metrics) {
    let mut iterations = 0usize;
    let (mut c_bytes, mut folded, mut elided, mut fused) = (0usize, 0usize, 0usize, 0usize);
    let mut parse = PerModel::default();
    for name in ctx.models() {
        let model = crate::plan::model(name);
        let pre = accmos::preprocess(&model).expect("Table 1 models preprocess");
        iterations += accmos::analyze(&pre).iterations();
        let program = accmos::AccMoS::new()
            .generate(&model)
            .expect("Table 1 models generate");
        c_bytes += program.main_c.len();
        folded += program.folded_actors;
        elided += program.elided_actors;
        fused += program.fused_actors;
        let text = accmos::write_mdlx(&model);
        for _ in 0..3 {
            let start = Instant::now();
            accmos::parse_mdlx(&text).expect("written MDLX parses");
            parse.push(name, secs(start) * 1e3);
        }
    }
    m.set("analyze.iterations", iterations as f64);
    m.set("codegen.c_kb", c_bytes as f64 / 1024.0);
    m.set("codegen.folded", folded as f64);
    m.set("codegen.elided", elided as f64);
    m.set("codegen.fused", fused as f64);
    if m.get("parse.ms") == 0.0 {
        m.set("parse.ms", parse.geo_of_medians());
    }
    let mut detect = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        accmos::Compiler::detect().expect("a C compiler is installed");
        detect.push(secs(start) * 1e3);
    }
    m.set("backend.compile.detect_ms", stats::median(&detect));
}

/// The phase split of one traced `prepare` + `run_supervised` op, from
/// `PreparedSimulation::phase_micros` and the run's report.
#[derive(Debug, Default)]
pub struct OpLayers {
    pub parse: PerModel,
    pub preprocess: PerModel,
    pub analyze: PerModel,
    pub codegen: PerModel,
    pub gcc_s: PerModel,
    pub cache_hit_ms: PerModel,
    pub dispatch_ms: PerModel,
    pub sim_ns_per_step: PerModel,
    pub child_rss_kb: u64,
    pub hits: u64,
    pub misses: u64,
}

impl OpLayers {
    pub fn write(&self, m: &mut Metrics) {
        // An empty group (a layer the ops did not reach) reads 0.
        if !self.parse.is_empty() {
            m.set("parse.ms", self.parse.geo_of_medians());
        }
        m.set("graph.preprocess_ms", self.preprocess.geo_of_medians());
        m.set("analyze.ms", self.analyze.geo_of_medians());
        m.set("codegen.ms", self.codegen.geo_of_medians());
        m.set("backend.compile.gcc_s", self.gcc_s.geo_of_medians());
        m.set("backend.cache.hit_ms", self.cache_hit_ms.geo_of_medians());
        m.set("backend.cache.hits", self.hits as f64);
        m.set("backend.cache.misses", self.misses as f64);
        m.set("backend.run.dispatch_ms", self.dispatch_ms.geo_of_medians());
        m.set("backend.run.child_rss_kb", self.child_rss_kb as f64);
        m.set("sim.ns_per_step", self.sim_ns_per_step.geo_of_medians());
    }
}

/// Run one op as `prepare` (or `prepare_mdlx`) + `run_supervised`,
/// recording its spans into `trace` and its phase split into `layers`.
/// Returns whether the op succeeded.
#[allow(clippy::too_many_arguments)]
pub fn traced_op(
    ctx: &Ctx,
    trace: &mut crate::trace::Trace,
    layers: &mut OpLayers,
    op: u64,
    input: &OpInput,
    pipeline: &accmos::AccMoS,
    source: OpSource<'_>,
    tests: &accmos_ir::TestVectors,
) -> bool {
    let supervisor = match pipeline.state_dir() {
        Some(dir) => accmos::Supervisor::new(pipeline.exec_policy().clone()).with_state_dir(dir),
        None => accmos::Supervisor::new(pipeline.exec_policy().clone()),
    };
    let t_op = Instant::now();
    let prepared = match source {
        OpSource::Mdlx(text) => pipeline.prepare_mdlx(text),
        OpSource::Model(model) => pipeline.prepare(model),
    };
    let t_prepared = Instant::now();
    let sim = match prepared {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("op {} prepare failed: {e}", input.model);
            return false;
        }
    };
    let run = sim.run_supervised(
        input.steps,
        tests,
        &accmos::RunOptions::default(),
        &supervisor,
    );
    let t_ran = Instant::now();
    sim.clean();
    let t_end = Instant::now();

    let root = trace.add(
        &format!("op {}", input.model),
        None,
        op,
        trace.at(t_op),
        trace.at(t_end),
    );
    let p = sim.phase_micros();
    let prep_name = if matches!(source, OpSource::Mdlx(_)) {
        "prepare_mdlx"
    } else {
        "prepare"
    };
    let prep = trace.add(
        prep_name,
        Some(root),
        op,
        trace.at(t_op),
        trace.at(t_prepared),
    );
    let compile = if sim.cache_hit() {
        "backend.cache"
    } else {
        "backend.compile"
    };
    trace.lay(
        prep,
        trace.at(t_op),
        &[
            ("parse", p.parse_us),
            ("graph.preprocess", p.preprocess_us),
            ("analyze", p.analyze_us),
            ("codegen", p.codegen_us),
            (compile, p.compile_us),
        ],
    );
    let run_span = trace.add(
        "run_supervised",
        Some(root),
        op,
        trace.at(t_prepared),
        trace.at(t_ran),
    );
    trace.add(
        "backend.clean",
        Some(root),
        op,
        trace.at(t_ran),
        trace.at(t_end),
    );

    let ms = |us: u64| us as f64 / 1e3;
    if matches!(source, OpSource::Mdlx(_)) {
        layers.parse.push(input.model, ms(p.parse_us));
    }
    layers.preprocess.push(input.model, ms(p.preprocess_us));
    layers.analyze.push(input.model, ms(p.analyze_us));
    layers.codegen.push(input.model, ms(p.codegen_us));
    if sim.cache_hit() {
        layers.hits += 1;
        layers.cache_hit_ms.push(input.model, ms(p.compile_us));
    } else {
        layers.misses += 1;
        layers.gcc_s.push(input.model, p.compile_us as f64 / 1e6);
    }
    match run {
        Ok(run) => {
            let call = t_ran.duration_since(t_prepared);
            trace.lay(
                run_span,
                trace.at(t_prepared),
                &[("sim", run.report.wall.as_micros() as u64)],
            );
            layers.dispatch_ms.push(
                input.model,
                call.saturating_sub(run.report.wall).as_secs_f64() * 1e3,
            );
            layers.sim_ns_per_step.push(
                input.model,
                run.report.wall.as_secs_f64() * 1e9 / input.steps.max(1) as f64,
            );
            layers.child_rss_kb = layers.child_rss_kb.max(run.peak_rss_kb);
            ctx.digest_ok(input, run.report.output_digest)
        }
        Err(e) => {
            eprintln!("op {} run failed: {e}", input.model);
            false
        }
    }
}

/// Spans that wrap layers rather than being one: their self time
/// (compiler detection, build-dir I/O) is unattributed.
pub const WRAPPERS: [&str; 2] = ["prepare", "prepare_mdlx"];

/// What a traced op prepares from.
#[derive(Clone, Copy)]
pub enum OpSource<'a> {
    Mdlx(&'a str),
    Model(&'a accmos_ir::Model),
}
