//! `serve_stream`: an `accmos serve --workers 2` daemon in its own
//! process, driven over one socket connection by one sending thread and
//! one reading thread. Set-up submits one job per model (building the
//! shared objects). The timed pass sends seeded Poisson arrivals at a
//! fixed offered rate (open loop), then a burst whose drain time gives
//! the capacity. Jobs are 5,000-step `bench:` jobs: per-job overhead
//! (dispatch, regeneration, the cache-hit path, journal and ledger
//! appends) dominates, not gcc or stepping.

use crate::common::{secs, Ctx};
use crate::plan::{OpInput, Plan};
use crate::report::{Metrics, Tally};
use crate::stats::{self, PerModel};
use crate::trace::Trace;
use accmos::telemetry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Offered rate of the open-loop phase, jobs/s: about a third of the
/// burst capacity of a 2-core host (~100 jobs/s). At half capacity a
/// host slowdown of a third (common on shared hosts) pushes utilisation
/// towards saturation and the tail latency with it, so runs of the same
/// code would not agree.
const RATE: f64 = 30.0;

/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.8;

/// Burst size, in rounds over the models per second of `--seconds`.
const BURST_ROUNDS_PER_S: u64 = 2;

/// Longest wait for any single event before the run is declared stuck.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon process; killed on drop unless it already exited.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn start(bin: &Path, socket: &Path, state: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--workers", "2", "--cache-dir"])
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Daemon { child };
        if !crate::sys::wait_for(socket, Duration::from_secs(30)) {
            return Err("daemon socket did not appear within 30 s".into());
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait (bounded) for the daemon to exit after a `shutdown`.
    fn wait_exit(&mut self) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One submitted job and what the client saw of it.
#[derive(Debug, Clone)]
struct Job {
    input: OpInput,
    /// When the job was due to be sent (open loop) or was sent (burst).
    due: Instant,
    sent: Instant,
    sent_epoch_ms: f64,
    queued: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
}

/// The client: one connection, a reader thread timestamping every event.
struct Client {
    stream: UnixStream,
    events: mpsc::Receiver<(Instant, String)>,
    reader: Option<std::thread::JoinHandle<()>>,
    jobs: Vec<Job>,
    next_queued: usize,
    by_id: HashMap<String, usize>,
    finished: usize,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Client {
            stream,
            events,
            reader: Some(reader),
            jobs: Vec::new(),
            next_queued: 0,
            by_id: HashMap::new(),
            finished: 0,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// Submit one job; `due` is when it was scheduled.
    fn submit(&mut self, input: &OpInput, due: Instant) -> Result<(), String> {
        let line = format!(
            "{{\"op\":\"submit\",\"model\":\"bench:{}\",\"steps\":{},\"lanes\":1,\"rows\":{},\"seed\":{}}}",
            input.model,
            input.steps,
            crate::plan::ROWS,
            input.stim
        );
        let sent = Instant::now();
        let epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        self.send(&line)?;
        self.jobs.push(Job {
            input: input.clone(),
            due,
            sent,
            sent_epoch_ms: epoch.as_secs_f64() * 1e3,
            queued: None,
            done: None,
            ok: false,
        });
        Ok(())
    }

    /// Consume events until every submitted job is done.
    fn drain(&mut self, ctx: &Ctx) -> Result<(), String> {
        while self.finished < self.jobs.len() {
            let (at, line) = self
                .events
                .recv_timeout(EVENT_TIMEOUT)
                .map_err(|_| "no event from the daemon within 60 s".to_string())?;
            let ev = telemetry::parse_flat_object(&line)
                .ok_or_else(|| format!("unparseable event: {line}"))?;
            match ev.str("event").as_deref() {
                Some("queued") => {
                    let idx = self.next_queued;
                    let job = self.jobs.get_mut(idx).ok_or("more acks than submits")?;
                    job.queued = Some(at);
                    self.by_id.insert(ev.str("job").unwrap_or_default(), idx);
                    self.next_queued += 1;
                }
                Some("done") => {
                    let id = ev.str("job").unwrap_or_default();
                    let idx = *self
                        .by_id
                        .get(&id)
                        .ok_or_else(|| format!("done for unknown job {id}"))?;
                    let job = &mut self.jobs[idx];
                    job.done = Some(at);
                    let digest = ev
                        .str("digest")
                        .and_then(|d| u64::from_str_radix(&d, 16).ok());
                    let outcome = ev.str("outcome").unwrap_or_default();
                    job.ok =
                        outcome == "ok" && digest.is_some_and(|d| ctx.digest_ok(&job.input, d));
                    if outcome != "ok" {
                        eprintln!(
                            "job {id} ({}): {outcome} {}",
                            job.input.model,
                            ev.str("note").unwrap_or_default()
                        );
                    }
                    self.finished += 1;
                }
                _ => return Err(format!("unexpected event: {line}")),
            }
        }
        Ok(())
    }

    /// Ask the daemon to stop and wait for its `bye`.
    fn shutdown(&mut self) -> Result<(), String> {
        self.send("{\"op\":\"shutdown\"}")?;
        loop {
            let (_, line) = self
                .events
                .recv_timeout(EVENT_TIMEOUT)
                .map_err(|_| "no bye from the daemon".to_string())?;
            if line.contains("\"bye\"") {
                return Ok(());
            }
        }
    }
}

impl Drop for Client {
    /// Close the connection, which ends the reader thread, and join it.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What one timed pass measured.
struct Pass {
    open: std::ops::Range<usize>,
    burst: std::ops::Range<usize>,
    pass_s: f64,
    lag_ms_max: f64,
}

/// Open-loop and burst sizes of one pass, in rounds over the models.
fn pass_rounds(ctx: &Ctx) -> (usize, usize) {
    if ctx.tiny {
        return (3, 3);
    }
    let open = RATE * ctx.seconds as f64 * OPEN_SHARE / ctx.models().len() as f64;
    let burst = (BURST_ROUNDS_PER_S * ctx.seconds) as usize;
    ((open.round() as usize).max(1), burst.max(1))
}

/// The open-loop phase, then the burst.
fn pass(
    ctx: &Ctx,
    client: &mut Client,
    plan: &mut Plan,
    rng: &mut crate::plan::Rng,
) -> Result<Pass, String> {
    let (open_rounds, burst_rounds) = pass_rounds(ctx);
    let open_jobs = open_rounds * ctx.models().len();

    // A Poisson process conditioned on its count: the arrival times are
    // sorted uniform draws over the phase, so every seed offers the same
    // number of jobs over the same span.
    let span_s = open_jobs as f64 / RATE;
    let mut offsets: Vec<f64> = (0..open_jobs).map(|_| rng.unit() * span_s).collect();
    offsets.sort_by(f64::total_cmp);

    let first = client.jobs.len();
    let start = Instant::now();
    let mut lag_ms_max: f64 = 0.0;
    for (input, offset) in plan.rounds(open_rounds).into_iter().zip(offsets) {
        let due = start + Duration::from_secs_f64(offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        client.submit(&input, due)?;
        let sent = client.jobs.last().expect("just submitted").sent;
        lag_ms_max = lag_ms_max.max(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    client.drain(ctx)?;
    let open = first..client.jobs.len();

    let burst_start = client.jobs.len();
    for input in plan.rounds(burst_rounds) {
        client.submit(&input, Instant::now())?;
    }
    client.drain(ctx)?;
    let burst = burst_start..client.jobs.len();
    Ok(Pass {
        open,
        burst,
        pass_s: secs(start),
        lag_ms_max,
    })
}

/// The `accmos` binary next to this executable (`run.py` builds both
/// into the same target directory).
pub fn accmos_bin() -> Result<PathBuf, String> {
    let path = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("accmos");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("`accmos` binary not found at {}", path.display()))
    }
}

/// The serve layers' split, measured inside another workload's traced run:
/// a short traced serve pass (`seconds` of it) on the same run directory.
/// Returns the `serve.*` and `loadgen.*` metrics.
pub fn layer_probe(
    ctx: &mut Ctx,
    bin: &Path,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (workload, full) = (ctx.workload, ctx.seconds);
    ctx.workload = crate::plan::Workload::ServeStream;
    ctx.seconds = seconds;
    let out = run(ctx, bin);
    ctx.workload = workload;
    ctx.seconds = full;
    let (m, probe_tally) = out?;
    tally.attempted += probe_tally.attempted;
    tally.failed += probe_tally.failed;
    Ok(crate::report::PER_LAYER
        .iter()
        .filter(|(name, _)| name.starts_with("serve.") || name.starts_with("loadgen."))
        .map(|(name, _)| (*name, m.get(name)))
        .collect())
}

pub fn run(ctx: &mut Ctx, bin: &Path) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut plan = ctx.plan();
    let mut rng = crate::plan::Rng::new(ctx.seed ^ 0xA77C);

    // Every input the run can use: set-up, and one pass (a traced run's
    // second pass replays the first).
    let (open_rounds, burst_rounds) = pass_rounds(ctx);
    let inputs = plan.clone().rounds(1 + open_rounds + burst_rounds);
    ctx.refs.ensure(&inputs, 2);

    let socket = ctx.run.tmp().join("accmos.sock");
    let state = ctx.run.state();
    let mut trace = Trace::new();
    let setup_start = Instant::now();
    let mut daemon = Daemon::start(bin, &socket, &state, &ctx.run.root.join("serve.log"))?;
    let mut client = Client::connect(&socket)?;
    for input in plan.rounds(1) {
        client.submit(&input, Instant::now())?;
    }
    client.drain(ctx)?;
    let setup_s = secs(setup_start);
    if let Some(bad) = client.jobs.iter().find(|j| !j.ok) {
        return Err(format!("set-up job for {} failed", bad.input.model));
    }
    let setup_jobs = client.jobs.len();

    let (mut replay, mut replay_rng) = (plan.clone(), rng.clone());
    let probe_before = crate::sys::host_probe_ms();
    let first = pass(ctx, &mut client, &mut plan, &mut rng)?;
    let probe_after = crate::sys::host_probe_ms();
    let rss_kb = crate::sys::vm_hwm_kb(daemon.pid()).unwrap_or(0);
    let second = if ctx.traced {
        Some(pass(ctx, &mut client, &mut replay, &mut replay_rng)?)
    } else {
        None
    };

    for job in &client.jobs[setup_jobs..] {
        tally.count(job.ok);
    }
    client.shutdown()?;
    let jobs = std::mem::take(&mut client.jobs);
    drop(client);
    daemon.wait_exit()?;

    let steps = ctx.steps() as f64;
    let open = &jobs[first.open.clone()];
    let latency_s = |j: &Job| {
        j.done.map_or(f64::INFINITY, |d| {
            d.saturating_duration_since(j.due).as_secs_f64()
        })
    };
    let mut per_model = PerModel::default();
    let mut per_step = PerModel::default();
    for j in open {
        per_model.push(j.input.model, latency_s(j));
        per_step.push(j.input.model, latency_s(j) * 1e9 / steps);
    }
    let latencies_ms: Vec<f64> = open.iter().map(|j| latency_s(j) * 1e3).collect();
    let burst = &jobs[first.burst.clone()];
    let burst_end = burst
        .iter()
        .filter_map(|j| j.done)
        .max()
        .unwrap_or_else(Instant::now);
    let drain_s = burst_end
        .saturating_duration_since(burst[0].sent)
        .as_secs_f64();

    crate::report::print_per_model("open-loop latency (s)", &per_model);
    m.set("setup_s", setup_s);
    m.set("pass_s", first.pass_s);
    m.set("job_s_geomean", per_model.geo_of_medians());
    m.set("ns_per_step_geomean", per_step.geo_of_medians());
    m.set("latency_ms_p50", stats::quantile(&latencies_ms, 0.5));
    m.set("latency_ms_p95", stats::quantile(&latencies_ms, 0.95));
    m.set("jobs_per_s", burst.len() as f64 / drain_s);
    m.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    m.set("host.probe_ms", stats::median(&[probe_before, probe_after]));
    m.set("loadgen.lag_ms_max", first.lag_ms_max);
    m.set("loadgen.samples", open.len() as f64);
    println!(
        "serve_stream: {} open-loop latency samples, burst of {} jobs",
        open.len(),
        burst.len()
    );

    if let Some(second) = second {
        let ledger = accmos::RunLedger::in_dir(&state).read().records;
        layers(ctx, &mut m, &mut trace, &jobs, &second, &ledger, setup_jobs)?;
        m.set(
            "trace.overhead_pct",
            (second.pass_s / first.pass_s - 1.0) * 100.0,
        );
        m.set("loadgen.lag_ms_max", second.lag_ms_max);
        crate::common::common_layers(ctx, &mut m);
    }
    Ok((m, tally))
}

/// The traced pass's per-layer split: client timestamps joined with the
/// daemon's ledger records (matched per model, in completion order).
/// Queue wait runs from the send to the record's start stamp (`ts_ms`,
/// taken as the worker picks the job up; 1 ms resolution).
fn layers(
    ctx: &Ctx,
    m: &mut Metrics,
    trace: &mut Trace,
    jobs: &[Job],
    second: &Pass,
    ledger: &[accmos::RunRecord],
    setup_jobs: usize,
) -> Result<(), String> {
    let serve: Vec<&accmos::RunRecord> = ledger.iter().filter(|r| r.source == "serve").collect();
    let names: BTreeMap<String, &'static str> = ctx
        .models()
        .into_iter()
        .map(|n| (crate::plan::model(n).name, n))
        .collect();

    // Set-up records hold the gcc builds.
    let mut gcc = PerModel::default();
    for r in serve.iter().take(setup_jobs).filter(|r| !r.compile_cached) {
        if let Some(n) = names.get(&r.model) {
            gcc.push(n, r.phases.compile_us as f64 / 1e6);
        }
    }

    // Records of the traced pass, queued per model in completion order.
    let mut records: HashMap<&'static str, VecDeque<&accmos::RunRecord>> = HashMap::new();
    let skip = serve
        .len()
        .checked_sub(second.burst.end - second.open.start)
        .ok_or("the ledger holds fewer records than jobs ran")?;
    for r in &serve[skip..] {
        let name = names
            .get(&r.model)
            .ok_or_else(|| format!("ledger model {}", r.model))?;
        records.entry(name).or_default().push_back(r);
    }
    let mut pass_jobs: Vec<usize> = (second.open.start..second.burst.end).collect();
    pass_jobs.sort_by_key(|&i| jobs[i].done);

    let (mut hits, mut misses) = (0u64, 0u64);
    let mut pre = PerModel::default();
    let mut analyze = PerModel::default();
    let mut codegen = PerModel::default();
    let mut cache = PerModel::default();
    let mut sums = [0.0f64; 6];
    let mut n_open = 0usize;
    for (op, &i) in pass_jobs.iter().enumerate() {
        let job = &jobs[i];
        let r = records
            .get_mut(job.input.model)
            .and_then(VecDeque::pop_front)
            .ok_or("ledger is missing a traced job")?;
        if r.compile_cached {
            hits += 1;
        } else {
            misses += 1;
        }
        let ms = |us: u64| us as f64 / 1e3;
        let p = &r.phases;
        let done = job.done.expect("drained");
        let total_ms = done.saturating_duration_since(job.sent).as_secs_f64() * 1e3;
        let ack_ms = job.queued.map_or(0.0, |q| {
            q.saturating_duration_since(job.sent).as_secs_f64() * 1e3
        });
        let prep_ms = ms(p.preprocess_us + p.analyze_us + p.codegen_us);
        let (cache_ms, run_ms) = (ms(p.compile_us), ms(p.run_us));
        let wait_ms = (r.ts_ms as f64 - job.sent_epoch_ms)
            .clamp(0.0, (total_ms - prep_ms - cache_ms - run_ms).max(0.0));

        let root = trace.add(
            &format!("job {}", job.input.model),
            None,
            op as u64,
            trace.at(job.due),
            trace.at(done),
        );
        let us = |v: f64| (v * 1e3) as u64;
        trace.lay(
            root,
            trace.at(job.due),
            &[
                (
                    "loadgen.lag",
                    job.sent.saturating_duration_since(job.due).as_micros() as u64,
                ),
                ("serve.queue_wait", us(wait_ms)),
                ("graph.preprocess", p.preprocess_us),
                ("analyze", p.analyze_us),
                ("codegen", p.codegen_us),
                ("backend.cache", p.compile_us),
                ("serve.run", p.run_us),
            ],
        );
        if !second.open.contains(&i) {
            continue;
        }
        n_open += 1;
        pre.push(job.input.model, ms(p.preprocess_us));
        analyze.push(job.input.model, ms(p.analyze_us));
        codegen.push(job.input.model, ms(p.codegen_us));
        if r.compile_cached {
            cache.push(job.input.model, cache_ms);
        }
        let unattributed = total_ms - wait_ms - prep_ms - cache_ms - run_ms;
        for (s, v) in
            sums.iter_mut()
                .zip([ack_ms, wait_ms, prep_ms, cache_ms, run_ms, unattributed])
        {
            *s += v;
        }
    }
    let n = n_open.max(1) as f64;
    for (name, s) in [
        "serve.ack_ms",
        "serve.queue_wait_ms",
        "serve.prep_ms",
        "serve.cache_ms",
        "serve.run_ms",
        "serve.unattributed_ms",
    ]
    .into_iter()
    .zip(sums)
    {
        m.set(name, s / n);
    }
    m.set("graph.preprocess_ms", pre.geo_of_medians());
    m.set("analyze.ms", analyze.geo_of_medians());
    m.set("codegen.ms", codegen.geo_of_medians());
    m.set("backend.cache.hit_ms", cache.geo_of_medians());
    m.set("backend.cache.hits", hits as f64);
    m.set("backend.cache.misses", misses as f64);
    m.set("backend.compile.gcc_s", gcc.geo_of_medians());
    m.set("trace.layer_cover_pct", trace.layer_cover_pct(&[]));
    crate::write_trace(ctx, trace)
}
