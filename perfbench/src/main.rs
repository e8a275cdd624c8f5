//! `perfbench`: the AccMoS-RS benchmark.
//!
//! ```text
//! perfbench --workload cold_compile|warm_stepping|serve_stream
//!           --seed N --seconds S --trace 0|1 [--tiny]
//! perfbench refs [--jobs N]      # regenerate refs.tsv on stdout
//! ```
//!
//! The last line of standard output is the result object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). A traced run also writes its
//! spans as Chrome trace JSON to `.perfbench/trace-<workload>-<seed>.json`.

mod cold;
mod common;
mod plan;
mod refs;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod warm;

use common::Ctx;
use plan::Workload;

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match arg(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a whole number, got `{v}`")),
    }
}

/// Write the traced run's spans next to the run directories.
pub fn write_trace(ctx: &Ctx, trace: &trace::Trace) -> Result<(), String> {
    let path =
        ctx.run
            .root
            .with_file_name(format!("trace-{}-{}.json", ctx.workload.name(), ctx.seed));
    std::fs::write(&path, trace.to_chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        trace.spans.len(),
        path.display()
    );
    println!("trace self time by span (ms):");
    for (name, ms) in trace.self_ms_by_name() {
        println!("  {name:<24} {ms:>12.3}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("refs") {
        let jobs = num(&args, "--jobs", 1).unwrap_or(1) as usize;
        print!("{}", refs::regenerate(jobs));
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let name = arg(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = num(args, "--seed", 1)?;
    let seconds = num(args, "--seconds", 35)?.max(1);
    let traced = match num(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let tiny = args.iter().any(|a| a == "--tiny");
    let bin = match (workload, traced) {
        (Workload::ServeStream, _) | (Workload::WarmStepping, true) => {
            Some(serve::accmos_bin()?)
        }
        _ => None,
    };
    let run = sys::RunDir::create().map_err(|e| format!("run directory: {e}"))?;
    let mut ctx = Ctx {
        workload,
        seed,
        seconds,
        tiny,
        traced,
        run,
        refs: refs::Refs::committed(),
    };

    let result = match workload {
        Workload::ColdCompile => cold::run(&mut ctx),
        Workload::WarmStepping => warm::run(&mut ctx, bin.as_deref()),
        Workload::ServeStream => serve::run(&mut ctx, bin.as_deref().expect("resolved above")),
    };
    let (builds, sockets) = ctx.run.leftovers();
    println!(
        "hygiene: {} reference digests computed in-run; leftovers: {builds} accmos-build-* dirs, {sockets} sockets",
        ctx.refs.computed
    );
    let (metrics, tally) = result?;
    report::emit(workload.name(), traced, &metrics, tally);
    Ok(())
}
