//! Interpreter reference digests: every timed op's output digest must
//! equal the one the SSE interpreter (`run_reference_engine("sse", ..)`)
//! produces for the same model, stimulus and step count.
//!
//! The pool of every workload is committed in `perfbench/refs.tsv`
//! (regenerate with `cargo run --release --manifest-path
//! perfbench/Cargo.toml -- refs --jobs 2`). Inputs outside it (the
//! `--tiny` smoke sizes) are computed before timing starts.

use crate::plan::OpInput;
use std::collections::HashMap;
use std::sync::Mutex;

/// The committed table, embedded at build time.
const COMMITTED: &str = include_str!("../refs.tsv");

/// Reference digests keyed by op input.
#[derive(Debug, Default)]
pub struct Refs {
    table: HashMap<(String, u64, u64), u64>,
    /// How many digests this run had to compute (not committed).
    pub computed: usize,
}

impl Refs {
    /// The committed table.
    pub fn committed() -> Refs {
        let mut table = HashMap::new();
        for line in COMMITTED.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 5 || f[3] != crate::plan::ROWS.to_string() {
                continue;
            }
            let (Ok(stim), Ok(steps), Ok(digest)) =
                (f[1].parse(), f[2].parse(), u64::from_str_radix(f[4], 16))
            else {
                continue;
            };
            table.insert((f[0].to_owned(), stim, steps), digest);
        }
        Refs { table, computed: 0 }
    }

    pub fn get(&self, input: &OpInput) -> Option<u64> {
        self.table
            .get(&(input.model.to_owned(), input.stim, input.steps))
            .copied()
    }

    /// Compute, on up to `jobs` threads, every input the table lacks.
    pub fn ensure(&mut self, inputs: &[OpInput], jobs: usize) {
        let mut missing: Vec<OpInput> = inputs
            .iter()
            .filter(|i| self.get(i).is_none())
            .cloned()
            .collect();
        missing.sort();
        missing.dedup();
        for (input, digest) in compute(&missing, jobs) {
            self.table
                .insert((input.model.to_owned(), input.stim, input.steps), digest);
            self.computed += 1;
        }
    }
}

/// Interpreter digests of `inputs`, longest jobs first across `jobs`
/// threads.
pub fn compute(inputs: &[OpInput], jobs: usize) -> Vec<(OpInput, u64)> {
    let mut queue: Vec<OpInput> = inputs.to_vec();
    // Pop from the back: put the most steps (and the big models) last.
    queue.sort_by_key(|i| (i.steps, crate::plan::model(i.model).root.actor_count()));
    let queue = Mutex::new(queue);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let Some(input) = queue.lock().expect("queue lock").pop() else {
                    break;
                };
                let model = crate::plan::model(input.model);
                let tests = input.tests(&model);
                let report = accmos::run_reference_engine(
                    "sse",
                    &model,
                    &tests,
                    &accmos::SimOptions::steps(input.steps),
                )
                .expect("Table 1 models run on the interpreter");
                out.lock()
                    .expect("out lock")
                    .push((input, report.output_digest));
            });
        }
    });
    let mut out = out.into_inner().expect("out lock");
    out.sort();
    out
}

/// `perfbench refs`: recompute the whole committed pool and print it in
/// `refs.tsv` form.
pub fn regenerate(jobs: usize) -> String {
    let mut inputs = Vec::new();
    for w in crate::plan::Workload::ALL {
        inputs.extend(crate::plan::Plan::pool_inputs(w));
    }
    let mut text = String::from(
        "# SSE interpreter output digests for every benchmark input.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- refs --jobs 2 > perfbench/refs.tsv\n\
         # model\tstim_seed\tsteps\trows\tdigest\n",
    );
    for (input, digest) in compute(&inputs, jobs) {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{digest:016x}\n",
            input.model,
            input.stim,
            input.steps,
            crate::plan::ROWS
        ));
    }
    text
}
