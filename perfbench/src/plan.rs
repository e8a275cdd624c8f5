//! What each workload runs: the models, the step counts, the stimulus
//! pools and the seeded order in which ops visit them.
//!
//! Every op's stimulus is drawn from a fixed per-workload pool of
//! stimulus seeds whose interpreter digests are committed in
//! `perfbench/refs.tsv`. The run seed picks the model order and where in
//! the pool each model starts, so the same seed gives the same inputs and
//! no seed needs an interpreter run (which costs ~100x a compiled run)
//! before timing starts. No input repeats within a plan: a model that
//! has used its whole pool goes on to stimuli outside it, whose digests
//! the run computes before timing starts.

use accmos_ir::{Model, TestVectors};

/// The ten Table 1 models, in the paper's order.
pub fn model_names() -> Vec<&'static str> {
    accmos_models::TABLE1
        .iter()
        .map(|(name, _, _)| *name)
        .collect()
}

/// Build a Table 1 model by name.
pub fn model(name: &str) -> Model {
    accmos_models::by_name(name)
}

/// Stimulus rows per test-vector table (every workload).
pub const ROWS: usize = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdCompile,
    WarmStepping,
    ServeStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdCompile,
        Workload::WarmStepping,
        Workload::ServeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold_compile",
            Workload::WarmStepping => "warm_stepping",
            Workload::ServeStream => "serve_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated steps per op at full size.
    pub fn steps(self) -> u64 {
        match self {
            Workload::ColdCompile => 100_000,
            Workload::WarmStepping => 1_000_000,
            Workload::ServeStream => 5_000,
        }
    }

    /// Stimulus seeds per model in the committed pool: at least the
    /// visits per model of a run at `--seconds 35` (cold: 2 rounds; warm:
    /// a warm-up round and 6 timed rounds; serve: a set-up round, 84
    /// open-loop and 70 burst rounds).
    pub fn pool(self) -> u64 {
        match self {
            Workload::ColdCompile => 4,
            Workload::WarmStepping => 7,
            Workload::ServeStream => 160,
        }
    }

    /// First stimulus seed of the pool; slot `k` uses `base + k`.
    fn stim_base(self) -> u64 {
        match self {
            Workload::ColdCompile => 10_000,
            Workload::WarmStepping => 20_000,
            Workload::ServeStream => 30_000,
        }
    }
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_ACC0_5BE7_C0DE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One op's inputs: which model, which stimulus, how many steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpInput {
    pub model: &'static str,
    pub stim: u64,
    pub steps: u64,
}

impl OpInput {
    /// The op's test vectors (the same generator `accmos serve` uses for
    /// a `rows`/`seed` job).
    pub fn tests(&self, model: &Model) -> TestVectors {
        let pre = accmos::preprocess(model).expect("Table 1 models preprocess");
        accmos_testgen::random_tests(&pre, ROWS, self.stim)
    }
}

/// The seeded visiting order of one run: a fixed permutation of the
/// models (round-robin), and per model a starting slot in the pool.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub steps: u64,
    pub order: Vec<&'static str>,
    offsets: Vec<u64>,
    visits: Vec<u64>,
    cursor: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, steps: u64, models: &[&'static str]) -> Plan {
        let mut rng = Rng::new(seed);
        let mut order = models.to_vec();
        for i in (1..order.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let offsets = order.iter().map(|_| rng.below(workload.pool())).collect();
        let visits = vec![0; order.len()];
        Plan {
            workload,
            steps,
            order,
            offsets,
            visits,
            cursor: 0,
        }
    }

    /// The next op of the round-robin walk: the next model in order, and
    /// that model's next stimulus. A model's first `pool` visits walk the
    /// pool from its offset; later visits take slot `visit`, past the
    /// pool, so no two visits share a stimulus.
    pub fn next(&mut self) -> OpInput {
        let i = self.cursor % self.order.len();
        self.cursor += 1;
        let (pool, visit) = (self.workload.pool(), self.visits[i]);
        let slot = if visit < pool {
            (self.offsets[i] + visit) % pool
        } else {
            visit
        };
        self.visits[i] += 1;
        OpInput {
            model: self.order[i],
            stim: self.workload.stim_base() + slot,
            steps: self.steps,
        }
    }

    /// The next `rounds` whole rounds (every model `rounds` times).
    pub fn rounds(&mut self, rounds: usize) -> Vec<OpInput> {
        (0..rounds * self.order.len())
            .map(|_| self.next())
            .collect()
    }

    /// Every input the full pool can produce at `steps` (what the
    /// committed reference table must hold).
    pub fn pool_inputs(workload: Workload) -> Vec<OpInput> {
        let mut out = Vec::new();
        for model in model_names() {
            for k in 0..workload.pool() {
                out.push(OpInput {
                    model,
                    stim: workload.stim_base() + k,
                    steps: workload.steps(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_input_repeats_within_a_plan() {
        for w in Workload::ALL {
            let mut plan = Plan::new(w, 7, w.steps(), &model_names());
            let inputs = plan.rounds(2 * w.pool() as usize);
            let distinct: std::collections::BTreeSet<&OpInput> = inputs.iter().collect();
            assert_eq!(distinct.len(), inputs.len(), "{}", w.name());
        }
    }

    #[test]
    fn every_pool_input_has_a_committed_reference() {
        let refs = crate::refs::Refs::committed();
        for w in Workload::ALL {
            for input in Plan::pool_inputs(w) {
                assert!(refs.get(&input).is_some(), "{input:?}");
            }
        }
    }
}
