//! The five workloads: what each one feeds the grid, how one session of
//! it runs, and how its outputs are checked.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gridmine::arm::{precision, recall};
use gridmine::net::NetSession;
use gridmine::prelude::*;
use gridmine::recovery::RecoveryPolicy;
use gridmine::secure::session::DEFAULT_PAILLIER_BITS;
use gridmine::sim::{split_growth, GrowthPlan};

pub const DEFAULT_SEED: u64 = 42;

/// The Quest generator seed, the one the repo's other benches use. It is
/// fixed, not taken from `--seed`: the generator draws its pattern table
/// from it, and other pattern tables are other problems (on T10I4 the
/// truth runs from 280 rules to 18 000 and the session from 0.6 s to 8 s,
/// some too deep to converge in the workload's rounds). `--seed` drives
/// everything random about the grid instead: which transactions each
/// resource holds, key material, shares and blinding, topology and delays.
pub const QUEST_SEED: u64 = 42;

/// Which driver runs the session, and over which cipher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    ThreadedMock,
    ThreadedPaillier,
    NetMock,
    NetCheckpoint,
    Sim,
}

impl Driver {
    pub fn is_net(self) -> bool {
        matches!(self, Driver::NetMock | Driver::NetCheckpoint)
    }
}

/// The Quest preset a workload starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    T5I2,
    T10I4,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload loads and which it leaves idle.
    pub why: &'static str,
    pub driver: Driver,
    pub shape: Shape,
    pub transactions: usize,
    pub items: u32,
    pub patterns: usize,
    pub min_freq: f64,
    pub resources: usize,
    /// Protocol rounds; simulation steps on `sim_grid_50`.
    pub rounds: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "threaded_mock_t10i4",
        why: "mock cipher, channels, no disk: the core broker/controller algebra and majority/arm candidate work carry the session",
        driver: Driver::ThreadedMock,
        shape: Shape::T10I4,
        transactions: 2000,
        items: 300,
        patterns: 100,
        min_freq: 0.065,
        resources: 4,
        rounds: 6,
    },
    Workload {
        name: "threaded_paillier_small",
        why: "512-bit Paillier on a small input: nearly all time is in paillier, the num-bigint kernels and the rayon pool, idle everywhere else",
        driver: Driver::ThreadedPaillier,
        shape: Shape::T5I2,
        transactions: 160,
        items: 4,
        patterns: 6,
        min_freq: 0.4,
        resources: 4,
        rounds: 4,
    },
    Workload {
        name: "net_mock_t5i2",
        why: "four gridmine-node processes over loopback: same counter traffic as a threaded run, so codec, framing, syscalls and the hub relay dominate",
        driver: Driver::NetMock,
        shape: Shape::T5I2,
        transactions: 2000,
        items: 60,
        patterns: 25,
        min_freq: 0.05,
        resources: 4,
        rounds: 6,
    },
    Workload {
        name: "net_ckpt_t5i2",
        why: "net_mock_t5i2 plus a checkpoint every round to a real directory: adds recovery image encoding and fsynced atomic writes to the same net and core path",
        driver: Driver::NetCheckpoint,
        shape: Shape::T5I2,
        transactions: 2000,
        items: 60,
        patterns: 25,
        min_freq: 0.05,
        resources: 4,
        rounds: 6,
    },
    Workload {
        name: "sim_grid_50",
        why: "50 simulated resources on a BA overlay with delays and growing databases: the sim engine, timer wheel and topology carry it; seed-deterministic counts",
        driver: Driver::Sim,
        shape: Shape::T5I2,
        transactions: 5000,
        items: 8,
        patterns: 4,
        min_freq: 0.3,
        resources: 50,
        rounds: 60,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The simulated grid's seed: overlay, link delays and per-resource
/// randomness. Fixed for the same reason as `QUEST_SEED`: with 100
/// transactions per resource, another overlay is another problem (message
/// counts move by 8 % from seed to seed). `--seed` still decides which
/// transactions each resource holds and the key material.
pub const SIM_GRID_SEED: u64 = 42;

/// Steps between candidate-generation cycles and between convergence
/// samples on the sim workload.
pub const SIM_CANDIDATE_EVERY: u64 = 5;
/// Share of each simulated partition held back as its growth stream.
const SIM_GROWTH_FRACTION: f64 = 0.2;

impl Workload {
    /// The same driver on an input small enough that a session takes well
    /// under a second: the Paillier workload's input (19 rules, converged
    /// in four rounds) for the mock drivers, less under Paillier itself.
    pub fn smoke(mut self) -> Workload {
        self.shape = Shape::T5I2;
        match self.driver {
            Driver::Sim => {
                self.transactions = 400;
                self.resources = 8;
                self.rounds = 20;
            }
            Driver::ThreadedPaillier => {
                // Cost follows candidates, not transactions: a threshold
                // only the most common items pass leaves a handful.
                self.transactions = 40;
                self.min_freq = 0.95;
                self.rounds = 2;
            }
            _ => {
                self.transactions = 160;
                self.items = 4;
                self.patterns = 6;
                self.min_freq = 0.4;
                self.rounds = 4;
            }
        }
        self
    }

    pub fn quest(&self) -> QuestParams {
        let base = match self.shape {
            Shape::T5I2 => QuestParams::t5i2(),
            Shape::T10I4 => QuestParams::t10i4(),
        };
        base.with_transactions(self.transactions)
            .with_items(self.items)
            .with_patterns(self.patterns)
            .with_seed(QUEST_SEED)
    }

    pub fn mine_config(&self, seed: u64) -> MineConfig {
        let mut cfg = MineConfig::new(Ratio::from_f64(self.min_freq), Ratio::from_f64(0.5));
        cfg.rounds = self.rounds;
        cfg.seed = seed;
        cfg
    }

    pub fn sim_config(&self) -> SimConfig {
        let mut cfg =
            SimConfig::small().with_resources(self.resources).with_k(4).with_seed(SIM_GRID_SEED);
        cfg.scan_budget = 50;
        cfg.candidate_every = SIM_CANDIDATE_EVERY;
        cfg.growth_per_step = 2;
        cfg.min_freq = Ratio::from_f64(self.min_freq);
        cfg.min_conf = Ratio::from_f64(0.5);
        cfg.obfuscate = false;
        cfg
    }

    pub fn apriori(&self) -> AprioriConfig {
        AprioriConfig::new(Ratio::from_f64(self.min_freq), Ratio::from_f64(0.5))
    }

    pub fn partition(&self, global: &Database, seed: u64) -> Partitions {
        match self.driver {
            Driver::Sim => Partitions::Growing(split_growth(
                global,
                self.resources,
                SIM_GROWTH_FRACTION,
                seed ^ 0xF00D,
            )),
            _ => Partitions::Static(gridmine::quest::partition(global, self.resources, seed ^ 7)),
        }
    }
}

/// What set-up hands each resource: a fixed partition, or on the sim
/// workload an initial partition plus the stream it grows by.
#[derive(Clone)]
pub enum Partitions {
    Static(Vec<Database>),
    Growing(Vec<GrowthPlan>),
}

/// Everything a session needs that does not change between sessions.
pub struct Inputs {
    pub seed: u64,
    pub global: Database,
    pub parts: Partitions,
    /// `correct_rules` on the union database.
    pub truth: RuleSet,
    /// Net workloads only.
    pub node_bin: Option<PathBuf>,
    /// Net checkpoint workload only: where node state is persisted.
    pub state_dir: Option<PathBuf>,
}

impl Inputs {
    pub fn dbs(&self) -> &[Database] {
        match &self.parts {
            Partitions::Static(dbs) => dbs,
            Partitions::Growing(_) => &[],
        }
    }
}

/// Wall time of each set-up stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    pub keygen_s: f64,
    pub truth_s: f64,
    pub lookup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.partition_s + self.keygen_s + self.truth_s + self.lookup_s
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

/// The command that builds the node binary the net workloads spawn, with
/// the `CARGO_TARGET_DIR` gridbench itself was built into.
pub const NODE_BUILD_COMMAND: &str = "cargo build --release --manifest-path crates/bench/src/bin/gridbench/Cargo.toml -p gridmine-net --bin gridmine-node";

/// One `cargo build` links the node binary before gridbench, by up to a
/// minute on the reference box; a node binary older than this was built
/// in another sitting, maybe from other sources.
const NODE_STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(300);

/// Finds `gridmine-node` next to this executable (or one directory up,
/// where cargo puts binaries relative to a test executable).
pub fn find_node_binary() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate gridbench itself: {e}"))?;
    let dirs: Vec<&Path> = exe.ancestors().skip(1).take(2).collect();
    for dir in &dirs {
        let candidate = dir.join("gridmine-node");
        if candidate.is_file() {
            let age = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
            if let (Some(node), Some(bench)) = (age(&candidate), age(&exe)) {
                static WARNED: std::sync::Once = std::sync::Once::new();
                if bench.duration_since(node).is_ok_and(|by| by > NODE_STALE_AFTER) {
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: {} is minutes older than gridbench; rebuild it with `{NODE_BUILD_COMMAND}`",
                            candidate.display()
                        )
                    });
                }
            }
            return Ok(candidate);
        }
    }
    Err(format!(
        "gridmine-node not found in {}; build it into the same target directory with `{NODE_BUILD_COMMAND}`",
        dirs[0].display()
    ))
}

/// One full set-up: Quest generate, partition, key generation,
/// centralized-truth Apriori and node-binary lookup, each timed.
pub fn setup(w: &Workload, seed: u64, scratch: &Path) -> Result<(Inputs, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let global = timed(&mut t.generate_s, || gridmine::quest::generate(&w.quest()));
    let parts = timed(&mut t.partition_s, || w.partition(&global, seed));
    if w.driver == Driver::ThreadedPaillier {
        // Sessions generate their own copy (see `run_session`); this one
        // only puts the cost on the set-up bill.
        timed(&mut t.keygen_s, || {
            std::hint::black_box(GridKeys::paillier(DEFAULT_PAILLIER_BITS, seed));
        });
    }
    let truth = timed(&mut t.truth_s, || correct_rules(&global, &w.apriori()));
    let node_bin = timed(&mut t.lookup_s, || {
        if w.driver.is_net() {
            find_node_binary().map(Some)
        } else {
            Ok(None)
        }
    })?;
    let state_dir =
        (w.driver == Driver::NetCheckpoint).then(|| scratch.join(format!("{}-state", w.name)));
    Ok((Inputs { seed, global, parts, truth, node_bin, state_dir }, t))
}

/// What one session produced, with the time it took.
pub struct SessionResult {
    pub wall_s: f64,
    pub messages: u64,
    pub solutions: Vec<RuleSet>,
    pub honest: bool,
    /// Minimum over resources, against the truth on the union database
    /// (on the sim workload: global recall and precision against the
    /// truth on the database as grown by the end of the run).
    pub recall_min: f64,
    pub precision_min: f64,
}

fn of_outcome(wall_s: f64, outcome: MiningOutcome, truth: &RuleSet) -> SessionResult {
    let honest = outcome.verdicts.is_empty() && outcome.statuses.iter().all(|s| s.is_ok());
    let fold = |f: fn(&RuleSet, &RuleSet) -> f64| {
        outcome.solutions.iter().map(|s| f(s, truth)).fold(1.0, f64::min)
    };
    SessionResult {
        wall_s,
        messages: outcome.messages,
        honest,
        recall_min: fold(recall),
        precision_min: fold(precision),
        solutions: outcome.solutions,
    }
}

/// The sim workload's session, ready to build.
pub fn sim_session(w: &Workload, inputs: &Inputs, rec: SharedRecorder) -> SimSession<MockCipher> {
    let plans = match &inputs.parts {
        Partitions::Growing(plans) => plans.clone(),
        Partitions::Static(dbs) => dbs.iter().cloned().map(GrowthPlan::fixed).collect(),
    };
    SimSession::over(w.sim_config(), GridKeys::mock(inputs.seed))
        .with_workload(plans)
        .with_items(&inputs.global.item_domain())
        .with_steps(w.rounds as u64)
        .with_recorder(rec)
}

/// Runs one session of `w` and times the driver call alone. `rec` is the
/// null recorder on timed sessions.
pub fn run_session(
    w: &Workload,
    inputs: &Inputs,
    rec: SharedRecorder,
) -> Result<SessionResult, String> {
    let cfg = w.mine_config(inputs.seed);
    match w.driver {
        Driver::ThreadedMock => {
            let session =
                MineSession::new(cfg).with_databases(inputs.dbs().to_vec()).with_recorder(rec);
            let t = Instant::now();
            let outcome = session.try_run_threaded().map_err(|e| e.to_string())?;
            Ok(of_outcome(t.elapsed().as_secs_f64(), outcome, &inputs.truth))
        }
        Driver::ThreadedPaillier => {
            // Fresh key material per session, generated off the clock: a
            // cloned handle would share its noise pool and fixed-base
            // table with the previous session and make every session
            // after the first cheaper than a user's single one.
            let keys = GridKeys::paillier(DEFAULT_PAILLIER_BITS, inputs.seed);
            let session = MineSession::over(cfg, keys)
                .with_databases(inputs.dbs().to_vec())
                .with_recorder(rec);
            let t = Instant::now();
            let outcome = session.try_run_threaded().map_err(|e| e.to_string())?;
            Ok(of_outcome(t.elapsed().as_secs_f64(), outcome, &inputs.truth))
        }
        Driver::NetMock | Driver::NetCheckpoint => {
            let bin = inputs.node_bin.as_ref().ok_or("net workload without a node binary")?;
            let mut session = NetSession::<MockCipher>::new(cfg)
                .with_databases(inputs.dbs().to_vec())
                .with_node_binary(bin)
                .with_recorder(rec);
            if let Some(dir) = &inputs.state_dir {
                let policy = RecoveryPolicy::DEFAULT.with_checkpoint_every(1);
                session =
                    session.with_recovery(RecoveryMode::Checkpoint(policy)).with_state_dir(dir);
            }
            let t = Instant::now();
            let outcome = session.try_run().map_err(|e| e.to_string())?;
            Ok(of_outcome(t.elapsed().as_secs_f64(), outcome, &inputs.truth))
        }
        Driver::Sim => {
            let session = sim_session(w, inputs, rec);
            let t = Instant::now();
            let mut sim = session.try_build().map_err(|e| e.to_string())?;
            sim.run_event_driven(w.rounds as u64);
            sim.refresh_outputs();
            let wall_s = t.elapsed().as_secs_f64();
            let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
            let (recall_min, precision_min) = sim.global_recall_precision(&truth);
            Ok(SessionResult {
                wall_s,
                messages: sim.total_msgs,
                solutions: sim.solutions(),
                honest: sim.verdicts.is_empty() && sim.statuses().iter().all(|s| s.is_ok()),
                recall_min,
                precision_min,
            })
        }
    }
}

/// What a session's outputs are held to. `reference` is an earlier
/// session of the same workload on the same inputs (on the net workloads,
/// a threaded session).
pub fn gate(
    w: &Workload,
    inputs: &Inputs,
    got: &SessionResult,
    reference: Option<&SessionResult>,
) -> Vec<String> {
    let mut misses = Vec::new();
    if !got.honest {
        misses.push("a verdict or a non-Ok status on an honest grid".to_string());
    }
    if w.driver == Driver::Sim {
        // Approximate by design (k = 4, growing data), but deterministic:
        // a repeat must reproduce the message count and every solution.
        if let Some(r) = reference {
            if got.messages != r.messages {
                misses.push(format!("sim.msgs {} differs from {}", got.messages, r.messages));
            }
            if got.solutions != r.solutions {
                misses.push("solutions differ between repeats of one seed".to_string());
            }
        }
        return misses;
    }
    for (u, sol) in got.solutions.iter().enumerate() {
        if sol != &inputs.truth {
            misses.push(format!(
                "resource {u} ended with {} rules, the centralized truth has {}",
                sol.len(),
                inputs.truth.len()
            ));
        }
    }
    if let (true, Some(r)) = (w.driver.is_net(), reference) {
        if got.solutions != r.solutions {
            misses.push("net solutions differ from a threaded run on the same input".to_string());
        }
    }
    misses
}

/// The threaded session a net workload's solutions must equal.
pub fn threaded_reference(w: &Workload, inputs: &Inputs) -> Result<SessionResult, String> {
    let threaded = Workload { driver: Driver::ThreadedMock, ..*w };
    run_session(&threaded, inputs, gridmine::obs::null())
}
