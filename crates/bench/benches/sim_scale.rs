//! **Simulator scalability** — resources vs wall clock under the
//! timer-wheel scheduler, out to 10⁵ resources.
//!
//! The tentpole claim of the event-driven engine is that *idle resources
//! cost nothing*: after a grid's votes settle, the wheel skips empty
//! timestamps outright, while the dense schedule (`Simulation::run`, the
//! differential oracle) still arms all `n` resources every step. This
//! bench pins that down with a Figure-3-style
//! workload (the paper's "special case of a single itemset"): every
//! resource holds the same small decisive database, so each local vote
//! agrees with the global majority and the protocol quiesces right after
//! the first candidate cycle.
//!
//! Each run is timed in two phases — a short *bootstrap* window covering
//! the initial scans and the first candidate cycles (one-time, linear in
//! `n`), and a long *steady* window where the grid is idle. The
//! steady-state cost per resource-step is the scalability claim: it must
//! stay flat (or fall) from 10³ to 10⁵ resources. For the smaller grids
//! the dense schedule is also timed as a baseline, giving the
//! wheel-vs-tick speedup column.
//!
//! Results land in `BENCH_sim.json` at the repo root for CI to archive
//! next to `BENCH_crypto.json` / `BENCH_wire.json` /
//! `BENCH_throughput.json`.

use std::time::Instant;

use gridmine_arm::{Database, Item, Ratio, Transaction};
use gridmine_bench::hr;
use gridmine_paillier::MockCipher;
use gridmine_sim::{SimConfig, SimSession, Simulation};

/// Transactions per resource — well under one scan budget, so every
/// resource finishes scanning in the first step.
const LOCAL_DB: u64 = 8;
/// Steps that absorb the initial scans and first candidate cycles.
const BOOTSTRAP_STEPS: u64 = 10;
/// Idle steps that follow — the steady-state window.
const STEADY_STEPS: u64 = 110;
/// Largest grid the tick baseline is asked to survive.
const TICK_CEILING: usize = 10_000;

/// Identically-distributed decisive databases over a single itemset —
/// the paper's Figure 3 regime ("the special case of a single itemset").
/// 75 % of transactions carry the item, so every local vote agrees with
/// the global majority and the protocol settles after first contact.
fn workload(n: usize) -> Vec<Database> {
    (0..n as u64)
        .map(|u| {
            Database::from_transactions(
                (0..LOCAL_DB)
                    .map(|j| {
                        let id = u * LOCAL_DB + j;
                        if j % 4 == 0 {
                            Transaction::of(id, &[])
                        } else {
                            Transaction::of(id, &[1])
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn build(n: usize) -> Simulation<MockCipher> {
    let mut cfg = SimConfig::small().with_resources(n).with_k(1).with_seed(0x5CA1E);
    cfg.growth_per_step = 0;
    cfg.min_freq = Ratio::new(1, 2);
    cfg.min_conf = Ratio::new(1, 2);
    // The ±1 obfuscation stream multiplies counter traffic by a constant
    // factor; this bench isolates scheduler scalability, so it is off.
    cfg.obfuscate = false;
    SimSession::new(cfg)
        .with_databases(workload(n))
        .with_items(&[Item(1)])
        .with_steps(BOOTSTRAP_STEPS + STEADY_STEPS)
        .build()
}

#[derive(serde::Serialize)]
struct Row {
    resources: usize,
    build_ms: f64,
    /// First `BOOTSTRAP_STEPS` steps: initial scans + candidate cycles.
    bootstrap_ms: f64,
    bootstrap_us_per_resource: f64,
    /// Remaining `STEADY_STEPS` steps: the grid is idle.
    steady_ms: f64,
    steady_ns_per_resource_step: f64,
    msgs: u64,
    /// The dense schedule over the same total steps (omitted above the
    /// ceiling — it would dominate the bench's wall-clock budget).
    tick_run_ms: Option<f64>,
    speedup_vs_tick: Option<f64>,
}

#[derive(serde::Serialize)]
struct Report {
    local_db: u64,
    bootstrap_steps: u64,
    steady_steps: u64,
    rows: Vec<Row>,
    /// Steady-state cost per resource-step at the largest grid divided by
    /// the smallest — ≤ 1 means idle resources are free, the tentpole
    /// scalability claim.
    steady_cost_ratio_max_vs_min: f64,
}

fn main() {
    hr("Simulator scalability: resources vs wall clock (timer wheel)");
    println!(
        "{LOCAL_DB} transactions per resource; {BOOTSTRAP_STEPS} bootstrap + \
         {STEADY_STEPS} idle steps"
    );

    let sweep = [1_000usize, 10_000, 100_000];
    let mut rows = Vec::new();
    for n in sweep {
        let t0 = Instant::now();
        let mut sim = build(n);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        sim.run_event_driven(BOOTSTRAP_STEPS);
        let bootstrap_ms = t1.elapsed().as_secs_f64() * 1e3;
        let t2 = Instant::now();
        sim.run_event_driven(STEADY_STEPS);
        let steady_ms = t2.elapsed().as_secs_f64() * 1e3;
        let msgs = sim.total_msgs;

        let wheel_total = bootstrap_ms + steady_ms;
        let tick_run_ms = (n <= TICK_CEILING).then(|| {
            let mut tick = build(n);
            let t3 = Instant::now();
            tick.run(BOOTSTRAP_STEPS + STEADY_STEPS);
            assert_eq!(tick.total_msgs, msgs, "wheel and tick runs must agree");
            t3.elapsed().as_secs_f64() * 1e3
        });

        let row = Row {
            resources: n,
            build_ms,
            bootstrap_ms,
            bootstrap_us_per_resource: bootstrap_ms * 1e3 / n as f64,
            steady_ms,
            steady_ns_per_resource_step: steady_ms * 1e6 / (n as f64 * STEADY_STEPS as f64),
            msgs,
            tick_run_ms,
            speedup_vs_tick: tick_run_ms.map(|t| t / wheel_total),
        };
        println!(
            "n = {:>7}: build {:>7.1} ms, bootstrap {:>7.1} ms ({:>5.1} us/resource), \
             steady {:>6.1} ms ({:>6.2} ns/resource/step), tick {}",
            row.resources,
            row.build_ms,
            row.bootstrap_ms,
            row.bootstrap_us_per_resource,
            row.steady_ms,
            row.steady_ns_per_resource_step,
            row.tick_run_ms.map_or("— (skipped)".into(), |t| format!("{t:.1} ms")),
        );
        rows.push(row);
    }

    // Sub-millisecond steady windows round to ~0; clamp the denominator so
    // the ratio stays meaningful.
    let floor = 0.01;
    let ratio = rows.last().map_or(0.0, |last| {
        last.steady_ns_per_resource_step.max(floor) / rows[0].steady_ns_per_resource_step.max(floor)
    });
    println!("\nsteady-state cost per resource-step, 10^5 vs 10^3 resources: {ratio:.3}x");
    println!("(<= 1 means idle resources are free under the wheel)");

    let report = Report {
        local_db: LOCAL_DB,
        bootstrap_steps: BOOTSTRAP_STEPS,
        steady_steps: STEADY_STEPS,
        rows,
        steady_cost_ratio_max_vs_min: ratio,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let body = serde_json::to_string_pretty(&report).expect("serialize sim-scale report");
    std::fs::write(path, body + "\n").expect("write BENCH_sim.json");
    println!("\n[written: {path}]");
}
