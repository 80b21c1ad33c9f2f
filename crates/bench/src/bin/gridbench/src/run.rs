//! The end-to-end pass: set up, warm up, run sessions back to back for
//! the run's length with the null recorder, hold every one to the output
//! gate, and summarise.
//!
//! Times are reported at the reference speed. The reference box is a
//! 2-vCPU guest whose speed moves by a third for tens of seconds at a
//! time with what its host is doing, so wall time alone says as much about
//! the minute a run was made in as about the code. Around every session
//! the pass times a fixed kernel of its own and divides the session's
//! wall time by how slow the kernel ran; the wall times and the slowdowns
//! are reported next to the metrics.

use std::path::Path;
use std::time::Instant;

use crate::json::{obj, text, Value};
use crate::stats::{Better, Bound, Summary};
use crate::trace::{trace_workload, TraceOutput, PER_LAYER};
use crate::workloads::{gate, run_session, setup, threaded_reference, Driver, Workload};

/// One end-to-end metric: the same name and bounds on every workload.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// What `gridbench compare` holds two result files of one seed to.
    pub bound: Bound,
    /// What `BENCHMARK.json` declares: the driver compares medians over
    /// ten seeds taken at different times, so this one has to cover the
    /// seed-to-seed and hour-to-hour spread of the machine as well (at
    /// reference speed, 3 to 8 % on the time metrics of the reference box,
    /// 16 % once).
    pub across_seeds: f64,
    /// A count the seed-deterministic sim workload must repeat exactly.
    pub exact_on_sim: bool,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: Better,
    (rel, abs_floor): (f64, f64),
    across_seeds: f64,
    exact_on_sim: bool,
) -> MetricSpec {
    let bound = Bound { better, rel, abs_floor, exact: false };
    MetricSpec { name, unit, bound, across_seeds, exact_on_sim }
}

/// The end-to-end metrics, in the order they print.
pub const END_TO_END: [MetricSpec; 6] = [
    spec("session_s", "s", Better::Lower, (0.10, 0.0), 0.25, false),
    spec("counters_per_s", "1/s", Better::Higher, (0.10, 0.0), 0.25, false),
    spec("msgs_per_resource", "count", Better::Lower, (0.02, 0.0), 0.25, true),
    spec("recall_min", "share", Better::Higher, (0.0, 0.0), 0.02, false),
    spec("precision_min", "share", Better::Higher, (0.0, 0.0), 0.02, false),
    spec("setup_s", "s", Better::Lower, (0.10, 0.005), 0.25, false),
];

/// Per-layer counts `compare` holds to exact equality on the sim workload.
pub const EXACT_SIM_COUNTS: [&str; 2] = ["sim.msgs", "sim.steps_to_90_recall"];

/// `setup_s` is the median of repeated full set-ups: after each timed
/// session the pass sets up again for this share of the time the session
/// took, each repeat corrected by the speed reading taken just before it.
/// A set-up is milliseconds, so the repeats are many, and spreading them
/// over the run keeps them from all landing in one spell of the machine.
/// The first set-up is the run's own, at `--seed`; the others set up
/// sibling grids at the seeds after it, so the median prices the
/// workload's set-up and not one seed's luck in the Paillier prime search.
const SETUP_SHARE: f64 = 0.05;

/// Work in one reading of the reference kernel, and the time it takes at
/// the reference speed: half of it in each part.
const KERNEL_CHAIN_STEPS: u64 = 2_500_000;
const KERNEL_PRODUCTS: u64 = 6_500;
const KERNEL_NOMINAL_S: f64 = 0.010;

/// Benchmark-owned work whose time says how fast the machine is right
/// now; no change to the code under test can move it. Half is one chain
/// of dependent multiplies, bound by latency, which follows the core
/// clock alone. Half is schoolbook products of 32-limb numbers,
/// independent multiply-adds bound by throughput, which also slows when
/// something else uses the core's execution units. Session code is a mix
/// of the two kinds: corrected by either half alone, one workload or
/// another spread wider than uncorrected.
fn reference_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..std::hint::black_box(KERNEL_CHAIN_STEPS) {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
    }
    let mut a = [x; 32];
    let mut out = [0u64; 64];
    for pass in 0..std::hint::black_box(KERNEL_PRODUCTS) {
        a[(pass % 32) as usize] ^= pass;
        out.fill(0);
        for i in 0..32 {
            let mut carry = 0u128;
            for j in 0..32 {
                let t = u128::from(a[i]) * u128::from(a[j]) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 32] = carry as u64;
        }
        a[((pass + 7) % 32) as usize] = out[40];
    }
    out[33]
}

/// How slow the machine is at this moment: the time the reference kernel
/// takes on every CPU at once (best of three readings on each, then the
/// mean over CPUs) over its nominal time.
fn slowdown() -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let best = || {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(reference_kernel());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let total: f64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..cpus).map(|_| s.spawn(best)).collect();
        readers.into_iter().map(|r| r.join().expect("the kernel does not panic")).sum()
    });
    total / cpus as f64 / KERNEL_NOMINAL_S
}

pub struct Pass {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub misses: Vec<String>,
    /// `(name, unit, summary)`, one per metric of the pass.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Readings behind the metrics, printed and written but not bounded.
    pub raw: Vec<(&'static str, &'static str, Summary)>,
}

impl Pass {
    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                (name.to_string(), obj([("value", Value::F64(s.median)), ("unit", text(unit))]))
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// Metrics with their sample statistics, for `--out`.
    pub fn detailed(metrics: &[(&'static str, &'static str, Summary)]) -> Value {
        Value::Object(
            metrics
                .iter()
                .map(|(name, unit, s)| {
                    let detail = obj([
                        ("value", Value::F64(s.median)),
                        ("unit", text(unit)),
                        ("n", Value::U64(s.n as u64)),
                        ("min", Value::F64(s.min)),
                        ("max", Value::F64(s.max)),
                        ("q1", Value::F64(s.q1)),
                        ("q3", Value::F64(s.q3)),
                    ]);
                    (name.to_string(), detail)
                })
                .collect(),
        )
    }
}

/// How a pass is sized: a full run measures for `seconds` after one
/// warm-up session; a smoke run is one tiny session and one set-up.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub seconds: f64,
    pub smoke: bool,
}

pub fn end_to_end(w: &Workload, seed: u64, sizing: Sizing, scratch: &Path) -> Result<Pass, String> {
    // A smoke run checks the path, not the clock: it skips the readings.
    let reading = || if sizing.smoke { 1.0 } else { slowdown() };
    let (inputs, first) = setup(w, seed, scratch)?;
    let mut setups = vec![first.total_s() / reading()];

    let mut misses = Vec::new();
    // What every timed session is compared with: a threaded run on the
    // net workloads, the warm-up itself on the deterministic sim.
    let mut reference =
        if w.driver.is_net() { Some(threaded_reference(w, &inputs)?) } else { None };
    if !sizing.smoke {
        let warm = run_session(w, &inputs, gridmine::obs::null())?;
        misses.extend(
            gate(w, &inputs, &warm, reference.as_ref())
                .into_iter()
                .map(|m| format!("warm-up: {m}")),
        );
        if w.driver == Driver::Sim {
            reference = Some(warm);
        }
    }

    let (mut session_s, mut per_s, mut per_resource) = (Vec::new(), Vec::new(), Vec::new());
    let (mut recall, mut precision) = (Vec::new(), Vec::new());
    let (mut wall_s, mut slowdowns) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut slow = reading();
    let t0 = Instant::now();
    while attempted == 0 || (!sizing.smoke && t0.elapsed().as_secs_f64() < sizing.seconds) {
        attempted += 1;
        match run_session(w, &inputs, gridmine::obs::null()) {
            Ok(got) => {
                let missed = gate(w, &inputs, &got, reference.as_ref());
                failed += u64::from(!missed.is_empty());
                misses.extend(missed.into_iter().map(|m| format!("session {attempted}: {m}")));
                // The machine's speed around the session: the reading
                // before it and the one after.
                let after = reading();
                let around = (slow + after) / 2.0;
                slow = after;
                let session = got.wall_s / around;
                wall_s.push(got.wall_s);
                slowdowns.push(around);
                session_s.push(session);
                per_s.push(got.messages as f64 / session);
                per_resource.push(got.messages as f64 / w.resources as f64);
                recall.push(got.recall_min);
                precision.push(got.precision_min);
                let slice_s = got.wall_s * SETUP_SHARE;
                if w.driver == Driver::Sim && reference.is_none() {
                    reference = Some(got);
                }
                let again = Instant::now();
                while !sizing.smoke && again.elapsed().as_secs_f64() < slice_s {
                    let sibling = seed.wrapping_add(setups.len() as u64);
                    setups.push(setup(w, sibling, scratch)?.1.total_s() / slow);
                }
            }
            Err(e) => {
                failed += 1;
                misses.push(format!("session {attempted}: {e}"));
            }
        }
    }
    if session_s.is_empty() {
        return Err(format!("no session of {} completed: {}", w.name, misses.join("; ")));
    }

    let samples: [(&str, Vec<f64>); 6] = [
        ("session_s", session_s),
        ("counters_per_s", per_s),
        ("msgs_per_resource", per_resource),
        ("recall_min", recall),
        ("precision_min", precision),
        ("setup_s", setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(m, (name, xs))| {
            assert_eq!(m.name, *name, "samples are listed in END_TO_END's order");
            (m.name, m.unit, Summary::of(xs))
        })
        .collect();
    let raw = vec![
        ("session_wall_s", "s", Summary::of(&wall_s)),
        ("machine_slowdown", "x", Summary::of(&slowdowns)),
    ];
    Ok(Pass { correct: failed == 0 && misses.is_empty(), attempted, failed, misses, metrics, raw })
}

/// The traced pass as a `Pass`: one traced session attempted, every
/// per-layer metric a single reading.
pub fn traced(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    spans_out: Option<&Path>,
) -> Result<Pass, String> {
    let TraceOutput { values, misses, tracer } = trace_workload(w, seed, scratch)?;
    if let Some(path) = spans_out {
        std::fs::write(path, tracer.lock().to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let metrics = PER_LAYER
        .iter()
        .zip(&values)
        .map(|((name, unit), (_, v))| (*name, *unit, Summary::of(&[*v])))
        .collect();
    Ok(Pass {
        correct: misses.is_empty(),
        attempted: 1,
        failed: u64::from(!misses.is_empty()),
        misses,
        metrics,
        raw: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_reference_kernel_gives_a_usable_reading() {
        let s = super::slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
