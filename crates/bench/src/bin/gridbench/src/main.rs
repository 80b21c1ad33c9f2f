//! gridbench: one end-to-end benchmark for a gridmine mining session.
//!
//! `gridbench run` measures five workloads, each a closed loop of whole
//! sessions on one load-generating thread, and prints every end-to-end
//! metric by name; a separate traced pass drives the grid from outside to
//! say where the time goes. `gridbench compare` holds one result file to
//! another by each metric's bound. See README.md next to this package.

mod compare;
mod json;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::{get, obj, text, Value};
use run::{Pass, Sizing};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Seconds one end-to-end pass measures for; `BENCHMARK.json` passes the
/// same number as `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Where this package sits in the repository.
const BENCH_DIR: &str = "crates/bench/src/bin/gridbench";

const USAGE: &str = "\
usage: gridbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F] [--spans F] [--smoke]
       gridbench compare BASE.json NEW.json
       gridbench manifest

run      measures every workload (or W): an end-to-end pass, then a traced pass.
         With --trace, runs that one pass of W in this process and ends with the
         one-line JSON result the benchmark contract asks for.
compare  judges NEW against BASE by each metric's bound; exits 1 on a regression.
manifest prints BENCHMARK.json: the command, workloads and metrics as this binary has them.";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        spans: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace runs one pass of one workload: add --workload".to_string());
    }
    Ok(a)
}

/// A directory for node state, hub work directories and pass results,
/// next to the executable and so inside the build directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("gridbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// What `program args` prints, or "unknown" where it cannot run.
fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &RunArgs) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("git_rev", text(&output_of("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(&output_of("rustc", &["--version"]))),
        ("nproc", Value::U64(nproc as u64)),
        ("pool_threads", Value::U64(rayon::current_num_threads() as u64)),
        ("seed", Value::U64(a.seed)),
        ("seconds", Value::F64(a.seconds)),
        ("smoke", Value::Bool(a.smoke)),
    ])
}

/// `BENCHMARK.json`, from the tables the passes themselves print from.
fn manifest() -> Value {
    let end_to_end = run::END_TO_END.iter().map(|m| {
        obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.bound.better.name())),
            ("bound", Value::F64(m.across_seeds)),
        ])
    });
    let per_layer = trace::PER_LAYER.iter().map(|(name, unit)| {
        obj([
            ("name", text(name)),
            ("unit", text(unit)),
            ("better", text(trace::better(name).name())),
        ])
    });
    let workloads = WORKLOADS.iter().map(|w| obj([("name", text(w.name)), ("why", text(w.why))]));
    obj([
        ("command", Value::Array(vec![text("bash"), text(&format!("{BENCH_DIR}/bench.sh"))])),
        ("paths", Value::Array(vec![text(BENCH_DIR)])),
        ("run_seconds", Value::U64(DEFAULT_SECONDS as u64)),
        ("workloads", Value::Array(workloads.collect())),
        ("end_to_end", Value::Array(end_to_end.collect())),
        ("per_layer", Value::Array(per_layer.collect())),
    ])
}

fn print_pass(w: &Workload, title: &str, pass: &Pass) {
    println!("== {} · {title} ==", w.name);
    println!("  why: {}", w.why);
    for (name, unit, s) in pass.metrics.iter().chain(&pass.raw) {
        if s.n > 1 {
            println!(
                "  {name:<32} {:>16.6} {unit:<6} n={} min={:.6} max={:.6}",
                s.median, s.n, s.min, s.max
            );
        } else {
            println!("  {name:<32} {:>16.6} {unit}", s.median);
        }
    }
    println!(
        "  sessions attempted {} failed {} · output gate {}",
        pass.attempted,
        pass.failed,
        if pass.correct { "passed" } else { "MISSED" }
    );
    for m in &pass.misses {
        println!("  gate miss: {m}");
    }
}

fn workload_record(w: &Workload, section: &str, pass: &Pass) -> Value {
    obj([
        ("name", text(w.name)),
        ("correct", Value::Bool(pass.correct)),
        ("attempted", Value::U64(pass.attempted)),
        ("failed", Value::U64(pass.failed)),
        ("misses", Value::Array(pass.misses.iter().map(|m| text(m)).collect())),
        (section, Pass::detailed(&pass.metrics)),
        ("raw", Pass::detailed(&pass.raw)),
    ])
}

fn write_out(path: &Path, a: &RunArgs, workloads: Vec<Value>) -> Result<(), String> {
    let file = obj([
        ("schema", text("gridbench-v1")),
        ("provenance", provenance(a)),
        ("workloads", Value::Array(workloads)),
    ]);
    std::fs::write(path, json::pretty(&file) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// One pass of one workload in this process, ending with the contract's
/// one-line result.
fn run_leaf(a: &RunArgs, w: Workload, traced: bool) -> Result<(), String> {
    let w = if a.smoke { w.smoke() } else { w };
    let scratch = scratch_dir()?;
    // The hub keeps its work directories under the temp dir: keep them,
    // like everything else the benchmark writes, inside the build tree.
    std::env::set_var("TMPDIR", &scratch);
    let sizing = Sizing { seconds: a.seconds, smoke: a.smoke };
    let pass = if traced {
        run::traced(&w, a.seed, &scratch, a.spans.as_deref())
    } else {
        run::end_to_end(&w, a.seed, sizing, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let pass = pass?;
    let (title, section) =
        if traced { ("layer trace", "per_layer") } else { ("end to end", "end_to_end") };
    print_pass(&w, title, &pass);
    if let Some(out) = &a.out {
        write_out(out, a, vec![workload_record(&w, section, &pass)])?;
    }
    println!("{}", json::compact(&pass.contract_line()));
    Ok(())
}

/// Both passes of every selected workload, each in a process of its own
/// (so `proc.peak_rss_mib` is one workload's), then the combined tables.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = scratch_dir()?;
    let selected: Vec<Workload> = match a.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    // Both passes of one workload, each in a child, merged into one record.
    let both_passes = |w: &Workload| -> Result<Value, String> {
        let pass = |traced: bool| -> Result<Value, String> {
            let out = scratch.join(format!("{}-{}.json", w.name, u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
                .arg("--out")
                .arg(&out);
            if a.smoke {
                cmd.arg("--smoke");
            }
            if let (true, Some(spans)) = (traced, &a.spans) {
                cmd.arg("--spans").arg(spans.with_extension(format!("{}.jsonl", w.name)));
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("a pass of {} exited with {status}", w.name));
            }
            let file = json::read(&out)?;
            let record = get(&file, "workloads").map(json::items).and_then(|ws| ws.first());
            record.cloned().ok_or(format!("{}: no workload record", out.display()))
        };
        let (e2e, traced) = (pass(false)?, pass(true)?);
        let both_correct =
            [&e2e, &traced].iter().all(|r| matches!(get(r, "correct"), Some(Value::Bool(true))));
        let mut record = json::fields(&e2e).to_vec();
        for (from, to) in [("per_layer", "per_layer"), ("misses", "trace_misses")] {
            record.push((to.to_string(), get(&traced, from).cloned().unwrap_or(Value::Null)));
        }
        record.retain(|(k, _)| k != "correct");
        record.push(("correct".to_string(), Value::Bool(both_correct)));
        Ok(Value::Object(record))
    };
    let records: Result<Vec<Value>, String> = selected.iter().map(both_passes).collect();
    let _ = std::fs::remove_dir_all(&scratch);
    let records = records?;
    let all_correct = records.iter().all(|r| matches!(get(r, "correct"), Some(Value::Bool(true))));

    println!("\n== end to end, all workloads ==");
    for m in &run::END_TO_END {
        for r in &records {
            let name = get(r, "name").and_then(json::as_str).unwrap_or("?");
            let value = get(r, "end_to_end")
                .and_then(|e| get(e, m.name))
                .and_then(|v| get(v, "value"))
                .and_then(json::as_f64);
            println!(
                "  {:<24} {:<20} {:>16.6} {}",
                name,
                m.name,
                value.unwrap_or(f64::NAN),
                m.unit
            );
        }
    }
    if let Some(out) = &a.out {
        write_out(out, a, records)?;
        println!("[written: {}]", out.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => {
            if cfg!(debug_assertions) {
                Err("gridbench measures optimized builds only: build with --release".to_string())
            } else {
                parse_run(&args[1..]).and_then(|a| match (a.trace, a.workload) {
                    (Some(traced), Some(w)) => run_leaf(&a, w, traced).map(|()| true),
                    _ => run_all(&a),
                })
            }
        }
        Some("compare") if args.len() == 3 => json::read(Path::new(&args[1])).and_then(|base| {
            let new = json::read(Path::new(&args[2]))?;
            let rows = compare::compare(&base, &new);
            println!("base: {}", compare::provenance_line(&base));
            println!("new:  {}", compare::provenance_line(&new));
            compare::print(&rows);
            Ok(!compare::any_regressed(&rows))
        }),
        Some("manifest") => {
            println!("{}", json::pretty(&manifest()));
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gridbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both passes, at smoke size: the full path a real
    /// run takes, in seconds. The net workloads need the node binary in
    /// the same target directory and are skipped, loudly, without it.
    #[test]
    fn smoke_runs_every_workload_through_both_passes() {
        let scratch = std::env::temp_dir().join(format!("gridbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let sizing = Sizing { seconds: 0.0, smoke: true };
        for w in WORKLOADS {
            if w.driver.is_net() && workloads::find_node_binary().is_err() {
                eprintln!("skipping {}: no gridmine-node next to the test binary", w.name);
                continue;
            }
            let w = w.smoke();
            let e2e = run::end_to_end(&w, DEFAULT_SEED, sizing, &scratch).unwrap();
            assert!(e2e.correct, "{}: {:?}", w.name, e2e.misses);
            assert_eq!((e2e.attempted, e2e.failed), (1, 0));
            assert_eq!(e2e.metrics.len(), run::END_TO_END.len());
            assert!(
                e2e.metrics.iter().all(|(_, _, s)| s.median > 0.0),
                "{}: a zero metric",
                w.name
            );

            let traced = run::traced(&w, DEFAULT_SEED, &scratch, None).unwrap();
            assert!(traced.correct, "{}: {:?}", w.name, traced.misses);
            assert_eq!(traced.metrics.len(), trace::PER_LAYER.len());
            let line = json::compact(&traced.contract_line());
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{")
            );
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// `BENCHMARK.json` at the repo root is `gridbench manifest`, verbatim.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let Ok(file) = json::read(&path) else {
            eprintln!("skipping: no BENCHMARK.json at {}", path.display());
            return;
        };
        assert_eq!(json::pretty(&file), json::pretty(&manifest()));
    }
}
