//! `gridbench compare A.json B.json`: B against the baseline A, one row
//! per workload and end-to-end metric, each judged by the metric's bound.

use crate::json::{as_f64, as_str, fields, get, items, Value};
use crate::run::{END_TO_END, EXACT_SIM_COUNTS};
use crate::stats::{Better, Bound, Outcome, Summary};
use crate::workloads::{find, Driver};

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub outcome: Outcome,
    pub note: String,
}

fn summary_of(metric: &Value) -> Option<Summary> {
    let median = as_f64(get(metric, "value")?)?;
    let or_median = |key: &str| get(metric, key).and_then(as_f64).unwrap_or(median);
    Some(Summary {
        median,
        q1: or_median("q1"),
        q3: or_median("q3"),
        min: or_median("min"),
        max: or_median("max"),
        n: get(metric, "n").and_then(as_f64).unwrap_or(1.0) as usize,
    })
}

fn workload<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
    items(get(file, "workloads")?).iter().find(|w| get(w, "name").and_then(as_str) == Some(name))
}

fn metric<'a>(workload: &'a Value, section: &str, name: &str) -> Option<&'a Value> {
    get(get(workload, section)?, name)
}

/// Every comparable pair. A workload or metric present in only one file
/// is `Unresolved`: there is nothing to hold it to.
pub fn compare(base: &Value, new: &Value) -> Vec<Row> {
    let exact = Bound { better: Better::Lower, rel: 0.0, abs_floor: 0.0, exact: true };
    let mut rows = Vec::new();
    for w in get(base, "workloads").map(items).unwrap_or_default() {
        let Some(name) = get(w, "name").and_then(as_str) else { continue };
        let is_sim = find(name).is_some_and(|w| w.driver == Driver::Sim);
        let other = workload(new, name);
        let mut push = |section: &str, metric_name: &str, bound: Bound| {
            let a = metric(w, section, metric_name);
            let b = other.and_then(|o| metric(o, section, metric_name));
            let unit = a.and_then(|m| get(m, "unit")).and_then(as_str).unwrap_or("").to_string();
            let (sa, sb) = (a.and_then(summary_of), b.and_then(summary_of));
            let (outcome, note) = match (&sa, &sb) {
                (Some(sa), Some(sb)) => {
                    let outcome = bound.judge(sa, sb);
                    let note = if bound.exact {
                        "exact count".to_string()
                    } else {
                        format!(
                            "{:+.1} % worse, bound {:.0} %, spread {:.1} % / {:.1} %",
                            bound.worsening(sa.median, sb.median) * 100.0,
                            bound.rel * 100.0,
                            sa.spread() * 100.0,
                            sb.spread() * 100.0
                        )
                    };
                    (outcome, note)
                }
                _ => (Outcome::Unresolved, "missing on one side".to_string()),
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric_name.to_string(),
                unit,
                base: sa.map_or(f64::NAN, |s| s.median),
                new: sb.map_or(f64::NAN, |s| s.median),
                outcome,
                note,
            });
        };
        for m in &END_TO_END {
            let bound = if is_sim && m.exact_on_sim { exact } else { m.bound };
            push("end_to_end", m.name, bound);
        }
        if is_sim {
            for count in EXACT_SIM_COUNTS {
                push("per_layer", count, exact);
            }
        }
        // A run that failed its own output gate regresses whatever it timed.
        let failed = |v: Option<&Value>| v.and_then(|w| get(w, "failed")).and_then(as_f64);
        if let (Some(a), Some(b)) = (failed(Some(w)), failed(other)) {
            rows.push(Row {
                workload: name.to_string(),
                metric: "failed".to_string(),
                unit: "count".to_string(),
                base: a,
                new: b,
                outcome: if b > a { Outcome::Regressed } else { Outcome::Ok },
                note: "sessions that missed the output gate".to_string(),
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:<6} {:<10} note",
        "workload", "metric", "base", "new", "unit", "verdict"
    );
    for r in rows {
        println!(
            "{:<24} {:<20} {:>14.6} {:>14.6} {:<6} {:<10} {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.unit,
            r.outcome.name(),
            r.note
        );
    }
    let count = |o: Outcome| rows.iter().filter(|r| r.outcome == o).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Outcome::Ok),
        count(Outcome::Regressed),
        count(Outcome::Unresolved)
    );
}

pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.outcome == Outcome::Regressed)
}

/// A result file's provenance on one line.
pub fn provenance_line(file: &Value) -> String {
    get(file, "provenance")
        .map(fields)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| format!("{k}={}", crate::json::compact(v)))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn file(session_s: f64, q1: f64, q3: f64, sim_msgs: u64) -> Value {
        parse(&format!(
            r#"{{"workloads":[
                {{"name":"threaded_mock_t10i4","failed":0,
                  "end_to_end":{{"session_s":{{"value":{session_s},"unit":"s","n":9,"q1":{q1},"q3":{q3}}}}}}},
                {{"name":"sim_grid_50","failed":0,
                  "end_to_end":{{"msgs_per_resource":{{"value":{},"unit":"count"}}}},
                  "per_layer":{{"sim.msgs":{{"value":{sim_msgs},"unit":"count"}}}}}}]}}"#,
            sim_msgs as f64 / 50.0
        ))
        .unwrap()
    }

    fn verdict(rows: &[Row], workload: &str, metric: &str) -> Outcome {
        rows.iter().find(|r| r.workload == workload && r.metric == metric).unwrap().outcome
    }

    #[test]
    fn medians_inside_the_bound_pass_and_exact_counts_must_match() {
        let base = file(0.60, 0.59, 0.61, 600_051);
        let rows = compare(&base, &file(0.64, 0.63, 0.65, 600_051));
        assert_eq!(verdict(&rows, "threaded_mock_t10i4", "session_s"), Outcome::Ok);
        assert_eq!(verdict(&rows, "sim_grid_50", "sim.msgs"), Outcome::Ok);
        assert_eq!(verdict(&rows, "sim_grid_50", "msgs_per_resource"), Outcome::Ok);
        assert!(!any_regressed(&rows));

        let rows = compare(&base, &file(0.70, 0.69, 0.71, 600_050));
        assert_eq!(verdict(&rows, "threaded_mock_t10i4", "session_s"), Outcome::Regressed);
        assert_eq!(verdict(&rows, "sim_grid_50", "sim.msgs"), Outcome::Regressed);
        assert_eq!(verdict(&rows, "sim_grid_50", "msgs_per_resource"), Outcome::Regressed);
        assert!(any_regressed(&rows));
    }

    #[test]
    fn a_noisy_pair_is_unresolved_and_a_missing_metric_too() {
        let base = file(0.60, 0.50, 0.70, 600_051);
        let rows = compare(&base, &file(0.70, 0.69, 0.71, 600_051));
        assert_eq!(verdict(&rows, "threaded_mock_t10i4", "session_s"), Outcome::Unresolved);
        // The fixture carries no setup_s at all.
        assert_eq!(verdict(&rows, "threaded_mock_t10i4", "setup_s"), Outcome::Unresolved);
        assert!(!any_regressed(&rows));
    }
}
