//! `--compare DIR`: judges two sets of runs of one commit the way the
//! benchmark contract does. `repeat.sh` fills `DIR` with one file per set
//! and workload (`a-train_yelp.jsonl`, `b-train_yelp.jsonl`, ...), one
//! result line per run, and the bounds come from `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use lrgcn::obs::json::{self, Value};
use std::path::Path;

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end_metrics(benchmark: &Value) -> Result<Vec<Metric>, String> {
    let Some(Value::Arr(list)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric without {key}"))
            };
            Ok(Metric {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One metric's value in every result line of a file.
fn values(path: &Path, metric: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            v.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{}: a run without {metric}", path.display()))
        })
        .collect()
}

/// Interquartile range as a share of the median.
fn spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v)
}

pub fn run(dir: &Path) -> i32 {
    match compare(dir) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

fn compare(dir: &Path) -> Result<bool, String> {
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let metrics = end_to_end_metrics(&benchmark)?;
    let mut all_within = true;
    println!(
        "{:<13} {:<19} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "iqr a", "iqr b", "gap", "bound"
    );
    for workload in crate::spec::NAMES {
        for m in &metrics {
            let a = values(&dir.join(format!("a-{workload}.jsonl")), &m.name)?;
            let b = values(&dir.join(format!("b-{workload}.jsonl")), &m.name)?;
            if a.len() < 2 || b.len() < 2 {
                return Err(format!(
                    "{workload}: two runs per set are the least that can be compared"
                ));
            }
            let (ma, mb) = (median(&a), median(&b));
            // How much worse the second set's median is than the first's.
            let gap = if m.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (spread(&a), spread(&b));
            // Set-up time is judged on its medians only.
            let steady = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let verdict = match (gap <= m.bound, steady) {
                (true, true) => "ok",
                (false, _) => "MEDIANS DISAGREE",
                (_, false) => "SPREAD OVER BOUND",
            };
            all_within &= verdict == "ok";
            println!(
                "{workload:<13} {:<19} {ma:>11.5} {mb:>11.5} {:>7.1}% {:>7.1}% {:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                sa * 100.0,
                sb * 100.0,
                gap * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(all_within)
}
