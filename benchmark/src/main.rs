//! `lrgcn-benchmark`: one process, one workload, one result line.
//!
//! ```text
//! lrgcn-benchmark --workload NAME --seed S [--seconds N] [--trace 0|1] [--quick]
//! lrgcn-benchmark --compare DIR        (used by repeat.sh)
//! ```
//!
//! The human-readable report (environment stamp, per-phase counts, every
//! metric with its unit) goes first; the last line of standard output is
//! the result object the benchmark contract asks for. The exit code is
//! non-zero when an output check failed.

mod compare;
mod env;
mod http;
mod layers;
mod load;
mod pipeline;
mod spec;
mod stats;
mod trace;

use load::Phase;
use std::path::PathBuf;

/// What a run found: counts of checked operations, notes for the reader,
/// and the metrics in the order they were measured.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// One checked operation; `what` is reported only when it failed.
    pub fn check_with(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                let line = format!("FAILED: {}", what());
                self.notes.push(line);
            }
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.check_with(ok, || what.to_string());
    }

    /// Counts a traffic phase's requests as checked operations.
    pub fn phase(&mut self, phase: &Phase) {
        let (attempted, failed) = (phase.attempted(), phase.failed());
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        let mut kinds = String::new();
        for kind in [
            load::Kind::Recs,
            load::Kind::Events,
            load::Kind::Healthz,
            load::Kind::Score,
            load::Kind::Similar,
        ] {
            let n = phase.of(kind).count();
            if n > 0 {
                kinds.push_str(&format!(" {kind:?}={n}"));
            }
        }
        self.note(format!(
            "phase {:<20} {:>6.2} s  attempted={attempted} succeeded={} failed={failed} samples:{kinds}",
            phase.name,
            phase.seconds,
            attempted - failed
        ));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The contract's result object.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let shown = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lrgcn-benchmark --workload {{{}}} --seed S [--seconds N] [--trace 0|1] [--quick]\n       lrgcn-benchmark --compare DIR",
        spec::NAMES.join("|")
    );
    std::process::exit(64);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    if let Some(dir) = value_of("--compare") {
        std::process::exit(compare::run(&PathBuf::from(dir)));
    }
    let quick = argv.iter().any(|a| a == "--quick");
    // `--trace` alone, `--trace 1` and `--trace 0` are all accepted.
    let trace = argv.iter().any(|a| a == "--trace") && value_of("--trace").as_deref() != Some("0");
    let Some(spec) = value_of("--workload").and_then(|name| spec::by_name(&name, quick)) else {
        usage()
    };
    let Some(seed) = value_of("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        usage()
    };
    let seconds = match value_of("--seconds").map(|s| s.parse::<f64>()) {
        None => {
            if quick {
                2.0
            } else {
                20.0
            }
        }
        Some(Ok(s)) if (0.5..=60.0).contains(&s) => s,
        Some(_) => usage(),
    };

    let out_dir = PathBuf::from("target/benchmark");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Some(epochs) = value_of("--child-epochs").and_then(|n| n.parse::<usize>().ok()) {
        // The auto-threads child of a traced run (layers.rs).
        return layers::child_epochs(&spec, seed, epochs);
    }
    let trace_file = out_dir.join(format!("trace-{}.json", spec.name));
    let args = pipeline::Args {
        seed,
        seconds,
        trace,
        scratch: scratch.clone(),
        trace_file,
    };
    let mut report = Report::default();
    println!("workload: {}", spec.name);
    println!(
        "{}",
        env::stamp(
            pipeline::COMPUTE_THREADS,
            spec::WORKERS,
            seed,
            seconds,
            trace
        )
    );
    pipeline::run(&spec, &args, &mut report);
    std::fs::remove_dir_all(&scratch).ok();

    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(2);
    }
}
