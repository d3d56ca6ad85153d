//! The environment stamp printed with every result, and the process's own
//! peak memory.

use lrgcn::graph::kernels::{active_kernel, simd_available};
use std::process::Command;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The allocator settings `run.sh` pins; a run without them measures the
/// allocator's warm-up as much as the program.
pub const MALLOC_PINS: [&str; 2] = ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"];

/// What a number depends on besides the code: cores, toolchain, kernel
/// choice (left on auto, recorded here), thread and allocator settings.
pub fn stamp(threads: usize, workers: usize, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "env: cpus_available={} git_rev={} rustc={:?} kernel={} simd_available={} compute_threads={threads} server_workers={workers} malloc_mmap_threshold={} malloc_trim_threshold={} seed={seed} seconds={seconds} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        first_line_of("rustc", &["--version"]),
        active_kernel().name(),
        simd_available(),
        std::env::var(MALLOC_PINS[0]).unwrap_or_else(|_| "default".into()),
        std::env::var(MALLOC_PINS[1]).unwrap_or_else(|_| "default".into()),
        u8::from(trace)
    )
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
