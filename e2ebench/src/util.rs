//! Measurement helpers shared by every workload: percentiles, process
//! CPU and memory readings, output digests and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        Metric { name: name.into(), unit, value }
    }
}

/// Operation accounting for one phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub phase: String,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Ops {
    pub fn new(phase: impl Into<String>) -> Ops {
        Ops { phase: phase.into(), ..Ops::default() }
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub ops: Vec<Ops>,
    /// Failed outputs found by the correctness gate (counted as failed
    /// operations on top of the per-phase failures).
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Rows of the human-readable summary: (name, unit, value), printed
    /// before the result line.
    pub report: Vec<Metric>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|o| o.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().map(|o| o.failed + o.refused).sum::<u64>() + self.wrong
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of this process, all threads included
/// (threads that already exited too), at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cumulative `(stolen, busy)` CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor ran something else while a vCPU
/// wanted to run, and user + nice + system + steal time.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    (at(7), at(0) + at(1) + at(2) + at(7))
}

/// Share of the machine's busy CPU time the hypervisor stole since
/// `start` (a [`host_ticks`] reading).
pub fn steal_share_since(start: (u64, u64)) -> f64 {
    let now = host_ticks();
    let busy = now.1.saturating_sub(start.1);
    if busy == 0 {
        0.0
    } else {
        now.0.saturating_sub(start.0) as f64 / busy as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a digest of rendered output, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Looks up the reference digest of `workload` at `seed` in
/// `digests.txt` (lines of `workload seed digest`).
pub fn reference_digest(workload: &str, seed: u64) -> Option<String> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then(|| d.to_string())
    })
}

/// Prints the operation table and the metric rows on stdout.
pub fn print_report(workload: &str, outcome: &Outcome, trace: bool) {
    let mut out = String::new();
    let _ = writeln!(out, "== {workload}: operations ==");
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>8} {:>8}",
        "phase", "attempted", "succeeded", "failed", "refused"
    );
    for o in &outcome.ops {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8}",
            o.phase, o.attempted, o.succeeded, o.failed, o.refused
        );
    }
    let _ = writeln!(out, "wrong outputs: {}", outcome.wrong);
    let what = if trace { "per-layer metrics (traced run)" } else { "end-to-end metrics" };
    let _ = writeln!(out, "== {workload}: {what} ==");
    for m in &outcome.report {
        let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print!("{out}");
}

/// The result line: the last line of stdout.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted().max(1),
        outcome.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("a"), digest("b"));
    }
}
