//! `e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload grid_quick --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `grid_quick`, `compress_paper`, `serve_mixed`,
//! `serve_heavy` (see README.md). `--trace 0` measures the end-to-end
//! metrics with telemetry off; `--trace 1` repeats the workload with
//! telemetry on and reports the per-layer split. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod grid;
mod layers;
mod serving;
mod util;

use grid::Grid;
use serving::Serve;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: e2ebench --workload grid_quick|compress_paper|serve_mixed|serve_heavy \
                 --seed N --seconds S --trace 0|1";
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        let bad = || format!("bad {flag} {value}\n{usage}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{usage}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{usage}"))?;
    Ok(Args { workload, seed, seconds, trace })
}

/// A run that has not finished by then is stuck (a wedged connection or
/// worker); it exits non-zero rather than hang past the caller's limit.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("[e2ebench] no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let outcome = match args.workload.as_str() {
        "grid_quick" => grid::run(Grid::Quick, args.seed, args.seconds, args.trace),
        "compress_paper" => grid::run(Grid::CompressPaper, args.seed, args.seconds, args.trace),
        "serve_mixed" => serving::run(Serve::Mixed, args.seed, args.seconds, args.trace),
        "serve_heavy" => serving::run(Serve::Heavy, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    util::print_report(&args.workload, &outcome, args.trace);
    println!("{}", util::result_json(&outcome));
    if !outcome.correct {
        eprintln!("[e2ebench] correctness check failed");
    }
}
