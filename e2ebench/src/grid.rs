//! The two grid workloads: `grid_quick` (every experiment of
//! `repro all --quick`) and `compress_paper` (Figure 2, Figure 3 and
//! Table 3 with the Gorilla baseline at the paper's full lengths).
//!
//! A run repeats the whole workload until `--seconds` are spent. Each
//! repetition builds its grids from scratch through the public
//! `evalcore::experiments::*::run` entry points, so dataset generation is
//! paid every time, as a user of `repro` pays it.

use std::time::Instant;

use evalcore::engine::{CompressionTask, ForecastTask, GorillaTask, RetrainTask};
use evalcore::experiments::{
    characteristics_exp, compression_exp, elbows_exp, fig1, forecasting_exp, retrain_exp, table1,
};
use evalcore::{GridConfig, TaskFailure};
use forecast::model::ModelKind;
use tsdata::datasets::{DatasetKind, ALL_DATASETS};

use crate::layers::{self, LayerInputs};
use crate::util::{cpu_seconds, digest, host_ticks, median, peak_rss_mb, quantile, sorted};
use crate::util::{reference_digest, steal_share_since, Metric, Ops, Outcome};

/// Which grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Quick,
    CompressPaper,
}

impl Grid {
    pub fn name(self) -> &'static str {
        match self {
            Grid::Quick => "grid_quick",
            Grid::CompressPaper => "compress_paper",
        }
    }

    /// The workload's grid configuration; the seed drives dataset
    /// generation and nothing else.
    pub fn config(self, seed: u64) -> GridConfig {
        let mut c = match self {
            // `repro --quick`: every dataset at length 2000, the smoke
            // model pair, six error bounds.
            Grid::Quick => {
                let mut c = GridConfig::smoke();
                c.datasets = ALL_DATASETS.to_vec();
                c.len = Some(2_000);
                c.input_len = 48;
                c.horizon = 12;
                c.error_bounds = vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
                c
            }
            // The paper's compression grid: full lengths, 13 bounds.
            Grid::CompressPaper => GridConfig::paper(),
        };
        c.data_seed = seed;
        c
    }
}

/// The Figure-7 retrain configuration `repro` derives from a grid.
fn fig7_config(cfg: &GridConfig) -> (GridConfig, Vec<ModelKind>, Vec<f64>) {
    let mut c = cfg.clone();
    c.datasets = vec![DatasetKind::ETTm1, DatasetKind::ETTm2];
    let bounds: Vec<f64> = cfg.error_bounds.iter().copied().filter(|&e| e <= 0.2 + 1e-9).collect();
    (c, vec![ModelKind::Arima, ModelKind::DLinear], bounds)
}

/// Task counts per engine family for one repetition.
#[derive(Default)]
struct Tally {
    by_family: Vec<(&'static str, u64, u64)>,
}

impl Tally {
    fn add(&mut self, family: &'static str, attempted: u64, failed: u64) {
        match self.by_family.iter_mut().find(|(f, _, _)| *f == family) {
            Some(row) => {
                row.1 += attempted;
                row.2 += failed;
            }
            None => self.by_family.push((family, attempted, failed)),
        }
    }

    fn add_failures(&mut self, failures: &[TaskFailure]) {
        for f in failures {
            let family = match (f.coord.model, f.coord.method) {
                (Some(_), _) => "forecast",
                (None, Some(_)) => "compression",
                (None, None) => "gorilla",
            };
            self.add(family, 0, 1);
        }
    }
}

/// Times one stage call under a benchmark span (recorded only when
/// telemetry is on).
fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = telemetry::span("bench.stage", &[("stage", name)]);
    f()
}

/// What one repetition produced.
struct Rep {
    text: String,
    tally: Tally,
    /// Characteristic-difference rows (features then TFE), for the SHAP
    /// replay.
    shap_rows: Option<Vec<f64>>,
    /// Transform seconds spent inside the characteristics cells (0 when
    /// telemetry is off); the layer split subtracts them once, since the
    /// cells' own task time already holds them.
    cell_transform_s: f64,
}

/// Exported `transform_compute_seconds` sum so far.
fn transform_compute_s() -> f64 {
    telemetry::global()
        .metrics()
        .snapshot()
        .iter()
        .filter(|s| s.name == "transform_compute_seconds")
        .filter_map(|s| s.value.as_histogram_totals())
        .map(|(_, sum)| sum)
        .sum()
}

/// One repetition: runs every experiment of the workload.
fn run_once(grid: Grid, cfg: &GridConfig) -> Rep {
    let mut out = String::new();
    let mut tally = Tally::default();
    let mut push = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let comp = stage("compression", || compression_exp::run(cfg));
    let cells = (cfg.datasets.len() * cfg.methods.len() * cfg.error_bounds.len()) as u64;
    tally.add("compression", CompressionTask::enumerate(cfg).len() as u64, 0);
    tally.add("gorilla", GorillaTask::enumerate(cfg).len() as u64, 0);
    tally.add_failures(&comp.failures);
    if grid == Grid::CompressPaper {
        push(comp.render_fig2());
        push(comp.render_fig3());
        push(comp.render_table3());
        return Rep { text: out, tally, shap_rows: None, cell_transform_s: 0.0 };
    }

    push(stage("table1", || table1::run(cfg.len, cfg.data_seed).render()));
    push(stage("fig1", || {
        let mut s = fig1::run(DatasetKind::ETTm1, 256, cfg.data_seed).render();
        s.push('\n');
        s.push_str(&fig1::run(DatasetKind::ETTm2, 256, cfg.data_seed).render());
        s
    }));
    push(comp.render_fig2());
    push(comp.render_fig3());
    push(comp.render_table3());

    let fore = stage("forecasting", || forecasting_exp::run(cfg));
    tally.add("forecast", ForecastTask::enumerate(cfg).len() as u64, 0);
    tally.add("compression", CompressionTask::enumerate(cfg).len() as u64, 0);
    tally.add_failures(&fore.failures);
    push(fore.render_table2());
    push(fore.render_fig4());

    let transforms_before = transform_compute_s();
    let chars = stage("characteristics", || characteristics_exp::run(&fore));
    let cell_transform_s = transform_compute_s() - transforms_before;
    tally.add("characteristics", cells, cells.saturating_sub(chars.rows.len() as u64));
    push(chars.render_fig5(9));
    push(chars.render_table4(10));
    let t5 = stage("elbows", || elbows_exp::run(&fore));
    push(t5.render());
    push(chars.render_table6());
    let caps = t5.eb_caps();
    push(fore.render_fig6(&caps));
    push(fore.render_table7(&caps));

    let (rcfg, models, bounds) = fig7_config(cfg);
    let fig7 = stage("retrain", || retrain_exp::run(&rcfg, &models, &bounds));
    let tasks = RetrainTask::enumerate(&GridConfig {
        models: models.clone(),
        seeds_deep: 1,
        seeds_simple: 1,
        ..rcfg.clone()
    });
    let mut done: Vec<(DatasetKind, ModelKind)> =
        fig7.points.iter().map(|p| (p.dataset, p.model)).collect();
    done.sort_by_key(|(d, m)| (d.name(), m.name()));
    done.dedup();
    tally.add("retrain", tasks.len() as u64, tasks.len().saturating_sub(done.len()) as u64);
    push(fig7.render());
    push(stage("decomp", || retrain_exp::render_decomposition(cfg)));

    let shap_rows = (!chars.rows.is_empty())
        .then(|| chars.rows.iter().flat_map(|r| r.diffs.iter().copied().chain([r.tfe])).collect());
    Rep { text: out, tally, shap_rows, cell_transform_s }
}

/// Set-up: generating every input dataset of the workload once.
fn setup_once(cfg: &GridConfig) -> f64 {
    let t = Instant::now();
    for &d in &cfg.datasets {
        std::hint::black_box(cfg.dataset(d));
    }
    t.elapsed().as_secs_f64()
}

const SETUP_REPS: usize = 3;
const MIN_REPS: usize = 3;

pub fn run(grid: Grid, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let cfg = grid.config(seed);
    let threads = cfg.threads.max(1);
    // Cheap set-ups repeat more often so their median settles.
    let first = setup_once(&cfg);
    let reps = if first > 0.1 { SETUP_REPS } else { 5 * SETUP_REPS };
    let setups: Vec<f64> =
        std::iter::once(first).chain((1..reps).map(|_| setup_once(&cfg))).collect();
    let setup_s = median(&setups);

    let reference = reference_digest(grid.name(), seed);
    let mut digests: Vec<String> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut cpus: Vec<f64> = Vec::new();
    let mut tasks_per_rep = 0u64;
    let mut ops = Ops::new("grid repetitions");
    let mut tallies = Tally::default();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut shap_rows = None;
    let mut cell_transform_s = 0.0;
    let measuring = Instant::now();
    let host = host_ticks();
    // Repeat while another repetition fits in the budget, at least three
    // times. The traced run makes its first repetition untraced, as the
    // baseline for the tracing overhead.
    while digests.len() < MIN_REPS || measuring.elapsed().as_secs_f64() + median(&walls) <= seconds
    {
        let traced = trace && !walls.is_empty();
        telemetry::set_enabled(traced);
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let rep = run_once(grid, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - c0;
        telemetry::set_enabled(false);
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            cpus.push(cpu);
        }
        tasks_per_rep = rep.tally.by_family.iter().map(|(_, a, _)| a).sum();
        for (f, a, fl) in &rep.tally.by_family {
            tallies.add(f, *a, *fl);
        }
        shap_rows = shap_rows.or(rep.shap_rows);
        cell_transform_s += rep.cell_transform_s;
        digests.push(digest(&rep.text));
        ops.attempted += 1;
        ops.succeeded += 1;
    }

    // Correctness: every repetition renders the same bytes, and they
    // match the committed reference when one exists for this seed.
    let first = digests[0].clone();
    let mut wrong = digests.iter().filter(|d| **d != first).count() as u64;
    match &reference {
        Some(r) if *r != first => {
            eprintln!("[e2ebench] {} seed {seed}: digest {first} != reference {r}", grid.name());
            wrong += digests.len() as u64;
        }
        Some(_) => {}
        None => eprintln!(
            "[e2ebench] {} seed {seed}: no reference digest; checking repeatability only \
             (digest {first})",
            grid.name()
        ),
    }

    let mut all_ops = vec![ops];
    for (family, attempted, failed) in &tallies.by_family {
        let mut o = Ops::new(format!("engine tasks: {family}"));
        o.attempted = *attempted;
        o.failed = *failed;
        o.succeeded = attempted - failed;
        all_ops.push(o);
    }

    let w = sorted(&walls);
    let p50 = quantile(&w, 0.5);
    let cpu = median(&cpus);
    let rss = peak_rss_mb();
    let tasks_per_s = tasks_per_rep as f64 / p50.max(1e-9);

    let mut outcome = Outcome {
        correct: wrong == 0,
        ops: all_ops,
        wrong,
        metrics: Vec::new(),
        report: Vec::new(),
    };
    let error_rate = outcome.error_rate();
    if trace {
        let inputs = LayerInputs {
            workload: grid.name(),
            wall_s: median(&traced_walls),
            untraced_wall_s: p50,
            reps: traced_walls.len(),
            threads,
            shap_rows: shap_rows.as_deref(),
            cell_transform_s,
            serve: None,
        };
        let m = layers::collect(&inputs);
        outcome.report = m.clone();
        outcome.metrics = m;
    } else {
        outcome.metrics = vec![
            Metric::new("cpu_ms_per_op", "ms", cpu * 1e3),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", rss),
        ];
        outcome.report = vec![
            Metric::new("wall_s", "s", p50),
            Metric::new("wall_s.p90", "s", quantile(&w, 0.9)),
            Metric::new("cpu_s", "s", cpu),
            Metric::new("engine_tasks_per_s", "1/s", tasks_per_s),
            Metric::new("error_rate", "share", error_rate),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MiB", rss),
            Metric::new("repetitions", "count", walls.len() as f64),
            Metric::new("host.steal_share", "share", steal_share_since(host)),
        ];
    }
    outcome
}
