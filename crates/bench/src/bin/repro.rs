//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all            # default scale
//! cargo run -p bench --release --bin repro -- table2 --quick # one experiment
//! cargo run -p bench --release --bin repro -- all --paper    # paper scale
//! ```
//!
//! Telemetry is enabled for the whole run (this is the instrumented
//! binary; the recording overhead is within noise). `--metrics FILE`
//! writes the Prometheus text dump, `--trace FILE` the Chrome trace-event
//! JSON (open in `about:tracing` / Perfetto); passing either also prints
//! an end-of-run summary (slowest tasks, cache hit rates, per-model fit
//! time) on stderr. All experiment output on stdout is byte-identical
//! with or without these flags.

use bench::{config_for, parse_args, Experiment, ALL_EXPERIMENTS};
use evalcore::experiments::{
    characteristics_exp, compression_exp, elbows_exp, fig1, forecasting_exp, retrain_exp, table1,
};
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    telemetry::set_enabled(true);
    let cfg = config_for(&cli);
    let experiments: Vec<Experiment> = if cli.experiments.contains(&Experiment::All) {
        ALL_EXPERIMENTS.to_vec()
    } else {
        cli.experiments.clone()
    };

    println!(
        "EvalImpLSTS reproduction — scale {:?}, dataset length {:?}, {} thread(s), {} shard(s)\n",
        cli.scale,
        cfg.len.map_or("paper-full".to_string(), |l| l.to_string()),
        cfg.threads,
        if cfg.shards == 0 { "auto".to_string() } else { cfg.shards.to_string() }
    );
    if let Some(seed) = cfg.chaos_seed {
        eprintln!(
            "[repro] chaos mode: seed {seed} injects deterministic worker kills/stalls/\
             callback panics; outputs must match a clean run byte-for-byte"
        );
    }
    if let Some(dir) = &cli.artifacts {
        eprintln!(
            "[repro] artifact store: {dir}{}",
            if cli.resume { " (resuming: stored fits are reused)" } else { "" }
        );
    }
    if cli.store {
        eprintln!("[repro] store-backed: transforms stream from the chunked store");
    }

    // Shared expensive stages, computed lazily at most once.
    let mut compression: Option<compression_exp::CompressionExperiment> = None;
    let mut forecast: Option<forecasting_exp::ForecastExperiment> = None;
    let mut elbows: Option<elbows_exp::Table5> = None;
    let mut chars: Option<characteristics_exp::CharacteristicsExperiment> = None;
    let mut retrain: Option<retrain_exp::RetrainGrid> = None;

    let get_compression =
        |cfg: &evalcore::GridConfig, cache: &mut Option<compression_exp::CompressionExperiment>| {
            if cache.is_none() {
                eprintln!("[repro] running compression grid...");
                *cache = Some(compression_exp::run(cfg));
            }
            cache.clone().expect("just populated")
        };
    let get_forecast =
        |cfg: &evalcore::GridConfig, cache: &mut Option<forecasting_exp::ForecastExperiment>| {
            if cache.is_none() {
                eprintln!("[repro] running forecasting grid (this is the long part)...");
                *cache = Some(forecasting_exp::run(cfg));
            }
            cache.clone().expect("just populated")
        };

    for exp in experiments {
        let started = std::time::Instant::now();
        let output = match exp {
            Experiment::Table1 => table1::run(cfg.len, cfg.data_seed).render(),
            Experiment::Fig1 => {
                let mut out = fig1::run(DatasetKind::ETTm1, 256, cfg.data_seed).render();
                out.push('\n');
                out.push_str(&fig1::run(DatasetKind::ETTm2, 256, cfg.data_seed).render());
                out
            }
            Experiment::Fig2 => get_compression(&cfg, &mut compression).render_fig2(),
            Experiment::Fig3 => get_compression(&cfg, &mut compression).render_fig3(),
            Experiment::Table3 => get_compression(&cfg, &mut compression).render_table3(),
            Experiment::Table2 => get_forecast(&cfg, &mut forecast).render_table2(),
            Experiment::Fig4 => get_forecast(&cfg, &mut forecast).render_fig4(),
            Experiment::Fig5 => {
                let f = get_forecast(&cfg, &mut forecast);
                chars.get_or_insert_with(|| characteristics_exp::run(&f)).render_fig5(9)
            }
            Experiment::Table4 => {
                let f = get_forecast(&cfg, &mut forecast);
                chars.get_or_insert_with(|| characteristics_exp::run(&f)).render_table4(10)
            }
            Experiment::Table5 => {
                let f = get_forecast(&cfg, &mut forecast);
                let t5 = elbows_exp::run(&f);
                let rendered = t5.render();
                elbows = Some(t5);
                rendered
            }
            Experiment::Table6 => {
                let f = get_forecast(&cfg, &mut forecast);
                chars.get_or_insert_with(|| characteristics_exp::run(&f)).render_table6()
            }
            Experiment::Fig6 | Experiment::Table7 => {
                let f = get_forecast(&cfg, &mut forecast);
                if elbows.is_none() {
                    elbows = Some(elbows_exp::run(&f));
                }
                let caps = elbows.as_ref().expect("populated above").eb_caps();
                if exp == Experiment::Fig6 {
                    f.render_fig6(&caps)
                } else {
                    f.render_table7(&caps)
                }
            }
            Experiment::Fig7 => {
                let mut retrain_cfg = cfg.clone();
                retrain_cfg.datasets = vec![DatasetKind::ETTm1, DatasetKind::ETTm2];
                let bounds: Vec<f64> =
                    cfg.error_bounds.iter().copied().filter(|&e| e <= 0.2 + 1e-9).collect();
                retrain_exp::run(&retrain_cfg, &[ModelKind::Arima, ModelKind::DLinear], &bounds)
                    .render()
            }
            Experiment::Decomp => retrain_exp::render_decomposition(&cfg),
            Experiment::Retrain => {
                eprintln!("[repro] running retrain grid (each cell retrains its model)...");
                let ctx = evalcore::GridContext::new(cfg.clone());
                let engine = evalcore::Engine::new(&ctx).on_task_done(|ev| {
                    // `seq` counts completions (the pace); `coord` names
                    // the task that just finished (stealing reorders them).
                    eprintln!(
                        "[repro] retrain {}/{} {:?}: {}",
                        ev.seq + 1,
                        ev.total,
                        ev.status,
                        ev.coord
                    );
                });
                let grid = retrain_exp::run_grid_with(&engine);
                let rendered = grid.render();
                retrain = Some(grid);
                rendered
            }
            Experiment::All => unreachable!("expanded above"),
        };
        println!("{output}");
        eprintln!("[repro] {exp:?} done in {:.1?}\n", started.elapsed());
    }

    // The checkpoint summary: a fully resumed run reports fitted=0. The
    // totals come from the telemetry registry (the single source of truth
    // for loaded/fitted counts), summed across all model labels.
    if let Some(dir) = &cli.artifacts {
        let registry = telemetry::global().metrics();
        let loaded = registry.counter_total("models_loaded_total");
        let fitted = registry.counter_total("models_fitted_total");
        eprintln!("[repro] artifacts: loaded={loaded} fitted={fitted} dir={dir}");
    }

    // Optional CSV dumps of whatever grids were evaluated.
    if let Some(dir) = &cli.csv_dir {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[repro] cannot create csv dir {}: {e}", dir.display());
            return;
        }
        let write = |name: &str, contents: String| match std::fs::write(dir.join(name), contents) {
            Ok(()) => eprintln!("[repro] wrote {}", dir.join(name).display()),
            Err(e) => eprintln!("[repro] failed writing {name}: {e}"),
        };
        if let Some(comp) = &compression {
            write("compression.csv", evalcore::results::compression_csv(&comp.records));
        }
        if let Some(fore) = &forecast {
            write("forecast.csv", evalcore::results::forecast_csv(&fore.forecast));
            // Figure-4 points: the TFE-vs-TE series per (dataset, method).
            let mut fig4 = String::from("dataset,method,epsilon,te,mean_tfe,ci95\n");
            for (d, m, e, te, tfe, ci) in fore.fig4_points() {
                fig4.push_str(&format!("{},{},{},{},{},{}\n", d.name(), m.name(), e, te, tfe, ci));
            }
            write("fig4_points.csv", fig4);
        }
        if let Some(ch) = &chars {
            write("characteristics.csv", evalcore::results::characteristics_csv(&ch.rows));
        }
        if let Some(grid) = &retrain {
            write("retrain.csv", evalcore::results::forecast_csv(&grid.records));
        }
    }

    // Telemetry export: snapshot once, feed every consumer the same data.
    if cli.metrics.is_some() || cli.trace.is_some() {
        let snapshots = telemetry::global().metrics().snapshot();
        let spans = telemetry::global().spans().snapshot();
        eprint!("{}", render_summary(&snapshots, &spans));
        let write = |path: &str, contents: String| match std::fs::write(path, contents) {
            Ok(()) => eprintln!("[repro] wrote {path}"),
            Err(e) => eprintln!("[repro] failed writing {path}: {e}"),
        };
        if let Some(path) = &cli.metrics {
            write(path, telemetry::export::prometheus(&snapshots));
        }
        if let Some(path) = &cli.trace {
            write(path, telemetry::export::chrome_trace(&spans));
        }
    }
}

/// Renders the end-of-run observability summary: the slowest engine
/// tasks, cache hit rates, and per-model fit time.
fn render_summary(
    snapshots: &[telemetry::MetricSnapshot],
    spans: &[telemetry::SpanRecord],
) -> String {
    use std::fmt::Write as _;
    let counter = |name: &str| -> u64 {
        snapshots.iter().filter(|s| s.name == name).filter_map(|s| s.value.as_counter()).sum()
    };
    let mut out = String::from("[repro] == telemetry summary ==\n");

    let slow = telemetry::slowest(spans, "engine.task", 10);
    if !slow.is_empty() {
        out.push_str("[repro] slowest tasks:\n");
        for r in &slow {
            let label = |key: &str| {
                r.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str()).unwrap_or("")
            };
            let _ = writeln!(
                out,
                "[repro]   {:>9.3}s  {:<11} {:<8} {:<6} eps={:<6} model={} seed={}",
                r.dur_us as f64 / 1e6,
                label("family"),
                label("dataset"),
                label("method"),
                label("epsilon"),
                label("model"),
                label("seed"),
            );
        }
    }

    let mut cache_line = |what: &str, hits: u64, misses: u64| {
        let total = hits + misses;
        if total > 0 {
            let _ = writeln!(
                out,
                "[repro] {what} cache: {hits} hit(s) / {misses} miss(es) ({:.1}% hit rate)",
                100.0 * hits as f64 / total as f64
            );
        }
    };
    cache_line(
        "transform",
        counter("transform_cache_hits_total"),
        counter("transform_cache_misses_total"),
    );
    cache_line(
        "dataset",
        counter("dataset_cache_hits_total"),
        counter("dataset_cache_misses_total"),
    );

    // Store-backed runs: ingest volume, sealed chunks per codec, and the
    // seal/read latency histograms (zero everywhere on legacy runs, so
    // the section only prints when the store actually ran).
    let ingested = counter("store_points_ingested_total");
    if ingested > 0 {
        let _ = writeln!(out, "[repro] store: {ingested} point(s) ingested");
        for s in snapshots.iter().filter(|s| s.name == "store_chunks_sealed_total") {
            let codec =
                s.labels.iter().find(|(k, _)| k == "codec").map(|(_, v)| v.as_str()).unwrap_or("?");
            if let Some(sealed) = s.value.as_counter() {
                let _ = writeln!(out, "[repro]   {codec:<8} {sealed} chunk(s) sealed");
            }
        }
        for (name, what) in [("store_seal_seconds", "seal"), ("store_read_seconds", "read")] {
            let (count, sum) = snapshots
                .iter()
                .filter(|s| s.name == name)
                .filter_map(|s| s.value.as_histogram_totals())
                .fold((0u64, 0.0f64), |(c, t), (n, s)| (c + n, t + s));
            if count > 0 {
                let _ = writeln!(
                    out,
                    "[repro]   {what}: {count} op(s) {sum:.3}s total {:.1}us avg",
                    1e6 * sum / count as f64
                );
            }
        }
    }

    let mut fit_rows: Vec<(&str, u64, f64)> = snapshots
        .iter()
        .filter(|s| s.name == "model_fit_seconds")
        .filter_map(|s| {
            let (count, sum) = s.value.as_histogram_totals()?;
            let model =
                s.labels.iter().find(|(k, _)| k == "model").map(|(_, v)| v.as_str()).unwrap_or("?");
            Some((model, count, sum))
        })
        .collect();
    fit_rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    if !fit_rows.is_empty() {
        out.push_str("[repro] fit time per model:\n");
        for (model, count, sum) in fit_rows {
            let _ = writeln!(
                out,
                "[repro]   {model:<12} {count:>4} fit(s) {sum:>9.3}s total {:>8.3}s avg",
                sum / count.max(1) as f64
            );
        }
    }

    // Batched inference: windows predicted and predict_batch latency per
    // model, mirroring the fit section above.
    let windows_for = |model: &str| -> u64 {
        snapshots
            .iter()
            .filter(|s| s.name == "predict_windows_total")
            .filter(|s| s.labels.iter().any(|(k, v)| k == "model" && v == model))
            .filter_map(|s| s.value.as_counter())
            .sum()
    };
    let mut predict_rows: Vec<(&str, u64, f64)> = snapshots
        .iter()
        .filter(|s| s.name == "predict_batch_seconds")
        .filter_map(|s| {
            let (count, sum) = s.value.as_histogram_totals()?;
            let model =
                s.labels.iter().find(|(k, _)| k == "model").map(|(_, v)| v.as_str()).unwrap_or("?");
            Some((model, count, sum))
        })
        .collect();
    predict_rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    if !predict_rows.is_empty() {
        out.push_str("[repro] inference per model:\n");
        for (model, batches, sum) in predict_rows {
            let windows = windows_for(model);
            let _ = writeln!(
                out,
                "[repro]   {model:<12} {windows:>6} window(s) in {batches:>5} batch(es) \
                 {sum:>9.3}s total {:>9.0} windows/s",
                windows as f64 / sum.max(1e-9)
            );
        }
    }
    out
}
