//! The per-layer split of a traced run.
//!
//! Every number here is read from outside the program: the counter and
//! histogram sums the crates already export through `telemetry`, the
//! serve `stats` opcode, the benchmark's own `bench.stage` spans around
//! each stage call, and, where no exported sum exists, replays of a
//! serving layer's public functions on the served model and series. Busy
//! times are given as a share of the run's thread-seconds (wall ×
//! threads), so a layer that does no work on a workload reads 0.

use std::collections::HashMap;
use std::time::Instant;

use analysis::shap::mean_abs_shap;
use forecast::gboost::{GbmConfig, GbmRegressor};
use forecast::Forecaster;
use neural::tensor::Tensor;
use serve::registry::ModelSpec;
use serve::wire::{self, Request, Response};
use serve::{ModelRegistry, Server};
use store::{ChunkCodec, SeriesId, StoreConfig, TsStore};
use telemetry::{MetricSnapshot, SpanRecord};
use tsdata::series::SeriesSource;

use crate::util::{median, Metric};

/// What the serving workloads observed in their traced phase.
pub struct ServeObservations<'a> {
    pub server: &'a Server,
    pub spec: &'a ModelSpec,
    pub model: &'a dyn Forecaster,
    /// The served series' base values (writes continue it cyclically).
    pub series: &'a [f64],
    pub series_len: usize,
    pub input_len: usize,
    pub horizon: usize,
    pub forecasts: u64,
    /// Client time from send to reply, summed over the traced forecasts.
    pub service_s: f64,
    pub untraced_p50_s: f64,
    pub traced_p50_s: f64,
    pub late_share: f64,
    pub late_max_ms: f64,
    pub stats_before: HashMap<String, u64>,
    pub stats_after: HashMap<String, u64>,
    pub generate_s: f64,
}

/// Inputs to the layer split.
pub struct LayerInputs<'a> {
    pub workload: &'static str,
    /// Wall seconds of one traced repetition (grid) or of the traced
    /// phase (serve).
    pub wall_s: f64,
    /// The same without tracing.
    pub untraced_wall_s: f64,
    /// Traced repetitions the exported sums cover.
    pub reps: usize,
    pub threads: usize,
    /// Characteristic-difference rows (features then TFE) of the grid's
    /// characteristics stage.
    pub shap_rows: Option<&'a [f64]>,
    /// Transform seconds inside the characteristics cells, summed over
    /// the traced repetitions.
    pub cell_transform_s: f64,
    pub serve: Option<&'a ServeObservations<'a>>,
}

/// Exported sums, filtered by name and label.
struct Exported {
    snapshots: Vec<MetricSnapshot>,
    spans: Vec<SpanRecord>,
}

impl Exported {
    fn matching<'s>(
        &'s self,
        name: &'s str,
        label: Option<(&'s str, &'s str)>,
    ) -> impl Iterator<Item = &'s MetricSnapshot> {
        self.snapshots.iter().filter(move |s| {
            s.name == name
                && label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }

    fn counter(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.matching(name, label).filter_map(|s| s.value.as_counter()).sum::<u64>() as f64
    }

    /// `(count, sum)` of a histogram across its label sets.
    fn hist(&self, name: &str, label: Option<(&str, &str)>) -> (f64, f64) {
        self.matching(name, label)
            .filter_map(|s| s.value.as_histogram_totals())
            .fold((0.0, 0.0), |(c, t), (n, s)| (c + n as f64, t + s))
    }

    fn stage_s(&self, stage: &str) -> f64 {
        self.spans
            .iter()
            .filter(|r| r.name == "bench.stage")
            .filter(|r| r.labels.iter().any(|(k, v)| k == "stage" && v == stage))
            .map(|r| r.dur_us as f64 / 1e6)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median seconds per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Replays `TsStore` ingest and the server's trailing-window read on a
/// store holding `values` as one Gorilla series. Returns
/// `(read_window_s, ingest_16_s, chunks)`.
fn store_replay(values: &[f64], input_len: usize) -> (f64, f64, usize) {
    let store = TsStore::new(StoreConfig::default());
    let id = SeriesId(1);
    store.create_series(id, ChunkCodec::Gorilla, 0.0).expect("fresh series");
    let points: Vec<(i64, f64)> =
        values.iter().enumerate().map(|(i, &v)| (i as i64 * 900, v)).collect();
    store.append_batch(id, points).expect("in-cadence points");
    let chunks = store.num_chunks(id).expect("series exists");
    let read = per_call(200, || {
        let view = store.read(id).expect("series exists");
        let len = view.len();
        let window: Vec<f64> = view.iter_values().skip(len - input_len).collect();
        std::hint::black_box(window);
    });
    let mut next = values.len();
    let ingest = per_call(200, || {
        let batch: Vec<(i64, f64)> =
            (next..next + 16).map(|p| (p as i64 * 900, values[p % values.len()])).collect();
        store.append_batch(id, batch).expect("in-cadence points");
        next += 16;
    });
    (read, ingest, chunks)
}

/// Replays one forecast exchange through the wire codec: request
/// encode + decode, response encode + decode.
fn wire_replay(spec: &ModelSpec, horizon: usize) -> f64 {
    let req = Request::Forecast { spec: spec.clone(), series: 1 };
    let resp = Response::Forecast { values: (0..horizon).map(|i| i as f64 * 0.5).collect() };
    per_call(2_000, || {
        let r = wire::decode_request(&wire::encode_request(&req)).expect("own frame");
        let p = wire::decode_response(&wire::encode_response(&resp)).expect("own frame");
        std::hint::black_box((r, p));
    })
}

/// Replays a warm `ModelRegistry::get`.
fn registry_replay(registry: &ModelRegistry, spec: &ModelSpec) -> f64 {
    per_call(2_000, || {
        std::hint::black_box(registry.get(spec).expect("resident spec"));
    })
}

/// Per-window seconds of a batched predict over 64 windows of `values`.
fn predict_replay(model: &dyn Forecaster, values: &[f64], input_len: usize) -> f64 {
    const ROWS: usize = 64;
    let mut windows = Tensor::zeros(ROWS, input_len);
    let stride = (values.len() - input_len) / ROWS;
    for r in 0..ROWS {
        windows.data_mut()[r * input_len..(r + 1) * input_len]
            .copy_from_slice(&values[r * stride..r * stride + input_len]);
    }
    per_call(5, || {
        std::hint::black_box(model.predict_batch(&windows).expect("served model predicts"));
    }) / ROWS as f64
}

/// Replays of the serving path's layers on the served model and series.
/// The grids never reach these layers, so they read 0 there.
#[derive(Default)]
struct ServeReplays {
    gru_us: f64,
    read_us: f64,
    ingest_us: f64,
    chunks: f64,
    wire_us: f64,
    get_us: f64,
}

fn serve_replays(o: &ServeObservations<'_>) -> ServeReplays {
    let series: Vec<f64> = (0..o.series_len).map(|p| o.series[p % o.series.len()]).collect();
    let (read_s, ingest_s, chunks) = store_replay(&series, o.input_len);
    let gru_s =
        if o.model.name() == "GRU" { predict_replay(o.model, &series, o.input_len) } else { 0.0 };
    ServeReplays {
        gru_us: gru_s * 1e6,
        read_us: read_s * 1e6,
        ingest_us: ingest_s * 1e6,
        chunks: chunks as f64,
        wire_us: wire_replay(o.spec, o.horizon) * 1e6,
        get_us: registry_replay(o.server.registry(), o.spec) * 1e6,
    }
}

/// Replays the characteristics stage's TFE predictor fit plus TreeSHAP.
fn shap_replay(rows: &[f64]) -> f64 {
    let width = analysis::features::NUM_FEATURES + 1;
    let n = rows.len() / width;
    let mut x = Vec::with_capacity(n * (width - 1));
    let mut y = Vec::with_capacity(n);
    for row in rows.chunks_exact(width) {
        x.extend_from_slice(&row[..width - 1]);
        y.push(row[width - 1]);
    }
    per_call(3, || {
        let config = GbmConfig { n_estimators: 80, ..Default::default() };
        let model = GbmRegressor::fit(&x, &y, width - 1, config);
        std::hint::black_box(mean_abs_shap(&model, &x, n));
    })
}

/// Computes every per-layer metric for one traced run.
pub fn collect(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let t = telemetry::global();
    let spans = t.spans().snapshot();
    let trace_json = telemetry::export::chrome_trace(&spans);
    let ex = Exported { snapshots: t.metrics().snapshot(), spans };
    write_trace(inp.workload, &trace_json);

    let reps = inp.reps.max(1) as f64;
    let thread_s = inp.wall_s * inp.threads as f64;
    let share = |busy: f64| ratio(busy / reps, thread_s);
    let per_rep = |v: f64| v / reps;
    let mut m = Vec::new();

    // tsdata
    let (gen_n, gen_s) = ex.hist("dataset_generate_seconds", None);
    let (gen_n, gen_s) = match inp.serve {
        Some(obs) => (2.0, obs.generate_s),
        None => (per_rep(gen_n), per_rep(gen_s)),
    };
    m.push(Metric::new("tsdata.generate_s", "s", gen_s));
    m.push(Metric::new("tsdata.generate_count", "count", gen_n));

    // compression
    let (tf_n, tf_s) = ex.hist("codec_transform_seconds", None);
    let bytes_in = ex.counter("codec_bytes_in_total", None);
    let (_, gorilla_s) = ex.hist("engine_task_seconds", Some(("family", "gorilla")));
    m.push(Metric::new("compression.transforms", "count", per_rep(tf_n)));
    m.push(Metric::new("compression.transform_share", "share", share(tf_s)));
    m.push(Metric::new("compression.mb_per_s", "MB/s", ratio(bytes_in / 1e6, tf_s)));
    m.push(Metric::new("compression.gorilla_share", "share", share(gorilla_s)));

    // evalcore.cache
    let hit_ratio = |hits: &str, misses: &str| {
        let h = ex.counter(hits, None);
        ratio(h, h + ex.counter(misses, None))
    };
    m.push(Metric::new(
        "cache.transform_hit_ratio",
        "ratio",
        hit_ratio("transform_cache_hits_total", "transform_cache_misses_total"),
    ));
    m.push(Metric::new(
        "cache.dataset_hit_ratio",
        "ratio",
        hit_ratio("dataset_cache_hits_total", "dataset_cache_misses_total"),
    ));

    // evalcore.engine
    let tasks = ex.counter("engine_tasks_total", None);
    let ok_tasks = ex.counter("engine_tasks_total", Some(("status", "ok")));
    let (_, busy_s) = ex.hist("engine_task_seconds", None);
    let longest_us = ex.spans.iter().filter(|r| r.name == "engine.task").map(|r| r.dur_us).max();
    m.push(Metric::new("engine.tasks", "count", per_rep(tasks)));
    m.push(Metric::new("engine.failed", "count", per_rep(tasks - ok_tasks)));
    m.push(Metric::new("engine.busy_share", "share", share(busy_s)));
    let idle = if tasks > 0.0 { 1.0 - share(busy_s) } else { 0.0 };
    m.push(Metric::new("engine.idle_share", "share", idle));
    m.push(Metric::new("engine.steals", "count", per_rep(ex.counter("engine_steals_total", None))));
    m.push(Metric::new(
        "engine.longest_task_share",
        "share",
        ratio(longest_us.unwrap_or(0) as f64 / 1e6, inp.wall_s),
    ));

    // forecast
    let (fit_n, fit_s) = ex.hist("model_fit_seconds", None);
    for model in ["GBoost", "DLinear", "Arima"] {
        let (_, s) = ex.hist("model_fit_seconds", Some(("model", model)));
        m.push(Metric::new(format!("forecast.fit_share.{model}"), "share", share(s)));
    }
    m.push(Metric::new("forecast.fit_count", "count", per_rep(fit_n)));
    let (_, grid_predict_s) = ex.hist("predict_batch_seconds", None);
    let (_, serve_predict_s) = ex.hist("serve_predict_seconds", None);
    m.push(Metric::new("forecast.predict_share", "share", share(grid_predict_s + serve_predict_s)));
    let windows =
        ex.counter("predict_windows_total", None) + ex.counter("serve_batch_jobs_total", None);
    m.push(Metric::new("forecast.predict_windows", "count", per_rep(windows)));

    // neural
    let (_, epoch_s) = ex.hist("train_epoch_seconds", None);
    m.push(Metric::new(
        "neural.train_epochs",
        "count",
        per_rep(ex.counter("train_epochs_total", None)),
    ));
    m.push(Metric::new("neural.train_share", "share", share(epoch_s)));

    let replays = inp.serve.map(serve_replays).unwrap_or_default();
    m.push(Metric::new("neural.predict_us_per_window", "us", replays.gru_us));

    // analysis
    let wall_share = |stage: &str| ratio(per_rep(ex.stage_s(stage)), inp.wall_s);
    m.push(Metric::new("analysis.characteristics_share", "share", wall_share("characteristics")));
    m.push(Metric::new("analysis.elbows_share", "share", wall_share("elbows")));
    let shap_s = inp.shap_rows.map_or(0.0, shap_replay);
    m.push(Metric::new("analysis.shap_s", "s", shap_s));

    // store
    m.push(Metric::new("store.read_window_us", "us", replays.read_us));
    m.push(Metric::new("store.ingest_us", "us", replays.ingest_us));
    m.push(Metric::new("store.chunks", "count", replays.chunks));
    let (decodes, _) = ex.hist("store_read_seconds", None);
    let forecasts = inp.serve.map_or(0, |o| o.forecasts) as f64;
    m.push(Metric::new("store.chunk_decodes_per_forecast", "ratio", ratio(decodes, forecasts)));

    // serve.wire and serve.registry
    m.push(Metric::new("wire.codec_us", "us", replays.wire_us));
    let delta = |k: &str| {
        inp.serve.map_or(0.0, |o| {
            o.stats_after
                .get(k)
                .copied()
                .unwrap_or(0)
                .saturating_sub(o.stats_before.get(k).copied().unwrap_or(0)) as f64
        })
    };
    let (hits, misses) = (delta("registry_hits"), delta("registry_misses"));
    m.push(Metric::new("registry.hit_ratio", "ratio", ratio(hits, hits + misses)));
    m.push(Metric::new("registry.get_us", "us", replays.get_us));

    // serve.scheduler and serve.server
    let (batches, jobs) = (delta("batches"), delta("batched_jobs"));
    let (fc_n, fc_s) = ex.hist("serve_request_seconds", Some(("type", "forecast")));
    let (in_n, in_s) = ex.hist("serve_request_seconds", Some(("type", "ingest")));
    let forecast_us = ratio(fc_s, fc_n) * 1e6;
    let predict_per_batch_us = ratio(serve_predict_s, batches) * 1e6;
    m.push(Metric::new("scheduler.occupancy", "ratio", ratio(jobs, batches)));
    m.push(Metric::new(
        "scheduler.rejected_share",
        "share",
        ratio(delta("scheduler_rejected"), forecasts),
    ));
    m.push(Metric::new("scheduler.predict_us_per_job", "us", ratio(serve_predict_s, jobs) * 1e6));
    let wait_us = if fc_n > 0.0 {
        (forecast_us - replays.get_us - replays.read_us - predict_per_batch_us).max(0.0)
    } else {
        0.0
    };
    m.push(Metric::new("scheduler.wait_us", "us", wait_us));
    m.push(Metric::new("server.forecast_us", "us", forecast_us));
    m.push(Metric::new("server.ingest_us", "us", ratio(in_s, in_n) * 1e6));
    let service_us = inp.serve.map_or(0.0, |o| ratio(o.service_s, forecasts) * 1e6);
    let net_us = if fc_n > 0.0 { (service_us - forecast_us).max(0.0) } else { 0.0 };
    m.push(Metric::new("server.net_us", "us", net_us));
    m.push(Metric::new("bench.gen.late_share", "share", inp.serve.map_or(0.0, |o| o.late_share)));
    m.push(Metric::new("bench.gen.late_max_ms", "ms", inp.serve.map_or(0.0, |o| o.late_max_ms)));

    // telemetry: the cost and completeness of the split itself.
    let overhead = match inp.serve {
        Some(o) => ratio(o.traced_p50_s, o.untraced_p50_s) - 1.0,
        None => ratio(inp.wall_s, inp.untraced_wall_s) - 1.0,
    };
    m.push(Metric::new("telemetry.overhead_share", "share", overhead));
    let coverage = match inp.serve {
        // Share of the client-observed service time that the server's
        // request histogram plus the wire codec account for.
        Some(_) => ratio(forecast_us + replays.wire_us, service_us),
        // Share of engine task time the leaf layers account for: dataset
        // generation, transforms, fits, predicts, Gorilla tasks, and the
        // characteristics cells net of the transforms they contain.
        None => {
            let (_, transform_s) = ex.hist("transform_compute_seconds", None);
            let (_, cells_s) = ex.hist("engine_task_seconds", Some(("family", "task")));
            let cells_net_s = cells_s - inp.cell_transform_s;
            let leaves = gen_s * reps + transform_s + fit_s + grid_predict_s + gorilla_s;
            ratio(leaves + cells_net_s, busy_s)
        }
    };
    m.push(Metric::new("trace.coverage", "share", coverage));
    m
}

/// Writes the traced run's spans as Chrome trace-event JSON next to the
/// benchmark, so the split can be inspected in a trace viewer.
fn write_trace(workload: &str, json: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let path = dir.join(format!("trace-{workload}.json"));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("[e2ebench] wrote {}", path.display()),
        Err(e) => eprintln!("[e2ebench] cannot write {}: {e}", path.display()),
    }
}
