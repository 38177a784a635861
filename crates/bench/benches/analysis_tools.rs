//! Cost of the analysis toolkit: the 42-characteristic extraction, its
//! hottest kernels, TreeSHAP attribution, Kneedle, and the Spearman
//! correlation — the per-cell cost of the paper's §4.3 analyses.
//!
//! The extraction and kernel rows (`features42`, `holt_parameters`,
//! `max_kl_shift`, `gbm_fit`) are measured in the benchmark group
//! `change` and written to `BENCH_analysis.json` at the repository root.
//! That file also holds `parent` rows: the same benchmarks run on the
//! commit before the bit-identical kernel rewrite (row-major GBoost
//! histograms, eight-lane Holt grid search, KL-shift density reuse). A
//! run keeps the `parent` rows it finds and rewrites the `change` rows.
//!
//! ```text
//! cargo bench -p bench --bench analysis_tools
//! ```

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;

use analysis::correlation::spearman;
use analysis::features::{extract, FeatureOptions, NUM_FEATURES};
use analysis::holt::holt_parameters;
use analysis::kneedle::{kneedle, Shape};
use analysis::rolling::max_kl_shift;
use analysis::shap::gbm_shap;
use forecast::gboost::{GBoostConfig, GbmConfig, GbmRegressor};
use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};

/// The extraction and the three kernels the rewrite targets, on the
/// quick grid's 2000-point ETTm1 series.
fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("change");
    for n in [2_000usize, 8_000] {
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(n));
        let opts = FeatureOptions { period: Some(96), shift_window: 48, cap: None };
        group.bench_with_input(BenchmarkId::new("features42", n), &series, |b, s| {
            b.iter(|| extract(black_box(s.values()), opts))
        });
    }
    let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(2_000));
    let x = series.values();
    group.bench_function("holt_parameters/2000", |b| b.iter(|| holt_parameters(black_box(x))));
    group.bench_function("max_kl_shift/2000", |b| b.iter(|| max_kl_shift(black_box(x), 48)));

    // One booster of the default GBoost configuration (80 trees, 0.8
    // subsample, 64 bins) on the 48-lag windows at stride 2 of that
    // series' standardised 70% training split (671 rows), next value as
    // the target.
    let train = &x[..1_400];
    let mean = train.iter().sum::<f64>() / train.len() as f64;
    let sd =
        (train.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / train.len() as f64).sqrt();
    let y: Vec<f64> = train.iter().map(|v| (v - mean) / sd).collect();
    let (k, h) = (48, 12);
    let starts: Vec<usize> = (0..y.len() - k - (h - 1)).step_by(2).collect();
    let features: Vec<f64> = starts.iter().flat_map(|&s| y[s..s + k].iter().copied()).collect();
    let targets: Vec<f64> = starts.iter().map(|&s| y[s + k]).collect();
    let gbm = GBoostConfig::default().gbm;
    group.bench_function(format!("gbm_fit/{}x{k}", starts.len()), |b| {
        b.iter(|| GbmRegressor::fit(black_box(&features), black_box(&targets), k, gbm))
    });
    group.finish();
}

fn bench_shap(c: &mut Criterion) {
    // A TFE-predictor-sized model: 42 features, 80 trees of depth 3.
    let n = 200;
    let mut state = 7u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let features: Vec<f64> = (0..n * NUM_FEATURES).map(|_| rand() * 2.0).collect();
    let targets: Vec<f64> =
        (0..n).map(|r| features[r * NUM_FEATURES] * 2.0 + features[r * NUM_FEATURES + 1]).collect();
    let model = GbmRegressor::fit(
        &features,
        &targets,
        NUM_FEATURES,
        GbmConfig { n_estimators: 80, ..Default::default() },
    );
    c.bench_function("treeshap/80trees_42features", |b| {
        b.iter(|| gbm_shap(black_box(&model), black_box(&features[..NUM_FEATURES])))
    });
}

fn bench_kneedle_and_spearman(c: &mut Criterion) {
    let x: Vec<f64> = (0..13).map(|i| 0.01 + i as f64 * 0.006).collect();
    let y: Vec<f64> = x.iter().map(|&t| (t - 0.04).max(0.0).powi(2) * 100.0).collect();
    c.bench_function("kneedle/13pt_curve", |b| {
        b.iter(|| kneedle(black_box(&x), black_box(&y), Shape::ConvexIncreasing, 1.0))
    });
    let a: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
    let bb: Vec<f64> = (0..500).map(|i| ((i * 53) % 97) as f64).collect();
    c.bench_function("spearman/500", |b| b.iter(|| spearman(black_box(&a), black_box(&bb))));
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_extraction(&mut criterion);
    bench_shap(&mut criterion);
    bench_kneedle_and_spearman(&mut criterion);

    // cargo bench runs with the package dir as cwd; anchor the summary at
    // the workspace root next to the other BENCH_*.json files.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    let rows_of = |json: &str, group: &str| -> Vec<String> {
        let prefix = format!("{{\"group\": \"{group}\"");
        json.lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with(&prefix))
            .map(|l| format!("  {l}"))
            .collect()
    };
    let mut rows = rows_of(&std::fs::read_to_string(path).unwrap_or_default(), "parent");
    rows.extend(rows_of(&criterion.to_json(), "change"));
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
        .expect("write BENCH_analysis.json");
    println!("wrote {path}");
}
