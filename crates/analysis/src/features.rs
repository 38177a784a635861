//! The 42 time-series characteristics (§4.3.1: "we analyze 42
//! characteristics extracted using the R ts-feature package").
//!
//! Each characteristic is computed identically on the original and the
//! decompressed series; the paper's analyses use the per-characteristic
//! difference (SHAP/GBoost) and relative difference (Table 6).

use tsdata::stats::{mean, std_dev, variance};

use crate::acf;
use crate::decomp::{decompose, stl_features};
use crate::holt::holt_parameters;
use crate::rolling;
use crate::spectral::spectral_entropy;
use crate::unitroot;

/// Number of characteristics.
pub const NUM_FEATURES: usize = 42;

/// Characteristic names, in the fixed extraction order.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "mean",
    "var",
    "std",
    "entropy",
    "stability",
    "lumpiness",
    "max_level_shift",
    "time_level_shift",
    "max_var_shift",
    "time_var_shift",
    "max_kl_shift",
    "time_kl_shift",
    "crossing_points",
    "flat_spots",
    "hurst",
    "unitroot_kpss",
    "unitroot_pp",
    "trend",
    "seas_strength",
    "spike",
    "linearity",
    "curvature",
    "e_acf1",
    "e_acf10",
    "peak",
    "trough",
    "x_acf1",
    "x_acf10",
    "diff1_acf1",
    "diff1_acf10",
    "diff2_acf1",
    "diff2_acf10",
    "seas_acf1",
    "x_pacf5",
    "diff1x_pacf5",
    "diff2x_pacf5",
    "seas_pacf",
    "nonlinearity",
    "arch_stat",
    "alpha",
    "beta",
    "firstzero_ac",
];

/// A fixed-order vector of the 42 characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; NUM_FEATURES],
}

impl FeatureVector {
    /// All values, ordered as [`FEATURE_NAMES`].
    pub fn values(&self) -> &[f64; NUM_FEATURES] {
        &self.values
    }

    /// Value by characteristic name.
    ///
    /// # Panics
    /// Panics on an unknown name.
    pub fn get(&self, name: &str) -> f64 {
        let i = FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown characteristic {name}"));
        self.values[i]
    }

    /// Elementwise difference `self - other` (the SHAP/GBoost input of
    /// §4.3.1 is the difference between decompressed and original).
    pub fn diff(&self, other: &FeatureVector) -> [f64; NUM_FEATURES] {
        let mut out = [0.0; NUM_FEATURES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.values[i] - other.values[i];
        }
        out
    }

    /// Relative difference in percent, per Table 6:
    /// `|self - other| / |other| * 100` (0 when both are 0; capped at a
    /// large finite value when only the reference is 0).
    pub fn relative_diff_pct(&self, other: &FeatureVector) -> [f64; NUM_FEATURES] {
        let mut out = [0.0; NUM_FEATURES];
        for (i, o) in out.iter_mut().enumerate() {
            let (a, b) = (self.values[i], other.values[i]);
            *o = if b.abs() > 1e-12 {
                (a - b).abs() / b.abs() * 100.0
            } else if a.abs() > 1e-12 {
                1e6
            } else {
                0.0
            };
        }
        out
    }
}

/// Extraction options.
#[derive(Debug, Clone, Copy)]
pub struct FeatureOptions {
    /// Seasonal period in samples (`None` = non-seasonal features only).
    pub period: Option<usize>,
    /// Rolling-window width for the shift features (tsfeatures default
    /// uses the frequency; the paper's datasets make a daily window
    /// natural). Defaults to 48.
    pub shift_window: usize,
    /// Cap on series length (most recent points kept); `None` = all.
    pub cap: Option<usize>,
}

impl Default for FeatureOptions {
    fn default() -> Self {
        FeatureOptions { period: None, shift_window: 48, cap: Some(20_000) }
    }
}

/// Teräsvirta-style nonlinearity statistic: `n · ΔR²` of cubic lag terms
/// over the linear AR(1) fit.
fn nonlinearity(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 10 {
        return 0.0;
    }
    let y = &x[1..];
    let lag = &x[..n - 1];
    let m = y.len();
    let fit_r2 = |design: &dyn Fn(f64) -> Vec<f64>, cols: usize| -> f64 {
        let mut xm = Vec::with_capacity(m * cols);
        for &l in lag {
            xm.extend(design(l));
        }
        match forecast::linalg::lstsq(&xm, y, m, cols) {
            Ok(beta) => {
                let my = mean(y);
                let mut sse = 0.0;
                let mut sst = 0.0;
                for (r, &target) in y.iter().enumerate() {
                    let mut pred = 0.0;
                    for c in 0..cols {
                        pred += xm[r * cols + c] * beta[c];
                    }
                    sse += (target - pred) * (target - pred);
                    sst += (target - my) * (target - my);
                }
                if sst < 1e-12 {
                    0.0
                } else {
                    1.0 - sse / sst
                }
            }
            Err(_) => 0.0,
        }
    };
    let r2_lin = fit_r2(&|l| vec![1.0, l], 2);
    let r2_cubic = fit_r2(&|l| vec![1.0, l, l * l, l * l * l], 4);
    (m as f64 * (r2_cubic - r2_lin).max(0.0)).min(1e6)
}

/// ARCH effect statistic: `n · R²` of squared values regressed on 12 lags
/// of squared values.
fn arch_stat(x: &[f64]) -> f64 {
    const LAGS: usize = 12;
    let m = mean(x);
    let sq: Vec<f64> = x.iter().map(|v| (v - m) * (v - m)).collect();
    let n = sq.len();
    if n < LAGS + 10 {
        return 0.0;
    }
    let rows = n - LAGS;
    let cols = LAGS + 1;
    let mut xm = Vec::with_capacity(rows * cols);
    let mut y = Vec::with_capacity(rows);
    for t in LAGS..n {
        xm.push(1.0);
        for j in 1..=LAGS {
            xm.push(sq[t - j]);
        }
        y.push(sq[t]);
    }
    match forecast::linalg::lstsq(&xm, &y, rows, cols) {
        Ok(beta) => {
            let my = mean(&y);
            let mut sse = 0.0;
            let mut sst = 0.0;
            for (r, &target) in y.iter().enumerate() {
                let mut pred = 0.0;
                for c in 0..cols {
                    pred += xm[r * cols + c] * beta[c];
                }
                sse += (target - pred) * (target - pred);
                sst += (target - my) * (target - my);
            }
            if sst < 1e-12 {
                0.0
            } else {
                rows as f64 * (1.0 - sse / sst).max(0.0)
            }
        }
        Err(_) => 0.0,
    }
}

/// Extracts all 42 characteristics.
pub fn extract(series: &[f64], opts: FeatureOptions) -> FeatureVector {
    let x: &[f64] = match opts.cap {
        Some(cap) if series.len() > cap => &series[series.len() - cap..],
        _ => series,
    };
    let w = opts.shift_window.max(2);
    let d1 = acf::diff(x);
    let d2 = acf::diff(&d1);
    let dec = decompose(x, opts.period);
    let stl = stl_features(&dec);
    let holt = holt_parameters(x);
    let seas_lag = opts.period.filter(|&p| p > 1);
    // One ACF per series at the longest lag any characteristic reads. A
    // lag's value does not depend on how many lags are computed, and the
    // PACF at lag k reads only the ACF up to k, so every characteristic
    // below gets the same bits as from its own `acf`/`pacf` call.
    const FIRST_ZERO_LAGS: usize = 100;
    let x_acf = acf::acf(x, FIRST_ZERO_LAGS.max(seas_lag.unwrap_or(0)));
    let x_pacf = acf::pacf_from_acf(&x_acf[..5.max(seas_lag.unwrap_or(0))]);
    let d1_acf = acf::acf(&d1, 10);
    let d2_acf = acf::acf(&d2, 10);

    let level = rolling::max_level_shift(x, w);
    let var_s = rolling::max_var_shift(x, w);
    let kl = rolling::max_kl_shift(x, w);

    let values = [
        mean(x),
        variance(x),
        std_dev(x),
        spectral_entropy(x),
        rolling::stability(x, w),
        rolling::lumpiness(x, w),
        level.max,
        level.time,
        var_s.max,
        var_s.time,
        kl.max,
        kl.time,
        rolling::crossing_points(x),
        rolling::flat_spots(x),
        rolling::hurst(x),
        unitroot::kpss(x),
        unitroot::phillips_perron(x),
        stl.trend_strength,
        stl.seasonal_strength,
        stl.spike,
        stl.linearity,
        stl.curvature,
        stl.e_acf1,
        stl.e_acf10,
        stl.peak,
        stl.trough,
        x_acf[0],
        acf::sum_sq(&x_acf[..10]),
        d1_acf[0],
        acf::sum_sq(&d1_acf),
        d2_acf[0],
        acf::sum_sq(&d2_acf),
        seas_lag.map_or(0.0, |lag| x_acf[lag - 1]),
        acf::sum_sq(&x_pacf[..5]),
        acf::sum_sq(&acf::pacf_from_acf(&d1_acf[..5])),
        acf::sum_sq(&acf::pacf_from_acf(&d2_acf[..5])),
        seas_lag.map_or(0.0, |lag| x_pacf[lag - 1]),
        nonlinearity(x),
        arch_stat(x),
        holt.alpha,
        holt.beta,
        acf::first_zero_of(&x_acf[..FIRST_ZERO_LAGS]) as f64,
    ];
    FeatureVector { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_noisy(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                10.0 + 3.0 * (i as f64 / 48.0 * std::f64::consts::TAU).sin() + noise * 0.5
            })
            .collect()
    }

    #[test]
    fn names_are_unique_and_42() {
        let mut names = FEATURE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_FEATURES);
        assert_eq!(NUM_FEATURES, 42);
    }

    #[test]
    fn extraction_is_finite_and_ordered() {
        let x = seasonal_noisy(3000, 5);
        let f = extract(&x, FeatureOptions { period: Some(48), ..Default::default() });
        for (name, v) in FEATURE_NAMES.iter().zip(f.values()) {
            assert!(v.is_finite(), "{name} is not finite: {v}");
        }
        assert_eq!(f.get("mean"), f.values()[0]);
        assert!((f.get("mean") - 10.0).abs() < 0.3);
    }

    #[test]
    fn seasonal_series_scores_high_seasonal_features() {
        let x = seasonal_noisy(3000, 6);
        let f = extract(&x, FeatureOptions { period: Some(48), ..Default::default() });
        assert!(f.get("seas_strength") > 0.8, "{}", f.get("seas_strength"));
        assert!(f.get("seas_acf1") > 0.5, "{}", f.get("seas_acf1"));
        assert!(f.get("entropy") < 0.7, "{}", f.get("entropy"));
    }

    #[test]
    fn identical_series_have_zero_diff() {
        let x = seasonal_noisy(2000, 7);
        let f1 = extract(&x, FeatureOptions::default());
        let f2 = extract(&x, FeatureOptions::default());
        assert!(f1.diff(&f2).iter().all(|&d| d == 0.0));
        assert!(f1.relative_diff_pct(&f2).iter().all(|&d| d == 0.0));
    }

    #[test]
    fn smoothing_reduces_kl_shift_and_variance() {
        // A crude stand-in for lossy compression: a moving average. The
        // paper's §4.3.1 observes compression acting as a smoother.
        let x = seasonal_noisy(4000, 8);
        let smoothed = crate::decomp::moving_average(&x, 9);
        let opts = FeatureOptions { period: Some(48), ..Default::default() };
        let f_raw = extract(&x, opts);
        let f_smooth = extract(&smoothed, opts);
        assert!(f_smooth.get("var") < f_raw.get("var"));
        assert!(f_smooth.get("entropy") < f_raw.get("entropy"));
    }

    #[test]
    fn shared_acf_matches_per_characteristic_calls() {
        // Every ACF/PACF characteristic must carry the bits of its own
        // `acf`/`pacf` call, whatever the longest lag computed.
        let x = seasonal_noisy(1500, 12);
        let d1 = acf::diff(&x);
        let d2 = acf::diff(&d1);
        for period in [None, Some(1), Some(48), Some(144)] {
            let f = extract(&x, FeatureOptions { period, ..Default::default() });
            let seas = period.filter(|&p| p > 1);
            let want = [
                ("x_acf1", acf::acf_at(&x, 1)),
                ("x_acf10", acf::sum_sq_acf(&x, 10)),
                ("diff1_acf1", acf::acf_at(&d1, 1)),
                ("diff1_acf10", acf::sum_sq_acf(&d1, 10)),
                ("diff2_acf1", acf::acf_at(&d2, 1)),
                ("diff2_acf10", acf::sum_sq_acf(&d2, 10)),
                ("seas_acf1", seas.map_or(0.0, |p| acf::acf_at(&x, p))),
                ("x_pacf5", acf::sum_sq_pacf(&x, 5)),
                ("diff1x_pacf5", acf::sum_sq_pacf(&d1, 5)),
                ("diff2x_pacf5", acf::sum_sq_pacf(&d2, 5)),
                ("seas_pacf", seas.map_or(0.0, |p| acf::pacf(&x, p)[p - 1])),
                ("firstzero_ac", acf::first_zero_acf(&x, 100) as f64),
            ];
            for (name, v) in want {
                assert_eq!(f.get(name).to_bits(), v.to_bits(), "{name} with period {period:?}");
            }
        }
    }

    #[test]
    fn relative_diff_handles_zero_reference() {
        let x = seasonal_noisy(1000, 9);
        let f = extract(&x, FeatureOptions::default());
        let mut other = f.clone();
        other.values[0] = 0.0; // reference mean = 0
        let rel = f.relative_diff_pct(&other);
        assert_eq!(rel[0], 1e6);
    }

    #[test]
    fn cap_limits_work() {
        let x = seasonal_noisy(30_000, 10);
        let f = extract(&x, FeatureOptions { cap: Some(2000), ..Default::default() });
        let f_tail = extract(&x[28_000..], FeatureOptions { cap: None, ..Default::default() });
        assert_eq!(f, f_tail);
    }

    #[test]
    fn arch_stat_detects_volatility_clustering() {
        // Alternate low/high volatility regimes.
        let mut state = 11u64;
        let mut x = Vec::with_capacity(4000);
        for i in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let vol = if (i / 200) % 2 == 0 { 0.1 } else { 3.0 };
            x.push(noise * vol);
        }
        let mut state = 21u64;
        let white: Vec<f64> = (0..4000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let hetero = arch_stat(&x);
        let homo = arch_stat(&white);
        assert!(hetero > homo, "arch {hetero} vs {homo}");
    }

    #[test]
    fn nonlinearity_detects_quadratic_map() {
        // A noisy logistic-style map is nonlinear in its lag.
        let mut x = vec![0.3];
        let mut state = 13u64;
        for _ in 1..3000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.01;
            let prev = *x.last().expect("non-empty");
            x.push(3.6 * prev * (1.0 - prev) + noise);
        }
        let lin: Vec<f64> = seasonal_noisy(3000, 14);
        assert!(nonlinearity(&x) > nonlinearity(&lin) * 2.0);
    }
}
