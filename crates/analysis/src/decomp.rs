//! Seasonal-trend decomposition and the STL-derived characteristics
//! (`trend`, `seas_strength`, `spike`, `linearity`, `curvature`, `e_acf1`,
//! `peak`, `trough`).
//!
//! R's tsfeatures uses STL (loess-based); this implementation uses the
//! classical moving-average decomposition, whose trend/seasonal/remainder
//! components are interchangeable for the *strength* statistics the paper
//! analyzes (both are variance ratios of the same three components).

use tsdata::stats::{mean, variance};

use crate::acf::{acf, sum_sq};

/// A decomposition into aligned trend/seasonal/remainder components.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Smoothed trend component.
    pub trend: Vec<f64>,
    /// Periodic component (all zeros when no season is given).
    pub seasonal: Vec<f64>,
    /// Residual after removing trend and seasonality.
    pub remainder: Vec<f64>,
    /// Seasonal period used (1 = none).
    pub period: usize,
}

/// Centered moving average with edge padding (window `w`, made odd).
pub fn moving_average(x: &[f64], w: usize) -> Vec<f64> {
    let n = x.len();
    let w = w.max(1) | 1; // odd
    let half = w / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        out.push(x[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
    }
    out
}

/// Classical additive decomposition. `period = None` (or 1) produces a
/// trend-only decomposition with zero seasonality.
pub fn decompose(x: &[f64], period: Option<usize>) -> Decomposition {
    let n = x.len();
    let period = period.unwrap_or(1).max(1);
    let trend_window = if period > 1 { period } else { (n / 10).clamp(3, 201) };
    let trend = moving_average(x, trend_window);
    let detrended: Vec<f64> = x.iter().zip(&trend).map(|(v, t)| v - t).collect();
    let seasonal = if period > 1 && n >= 2 * period {
        // Phase means, centered to sum to zero.
        let mut sums = vec![0.0; period];
        let mut counts = vec![0usize; period];
        for (i, &d) in detrended.iter().enumerate() {
            sums[i % period] += d;
            counts[i % period] += 1;
        }
        let mut phase: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        let m = mean(&phase);
        for p in phase.iter_mut() {
            *p -= m;
        }
        (0..n).map(|i| phase[i % period]).collect()
    } else {
        vec![0.0; n]
    };
    let remainder: Vec<f64> = detrended.iter().zip(&seasonal).map(|(d, s)| d - s).collect();
    Decomposition { trend, seasonal, remainder, period }
}

/// STL-style characteristics derived from a decomposition.
#[derive(Debug, Clone, Copy)]
pub struct StlFeatures {
    /// Strength of trend: `max(0, 1 − Var(R)/Var(T+R))`.
    pub trend_strength: f64,
    /// Strength of seasonality: `max(0, 1 − Var(R)/Var(S+R))`.
    pub seasonal_strength: f64,
    /// Variance of leave-one-out variances of the remainder.
    pub spike: f64,
    /// Linear coefficient of the trend on (scaled) time.
    pub linearity: f64,
    /// Quadratic coefficient of the trend on (scaled) time.
    pub curvature: f64,
    /// Lag-1 autocorrelation of the remainder.
    pub e_acf1: f64,
    /// Sum of squares of the first 10 remainder autocorrelations.
    pub e_acf10: f64,
    /// Phase (0-based) of the seasonal peak.
    pub peak: f64,
    /// Phase (0-based) of the seasonal trough.
    pub trough: f64,
}

/// Computes the STL feature block from a decomposition.
pub fn stl_features(d: &Decomposition) -> StlFeatures {
    let var_r = variance(&d.remainder);
    let tr: Vec<f64> = d.trend.iter().zip(&d.remainder).map(|(a, b)| a + b).collect();
    let sr: Vec<f64> = d.seasonal.iter().zip(&d.remainder).map(|(a, b)| a + b).collect();
    let ratio = |num: f64, den: f64| if den <= 1e-12 { 0.0 } else { (1.0 - num / den).max(0.0) };
    let trend_strength = ratio(var_r, variance(&tr));
    let seasonal_strength = if d.period > 1 { ratio(var_r, variance(&sr)) } else { 0.0 };

    // Spike: variance of leave-one-out variances of the remainder.
    let n = d.remainder.len();
    let spike = if n > 2 {
        let sum: f64 = d.remainder.iter().sum();
        let sum_sq: f64 = d.remainder.iter().map(|v| v * v).sum();
        let loo_vars: Vec<f64> = d
            .remainder
            .iter()
            .map(|&v| {
                let m = (sum - v) / (n - 1) as f64;
                (sum_sq - v * v) / (n - 1) as f64 - m * m
            })
            .collect();
        variance(&loo_vars)
    } else {
        0.0
    };

    // Linearity & curvature: OLS of trend on orthogonal-ish poly of scaled t.
    let (linearity, curvature) = {
        let n = d.trend.len() as f64;
        let ts: Vec<f64> = (0..d.trend.len()).map(|i| i as f64 / n).collect();
        let t_mean = mean(&ts);
        let t2: Vec<f64> = ts.iter().map(|t| (t - t_mean) * (t - t_mean)).collect();
        let t2_mean = mean(&t2);
        let y_mean = mean(&d.trend);
        let mut stt = 0.0;
        let mut sty = 0.0;
        let mut s22 = 0.0;
        let mut s2y = 0.0;
        for i in 0..d.trend.len() {
            let dt = ts[i] - t_mean;
            let d2 = t2[i] - t2_mean;
            let dy = d.trend[i] - y_mean;
            stt += dt * dt;
            sty += dt * dy;
            s22 += d2 * d2;
            s2y += d2 * dy;
        }
        (if stt > 1e-12 { sty / stt } else { 0.0 }, if s22 > 1e-12 { s2y / s22 } else { 0.0 })
    };

    let e_acf = acf(&d.remainder, 10);
    let (e_acf1, e_acf10) = (e_acf[0], sum_sq(&e_acf));

    let (peak, trough) = if d.period > 1 {
        let phase = &d.seasonal[..d.period.min(d.seasonal.len())];
        let mut peak = 0usize;
        let mut trough = 0usize;
        for (i, &v) in phase.iter().enumerate() {
            if v > phase[peak] {
                peak = i;
            }
            if v < phase[trough] {
                trough = i;
            }
        }
        (peak as f64, trough as f64)
    } else {
        (0.0, 0.0)
    };

    StlFeatures {
        trend_strength,
        seasonal_strength,
        spike,
        linearity,
        curvature,
        e_acf1,
        e_acf10,
        peak,
        trough,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(n: usize, period: usize, amp: f64, slope: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                slope * i as f64 + amp * (i as f64 / period as f64 * std::f64::consts::TAU).sin()
            })
            .collect()
    }

    #[test]
    fn moving_average_smooths() {
        let x: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 0.0 } else { 2.0 }).collect();
        let ma = moving_average(&x, 11);
        for v in &ma[10..90] {
            assert!((v - 1.0).abs() < 0.15, "{v}");
        }
    }

    #[test]
    fn decomposition_reconstructs() {
        let x = seasonal_series(500, 24, 3.0, 0.01);
        let d = decompose(&x, Some(24));
        for (i, &xi) in x.iter().enumerate() {
            let rebuilt = d.trend[i] + d.seasonal[i] + d.remainder[i];
            assert!((rebuilt - xi).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_strength_high_for_seasonal_series() {
        let x = seasonal_series(1000, 24, 5.0, 0.0);
        let f = stl_features(&decompose(&x, Some(24)));
        assert!(f.seasonal_strength > 0.9, "seasonal strength {}", f.seasonal_strength);
    }

    #[test]
    fn seasonal_strength_low_for_noise() {
        let mut state = 12345u64;
        let x: Vec<f64> = (0..1000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let f = stl_features(&decompose(&x, Some(24)));
        assert!(f.seasonal_strength < 0.35, "seasonal strength {}", f.seasonal_strength);
    }

    #[test]
    fn trend_strength_tracks_trendiness() {
        let trendy = seasonal_series(600, 24, 0.5, 0.05);
        let flat = seasonal_series(600, 24, 0.5, 0.0);
        let ft = stl_features(&decompose(&trendy, Some(24)));
        let ff = stl_features(&decompose(&flat, Some(24)));
        assert!(ft.trend_strength > ff.trend_strength);
        assert!(ft.trend_strength > 0.8, "{}", ft.trend_strength);
    }

    #[test]
    fn linearity_sign_follows_slope() {
        let up = seasonal_series(400, 24, 0.1, 0.05);
        let down = seasonal_series(400, 24, 0.1, -0.05);
        assert!(stl_features(&decompose(&up, Some(24))).linearity > 0.0);
        assert!(stl_features(&decompose(&down, Some(24))).linearity < 0.0);
    }

    #[test]
    fn curvature_detects_parabola() {
        let x: Vec<f64> = (0..400).map(|i| (i as f64 / 400.0 - 0.5).powi(2) * 100.0).collect();
        let f = stl_features(&decompose(&x, None));
        assert!(f.curvature > 0.0, "curvature {}", f.curvature);
    }

    #[test]
    fn peak_and_trough_phases() {
        // sin peaks at period/4, troughs at 3·period/4.
        let x = seasonal_series(960, 24, 4.0, 0.0);
        let f = stl_features(&decompose(&x, Some(24)));
        assert!((f.peak - 6.0).abs() <= 1.0, "peak {}", f.peak);
        assert!((f.trough - 18.0).abs() <= 1.0, "trough {}", f.trough);
    }

    #[test]
    fn nonseasonal_has_zero_seasonal_block() {
        let x: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let d = decompose(&x, None);
        assert!(d.seasonal.iter().all(|&v| v == 0.0));
        let f = stl_features(&d);
        assert_eq!(f.seasonal_strength, 0.0);
        assert_eq!(f.peak, 0.0);
    }
}
