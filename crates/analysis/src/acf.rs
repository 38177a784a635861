//! Autocorrelation and partial autocorrelation machinery used by the
//! `acf_features` / `pacf_features` characteristics (§4.3.1).

/// Sample autocorrelation at lags `1..=max_lag` (lag 0 omitted).
/// Uses the standard biased estimator (divides by `n` and the overall
/// variance), matching R's `acf`.
pub fn acf(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    if n < 2 {
        return vec![0.0; max_lag];
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let denom: f64 = x.iter().map(|v| (v - mean) * (v - mean)).sum();
    (1..=max_lag)
        .map(|k| {
            if k >= n || denom == 0.0 {
                0.0
            } else {
                let num: f64 = (0..n - k).map(|t| (x[t] - mean) * (x[t + k] - mean)).sum();
                num / denom
            }
        })
        .collect()
}

/// Autocorrelation at a single lag.
pub fn acf_at(x: &[f64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    acf(x, lag).pop().unwrap_or(0.0)
}

/// Partial autocorrelations at lags `1..=max_lag` via the Durbin–Levinson
/// recursion.
pub fn pacf(x: &[f64], max_lag: usize) -> Vec<f64> {
    pacf_from_acf(&acf(x, max_lag))
}

/// Partial autocorrelations at lags `1..=rho.len()` from the
/// autocorrelations `rho` at lags `1..=rho.len()` (as [`acf`] returns
/// them). The value at each lag depends only on `rho` up to that lag, so
/// a prefix of `rho` yields a prefix of the result.
pub fn pacf_from_acf(rho: &[f64]) -> Vec<f64> {
    let max_lag = rho.len();
    let mut out = Vec::with_capacity(max_lag);
    if max_lag == 0 {
        return out;
    }
    // phi[k][j] coefficients of AR(k); 1-indexed per the recursion.
    let mut phi_prev = vec![0.0; max_lag + 1];
    let mut phi = vec![0.0; max_lag + 1];
    for k in 1..=max_lag {
        let rk = rho[k - 1];
        let pk = if k == 1 {
            rk
        } else {
            let num = rk - (1..k).map(|j| phi_prev[j] * rho[k - 1 - j]).sum::<f64>();
            let den = 1.0 - (1..k).map(|j| phi_prev[j] * rho[j - 1]).sum::<f64>();
            if den.abs() < 1e-12 {
                0.0
            } else {
                num / den
            }
        };
        phi[k] = pk;
        for j in 1..k {
            phi[j] = phi_prev[j] - pk * phi_prev[k - j];
        }
        out.push(pk);
        phi_prev[..=k].copy_from_slice(&phi[..=k]);
    }
    out
}

/// First difference.
pub fn diff(x: &[f64]) -> Vec<f64> {
    x.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Sum of squares of the first `k` autocorrelations (tsfeatures'
/// `x_acf10`-style aggregate).
pub fn sum_sq_acf(x: &[f64], k: usize) -> f64 {
    sum_sq(&acf(x, k))
}

/// Sum of squares of the first `k` partial autocorrelations
/// (`x_pacf5`-style aggregate).
pub fn sum_sq_pacf(x: &[f64], k: usize) -> f64 {
    sum_sq(&pacf(x, k))
}

/// Index (lag) of the first zero crossing of the ACF; `max_lag` if none.
pub fn first_zero_acf(x: &[f64], max_lag: usize) -> usize {
    first_zero_of(&acf(x, max_lag))
}

/// Lag of the first non-positive autocorrelation in `rho` (lags
/// `1..=rho.len()`); `rho.len()` if none.
pub fn first_zero_of(rho: &[f64]) -> usize {
    rho.iter().position(|&v| v <= 0.0).map_or(rho.len(), |i| i + 1)
}

/// Sum of squares of `r`, accumulated in order (the `*_acf10` and
/// `*_pacf5` aggregates over a computed prefix).
pub fn sum_sq(r: &[f64]) -> f64 {
    r.iter().map(|r| r * r).sum()
}

/// Index (lag) of the first local minimum of the ACF; `max_lag` if none.
pub fn first_min_acf(x: &[f64], max_lag: usize) -> usize {
    let r = acf(x, max_lag);
    for i in 1..r.len().saturating_sub(1) {
        if r[i] < r[i - 1] && r[i] < r[i + 1] {
            return i + 1;
        }
    }
    max_lag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1(n: usize, phi: f64) -> Vec<f64> {
        let mut state = 0xDEADBEEFu64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut y = vec![0.0];
        for _ in 1..n {
            let prev = *y.last().expect("non-empty");
            y.push(phi * prev + noise());
        }
        y
    }

    #[test]
    fn acf_of_constant_is_zero() {
        assert!(acf(&[3.0; 50], 5).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let x = ar1(20_000, 0.7);
        let r = acf(&x, 3);
        assert!((r[0] - 0.7).abs() < 0.05, "acf1 {}", r[0]);
        assert!((r[1] - 0.49).abs() < 0.06, "acf2 {}", r[1]);
        assert!((r[2] - 0.343).abs() < 0.07, "acf3 {}", r[2]);
    }

    #[test]
    fn acf_alternating_series() {
        let x: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = acf(&x, 2);
        assert!(r[0] < -0.9);
        assert!(r[1] > 0.9);
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag1() {
        let x = ar1(20_000, 0.6);
        let p = pacf(&x, 5);
        assert!((p[0] - 0.6).abs() < 0.05, "pacf1 {}", p[0]);
        for (k, &v) in p.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.06, "pacf{} = {v} should be ~0", k + 1);
        }
    }

    #[test]
    fn pacf_lag1_equals_acf1() {
        let x = ar1(5000, 0.4);
        assert!((pacf(&x, 1)[0] - acf(&x, 1)[0]).abs() < 1e-12);
    }

    #[test]
    fn diff_and_aggregates() {
        assert_eq!(diff(&[1.0, 4.0, 9.0]), vec![3.0, 5.0]);
        let x = ar1(2000, 0.8);
        assert!(sum_sq_acf(&x, 10) > 0.5);
        assert!(sum_sq_pacf(&x, 5) > 0.3);
    }

    #[test]
    fn first_zero_and_min() {
        // Sine with period 20: ACF crosses zero around lag 5, min near 10.
        let x: Vec<f64> =
            (0..2000).map(|i| (i as f64 / 20.0 * std::f64::consts::TAU).sin()).collect();
        let z = first_zero_acf(&x, 30);
        assert!((4..=7).contains(&z), "first zero at {z}");
        let m = first_min_acf(&x, 30);
        assert!((8..=12).contains(&m), "first min at {m}");
    }

    #[test]
    fn short_series_safe() {
        assert_eq!(acf(&[1.0], 3), vec![0.0, 0.0, 0.0]);
        assert_eq!(pacf(&[], 2).len(), 2);
        assert_eq!(acf_at(&[1.0, 2.0], 0), 1.0);
    }
}
