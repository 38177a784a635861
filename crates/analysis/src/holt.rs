//! Holt's linear exponential smoothing, fitted by grid search over the
//! smoothing parameters. Provides the `alpha` (level) and `beta` (trend)
//! characteristics of tsfeatures' `holt_parameters`; `beta` appears among
//! the paper's top Spearman correlates of TFE (Table 4).

/// Fitted Holt smoothing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltParams {
    /// Level smoothing parameter.
    pub alpha: f64,
    /// Trend smoothing parameter.
    pub beta: f64,
    /// One-step-ahead SSE at the optimum.
    pub sse: f64,
}

/// One-step-ahead SSE of Holt's linear method for given parameters.
pub fn holt_sse(x: &[f64], alpha: f64, beta: f64) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    let mut level = x[1];
    let mut trend = x[1] - x[0];
    let mut sse = 0.0;
    for &y in &x[2..] {
        let forecast = level + trend;
        let err = y - forecast;
        sse += err * err;
        let new_level = alpha * y + (1.0 - alpha) * (level + trend);
        trend = beta * (new_level - level) + (1.0 - beta) * trend;
        level = new_level;
    }
    sse
}

/// Fits `(alpha, beta)` by coarse-to-fine grid search minimizing one-step
/// SSE. Long series are tail-capped for speed (the parameters are
/// scale-free).
///
/// The result is bit-identical to scanning each grid pair with
/// [`holt_sse`] in order and keeping the first strict minimum: the pairs
/// are evaluated eight at a time in one pass over `x`, each lane running
/// `holt_sse`'s exact operation sequence.
pub fn holt_parameters(x: &[f64]) -> HoltParams {
    const CAP: usize = 2000;
    let x = &x[x.len().saturating_sub(CAP)..];
    if x.len() < 3 {
        return HoltParams { alpha: 0.5, beta: 0.1, sse: 0.0 };
    }
    let best = HoltParams { alpha: 0.5, beta: 0.1, sse: f64::INFINITY };
    // Coarse pass.
    let grid: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    let coarse: Vec<(f64, f64)> =
        grid.iter().flat_map(|&a| grid.iter().map(move |&b| (a, b))).collect();
    let best = select_min(x, &coarse, best);
    // Fine pass around the coarse optimum.
    let refine: Vec<f64> = (-4..=4).map(|i| i as f64 * 0.0125).collect();
    let (ca, cb) = (best.alpha, best.beta);
    let fine: Vec<(f64, f64)> = refine
        .iter()
        .flat_map(|&da| {
            refine
                .iter()
                .map(move |&db| ((ca + da).clamp(0.001, 0.999), (cb + db).clamp(0.001, 0.999)))
        })
        .collect();
    select_min(x, &fine, best)
}

/// Scans `pairs` in order, replacing `best` whenever a pair's SSE is
/// strictly lower.
fn select_min(x: &[f64], pairs: &[(f64, f64)], mut best: HoltParams) -> HoltParams {
    for chunk in pairs.chunks(LANES) {
        let sse = holt_sse_lanes(x, chunk);
        for (&(alpha, beta), &sse) in chunk.iter().zip(&sse) {
            if sse < best.sse {
                best = HoltParams { alpha, beta, sse };
            }
        }
    }
    best
}

/// Number of `(alpha, beta)` pairs [`holt_sse_lanes`] evaluates per pass.
const LANES: usize = 8;

/// [`holt_sse`] for up to [`LANES`] `(alpha, beta)` pairs in one pass over
/// `x`; entry `i` of the result belongs to `pairs[i]` (unused lanes are 0).
///
/// Each lane performs `holt_sse`'s operations in the same order with no
/// fused multiply-add, so every SSE is bit-identical to the scalar one;
/// the lanes are independent, which lets the compiler vectorise across
/// them and hides the per-step dependency chain.
///
/// # Panics
/// Panics if `pairs` holds more than [`LANES`] entries.
fn holt_sse_lanes(x: &[f64], pairs: &[(f64, f64)]) -> [f64; LANES] {
    assert!(pairs.len() <= LANES, "at most {LANES} pairs per pass");
    let mut sse = [0.0; LANES];
    if x.len() < 3 || pairs.is_empty() {
        return sse;
    }
    // Unused lanes repeat the last pair; their results are dropped.
    let last = pairs[pairs.len() - 1];
    let mut alpha = [last.0; LANES];
    let mut beta = [last.1; LANES];
    for (l, &(a, b)) in pairs.iter().enumerate() {
        alpha[l] = a;
        beta[l] = b;
    }
    let mut level = [x[1]; LANES];
    let mut trend = [x[1] - x[0]; LANES];
    for &y in &x[2..] {
        for l in 0..LANES {
            let forecast = level[l] + trend[l];
            let err = y - forecast;
            sse[l] += err * err;
            let new_level = alpha[l] * y + (1.0 - alpha[l]) * (level[l] + trend[l]);
            trend[l] = beta[l] * (new_level - level[l]) + (1.0 - beta[l]) * trend[l];
            level[l] = new_level;
        }
    }
    sse[pairs.len()..].fill(0.0);
    sse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
            })
            .collect()
    }

    #[test]
    fn smooth_trend_gets_high_alpha_low_sse() {
        // Nearly deterministic ramp: following the data closely is optimal.
        let x: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let p = holt_parameters(&x);
        assert!(p.sse < 1e-6, "ramp sse {}", p.sse);
    }

    #[test]
    fn noisy_level_gets_low_alpha() {
        // Constant + heavy noise: averaging (small alpha) wins.
        let x: Vec<f64> = noise(800, 7, 4.0).iter().map(|v| 10.0 + v).collect();
        let p = holt_parameters(&x);
        assert!(p.alpha < 0.4, "alpha {}", p.alpha);
        assert!(p.beta < 0.3, "beta {}", p.beta);
    }

    #[test]
    fn trending_series_gets_higher_beta_than_flat() {
        let mut trendy: Vec<f64> = Vec::new();
        let mut slope = 0.1;
        let mut level = 0.0;
        for (i, n) in noise(600, 9, 0.05).into_iter().enumerate() {
            if i % 150 == 0 {
                slope = -slope; // trend changes direction -> beta must adapt
            }
            level += slope;
            trendy.push(level + n);
        }
        let flat: Vec<f64> = noise(600, 10, 0.05).iter().map(|v| 5.0 + v).collect();
        let pt = holt_parameters(&trendy);
        let pf = holt_parameters(&flat);
        assert!(pt.beta > pf.beta, "trendy beta {} vs flat beta {}", pt.beta, pf.beta);
    }

    #[test]
    fn sse_monotone_sanity() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let p = holt_parameters(&x);
        // Optimum is no worse than arbitrary parameter picks.
        assert!(p.sse <= holt_sse(&x, 0.2, 0.2) + 1e-12);
        assert!(p.sse <= holt_sse(&x, 0.9, 0.05) + 1e-12);
    }

    /// The scalar grid search `holt_parameters` must reproduce bit for bit:
    /// every pair through `holt_sse`, in order, first strict minimum wins.
    fn scalar_scan(x: &[f64]) -> HoltParams {
        let x = &x[x.len().saturating_sub(2000)..];
        if x.len() < 3 {
            return HoltParams { alpha: 0.5, beta: 0.1, sse: 0.0 };
        }
        let mut best = HoltParams { alpha: 0.5, beta: 0.1, sse: f64::INFINITY };
        let grid: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
        for &a in &grid {
            for &b in &grid {
                let sse = holt_sse(x, a, b);
                if sse < best.sse {
                    best = HoltParams { alpha: a, beta: b, sse };
                }
            }
        }
        let refine: Vec<f64> = (-4..=4).map(|i| i as f64 * 0.0125).collect();
        let (ca, cb) = (best.alpha, best.beta);
        for &da in &refine {
            for &db in &refine {
                let a = (ca + da).clamp(0.001, 0.999);
                let b = (cb + db).clamp(0.001, 0.999);
                let sse = holt_sse(x, a, b);
                if sse < best.sse {
                    best = HoltParams { alpha: a, beta: b, sse };
                }
            }
        }
        best
    }

    fn assert_same_bits(got: HoltParams, want: HoltParams) {
        assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "alpha {got:?} vs {want:?}");
        assert_eq!(got.beta.to_bits(), want.beta.to_bits(), "beta {got:?} vs {want:?}");
        assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "sse {got:?} vs {want:?}");
    }

    #[test]
    fn parameters_match_scalar_scan_bit_for_bit() {
        for n in 3..=12 {
            for seed in 1..=4 {
                let x: Vec<f64> = noise(n, seed, 3.0)
                    .iter()
                    .enumerate()
                    .map(|(i, v)| i as f64 * 0.2 + v)
                    .collect();
                assert_same_bits(holt_parameters(&x), scalar_scan(&x));
            }
        }
        let walk: Vec<f64> = noise(2000, 17, 1.0)
            .iter()
            .scan(0.0, |level, v| {
                *level += v;
                Some(*level)
            })
            .collect();
        assert_same_bits(holt_parameters(&walk), scalar_scan(&walk));
        let seasonal: Vec<f64> =
            (0..2500).map(|i| (i as f64 / 96.0 * std::f64::consts::TAU).sin()).collect();
        assert_same_bits(holt_parameters(&seasonal), scalar_scan(&seasonal));
        // Ties and flat input: the first pair reaching the minimum must win.
        assert_same_bits(holt_parameters(&[2.0; 50]), scalar_scan(&[2.0; 50]));
        let ramp: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        assert_same_bits(holt_parameters(&ramp), scalar_scan(&ramp));
    }

    #[test]
    fn lanes_match_holt_sse_for_every_partial_width() {
        let x = noise(517, 23, 2.0);
        let pairs: Vec<(f64, f64)> =
            (0..LANES).map(|i| (0.05 + 0.11 * i as f64, 0.9 - 0.1 * i as f64)).collect();
        for width in 0..=LANES {
            let got = holt_sse_lanes(&x, &pairs[..width]);
            for (l, &(a, b)) in pairs[..width].iter().enumerate() {
                assert_eq!(
                    got[l].to_bits(),
                    holt_sse(&x, a, b).to_bits(),
                    "width {width} lane {l}"
                );
            }
            assert!(got[width..].iter().all(|&v| v == 0.0));
        }
        // Pair counts that are not a multiple of the lane width pick the
        // same pair as the scalar scan.
        for count in [1, 7, 9, 13, 17] {
            let pairs: Vec<(f64, f64)> =
                (0..count).map(|i| (0.9 - 0.05 * i as f64, 0.1 + 0.03 * i as f64)).collect();
            let start = HoltParams { alpha: 0.5, beta: 0.1, sse: f64::INFINITY };
            let mut want = start;
            for &(alpha, beta) in &pairs {
                let sse = holt_sse(&x, alpha, beta);
                if sse < want.sse {
                    want = HoltParams { alpha, beta, sse };
                }
            }
            assert_same_bits(select_min(&x, &pairs, start), want);
        }
    }

    #[test]
    fn short_input_defaults() {
        let p = holt_parameters(&[1.0, 2.0]);
        assert_eq!(p.alpha, 0.5);
    }
}
