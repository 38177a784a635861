//! PPA — Piecewise Polynomial Approximation (Eichinger et al., VLDB J.
//! 2015), the related-work compressor the paper cites twice: §3.2 argues
//! that "PMC and SWING learn constant and linear approximations which have
//! been shown to represent time series more efficiently than higher-level
//! polynomials \[10\]", and §6.3 describes PPA's own forecasting study.
//!
//! Implementing PPA lets the repo *test* that claim (see the
//! `ppa_vs_low_degree` ablation test below and `benches/ablations.rs`):
//! a quadratic needs three coefficients per segment, so — like Swing's two
//! — the per-segment overhead usually outweighs the longer segments.
//!
//! Greedy online algorithm: grow a window, refit the least-squares
//! polynomial of the configured degree from running moments, and close the
//! window (without the newest point) when the refit polynomial can no
//! longer satisfy every point's relative bound.

use tsdata::series::RegularTimeSeries;

use crate::codec::{check_epsilon, point_bound, CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::reader::ByteReader;
use crate::timestamps;

/// Maximum window length the greedy fitter grows before forcing a cut
/// (bounds the O(window) revalidation cost).
const MAX_SEGMENT: usize = 512;

/// The PPA compressor with polynomial degree ≤ 2.
#[derive(Debug, Clone, Copy)]
pub struct Ppa {
    /// Polynomial degree: 0 (constant), 1 (linear) or 2 (quadratic).
    pub degree: usize,
}

impl Default for Ppa {
    fn default() -> Self {
        Ppa { degree: 2 }
    }
}

/// One PPA segment: `v̂(i) = c0 + c1·i + c2·i²` over `len` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaSegment {
    /// Points covered.
    pub len: usize,
    /// Polynomial coefficients (low order first).
    pub coeffs: [f64; 3],
}

impl PpaSegment {
    /// Reconstructs the segment's values.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| {
            let x = i as f64;
            self.coeffs[0] + self.coeffs[1] * x + self.coeffs[2] * x * x
        })
    }
}

/// Least-squares polynomial fit of `values` at abscissae `0..n`, degree
/// capped by sample count. Returns `[c0, c1, c2]`.
fn fit_poly(values: &[f64], degree: usize) -> [f64; 3] {
    let n = values.len();
    let d = degree.min(2).min(n.saturating_sub(1));
    match d {
        0 => [values.iter().sum::<f64>() / n as f64, 0.0, 0.0],
        _ => {
            // Normal equations over the monomial basis (window lengths are
            // capped, so conditioning is acceptable in f64).
            let cols = d + 1;
            let mut ata = [[0.0f64; 3]; 3];
            let mut aty = [0.0f64; 3];
            for (i, &y) in values.iter().enumerate() {
                let x = i as f64;
                let basis = [1.0, x, x * x];
                for r in 0..cols {
                    aty[r] += basis[r] * y;
                    for c in 0..cols {
                        ata[r][c] += basis[r] * basis[c];
                    }
                }
            }
            // Tiny Gaussian elimination (cols <= 3).
            let mut m = [[0.0f64; 4]; 3];
            for r in 0..cols {
                m[r][..cols].copy_from_slice(&ata[r][..cols]);
                m[r][3] = aty[r];
            }
            for col in 0..cols {
                let mut pivot = col;
                for r in col + 1..cols {
                    if m[r][col].abs() > m[pivot][col].abs() {
                        pivot = r;
                    }
                }
                m.swap(col, pivot);
                if m[col][col].abs() < 1e-12 {
                    return [values.iter().sum::<f64>() / n as f64, 0.0, 0.0];
                }
                let prow = m[col];
                for row in m.iter_mut().take(cols).skip(col + 1) {
                    let f = row[col] / prow[col];
                    for (v, &p) in row[col..4].iter_mut().zip(&prow[col..4]) {
                        *v -= f * p;
                    }
                }
            }
            let mut out = [0.0f64; 3];
            for r in (0..cols).rev() {
                let mut s = m[r][3];
                for c in r + 1..cols {
                    s -= m[r][c] * out[c];
                }
                out[r] = s / m[r][r];
            }
            out
        }
    }
}

/// Whether the polynomial (after f32 coefficient rounding) satisfies every
/// point's relative bound.
fn poly_fits(values: &[f64], coeffs: &[f64; 3], epsilon: f64) -> bool {
    let c = [coeffs[0] as f32 as f64, coeffs[1] as f32 as f64, coeffs[2] as f32 as f64];
    values.iter().enumerate().all(|(i, &v)| {
        let x = i as f64;
        let p = c[0] + c[1] * x + c[2] * x * x;
        (p - v).abs() <= point_bound(v, epsilon)
    })
}

/// Runs the PPA windowing, returning segments.
pub fn segment_values(values: &[f64], epsilon: f64, degree: usize) -> Vec<PpaSegment> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut last_good: Option<[f64; 3]> = None;
    let mut i = 0usize;
    while i < values.len() {
        let window = &values[start..=i];
        let coeffs = fit_poly(window, degree);
        let len = window.len();
        if len <= MAX_SEGMENT && poly_fits(window, &coeffs, epsilon) {
            last_good = Some(coeffs);
            i += 1;
        } else {
            // Close without the newest point.
            let seg_len = i - start;
            match last_good.take() {
                Some(coeffs) if seg_len > 0 => {
                    segments.push(PpaSegment { len: seg_len, coeffs });
                    start = i;
                }
                _ => {
                    // The single point itself does not fit (e.g. a zero):
                    // store it verbatim as a constant segment.
                    segments.push(PpaSegment { len: 1, coeffs: [values[start], 0.0, 0.0] });
                    start += 1;
                    i = i.max(start);
                }
            }
        }
    }
    if let Some(coeffs) = last_good {
        let seg_len = values.len() - start;
        if seg_len > 0 {
            segments.push(PpaSegment { len: seg_len, coeffs });
        }
    }
    segments
}

impl PeblcCompressor for Ppa {
    fn name(&self) -> &'static str {
        "PPA"
    }

    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        check_epsilon(epsilon)?;
        let segments = segment_values(series.values(), epsilon, self.degree);
        let mut inner = timestamps::try_encode_header(series.start(), series.interval())?;
        inner.push(self.degree.min(2) as u8);
        inner.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for seg in &segments {
            // Windows are capped at MAX_SEGMENT < u16::MAX, so the length
            // always fits.
            inner.extend_from_slice(&(seg.len as u16).to_le_bytes());
            for c in 0..=self.degree.min(2) {
                inner.extend_from_slice(&(seg.coeffs[c] as f32).to_le_bytes());
            }
        }
        Ok(CompressedSeries {
            method: self.name(),
            bytes: deflate::compress(&inner),
            num_segments: segments.len(),
        })
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut r = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut r)?;
        let degree = r.read_u8()? as usize;
        if degree > 2 {
            return Err(CodecError::Corrupt(format!("bad PPA degree {degree}")));
        }
        let n_seg = r.read_u32_le()? as usize;
        let rec = 2 + 4 * (degree + 1);
        // Each segment costs `rec` bytes; a tampered count cannot demand
        // more segments than the remaining input can hold.
        if n_seg > r.bounded_capacity(n_seg, rec) {
            return Err(CodecError::Corrupt(format!(
                "segment count {n_seg} exceeds the {} remaining bytes",
                r.remaining()
            )));
        }
        // Fixed `rec`-byte records: pre-scan the length fields to size the
        // output exactly (clamped against hostile lengths).
        let rest = r.rest();
        let total: usize = (0..n_seg)
            .map(|i| u16::from_le_bytes([rest[rec * i], rest[rec * i + 1]]) as usize)
            .sum();
        let mut values = Vec::with_capacity(total.min(1 << 20));
        for _ in 0..n_seg {
            let len = r.read_u16_le()? as usize;
            let mut coeffs = [0.0f64; 3];
            for coeff in coeffs.iter_mut().take(degree + 1) {
                *coeff = r.read_f32_le()? as f64;
            }
            values.extend(PpaSegment { len, coeffs }.values());
        }
        Ok(RegularTimeSeries::new(start, interval, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::find_bound_violation;

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 60, values).unwrap()
    }

    #[test]
    fn quadratic_fits_parabola_in_one_segment() {
        let vals: Vec<f64> = (0..200).map(|i| 100.0 + 0.01 * (i * i) as f64).collect();
        let segs = segment_values(&vals, 0.01, 2);
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert!((segs[0].coeffs[2] - 0.01).abs() < 1e-3);
    }

    #[test]
    fn degree_zero_matches_constant_behavior() {
        let segs = segment_values(&[5.0; 50], 0.01, 0);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].coeffs[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let vals: Vec<f64> = (0..3000)
            .map(|i| 30.0 + (i as f64 * 0.02).sin() * 10.0 + ((i * 7) % 5) as f64 * 0.05)
            .collect();
        for degree in [0usize, 1, 2] {
            let ppa = Ppa { degree };
            for eps in [0.02, 0.1, 0.4] {
                let (d, _) = ppa.transform(&series(vals.clone()), eps).unwrap();
                assert!(
                    find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                    "degree {degree} eps {eps} violated"
                );
            }
        }
    }

    #[test]
    fn exact_zeros_preserved() {
        let vals = vec![0.0, 0.0, 3.0, 4.0, 0.0, 5.0];
        let (d, _) = Ppa::default().transform(&series(vals.clone()), 0.3).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert_eq!(d.values()[4], 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.3, 1e-9).is_none());
    }

    #[test]
    fn fewer_segments_than_swing_on_curved_data() {
        // A quadratic-degree model should need fewer segments than a
        // linear one on curvy data...
        let vals: Vec<f64> = (0..4000).map(|i| 50.0 + 20.0 * (i as f64 * 0.01).sin()).collect();
        let ppa = segment_values(&vals, 0.05, 2).len();
        let swing = crate::streaming::run_to_completion(
            crate::StreamingSwing::new(0.05),
            vals.iter().copied(),
        )
        .len();
        assert!(ppa < swing, "ppa {ppa} vs swing {swing}");
    }

    #[test]
    fn ppa_vs_low_degree_storage_tradeoff() {
        // ...but the paper's §3.2 claim is about STORAGE: despite longer
        // segments, three coefficients per segment generally lose to PMC's
        // one after the lossless pass on realistic data.
        let s = tsdata::datasets::generate_univariate(
            tsdata::datasets::DatasetKind::ETTm1,
            tsdata::datasets::GenOptions::with_len(6_000),
        );
        let pmc = crate::pmc::Pmc.compress(&s, 0.2).unwrap().size_bytes();
        let ppa = Ppa::default().compress(&s, 0.2).unwrap().size_bytes();
        assert!(pmc < ppa, "PMC ({pmc} B) should store ETTm1 more compactly than PPA ({ppa} B)");
    }

    #[test]
    fn long_series_segment_cap() {
        let vals = vec![7.0; 5000];
        let segs = segment_values(&vals, 0.1, 2);
        assert!(segs.iter().all(|s| s.len <= MAX_SEGMENT));
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn corrupt_buffer_rejected() {
        let c = Ppa::default().compress(&series(vec![1.0, 2.0, 3.0]), 0.1).unwrap();
        let truncated = CompressedSeries {
            method: "PPA",
            bytes: deflate::compress(&[1, 2, 3]),
            num_segments: 0,
        };
        assert!(Ppa::default().decompress(&truncated).is_err());
        let d = Ppa::default().decompress(&c).unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(123, 900, vec![4.0, 5.0, 6.0]).unwrap();
        let (d, _) = Ppa::default().transform(&s, 0.1).unwrap();
        assert_eq!(d.start(), 123);
        assert_eq!(d.interval(), 900);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        assert!(Ppa::default().compress(&series(vec![1.0]), f64::NAN).is_err());
    }
}
