//! Swing filter (Elmeleegy et al., VLDB 2009) with a relative pointwise
//! error bound.
//!
//! The filter grows a window anchored at the window's first value and
//! maintains the set of line slopes that keep every later point within its
//! allowed interval. Adding point `v_i` at offset `i` (in samples) requires
//! the slope `s` to satisfy `anchor + s*i ∈ [v_i - b_i, v_i + b_i]` with
//! `b_i = eps * |v_i|`, i.e. `s ∈ [(v_i - b_i - anchor)/i, (v_i + b_i -
//! anchor)/i]`. When the running intersection of these slope intervals
//! empties, the window (without the new point) becomes a segment.
//!
//! Following ModelarDB's implementation — which the paper uses — the emitted
//! slope is the mean of the surviving upper and lower slope bounds (§3.2
//! "Implementations Used"). Each segment stores two single-precision
//! coefficients (intercept = anchor, slope), which is exactly the storage
//! overhead the paper blames for Swing's low CR after gzip (§4.2): unlike
//! PMC's snapped constants, slope/intercept pairs are unique and deflate
//! poorly.
//!
//! The filter itself is [`StreamingSwing`], the one Swing encoder; this
//! module holds the segment type and the frame format.

use tsdata::series::RegularTimeSeries;

use crate::codec::{check_epsilon, CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::reader::ByteReader;
use crate::streaming::{compress_run, StreamingSwing};
use crate::timestamps;

/// The Swing filter compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Swing;

/// A decoded Swing segment: a line over `len` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwingSegment {
    /// Number of points covered.
    pub len: usize,
    /// Line value at the segment's first point.
    pub intercept: f64,
    /// Per-sample slope.
    pub slope: f64,
}

impl SwingSegment {
    /// Reconstructs the segment's values.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| self.intercept + self.slope * i as f64)
    }
}

/// Serializes already-segmented Swing output into the deflated frame format
/// `Swing::decompress` reads. Every Swing frame — batch `compress`,
/// `compress_source` and store chunk sealing — is [`StreamingSwing`] run
/// to completion followed by this.
pub fn encode_segments(
    start: i64,
    interval: i64,
    segments: &[SwingSegment],
) -> Result<Vec<u8>, CodecError> {
    let mut inner = timestamps::try_encode_header(start, interval)?;
    // Split lengths at the 16-bit cap; continuation chunks re-anchor the
    // line so reconstruction stays exact.
    let mut stored: Vec<(u16, f64, f64)> = Vec::with_capacity(segments.len());
    for s in segments {
        let mut offset = 0usize;
        for chunk in timestamps::split_segment_len(s.len) {
            stored.push((chunk, s.intercept + s.slope * offset as f64, s.slope));
            offset += chunk as usize;
        }
    }
    inner.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    for (len, intercept, slope) in &stored {
        inner.extend_from_slice(&len.to_le_bytes());
        // Two single-precision coefficients per segment, matching
        // ModelarDB's storage (and the paper's storage-overhead
        // argument for Swing's low CR, §4.2).
        inner.extend_from_slice(&(*intercept as f32).to_le_bytes());
        inner.extend_from_slice(&(*slope as f32).to_le_bytes());
    }
    Ok(deflate::compress(&inner))
}

impl PeblcCompressor for Swing {
    fn name(&self) -> &'static str {
        "SWING"
    }

    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        check_epsilon(epsilon)?;
        let values = series.values().iter().copied();
        compress_run(StreamingSwing::new(epsilon), values, series.start(), series.interval())
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut r = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut r)?;
        let n_seg = r.read_u32_le()? as usize;
        // 10 bytes per stored segment (u16 length + two f32 coefficients).
        if n_seg > r.bounded_capacity(n_seg, 10) {
            return Err(CodecError::Corrupt(format!(
                "segment count {n_seg} exceeds the {} remaining bytes",
                r.remaining()
            )));
        }
        // Fixed 10-byte records: pre-scan the length fields to size the
        // output exactly (clamped against hostile lengths).
        let rest = r.rest();
        let total: usize =
            (0..n_seg).map(|i| u16::from_le_bytes([rest[10 * i], rest[10 * i + 1]]) as usize).sum();
        let mut values = Vec::with_capacity(total.min(1 << 20));
        for _ in 0..n_seg {
            let len = r.read_u16_le()? as usize;
            let intercept = r.read_f32_le()? as f64;
            let slope = r.read_f32_le()? as f64;
            values.extend((0..len).map(|i| intercept + slope * i as f64));
        }
        Ok(RegularTimeSeries::new(start, interval, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::find_bound_violation;
    use crate::streaming::{run_to_completion, StreamingPmc};

    fn segments(values: &[f64], epsilon: f64) -> Vec<SwingSegment> {
        run_to_completion(StreamingSwing::new(epsilon), values.iter().copied())
    }

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 60, values).unwrap()
    }

    #[test]
    fn perfect_line_is_one_segment() {
        let vals: Vec<f64> = (0..1000).map(|i| 5.0 + 0.25 * i as f64).collect();
        let segs = segments(&vals, 0.01);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].slope - 0.25).abs() < 1e-9);
        assert!((segs[0].intercept - 5.0).abs() < 1e-12);
    }

    #[test]
    fn piecewise_linear_splits_at_knees() {
        // Odd values avoid exact zeros (which force their own re-anchor).
        let mut vals: Vec<f64> = (0..100).map(|i| 10.0 + i as f64).collect();
        vals.extend((0..100).map(|i| 111.0 - 2.0 * i as f64));
        let segs = segments(&vals, 0.0001);
        assert_eq!(segs.len(), 2, "{segs:?}");
    }

    #[test]
    fn exact_zero_inside_segment_forces_reanchor() {
        // A ramp through zero: the zero point must reconstruct exactly.
        let vals: Vec<f64> = (0..21).map(|i| 10.0 - i as f64).collect();
        let segs = segments(&vals, 0.05);
        let rebuilt: Vec<f64> = segs.iter().flat_map(|s| s.values().collect::<Vec<_>>()).collect();
        assert_eq!(rebuilt[10], 0.0, "zero at index 10 must be exact");
    }

    #[test]
    fn zero_runs_share_one_segment() {
        // Solar nights: long zero runs must not explode into per-point
        // segments.
        let mut vals = vec![5.0, 4.0];
        vals.extend(vec![0.0; 100]);
        vals.extend([3.0, 4.0]);
        let segs = segments(&vals, 0.1);
        assert!(segs.len() <= 4, "{} segments for a zero run", segs.len());
    }

    #[test]
    fn anchor_is_exact_first_value() {
        let vals = vec![10.0, 12.0, 14.0, 100.0, 90.0];
        let segs = segments(&vals, 0.05);
        assert_eq!(segs[0].intercept, 10.0);
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let vals: Vec<f64> = (0..3000)
            .map(|i| 20.0 + (i as f64 * 0.03).sin() * 8.0 + ((i * 7) % 5) as f64 * 0.02)
            .collect();
        for eps in [0.01, 0.1, 0.4] {
            let (d, _) = Swing.transform(&series(vals.clone()), eps).unwrap();
            assert!(
                find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                "bound violated at eps {eps}"
            );
        }
    }

    #[test]
    fn fewer_segments_than_pmc_on_trending_data() {
        // Swing's two-coefficient model fits trends PMC cannot (Figure 3:
        // Swing has the lowest segment counts).
        let vals: Vec<f64> =
            (0..4000).map(|i| (i as f64 * 0.01) * 10.0 + (i as f64 * 0.2).sin()).collect();
        let swing = segments(&vals, 0.05).len();
        let pmc = run_to_completion(StreamingPmc::new(0.05), vals.iter().copied()).len();
        assert!(swing < pmc, "swing {swing} vs pmc {pmc}");
    }

    #[test]
    fn lower_cr_than_pmc_despite_fewer_segments() {
        // The paper's §4.2 storage argument: Swing's slope/intercept pairs
        // gzip worse than PMC's constants, so PMC wins CR at high eps.
        let vals: Vec<f64> = (0..8000)
            .map(|i| 50.0 + (i as f64 * 0.01).sin() * 10.0 + ((i * 31) % 17) as f64 * 0.01)
            .collect();
        let s = series(vals);
        let pmc = crate::pmc::Pmc.compress(&s, 0.5).unwrap().size_bytes();
        let swing = Swing.compress(&s, 0.5).unwrap().size_bytes();
        assert!(pmc < swing, "pmc {pmc} vs swing {swing}");
    }

    #[test]
    fn exact_zeros_preserved() {
        let vals = vec![0.0, 0.0, 3.0, 4.0, 0.0];
        let (d, _) = Swing.transform(&series(vals.clone()), 0.8).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.8, 1e-9).is_none());
    }

    #[test]
    fn single_point_series() {
        let (d, c) = Swing.transform(&series(vec![42.0]), 0.1).unwrap();
        assert_eq!(d.values(), &[42.0]);
        assert_eq!(c.num_segments, 1);
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(5_000, 1800, vec![1.0, 2.0, 3.0]).unwrap();
        let (d, _) = Swing.transform(&s, 0.1).unwrap();
        assert_eq!(d.start(), 5_000);
        assert_eq!(d.interval(), 1800);
    }

    #[test]
    fn long_segment_split_reconstructs_exactly() {
        let vals: Vec<f64> = (0..70_000).map(|i| 1.0 + 0.001 * i as f64).collect();
        let (d, c) = Swing.transform(&series(vals.clone()), 0.05).unwrap();
        assert_eq!(c.num_segments, 1);
        assert!(find_bound_violation(&vals, d.values(), 0.05, 1e-9).is_none());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        assert!(Swing.compress(&series(vec![1.0]), -0.5).is_err());
    }
}
