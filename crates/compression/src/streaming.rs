//! Streaming (online) compression — the paper's deployment scenario (§1):
//! "the time series are lossy compressed on the wind turbine" and shipped
//! segment by segment over a constrained link.
//!
//! [`StreamingPmc`] and [`StreamingSwing`] accept points one at a time and
//! emit closed segments as soon as the error bound forces a cut, so memory
//! stays O(1) regardless of stream length. They are the only PMC and Swing
//! segmenters: the batch `compress` of each codec, [`compress_source`] and
//! the store's chunk sealing all run these encoders to completion (see
//! [`run_to_completion`]) and then serialize with the codec's
//! `encode_segments`, which also splits segments longer than the 16-bit
//! length field.

use tsdata::series::SeriesSource;

use crate::codec::{check_epsilon, point_bound, CodecError, CompressedSeries, PeblcCompressor};
use crate::pmc::{PmcSegment, Representative};
use crate::swing::SwingSegment;
use crate::Method;

/// An online segmenter: push points, receive closed segments.
pub trait Segmenter {
    /// The closed-segment type.
    type Segment;
    /// The codec name frames carry (`CompressedSeries::method`).
    const METHOD: &'static str;

    /// Pushes one point; returns the segment it closed, if any.
    fn push(&mut self, v: f64) -> Option<Self::Segment>;

    /// Flushes the open window. The encoder stays usable: the store seals
    /// an active chunk this way and keeps pushing into the same encoder,
    /// and the next `push` starts a fresh segment.
    fn drain(&mut self) -> Option<Self::Segment>;

    /// Serializes closed segments into the codec's deflated frame.
    fn encode(start: i64, interval: i64, segments: &[Self::Segment])
        -> Result<Vec<u8>, CodecError>;
}

/// Runs `values` through `enc` to completion: every segment the stream
/// closes, then the drained open window.
pub fn run_to_completion<S: Segmenter>(
    mut enc: S,
    values: impl IntoIterator<Item = f64>,
) -> Vec<S::Segment> {
    let mut segments = Vec::new();
    for v in values {
        if let Some(segment) = enc.push(v) {
            segments.push(segment);
        }
    }
    segments.extend(enc.drain());
    segments
}

/// Runs `values` through `enc` to completion and writes the frame. Batch
/// callers pass `series.values().iter().copied()`, so the generic keeps
/// the per-point loop free of dynamic dispatch.
pub(crate) fn compress_run<S: Segmenter>(
    enc: S,
    values: impl Iterator<Item = f64>,
    start: i64,
    interval: i64,
) -> Result<CompressedSeries, CodecError> {
    let segments = run_to_completion(enc, values);
    Ok(CompressedSeries {
        method: S::METHOD,
        bytes: S::encode(start, interval, &segments)?,
        num_segments: segments.len(),
    })
}

/// Online PMC: push points, receive closed segments.
#[derive(Debug, Clone)]
pub struct StreamingPmc {
    epsilon: f64,
    repr: Representative,
    lo: f64,
    hi: f64,
    sum: f64,
    count: usize,
    mean: f64,
}

impl StreamingPmc {
    /// Creates a streaming compressor with relative bound `epsilon` and
    /// the default snapped representative.
    pub fn new(epsilon: f64) -> Self {
        Self::with_representative(epsilon, Representative::Snapped)
    }

    /// Creates a streaming compressor that stores `repr` for each closed
    /// window (the DESIGN.md §5 ablation).
    pub fn with_representative(epsilon: f64, repr: Representative) -> Self {
        StreamingPmc {
            epsilon,
            repr,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            sum: 0.0,
            count: 0,
            mean: 0.0,
        }
    }

    // Inlined so the window state `push` updates can stay in registers.
    #[inline]
    fn segment(&self) -> PmcSegment {
        PmcSegment { len: self.count, value: self.repr.pick(self.lo, self.hi, self.mean) }
    }
}

impl Segmenter for StreamingPmc {
    type Segment = PmcSegment;
    const METHOD: &'static str = "PMC";

    // Inlined into `run_to_completion`, which is instantiated in each
    // calling crate; a per-point call measurably slows the batch path.
    #[inline]
    fn push(&mut self, v: f64) -> Option<PmcSegment> {
        let b = point_bound(v, self.epsilon);
        let nlo = self.lo.max(v - b);
        let nhi = self.hi.min(v + b);
        let nsum = self.sum + v;
        let ncount = self.count + 1;
        let nmean = nsum / ncount as f64;
        if nlo <= nhi && nmean >= nlo && nmean <= nhi {
            // The window absorbs the point.
            self.lo = nlo;
            self.hi = nhi;
            self.sum = nsum;
            self.count = ncount;
            self.mean = nmean;
            None
        } else {
            // Close the window without the latest point, which opens the
            // next one.
            let seg = self.segment();
            self.lo = v - b;
            self.hi = v + b;
            self.sum = v;
            self.count = 1;
            self.mean = v;
            Some(seg)
        }
    }

    fn drain(&mut self) -> Option<PmcSegment> {
        let seg = (self.count > 0).then(|| self.segment());
        *self = Self::with_representative(self.epsilon, self.repr);
        seg
    }

    fn encode(start: i64, interval: i64, segments: &[PmcSegment]) -> Result<Vec<u8>, CodecError> {
        crate::pmc::encode_segments(start, interval, segments)
    }
}

/// Online Swing filter: push points, receive closed line segments.
#[derive(Debug, Clone)]
pub struct StreamingSwing {
    epsilon: f64,
    anchor: f64,
    offset: usize,
    slope_lo: f64,
    slope_hi: f64,
    started: bool,
}

impl StreamingSwing {
    /// Creates a streaming Swing filter with relative bound `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        StreamingSwing {
            epsilon,
            anchor: 0.0,
            offset: 0,
            slope_lo: f64::NEG_INFINITY,
            slope_hi: f64::INFINITY,
            started: false,
        }
    }

    fn close(&self) -> SwingSegment {
        let slope = if self.slope_lo.is_finite() && self.slope_hi.is_finite() {
            // The mean of the surviving slope bounds, exactly as
            // ModelarDB's Swing computes its coefficients (§3.2
            // "Implementations Used").
            (self.slope_lo + self.slope_hi) / 2.0
        } else {
            // Single-point segment: any slope works; use 0.
            0.0
        };
        SwingSegment { len: self.offset + 1, intercept: self.anchor, slope }
    }

    fn reanchor(&mut self, v: f64) {
        self.anchor = v;
        self.offset = 0;
        self.slope_lo = f64::NEG_INFINITY;
        self.slope_hi = f64::INFINITY;
        self.started = true;
    }
}

impl Segmenter for StreamingSwing {
    type Segment = SwingSegment;
    const METHOD: &'static str = "SWING";

    // Inlined for the same reason as `StreamingPmc::push`.
    #[inline]
    fn push(&mut self, v: f64) -> Option<SwingSegment> {
        if !self.started {
            self.reanchor(v);
            return None;
        }
        // Exact zeros have a zero bound under the relative-error model, so
        // the reconstruction must hit them exactly. A zero-anchored
        // zero-slope line represents runs of zeros; any other case forces
        // a new segment anchored at the zero (a pinned nonzero slope would
        // not survive single-precision coefficient storage).
        if v == 0.0 && self.epsilon < 1.0 {
            if self.anchor == 0.0 && self.slope_lo <= 0.0 && 0.0 <= self.slope_hi {
                self.slope_lo = 0.0;
                self.slope_hi = 0.0;
                self.offset += 1;
                return None;
            }
            let seg = self.close();
            self.reanchor(v);
            return Some(seg);
        }
        let off = (self.offset + 1) as f64;
        // Shrink the bound by the worst-case single-precision coefficient
        // rounding (|Δanchor| + off·|Δslope|, with off·|slope| bounded by
        // |v| + |anchor| + b), so the stored f32 line still satisfies the
        // exact bound.
        let b = point_bound(v, self.epsilon);
        let margin = 2.0 * f32::EPSILON as f64 * (self.anchor.abs() + v.abs() + b);
        let b_eff = b - margin;
        let nlo = self.slope_lo.max((v - b_eff - self.anchor) / off);
        let nhi = self.slope_hi.min((v + b_eff - self.anchor) / off);
        if b_eff > 0.0 && nlo <= nhi {
            self.slope_lo = nlo;
            self.slope_hi = nhi;
            self.offset += 1;
            None
        } else {
            let seg = self.close();
            self.reanchor(v);
            Some(seg)
        }
    }

    fn drain(&mut self) -> Option<SwingSegment> {
        let seg = self.started.then(|| self.close());
        *self = Self::new(self.epsilon);
        seg
    }

    fn encode(start: i64, interval: i64, segments: &[SwingSegment]) -> Result<Vec<u8>, CodecError> {
        crate::swing::encode_segments(start, interval, segments)
    }
}

/// Compresses a [`SeriesSource`] under `(method, epsilon)` by streaming its
/// values through the online encoders. PMC and Swing hold the open window
/// and the closed segments, never the series, and run the same encoder as
/// the batch `compress`, so the frame equals `method.compressor().compress(...)` of the
/// materialised series; SZ is block-based and falls back to collecting
/// the values.
///
/// This is how the store re-encodes chunk-backed reads: identical frame
/// bytes mean identical sizes, segment counts and decoded series, so a
/// store-backed grid reproduces the in-memory grid's CSVs exactly.
pub fn compress_source(
    source: &dyn SeriesSource,
    method: Method,
    epsilon: f64,
) -> Result<CompressedSeries, CodecError> {
    check_epsilon(epsilon)?;
    let (start, interval) = (source.start(), source.interval());
    match method {
        Method::Pmc => {
            compress_run(StreamingPmc::new(epsilon), source.iter_values(), start, interval)
        }
        Method::Swing => {
            compress_run(StreamingSwing::new(epsilon), source.iter_values(), start, interval)
        }
        Method::Sz => {
            // SZ quantizes over fixed blocks, so it needs the values at
            // hand; materialise and defer to the batch implementation.
            let series = source.materialize().map_err(CodecError::from)?;
            crate::Sz.compress(&series, epsilon)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};

    #[test]
    fn segments_cover_the_stream() {
        let series = generate_univariate(DatasetKind::Wind, GenOptions::with_len(2_000));
        let values = series.values().iter().copied();
        let total: usize =
            run_to_completion(StreamingPmc::new(0.1), values.clone()).iter().map(|s| s.len).sum();
        assert_eq!(total, 2_000);
        let total: usize =
            run_to_completion(StreamingSwing::new(0.1), values).iter().map(|s| s.len).sum();
        assert_eq!(total, 2_000);
    }

    #[test]
    fn non_finite_points_stay_in_the_stream() {
        // A NaN closes the open window and opens its own; it must not be
        // dropped, or the frame would decode to fewer points than it got.
        let values = [1.0, f64::NAN, 2.0, 2.0, f64::INFINITY, 3.0];
        let pmc = run_to_completion(StreamingPmc::new(0.1), values);
        assert_eq!(pmc.iter().map(|s| s.len).sum::<usize>(), values.len(), "{pmc:?}");
        let swing = run_to_completion(StreamingSwing::new(0.1), values);
        assert_eq!(swing.iter().map(|s| s.len).sum::<usize>(), values.len(), "{swing:?}");
    }

    #[test]
    fn long_runs_stay_one_logical_segment() {
        // The encoders do not cut at the 16-bit length field; the frame
        // writer splits the segment into stored records instead.
        let run = std::iter::repeat_n(5.0, 200_000);
        let pmc = run_to_completion(StreamingPmc::new(0.1), run.clone());
        assert_eq!(pmc, vec![PmcSegment { len: 200_000, value: 5.0 }]);
        let swing = run_to_completion(StreamingSwing::new(0.1), run);
        assert_eq!(swing, vec![SwingSegment { len: 200_000, intercept: 5.0, slope: 0.0 }]);
    }

    #[test]
    fn compress_source_is_byte_identical_to_batch() {
        for kind in [DatasetKind::ETTm1, DatasetKind::Solar, DatasetKind::Wind] {
            let series = generate_univariate(kind, GenOptions::with_len(2_500));
            for method in crate::ALL_METHODS {
                for eps in [0.01, 0.1, 0.4] {
                    let streamed = compress_source(&series, method, eps).unwrap();
                    let batch = method.compressor().compress(&series, eps).unwrap();
                    assert_eq!(streamed.bytes, batch.bytes, "{kind:?} {method:?} eps {eps}");
                    assert_eq!(streamed.num_segments, batch.num_segments);
                    assert_eq!(streamed.method, batch.method);
                }
            }
        }
    }

    #[test]
    fn compress_source_rejects_bad_epsilon() {
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(64));
        assert!(compress_source(&series, Method::Pmc, -1.0).is_err());
        assert!(compress_source(&series, Method::Swing, f64::NAN).is_err());
    }

    #[test]
    fn empty_stream_finishes_empty() {
        assert!(StreamingPmc::new(0.1).drain().is_none());
        assert!(StreamingSwing::new(0.1).drain().is_none());
    }

    #[test]
    fn drain_then_continue_starts_a_fresh_segment() {
        // Seal-then-continue (the store's chunk boundary): the drained
        // window must not leak state into the next segment.
        let mut p = StreamingPmc::new(0.1);
        p.push(10.0);
        p.push(10.2);
        assert_eq!(p.drain().map(|s| s.len), Some(2));
        assert!(p.drain().is_none(), "second drain on an empty window");
        // 50.0 would have violated the [10-ish] window; a fresh segment
        // accepts it as its first point.
        assert_eq!(p.push(50.0), None);
        assert_eq!(p.drain(), Some(PmcSegment { len: 1, value: 50.0 }));

        let mut w = StreamingSwing::new(0.1);
        w.push(1.0);
        w.push(2.0);
        let seg = w.drain().unwrap();
        assert_eq!((seg.len, seg.intercept), (2, 1.0));
        assert!(w.drain().is_none());
        // The next point re-anchors: drained state must not constrain it.
        assert_eq!(w.push(-7.0), None);
        let seg = w.drain().unwrap();
        assert_eq!((seg.len, seg.intercept, seg.slope), (1, -7.0, 0.0));
    }

    #[test]
    fn drain_segments_match_chunked_batch() {
        // Draining every k points must equal running a fresh encoder over
        // each k-point slice — the store's byte-identity precondition.
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(1_024));
        for k in [37usize, 256] {
            let mut s = StreamingPmc::new(0.1);
            let mut streamed = Vec::new();
            for chunk in series.values().chunks(k) {
                streamed.extend(chunk.iter().filter_map(|&v| s.push(v)));
                streamed.extend(s.drain());
            }
            let chunked: Vec<PmcSegment> = series
                .values()
                .chunks(k)
                .flat_map(|c| run_to_completion(StreamingPmc::new(0.1), c.iter().copied()))
                .collect();
            assert_eq!(streamed, chunked, "k={k}");
        }
    }
}
