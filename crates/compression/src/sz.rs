//! SZ-style error-bounded lossy compression (Liang et al., Big Data 2018;
//! the paper uses SZ 2.1 via Libpressio).
//!
//! The pipeline mirrors SZ's stages (paper §3.2):
//!
//! 1. **Pointwise relative bound via log transform.** SZ 2.1's pointwise
//!    relative mode compresses `t = ln|v|` with the *absolute* bound
//!    `δ = ln(1 + ε)`; then `v̂ = sign · exp(t̂)` satisfies
//!    `|v̂ - v| ≤ ε·|v|`. Exact zeros and signs are kept in bitmaps.
//! 2. **Block split.** The (nonzero) log values are cut into fixed blocks.
//! 3. **Best-fit predictor per block** among classic Lorenzo (previous
//!    reconstructed value), mean-integrated Lorenzo (block mean) and linear
//!    regression, chosen by estimated coding cost.
//! 4. **Linear-scale quantization** of prediction residuals into
//!    `2·RADIUS + 1` bins of width `2δ`; out-of-range points are stored
//!    verbatim ("unpredictable", as in SZ).
//! 5. **Packing** of the zigzagged quantization codes through
//!    [`crate::block`]'s lanes, where prediction keeps them narrow.
//! 6. A final DEFLATE pass (SZ applies gzip last), whose Huffman stage
//!    entropy-codes the packed codes.
//!
//! The quantization step is what makes SZ's output look piecewise-constant
//! with short-interval fluctuations (paper Figure 1), and this
//! implementation reproduces that texture.

use std::sync::LazyLock;

use tsdata::series::RegularTimeSeries;

use crate::block::{self, Bitset};
use crate::codec::{check_epsilon, CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::reader::ByteReader;
use crate::timestamps;

/// Quantization radius: codes lie in `[-RADIUS, RADIUS]`.
const RADIUS: i64 = 512;
/// Alphabet: shifted codes plus one escape symbol for unpredictable points.
const ALPHABET: usize = (2 * RADIUS + 1) as usize + 1;
const ESCAPE: usize = ALPHABET - 1;
/// SZ's default 1-D block size.
pub const BLOCK_SIZE: usize = 128;

/// Wire modes, selected by the byte after the value count. Mode 0 stores
/// raw values (ε = 0); mode 2 packs zigzagged quantization codes through
/// [`crate::block`]'s lanes and stores bitmaps in the word-backed
/// LSB-first layout (DESIGN.md §11). Mode 1, an earlier Huffman-coded
/// layout, is retired and rejected like any unknown mode.
const MODE_RAW: u8 = 0;
const MODE_BLOCKED: u8 = 2;

/// Escape marker in the blocked symbol stream: zigzagged codes occupy
/// `0..=2·RADIUS`, so the next value is free.
const BLOCKED_ESCAPE: u64 = 2 * RADIUS as u64 + 1;

/// The SZ compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sz;

/// Per-block predictor, as selected by SZ's best-fit stage.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Predictor {
    /// Classic Lorenzo: previous reconstructed value.
    Lorenzo,
    /// Mean-integrated Lorenzo: the block mean.
    Mean(f64),
    /// Linear regression within the block: `a + b·i`.
    Linear { a: f64, b: f64 },
}

impl Predictor {
    fn tag(&self) -> u8 {
        match self {
            Predictor::Lorenzo => 0,
            Predictor::Mean(_) => 1,
            Predictor::Linear { .. } => 2,
        }
    }
}

/// Estimated coding cost in bits of an escaped (unpredictable) point: the
/// escape symbol plus the raw f64.
const ESCAPE_COST: f64 = 72.0;

/// Estimated coding cost in bits of quantization code `m`, by `|m|`:
/// `2·log2(|m|+2) + 1` models the Huffman length of a centered code.
static CODE_COST: LazyLock<[f64; RADIUS as usize + 1]> =
    LazyLock::new(|| std::array::from_fn(|m| 2.0 * ((m as i64 + 2) as f64).log2() + 1.0));

/// One candidate's quantization of a block: a shifted symbol per point
/// (`m + RADIUS`, or [`ESCAPE`] for an unpredictable point, which keeps its
/// exact value) and the reconstructed values.
#[derive(Debug, Default)]
struct Quantized {
    syms: Vec<u16>,
    recon: Vec<f64>,
}

/// Reusable buffers for [`select_predictor`]: the cheapest candidate so far
/// and the one being tried. Allocated once per compression call.
#[derive(Debug, Default)]
struct Selection {
    best: Quantized,
    trial: Quantized,
}

/// Quantizes `block` with `pred` into `out` and returns its estimated
/// coding cost, summed point by point in block order.
fn quantize_block(
    block: &[f64],
    pred: Predictor,
    prev_recon: Option<f64>,
    delta: f64,
    out: &mut Quantized,
) -> f64 {
    let code_cost = &*CODE_COST;
    let two_delta = 2.0 * delta;
    out.syms.clear();
    out.recon.clear();
    let mut cost = 0.0;
    // Lorenzo's prediction: the previous reconstructed value.
    let mut last = prev_recon.unwrap_or(0.0);
    for (i, &t) in block.iter().enumerate() {
        let p = match pred {
            Predictor::Lorenzo => last,
            Predictor::Mean(m) => m,
            Predictor::Linear { a, b } => a + b * i as f64,
        };
        // Range-check before casting: a non-finite quotient (NaN/±inf
        // values from a hostile decode) saturates `as i64` to i64::MIN,
        // whose .abs() overflows.
        let q = ((t - p) / two_delta).round();
        let (mut sym, mut r, mut bits) = (ESCAPE as u16, t, ESCAPE_COST);
        if q.is_finite() && q.abs() <= RADIUS as f64 {
            let m = q as i64;
            let rq = p + two_delta * m as f64;
            // Guard against pathological float cancellation: if the
            // reconstruction drifted past the bound, store verbatim.
            if (rq - t).abs() <= delta {
                (sym, r, bits) = ((m + RADIUS) as u16, rq, code_cost[m.unsigned_abs() as usize]);
            }
        }
        cost += bits;
        out.syms.push(sym);
        out.recon.push(r);
        last = r;
    }
    cost
}

fn fit_linear(block: &[f64]) -> (f64, f64) {
    let n = block.len() as f64;
    if block.len() < 2 {
        return (block.first().copied().unwrap_or(0.0), 0.0);
    }
    let mean_i = (n - 1.0) / 2.0;
    let mean_t: f64 = block.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &t) in block.iter().enumerate() {
        let di = i as f64 - mean_i;
        num += di * (t - mean_t);
        den += di * di;
    }
    let b = if den == 0.0 { 0.0 } else { num / den };
    (mean_t - b * mean_i, b)
}

/// Chooses the cheapest predictor for a block (SZ's best-fit selection),
/// leaving its quantization in `sel.best`. Candidates are tried in the
/// order Lorenzo, Mean, Linear; a later one wins only if strictly cheaper.
fn select_predictor(
    block: &[f64],
    prev_recon: Option<f64>,
    delta: f64,
    sel: &mut Selection,
) -> Predictor {
    let mean = block.iter().sum::<f64>() / block.len() as f64;
    let (a, b) = fit_linear(block);
    let candidates = [Predictor::Lorenzo, Predictor::Mean(mean), Predictor::Linear { a, b }];
    let mut best: Option<(f64, Predictor)> = None;
    for pred in candidates {
        // Coefficient storage counts toward the cost (Lorenzo is free).
        let coeff_bits = match pred {
            Predictor::Lorenzo => 0.0,
            Predictor::Mean(_) => 64.0,
            Predictor::Linear { .. } => 128.0,
        };
        let c = quantize_block(block, pred, prev_recon, delta, &mut sel.trial) + coeff_bits;
        if best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, pred));
            std::mem::swap(&mut sel.best, &mut sel.trial);
        }
    }
    best.expect("three candidates evaluated").1
}

fn read_bitmap(r: &mut ByteReader<'_>, n: usize) -> Result<Bitset, CodecError> {
    let buf = r
        .read_bytes(n.div_ceil(8))
        .map_err(|_| CodecError::Corrupt(format!("{n}-point bitmap truncated")))?;
    Bitset::from_le_bytes(buf, n).map_err(|e| CodecError::Corrupt(e.to_string()))
}

fn compress_impl(series: &RegularTimeSeries, epsilon: f64) -> Result<CompressedSeries, CodecError> {
    check_epsilon(epsilon)?;
    let values = series.values();
    let n = values.len();
    let mut inner = timestamps::try_encode_header(series.start(), series.interval())?;
    inner.extend_from_slice(&(n as u32).to_le_bytes());

    if epsilon == 0.0 {
        // Lossless fallback mode.
        inner.push(MODE_RAW);
        inner.reserve(n * 8);
        for &v in values {
            inner.extend_from_slice(&v.to_le_bytes());
        }
        let bytes = deflate::compress(&inner);
        let num_segments = constant_runs(values);
        return Ok(CompressedSeries { method: "SZ", bytes, num_segments });
    }
    inner.push(MODE_BLOCKED);
    inner.extend_from_slice(&epsilon.to_le_bytes());

    let mut zero = Bitset::with_len(n);
    let mut sign = Bitset::with_len(n);
    for (i, &v) in values.iter().enumerate() {
        if v == 0.0 {
            zero.set(i);
        }
        if v < 0.0 {
            sign.set(i);
        }
    }
    inner.extend_from_slice(&zero.to_le_bytes());
    inner.extend_from_slice(&sign.to_le_bytes());

    let logs: Vec<f64> = values.iter().filter(|&&v| v != 0.0).map(|&v| v.abs().ln()).collect();
    let delta = (1.0 + epsilon).ln();

    // Encode blocks.
    let mut block_meta: Vec<u8> = Vec::new();
    let mut all_syms: Vec<u16> = Vec::with_capacity(logs.len());
    let mut unpredictable: Vec<f64> = Vec::new();
    let mut prev_recon: Option<f64> = None;
    let mut recon_logs: Vec<f64> = Vec::with_capacity(logs.len());
    let mut sel = Selection::default();
    for block in logs.chunks(BLOCK_SIZE) {
        let pred = select_predictor(block, prev_recon, delta, &mut sel);
        let Quantized { syms, recon } = &sel.best;
        block_meta.push(pred.tag());
        match pred {
            Predictor::Lorenzo => {}
            Predictor::Mean(m) => block_meta.extend_from_slice(&m.to_le_bytes()),
            Predictor::Linear { a, b } => {
                block_meta.extend_from_slice(&a.to_le_bytes());
                block_meta.extend_from_slice(&b.to_le_bytes());
            }
        }
        for (&sym, (&t, &r)) in syms.iter().zip(block.iter().zip(recon)) {
            if sym == ESCAPE as u16 {
                // Bitwise so a NaN escape (NaN != NaN) doesn't trip it.
                debug_assert_eq!(t.to_bits(), r.to_bits());
                unpredictable.push(t);
            }
        }
        prev_recon = recon.last().copied().or(prev_recon);
        all_syms.extend_from_slice(syms);
        recon_logs.extend_from_slice(recon);
    }

    let num_blocks = logs.len().div_ceil(BLOCK_SIZE);
    inner.extend_from_slice(&(num_blocks as u32).to_le_bytes());
    inner.extend_from_slice(&block_meta);

    // Blocked packing: zigzag keeps near-zero quantization codes (the
    // common case after prediction) in narrow lanes; the escape takes the
    // first value past the zigzagged range. Self-delimiting, so no
    // payload-length prefix. The widened codes are a temporary of this
    // statement, so they are freed before the reconstruction below.
    let syms = all_syms.iter().map(|&sym| match sym as usize {
        ESCAPE => BLOCKED_ESCAPE,
        s => block::zigzag(s as i64 - RADIUS),
    });
    inner.extend_from_slice(&block::encode_u64s(&syms.collect::<Vec<u64>>()));

    inner.extend_from_slice(&(unpredictable.len() as u32).to_le_bytes());
    inner.reserve(unpredictable.len() * 8);
    for &u in &unpredictable {
        inner.extend_from_slice(&u.to_le_bytes());
    }

    // Figure-3 segment counting for SZ: runs of constant decompressed
    // values, the "constant line like PMC" texture quantization creates.
    let decompressed = reassemble(n, &zero, &sign, &recon_logs);
    let num_segments = constant_runs(&decompressed);

    Ok(CompressedSeries { method: "SZ", bytes: deflate::compress(&inner), num_segments })
}

impl PeblcCompressor for Sz {
    fn name(&self) -> &'static str {
        "SZ"
    }

    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        compress_impl(series, epsilon)
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut r = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut r)?;
        let n = r.read_u32_le()? as usize;
        let mode = r.read_u8()?;
        match mode {
            0 => {
                // Raw values cost 8 bytes each; a tampered count cannot
                // allocate past what the input holds.
                if n > r.bounded_capacity(n, 8) {
                    return Err(CodecError::Corrupt(format!(
                        "raw count {n} exceeds the {} remaining bytes",
                        r.remaining()
                    )));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.read_f64_le()?);
                }
                Ok(RegularTimeSeries::new(start, interval, values)?)
            }
            MODE_BLOCKED => {
                let epsilon = r.read_f64_le()?;
                // An honest encoder only writes bounds that passed
                // `check_epsilon`; anything else poisons every value
                // through `delta`.
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return Err(CodecError::Corrupt(format!("invalid stored epsilon {epsilon}")));
                }
                let delta = (1.0 + epsilon).ln();
                let zero = read_bitmap(&mut r, n)?;
                let sign = read_bitmap(&mut r, n)?;
                let nz = zero.count_zeros();
                let num_blocks = r.read_u32_le()? as usize;
                // The block partition is fully determined by `nz`; any
                // other count desynchronizes every later field.
                if num_blocks != nz.div_ceil(BLOCK_SIZE) {
                    return Err(CodecError::Corrupt(format!(
                        "block count {num_blocks} does not match {nz} nonzero values"
                    )));
                }
                // Block metadata: ≥ 1 byte per block (the predictor tag).
                let mut preds = Vec::with_capacity(r.bounded_capacity(num_blocks, 1));
                for _ in 0..num_blocks {
                    let pred = match r.read_u8()? {
                        0 => Predictor::Lorenzo,
                        1 => Predictor::Mean(r.read_f64_le()?),
                        2 => {
                            let a = r.read_f64_le()?;
                            let b = r.read_f64_le()?;
                            Predictor::Linear { a, b }
                        }
                        t => return Err(CodecError::Corrupt(format!("unknown predictor {t}"))),
                    };
                    preds.push(pred);
                }
                // Quantization symbols, one per nonzero value: a
                // self-delimiting lane stream of zigzagged codes, translated
                // to the shifted-symbol space. The loop consumes the raw
                // codes, freeing them before the reconstruction below.
                let raw = block::decode_u64s(&mut r)
                    .map_err(|e| CodecError::Corrupt(format!("code stream: {e}")))?;
                let mut symbols = Vec::with_capacity(raw.len());
                for z in raw {
                    if z == BLOCKED_ESCAPE {
                        symbols.push(ESCAPE);
                    } else if z < BLOCKED_ESCAPE {
                        symbols.push((block::unzigzag(z) + RADIUS) as usize);
                    } else {
                        return Err(CodecError::Corrupt(format!(
                            "quantization code {z} out of range"
                        )));
                    }
                }
                if symbols.len() != nz {
                    // A stream that cannot describe every nonzero value
                    // (this indexed out of bounds before decode went
                    // total).
                    return Err(CodecError::Corrupt(format!(
                        "code stream holds {} symbols, need {nz}",
                        symbols.len()
                    )));
                }
                // Unpredictable raw values (8 bytes each).
                let n_unp = r.read_u32_le()? as usize;
                if n_unp > r.bounded_capacity(n_unp, 8) {
                    return Err(CodecError::Corrupt(format!(
                        "unpredictable count {n_unp} exceeds the {} remaining bytes",
                        r.remaining()
                    )));
                }
                let mut unpredictable = Vec::with_capacity(n_unp);
                for _ in 0..n_unp {
                    unpredictable.push(r.read_f64_le()?);
                }

                // Reconstruct log values block by block.
                let mut recon_logs = Vec::with_capacity(nz);
                let mut unp_iter = unpredictable.iter();
                let mut prev_recon: Option<f64> = None;
                let mut pos = 0usize;
                for &pred in &preds {
                    let blen = BLOCK_SIZE.min(nz - pos);
                    let mut block_recon: Vec<f64> = Vec::with_capacity(blen);
                    for i in 0..blen {
                        let sym = symbols[pos + i];
                        let p = match pred {
                            Predictor::Lorenzo => {
                                if i > 0 {
                                    block_recon[i - 1]
                                } else {
                                    prev_recon.unwrap_or(0.0)
                                }
                            }
                            Predictor::Mean(m) => m,
                            Predictor::Linear { a, b } => a + b * i as f64,
                        };
                        let t = if sym == ESCAPE {
                            *unp_iter.next().ok_or_else(|| {
                                CodecError::Corrupt("unpredictable underflow".into())
                            })?
                        } else {
                            p + 2.0 * delta * (sym as i64 - RADIUS) as f64
                        };
                        block_recon.push(t);
                    }
                    prev_recon = block_recon.last().copied().or(prev_recon);
                    recon_logs.extend_from_slice(&block_recon);
                    pos += blen;
                }

                let values = reassemble(n, &zero, &sign, &recon_logs);
                Ok(RegularTimeSeries::new(start, interval, values)?)
            }
            m => Err(CodecError::Corrupt(format!("unknown SZ mode {m}"))),
        }
    }
}

/// Re-inserts zeros and signs around reconstructed log magnitudes. The
/// bitmaps are word-backed bitsets indexed directly — no intermediate
/// `Vec<bool>` materialization on the decode path.
fn reassemble(n: usize, zero: &Bitset, sign: &Bitset, recon_logs: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut it = recon_logs.iter();
    for i in 0..n {
        if zero.get(i) {
            out.push(0.0);
        } else {
            let mag = it.next().copied().unwrap_or(0.0).exp();
            out.push(if sign.get(i) { -mag } else { mag });
        }
    }
    out
}

/// Number of maximal runs of identical consecutive values.
pub fn constant_runs(values: &[f64]) -> usize {
    if values.is_empty() {
        return 0;
    }
    1 + values.windows(2).filter(|w| w[0] != w[1]).count()
}

/// The predictor selection as it was before the fused cost: one
/// allocating quantize pass per candidate, `Option<i64>` codes and a
/// separate `log2`-per-code cost pass. Kept as the oracle
/// [`select_predictor`] must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn quantize_block(
        block: &[f64],
        pred: Predictor,
        prev_recon: Option<f64>,
        delta: f64,
    ) -> (Vec<Option<i64>>, Vec<f64>) {
        let mut codes = Vec::with_capacity(block.len());
        let mut recon = Vec::with_capacity(block.len());
        for (i, &t) in block.iter().enumerate() {
            let p = match pred {
                Predictor::Lorenzo => {
                    if i > 0 {
                        recon[i - 1]
                    } else {
                        prev_recon.unwrap_or(0.0)
                    }
                }
                Predictor::Mean(m) => m,
                Predictor::Linear { a, b } => a + b * i as f64,
            };
            let q = ((t - p) / (2.0 * delta)).round();
            if q.is_finite() && q.abs() <= RADIUS as f64 {
                let m = q as i64;
                let r = p + 2.0 * delta * m as f64;
                if (r - t).abs() <= delta {
                    codes.push(Some(m));
                    recon.push(r);
                    continue;
                }
            }
            codes.push(None);
            recon.push(t);
        }
        (codes, recon)
    }

    pub(super) fn cost(codes: &[Option<i64>]) -> f64 {
        codes
            .iter()
            .map(|c| match c {
                Some(m) => 2.0 * ((m.abs() + 2) as f64).log2() + 1.0,
                None => 72.0,
            })
            .sum()
    }

    #[allow(clippy::type_complexity)]
    pub(super) fn select_predictor(
        block: &[f64],
        prev_recon: Option<f64>,
        delta: f64,
    ) -> (Predictor, Vec<Option<i64>>, Vec<f64>) {
        let mean = block.iter().sum::<f64>() / block.len() as f64;
        let (a, b) = fit_linear(block);
        let candidates = [Predictor::Lorenzo, Predictor::Mean(mean), Predictor::Linear { a, b }];
        let mut best: Option<(f64, Predictor, Vec<Option<i64>>, Vec<f64>)> = None;
        for pred in candidates {
            let (codes, recon) = quantize_block(block, pred, prev_recon, delta);
            let coeff_bits = match pred {
                Predictor::Lorenzo => 0.0,
                Predictor::Mean(_) => 64.0,
                Predictor::Linear { .. } => 128.0,
            };
            let c = cost(&codes) + coeff_bits;
            if best.as_ref().is_none_or(|(bc, ..)| c < *bc) {
                best = Some((c, pred, codes, recon));
            }
        }
        let (_, pred, codes, recon) = best.expect("three candidates evaluated");
        (pred, codes, recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::find_bound_violation;

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 600, values).unwrap()
    }

    fn wavy(n: usize) -> Vec<f64> {
        (0..n).map(|i| 20.0 + (i as f64 * 0.03).sin() * 8.0 + ((i * 7) % 5) as f64 * 0.05).collect()
    }

    #[test]
    fn roundtrip_respects_relative_bound() {
        let vals = wavy(3000);
        for eps in [0.01, 0.05, 0.2, 0.8] {
            let (d, _) = Sz.transform(&series(vals.clone()), eps).unwrap();
            assert_eq!(d.len(), vals.len());
            assert!(
                find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                "bound violated at eps {eps}"
            );
        }
    }

    #[test]
    fn zeros_and_signs_survive() {
        let vals = vec![0.0, -3.0, 2.0, 0.0, -0.5, 1e-8, 0.0];
        let (d, _) = Sz.transform(&series(vals.clone()), 0.3).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert_eq!(d.values()[3], 0.0);
        assert_eq!(d.values()[6], 0.0);
        assert!(d.values()[1] < 0.0);
        assert!(d.values()[4] < 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.3, 1e-12).is_none());
    }

    #[test]
    fn epsilon_zero_is_lossless() {
        let vals = wavy(500);
        let (d, _) = Sz.transform(&series(vals.clone()), 0.0).unwrap();
        assert_eq!(d.values(), &vals[..]);
    }

    #[test]
    fn quantization_creates_constant_runs() {
        // Paper Figure 1: "SZ seems to fit a constant line like PMC ...
        // due to the quantization step".
        let vals = wavy(4000);
        let c = Sz.compress(&series(vals.clone()), 0.2).unwrap();
        let runs_raw = constant_runs(&vals);
        assert!(c.num_segments < runs_raw, "{} vs {}", c.num_segments, runs_raw);
    }

    #[test]
    fn segment_count_drops_with_epsilon() {
        let vals = wavy(6000);
        let s = series(vals);
        let low = Sz.compress(&s, 0.05).unwrap().num_segments;
        let high = Sz.compress(&s, 0.5).unwrap().num_segments;
        assert!(high < low, "{high} vs {low}");
    }

    #[test]
    fn high_cr_at_low_epsilon_vs_pmc() {
        // Paper §4.2 / RQ1.2: SZ provides the highest CR at low error
        // bounds thanks to quantization + entropy coding.
        let vals = wavy(10_000);
        let s = series(vals);
        let sz = Sz.compress(&s, 0.01).unwrap().size_bytes();
        let pmc = crate::pmc::Pmc.compress(&s, 0.01).unwrap().size_bytes();
        assert!(sz < pmc, "sz {sz} vs pmc {pmc}");
    }

    #[test]
    fn smooth_blocks_use_cheap_predictors() {
        // A noiseless trending series should compress to very few bytes.
        let vals: Vec<f64> = (0..5000).map(|i| 100.0 + 0.01 * i as f64).collect();
        let s = series(vals.clone());
        let c = Sz.compress(&s, 0.05).unwrap();
        assert!(c.size_bytes() < 2000, "{}", c.size_bytes());
        let d = Sz.decompress(&c).unwrap();
        assert!(find_bound_violation(&vals, d.values(), 0.05, 1e-9).is_none());
    }

    #[test]
    fn spiky_outliers_stored_unpredictably_but_bounded() {
        let mut vals = wavy(1000);
        vals[100] = 1e6;
        vals[500] = 1e-6;
        vals[900] = -4000.0;
        let (d, _) = Sz.transform(&series(vals.clone()), 0.1).unwrap();
        assert!(find_bound_violation(&vals, d.values(), 0.1, 1e-6).is_none());
    }

    #[test]
    fn all_zero_series() {
        let vals = vec![0.0; 300];
        let (d, _) = Sz.transform(&series(vals.clone()), 0.5).unwrap();
        assert_eq!(d.values(), &vals[..]);
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(777, 2, vec![3.0, 4.0, 5.0]).unwrap();
        let (d, _) = Sz.transform(&s, 0.1).unwrap();
        assert_eq!(d.start(), 777);
        assert_eq!(d.interval(), 2);
    }

    #[test]
    fn corrupt_data_detected() {
        let c = Sz.compress(&series(wavy(100)), 0.1).unwrap();
        let truncated = CompressedSeries {
            method: "SZ",
            bytes: deflate::compress(&[1, 2, 3]),
            num_segments: 0,
        };
        assert!(Sz.decompress(&truncated).is_err());
        // Flipping the mode byte inside is caught too.
        let inner = deflate::decompress(&c.bytes).unwrap();
        // Mode byte position: 6 header + 4 count. Mode 1 (the retired
        // Huffman layout) is as unknown as mode 9.
        for mode in [9, 1] {
            let mut bad = inner.clone();
            bad[10] = mode;
            let frame =
                CompressedSeries { method: "SZ", bytes: deflate::compress(&bad), num_segments: 0 };
            let err = Sz.decompress(&frame).unwrap_err().to_string();
            assert!(err.contains("unknown SZ mode"), "mode {mode}: {err}");
        }
    }

    #[test]
    fn blocked_mode_rejects_out_of_range_codes() {
        // A blocked frame holds zigzagged codes ≤ BLOCKED_ESCAPE; decode
        // must reject anything larger rather than fold it into a bogus
        // quantization bin. Build a one-value mode-2 frame whose symbol
        // stream carries an impossible code.
        assert_eq!(BLOCKED_ESCAPE, ESCAPE as u64, "escape sits right past the zigzag range");
        let make = |sym: u64| {
            let mut inner = timestamps::encode_header(0, 600);
            inner.extend_from_slice(&1u32.to_le_bytes()); // n = 1
            inner.push(MODE_BLOCKED);
            inner.extend_from_slice(&0.1f64.to_le_bytes());
            inner.push(0); // zero bitmap: the value is nonzero
            inner.push(0); // sign bitmap: positive
            inner.extend_from_slice(&1u32.to_le_bytes()); // num_blocks
            inner.push(0); // Lorenzo tag
            inner.extend_from_slice(&block::encode_u64s(&[sym]));
            inner.extend_from_slice(&0u32.to_le_bytes()); // no unpredictables
            CompressedSeries { method: "SZ", bytes: deflate::compress(&inner), num_segments: 1 }
        };
        assert!(Sz.decompress(&make(0)).is_ok(), "honest in-range code decodes");
        assert!(Sz.decompress(&make(BLOCKED_ESCAPE + 1)).is_err(), "out-of-range code rejected");
    }

    /// Predictor identity including coefficient bits (NaN-safe).
    fn pred_bits(p: Predictor) -> (u8, u64, u64) {
        match p {
            Predictor::Lorenzo => (0, 0, 0),
            Predictor::Mean(m) => (1, m.to_bits(), 0),
            Predictor::Linear { a, b } => (2, a.to_bits(), b.to_bits()),
        }
    }

    fn assert_selection_matches_reference(block: &[f64], prev: Option<f64>, delta: f64) {
        let mut sel = Selection::default();
        let pred = select_predictor(block, prev, delta, &mut sel);
        let (rpred, rcodes, rrecon) = reference::select_predictor(block, prev, delta);
        assert_eq!(pred_bits(pred), pred_bits(rpred), "predictor");
        let rsyms: Vec<u16> =
            rcodes.iter().map(|c| c.map_or(ESCAPE as u16, |m| (m + RADIUS) as u16)).collect();
        assert_eq!(sel.best.syms, rsyms, "codes");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sel.best.recon), bits(&rrecon), "recon");
        // Every candidate's fused cost, not just the winner's, is the
        // reference cost to the bit.
        let mean = block.iter().sum::<f64>() / block.len() as f64;
        let (a, b) = fit_linear(block);
        for pred in [Predictor::Lorenzo, Predictor::Mean(mean), Predictor::Linear { a, b }] {
            let fused = quantize_block(block, pred, prev, delta, &mut sel.trial);
            let (rcodes, _) = reference::quantize_block(block, pred, prev, delta);
            assert_eq!(fused.to_bits(), reference::cost(&rcodes).to_bits(), "{pred:?} cost");
        }
    }

    /// A block of log magnitudes from `seed`: a random walk with `spread`
    /// sized steps, so small spreads quantize near zero and large ones
    /// overflow the radius; `specials` sprinkles NaN/±inf escapes.
    fn random_block(seed: u64, len: usize, spread: f64, specials: bool) -> Vec<f64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut level = (next() % 100) as f64 / 10.0 - 5.0;
        (0..len)
            .map(|_| {
                let r = next();
                level += ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * spread;
                match (specials, r % 17) {
                    (true, 0) => f64::NAN,
                    (true, 1) => f64::INFINITY,
                    (true, 2) => f64::NEG_INFINITY,
                    (true, 3) => level + 1e6,
                    _ => level,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn prop_selection_matches_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 1usize..=BLOCK_SIZE,
            spread_exp in -4i32..4,
            eps_idx in 0usize..ERROR_BOUND_SAMPLE.len(),
            prev in proptest::prelude::any::<i16>(),
            specials in proptest::prelude::any::<bool>(),
        ) {
            let block = random_block(seed, len, 10f64.powi(spread_exp), specials);
            let delta = (1.0 + ERROR_BOUND_SAMPLE[eps_idx]).ln();
            // The first block of a stream has no previous reconstruction.
            let prev = (prev % 4 != 0).then_some(prev as f64 / 100.0);
            assert_selection_matches_reference(&block, prev, delta);
        }
    }

    /// Bounds spanning the paper's range plus one tiny and one huge.
    const ERROR_BOUND_SAMPLE: [f64; 6] = [1e-6, 0.01, 0.1, 0.5, 0.8, 40.0];

    #[test]
    fn selection_matches_reference_on_edge_blocks() {
        let delta = (1.1f64).ln();
        for block in [
            vec![1.0],
            vec![f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![0.0, 1e9, -1e9, 0.0],
            vec![2.5; BLOCK_SIZE],
            (0..BLOCK_SIZE).map(|i| i as f64 * 0.01).collect(),
            (0..7).map(|i| (i as f64).sin()).collect(),
        ] {
            for prev in [None, Some(0.0), Some(-3.5), Some(f64::NAN)] {
                assert_selection_matches_reference(&block, prev, delta);
            }
        }
    }

    #[test]
    fn cost_tie_keeps_the_earlier_candidate() {
        // With 2δ = 1 every residual is an exact integer and every cost an
        // exact sum. Lorenzo pays 19 (|m| = 510) on all 8 points = 152;
        // Mean (1000) pays 19 on four points and 3 on four, plus its 64
        // coefficient bits = 152. The tie goes to Lorenzo, tried first.
        let block = [490.0, 1000.0, 490.0, 1000.0, 1510.0, 1000.0, 1510.0, 1000.0];
        let mut sel = Selection::default();
        let pred = select_predictor(&block, Some(-20.0), 0.5, &mut sel);
        assert_eq!(pred, Predictor::Lorenzo);
        assert_selection_matches_reference(&block, Some(-20.0), 0.5);
    }

    #[test]
    fn code_cost_table_matches_log2_expression() {
        for m in -RADIUS..=RADIUS {
            let direct = 2.0 * ((m.abs() + 2) as f64).log2() + 1.0;
            assert_eq!(CODE_COST[m.unsigned_abs() as usize].to_bits(), direct.to_bits(), "m {m}");
        }
    }

    #[test]
    fn constant_runs_counting() {
        assert_eq!(constant_runs(&[]), 0);
        assert_eq!(constant_runs(&[1.0]), 1);
        assert_eq!(constant_runs(&[1.0, 1.0, 2.0, 2.0, 1.0]), 3);
    }
}
