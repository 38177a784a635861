//! Golden frame digests: the CRC32 of every frame PMC, Swing, SZ, Gorilla
//! and PPA write for two generated series at three error bounds, plus the
//! deflated raw size (the Eq. 3 denominator).
//!
//! Every other byte-identity check in the repo is relative (one mode
//! against another within one build). These constants are absolute: they
//! were recorded before the DEFLATE match finder and SZ predictor selection
//! were rewritten, so any speed-up that changes a single frame byte fails
//! here. CI also runs this file under `EVALIMPL_CODEC_KERNEL=scalar`, which
//! pins the blocked and scalar codec kernels to the same bytes.
//!
//! A change that alters the wire format on purpose regenerates the table
//! (the failure message prints every actual row) and says why.

use compression::codec::{raw_compressed_size, PeblcCompressor};
use compression::{crc32, Gorilla, Pmc, Ppa, Swing, Sz};
use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};
use tsdata::series::RegularTimeSeries;

const LEN: usize = 20_000;
const BOUNDS: [f64; 3] = [0.01, 0.1, 0.5];

/// `(dataset, codec, ε, frame length, frame crc32, segments)`.
type Row = (&'static str, &'static str, f64, usize, u32, usize);

const GOLDEN_FRAMES: &[Row] = &[
    ("ETTm1", "PMC", 0.01, 31745, 0xB2677690, 14158),
    ("ETTm1", "PMC", 0.1, 10074, 0xAC1AA115, 4021),
    ("ETTm1", "PMC", 0.5, 3234, 0x50FC5200, 1319),
    ("ETTm1", "SWING", 0.01, 43134, 0x8913EA82, 7418),
    ("ETTm1", "SWING", 0.1, 13514, 0x55ADA721, 1790),
    ("ETTm1", "SWING", 0.5, 4486, 0x26A379A8, 556),
    ("ETTm1", "SZ", 0.01, 12057, 0x681A0827, 16394),
    ("ETTm1", "SZ", 0.1, 5214, 0x0A032FE7, 5379),
    ("ETTm1", "SZ", 0.5, 2730, 0x3A1F909C, 1866),
    ("ETTm1", "GORILLA", 0.01, 73107, 0xEBE1B991, 1),
    ("ETTm1", "GORILLA", 0.1, 73107, 0xEBE1B991, 1),
    ("ETTm1", "GORILLA", 0.5, 73107, 0xEBE1B991, 1),
    ("ETTm1", "PPA", 0.01, 46880, 0xF2D0B93F, 5173),
    ("ETTm1", "PPA", 0.1, 16231, 0xA2BAD7B3, 1337),
    ("ETTm1", "PPA", 0.5, 7376, 0x8E16B610, 576),
    ("Wind", "PMC", 0.01, 30120, 0xE4F7812B, 15614),
    ("Wind", "PMC", 0.1, 10173, 0x0791974D, 4546),
    ("Wind", "PMC", 0.5, 2439, 0xD7D69700, 988),
    ("Wind", "SWING", 0.01, 38420, 0xA2BA67D8, 8483),
    ("Wind", "SWING", 0.1, 16928, 0xD7737086, 2683),
    ("Wind", "SWING", 0.5, 2951, 0x3B8385EC, 435),
    ("Wind", "SZ", 0.01, 12167, 0xD96AF92C, 17168),
    ("Wind", "SZ", 0.1, 5100, 0xF44100F8, 7163),
    ("Wind", "SZ", 0.5, 2676, 0xBEE2482B, 2216),
    ("Wind", "GORILLA", 0.01, 29319, 0x1C0F8FFF, 1),
    ("Wind", "GORILLA", 0.1, 29319, 0x1C0F8FFF, 1),
    ("Wind", "GORILLA", 0.5, 29319, 0x1C0F8FFF, 1),
    ("Wind", "PPA", 0.01, 39953, 0x4E3CD927, 5786),
    ("Wind", "PPA", 0.1, 21709, 0x6FE73004, 2018),
    ("Wind", "PPA", 0.5, 5725, 0xDC6E38BB, 486),
];

/// `(dataset, raw_compressed_size)`.
const GOLDEN_RAW: &[(&str, usize)] = &[("ETTm1", 47289), ("Wind", 33748)];

fn datasets() -> Vec<(&'static str, RegularTimeSeries)> {
    [DatasetKind::ETTm1, DatasetKind::Wind]
        .into_iter()
        .map(|k| (k.name(), generate_univariate(k, GenOptions::with_len(LEN))))
        .collect()
}

fn codecs() -> Vec<Box<dyn PeblcCompressor>> {
    vec![Box::new(Pmc), Box::new(Swing), Box::new(Sz), Box::new(Gorilla), Box::new(Ppa::default())]
}

#[test]
fn frames_match_golden_digests() {
    let mut frames = Vec::new();
    let mut raw = Vec::new();
    for (name, series) in datasets() {
        raw.push((name, raw_compressed_size(&series)));
        for codec in codecs() {
            for eps in BOUNDS {
                let c = codec.compress(&series, eps).expect("encodes");
                let (len, crc) = (c.bytes.len(), crc32(&c.bytes));
                frames.push((name, codec.name(), eps, len, crc, c.num_segments));
            }
        }
    }
    let mut dump = String::from("frames:\n");
    for (d, m, e, len, crc, segs) in &frames {
        dump += &format!("    (\"{d}\", \"{m}\", {e:?}, {len}, 0x{crc:08X}, {segs}),\n");
    }
    dump += "raw:\n";
    for (d, size) in &raw {
        dump += &format!("    (\"{d}\", {size}),\n");
    }
    assert!(frames == GOLDEN_FRAMES, "frame bytes moved; actual rows:\n{dump}");
    assert!(raw == GOLDEN_RAW, "raw deflated size moved; actual rows:\n{dump}");
}
