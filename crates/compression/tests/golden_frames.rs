//! Golden frame digests: the CRC32 of every frame PMC, Swing, SZ, Gorilla
//! and PPA write for the six generated series at three error bounds, plus
//! the deflated raw size (the Eq. 3 denominator). Two further tables pin
//! PMC and Swing on 70,000-point runs (longer than the 16-bit segment-length
//! field, so the encoder must split one logical segment at write time) and
//! the varbit timestamp stream on a vector that hits every prefix class.
//!
//! Every other byte-identity check in the repo is relative (one mode
//! against another within one build). These constants are absolute: they
//! were recorded before the DEFLATE match finder and SZ predictor selection
//! were rewritten, so any speed-up that changes a single frame byte fails
//! here. The rows for the other four datasets, the long runs and the
//! timestamp stream were recorded while PMC, Swing, Gorilla and the varbit
//! stream still had separate batch encoders; they now pin the online
//! encoders that replaced them. CI also runs this file under `EVALIMPL_CODEC_KERNEL=scalar`, which
//! pins the blocked and scalar codec kernels to the same bytes.
//!
//! A change that alters the wire format on purpose regenerates the table
//! (the failure message prints every actual row) and says why.

use compression::codec::{raw_compressed_size, PeblcCompressor};
use compression::{crc32, timestamps, Gorilla, Pmc, Ppa, Swing, Sz};
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
    ("ETTm2", "PMC", 0.01, 28393, 0xE86A41B9, 12034),
    ("ETTm2", "PMC", 0.1, 7344, 0xC6CA729A, 2743),
    ("ETTm2", "PMC", 0.5, 2085, 0x96CB8D0C, 769),
    ("ETTm2", "SWING", 0.01, 39385, 0xE239F985, 6056),
    ("ETTm2", "SWING", 0.1, 8767, 0x08C76904, 1093),
    ("ETTm2", "SWING", 0.5, 2517, 0x1665725C, 291),
    ("ETTm2", "SZ", 0.01, 9472, 0xA2CF3FC2, 14634),
    ("ETTm2", "SZ", 0.1, 4047, 0x3D0310CD, 3719),
    ("ETTm2", "SZ", 0.5, 1918, 0x498C26C9, 1121),
    ("ETTm2", "GORILLA", 0.01, 73638, 0x7E749B39, 1),
    ("ETTm2", "GORILLA", 0.1, 73638, 0x7E749B39, 1),
    ("ETTm2", "GORILLA", 0.5, 73638, 0x7E749B39, 1),
    ("ETTm2", "PPA", 0.01, 43816, 0xF4B788BB, 4282),
    ("ETTm2", "PPA", 0.1, 10578, 0x2F26147D, 829),
    ("ETTm2", "PPA", 0.5, 4528, 0x3BFDBA9D, 340),
    ("Solar", "PMC", 0.01, 16692, 0xDE409CA1, 9304),
    ("Solar", "PMC", 0.1, 8993, 0x5C80189B, 5025),
    ("Solar", "PMC", 0.5, 2227, 0xAA4769B9, 1356),
    ("Solar", "SWING", 0.01, 18631, 0x951076F0, 4896),
    ("Solar", "SWING", 0.1, 15923, 0xF5751DCE, 2886),
    ("Solar", "SWING", 0.5, 2025, 0xB40233EF, 426),
    ("Solar", "SZ", 0.01, 7767, 0xE98BB3EE, 9621),
    ("Solar", "SZ", 0.1, 3590, 0xDF952D55, 6727),
    ("Solar", "SZ", 0.5, 1700, 0x0B33C2B9, 2870),
    ("Solar", "GORILLA", 0.01, 25240, 0x7D23261F, 1),
    ("Solar", "GORILLA", 0.1, 25240, 0x7D23261F, 1),
    ("Solar", "GORILLA", 0.5, 25240, 0x7D23261F, 1),
    ("Solar", "PPA", 0.01, 19937, 0xACDAE9AA, 3370),
    ("Solar", "PPA", 0.1, 19621, 0x3762C3DC, 2266),
    ("Solar", "PPA", 0.5, 4598, 0x9147BE9F, 543),
    ("Weather", "PMC", 0.01, 6609, 0x84625179, 2806),
    ("Weather", "PMC", 0.1, 183, 0x639F74CF, 28),
    ("Weather", "PMC", 0.5, 21, 0xC36CDADD, 1),
    ("Weather", "SWING", 0.01, 13478, 0xDC29744F, 1787),
    ("Weather", "SWING", 0.1, 225, 0x6A334716, 21),
    ("Weather", "SWING", 0.5, 25, 0x5851DEB6, 1),
    ("Weather", "SZ", 0.01, 3475, 0xF44F7CAF, 5351),
    ("Weather", "SZ", 0.1, 893, 0x9109F1EC, 449),
    ("Weather", "SZ", 0.5, 1493, 0x62170FCA, 920),
    ("Weather", "GORILLA", 0.01, 48863, 0x07BD5D65, 1),
    ("Weather", "GORILLA", 0.1, 48863, 0x07BD5D65, 1),
    ("Weather", "GORILLA", 0.5, 48863, 0x07BD5D65, 1),
    ("Weather", "PPA", 0.01, 17438, 0x050030C6, 1375),
    ("Weather", "PPA", 0.1, 842, 0x656693A6, 59),
    ("Weather", "PPA", 0.5, 576, 0xF0E38A52, 40),
    ("ElecDem", "PMC", 0.01, 26569, 0xF39C0F43, 13443),
    ("ElecDem", "PMC", 0.1, 5049, 0x17662796, 2106),
    ("ElecDem", "PMC", 0.5, 549, 0x878F3F44, 189),
    ("ElecDem", "SWING", 0.01, 44586, 0xC35F227D, 7418),
    ("ElecDem", "SWING", 0.1, 7858, 0x048DA70B, 1016),
    ("ElecDem", "SWING", 0.5, 345, 0xAD311E69, 33),
    ("ElecDem", "SZ", 0.01, 8982, 0x1906B728, 16123),
    ("ElecDem", "SZ", 0.1, 3063, 0x6E99FDFD, 3431),
    ("ElecDem", "SZ", 0.5, 1080, 0x24C5E85E, 591),
    ("ElecDem", "GORILLA", 0.01, 40370, 0x4FAC1FC1, 1),
    ("ElecDem", "GORILLA", 0.1, 40370, 0x4FAC1FC1, 1),
    ("ElecDem", "GORILLA", 0.5, 40370, 0x4FAC1FC1, 1),
    ("ElecDem", "PPA", 0.01, 48554, 0x836AAF38, 5177),
    ("ElecDem", "PPA", 0.1, 9114, 0x3DFF9ED1, 700),
    ("ElecDem", "PPA", 0.5, 1738, 0xA614A5F7, 123),
];

/// `(dataset, raw_compressed_size)`.
const GOLDEN_RAW: &[(&str, usize)] = &[
    ("ETTm1", 47289),
    ("Wind", 33748),
    ("ETTm2", 51267),
    ("Solar", 18761),
    ("Weather", 43655),
    ("ElecDem", 45413),
];

fn datasets() -> Vec<(&'static str, RegularTimeSeries)> {
    [
        DatasetKind::ETTm1,
        DatasetKind::Wind,
        DatasetKind::ETTm2,
        DatasetKind::Solar,
        DatasetKind::Weather,
        DatasetKind::ElecDem,
    ]
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

const LONG_LEN: usize = 70_000;

/// `(series, codec, ε, frame length, frame crc32, segments)` for the long
/// runs; `segments` counts logical segments, not 16-bit stored records.
const GOLDEN_LONG_RUNS: &[Row] = &[
    ("constant", "PMC", 0.01, 27, 0xE00B812E, 1),
    ("constant", "PMC", 0.1, 27, 0xE00B812E, 1),
    ("constant", "PMC", 0.5, 27, 0xE00B812E, 1),
    ("constant", "SWING", 0.01, 35, 0x902B232F, 1),
    ("constant", "SWING", 0.1, 35, 0x902B232F, 1),
    ("constant", "SWING", 0.5, 35, 0x902B232F, 1),
    ("ramp", "PMC", 0.01, 1249, 0x97DAB275, 215),
    ("ramp", "PMC", 0.1, 159, 0x4D58E9E4, 24),
    ("ramp", "PMC", 0.5, 57, 0x0B57602B, 7),
    ("ramp", "SWING", 0.01, 35, 0x947C2565, 1),
    ("ramp", "SWING", 0.1, 35, 0x947C2565, 1),
    ("ramp", "SWING", 0.5, 35, 0x947C2565, 1),
    ("zero_run", "PMC", 0.01, 33, 0x3D2EC3C7, 2),
    ("zero_run", "PMC", 0.1, 33, 0x3D2EC3C7, 2),
    ("zero_run", "PMC", 0.5, 33, 0x3D2EC3C7, 2),
    ("zero_run", "SWING", 0.01, 45, 0x2C74FC45, 2),
    ("zero_run", "SWING", 0.1, 45, 0xDED2797A, 2),
    ("zero_run", "SWING", 0.5, 45, 0xDED2797A, 2),
];

/// Three runs longer than `u16::MAX` points: a constant, a gentle linear
/// ramp (one Swing line, many PMC steps) and a zero run after a short
/// nonzero prefix (exact zeros have a zero relative bound).
fn long_runs() -> Vec<(&'static str, RegularTimeSeries)> {
    let constant = vec![5.0; LONG_LEN];
    let ramp: Vec<f64> = (0..LONG_LEN).map(|i| 1.0 + 0.001 * i as f64).collect();
    let zeros: Vec<f64> = (0..LONG_LEN).map(|i| if i < 10 { 2.0 } else { 0.0 }).collect();
    [("constant", constant), ("ramp", ramp), ("zero_run", zeros)]
        .into_iter()
        .map(|(name, v)| (name, RegularTimeSeries::new(0, 60, v).expect("regular")))
        .collect()
}

#[test]
fn long_run_frames_match_golden_digests() {
    let codecs: [Box<dyn PeblcCompressor>; 2] = [Box::new(Pmc), Box::new(Swing)];
    let mut frames = Vec::new();
    for (name, series) in long_runs() {
        for codec in &codecs {
            for eps in BOUNDS {
                let c = codec.compress(&series, eps).expect("encodes");
                let (len, crc) = (c.bytes.len(), crc32(&c.bytes));
                frames.push((name, codec.name(), eps, len, crc, c.num_segments));
            }
        }
    }
    let mut dump = String::new();
    for (d, m, e, len, crc, segs) in &frames {
        dump += &format!("    (\"{d}\", \"{m}\", {e:?}, {len}, 0x{crc:08X}, {segs}),\n");
    }
    assert!(frames == GOLDEN_LONG_RUNS, "long-run frame bytes moved; actual rows:\n{dump}");
}

/// `(stream length, stream crc32)` of the varbit timestamp stream.
const GOLDEN_VARBIT: (usize, u32) = (1473, 0x15E5CCFD);

/// An irregular timeline whose delta-of-deltas land in every varbit prefix
/// class: zero, the 7-, 9- and 12-bit windows at both ends, and the raw
/// 64-bit escape (both signs).
fn irregular_timestamps() -> Vec<i64> {
    let dods: [i64; 14] = [0, 1, -63, 64, 65, -64, 256, -255, 257, 2048, -2047, 2049, -2048, 0];
    let mut ts = vec![1_600_000_000i64];
    let mut delta = 900i64;
    for round in 0..40i64 {
        for &dod in &dods {
            delta += dod + round;
            ts.push(ts[ts.len() - 1] + delta);
        }
    }
    // Wrapping jumps far beyond any 12-bit window.
    for t in [i64::MIN, i64::MAX, 0, -1, 1 << 40, -(1 << 50)] {
        ts.push(t);
    }
    ts
}

#[test]
fn varbit_timestamp_stream_matches_golden_digest() {
    let bytes = timestamps::encode_stream_varbit(&irregular_timestamps());
    let actual = (bytes.len(), crc32(&bytes));
    assert!(
        actual == GOLDEN_VARBIT,
        "varbit stream bytes moved; actual: ({}, 0x{:08X})",
        actual.0,
        actual.1
    );
}
