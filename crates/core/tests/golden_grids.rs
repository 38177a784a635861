//! Golden digests of the compression-side outputs on multi-channel data:
//! the rendered Figure 2, Figure 3 and Table 3 text, and the
//! characteristics CSV behind Figure 5 / Tables 4 and 6.
//!
//! The configuration is [`GridConfig::default_repro`] — the default
//! channel counts, so every dataset carries auxiliary channels — on two
//! datasets at length 1500. The `--quick` runs that the other CSV checks
//! use are single-channel, so these constants are what pins the
//! compression and characteristics experiments when the generated
//! datasets have more channels than those experiments read.
//!
//! The digests are FNV-1a 64 over the exact text. They were recorded
//! before those experiments switched to target-only datasets and stopped
//! memoizing full-series transforms; both changes must leave every byte
//! unchanged. A change that alters the outputs on purpose updates the
//! constants (the failure message prints the actual values) and says why.

use evalcore::experiments::{characteristics_exp, compression_exp, forecasting_exp};
use evalcore::results::characteristics_csv;
use evalcore::GridConfig;
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;

const FIG2: u64 = 0x250F47DC1804DDC7;
const FIG3: u64 = 0x5DD193BD91B5CDD6;
const TABLE3: u64 = 0x4A3A8592561A82A1;
const CHARACTERISTICS_CSV: u64 = 0x9C9CFF0D6271D436;

fn config() -> GridConfig {
    let mut c = GridConfig::default_repro();
    c.datasets = vec![DatasetKind::ETTm1, DatasetKind::Solar];
    c.len = Some(1_500);
    // Two cheap models keep the forecast grid behind the TFE column
    // short; the characteristics cells do not depend on which models ran
    // beyond the TFE they average.
    c.models = vec![ModelKind::GBoost, ModelKind::DLinear];
    c
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn check(actual: &[(&str, u64)], expected: &[u64]) {
    let got: Vec<u64> = actual.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        got,
        expected,
        "golden digests moved; actual values:\n{}",
        actual.iter().map(|(n, d)| format!("const {n}: u64 = 0x{d:016X};\n")).collect::<String>()
    );
}

#[test]
fn compression_renders_match_golden() {
    let cfg = config();
    assert!(cfg.channels.is_none(), "the golden configuration must be multi-channel");
    let exp = compression_exp::run(&cfg);
    assert!(exp.failures.is_empty(), "{:?}", exp.failures);
    check(
        &[
            ("FIG2", fnv1a(&exp.render_fig2())),
            ("FIG3", fnv1a(&exp.render_fig3())),
            ("TABLE3", fnv1a(&exp.render_table3())),
        ],
        &[FIG2, FIG3, TABLE3],
    );
}

#[test]
fn characteristics_csv_matches_golden() {
    let forecast = forecasting_exp::run(&config());
    assert!(forecast.failures.is_empty(), "{:?}", forecast.failures);
    let chars = characteristics_exp::run(&forecast);
    assert!(!chars.rows.is_empty());
    check(
        &[("CHARACTERISTICS_CSV", fnv1a(&characteristics_csv(&chars.rows)))],
        &[CHARACTERISTICS_CSV],
    );
}
