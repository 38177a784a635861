//! Full-series transforms are computed once per cell and never retained:
//! after a compression grid the context's transform cache is untouched,
//! while `transform_compute_seconds` still records every transform, under
//! both the in-memory and the store-backed backend.
//!
//! Telemetry is process-global, so this file holds a single test.

use evalcore::cache::GridContext;
use evalcore::grid::{run_compression_grid_ctx, GridConfig};

fn transform_compute_count() -> u64 {
    telemetry::global()
        .metrics()
        .snapshot()
        .iter()
        .filter(|s| s.name == "transform_compute_seconds")
        .filter_map(|s| s.value.as_histogram_totals())
        .map(|(count, _)| count)
        .sum()
}

#[test]
fn compression_grid_leaves_the_transform_cache_empty() {
    telemetry::set_enabled(true);
    for store_backed in [false, true] {
        let mut cfg = GridConfig::smoke();
        cfg.len = Some(1_200);
        cfg.store_backed = store_backed;
        let cells = cfg.datasets.len() * cfg.methods.len() * cfg.error_bounds.len();
        let ctx = GridContext::new(cfg);
        let before = transform_compute_count();
        let records = run_compression_grid_ctx(&ctx);
        assert_eq!(records.len(), cells);
        assert_eq!(
            (ctx.transforms.len(), ctx.transforms.hits(), ctx.transforms.misses()),
            (0, 0, 0),
            "store_backed={store_backed}"
        );
        assert!(ctx.transforms.is_empty());
        assert_eq!(
            transform_compute_count() - before,
            cells as u64,
            "every full transform is timed (store_backed={store_backed})"
        );
    }
}
