//! Pool-runtime equivalence: every scheme's report must match its
//! committed golden report byte for byte at every prediction-pool width.
//!
//! This is the determinism contract of DESIGN.md §11: chunking is
//! contiguous and width-deterministic, results land by task index, and
//! worker scratch only carries buffers that are fully overwritten before
//! they are read (plus order-independent counters). A single differing
//! byte in a serialized report fails the suite.

mod golden;

use corp_bench::env::{run_cell, Environment, SchemeKind, SchemeParams, ALL_SCHEMES};
use corp_core::pipeline::hardware_parallelism;

const JOBS: usize = 30;

/// Runs one small cluster cell at prediction-pool `width` and serializes
/// the full report.
fn report_json(scheme: SchemeKind, width: Option<usize>) -> String {
    let params = SchemeParams {
        fast_dnn: true,
        pool_width: width,
        ..Default::default()
    };
    serde::json::to_string(&run_cell(
        Environment::Cluster,
        scheme,
        JOBS,
        &params,
        false,
    ))
}

#[test]
fn pool_widths_match_the_golden_reports_for_every_scheme() {
    for scheme in ALL_SCHEMES {
        let expected = golden::report(&format!("{}-{JOBS}jobs", golden::slug(scheme)));
        for width in [Some(1), Some(2), Some(hardware_parallelism()), None] {
            assert_eq!(
                report_json(scheme, width),
                expected,
                "{scheme:?}: pool width {width:?} diverged from the golden report"
            );
        }
    }
}
