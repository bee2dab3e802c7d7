//! Golden reports for CORP on the paper's Table II network (4 hidden
//! layers of 50 sigmoid units), the architecture every experiment runs
//! but the `fast_dnn` cells elsewhere in this suite skip.
//!
//! The cells are sized so a provisioning window holds many more jobs
//! than one batched inference pass covers, and so the last pass of a
//! window is usually a partial one: the fixtures pin the window
//! forecast's arithmetic end to end, at two prediction-pool widths and
//! behind a two-shard control plane.

mod golden;

use corp_bench::env::{run_cell, run_cell_sharded, Environment, SchemeKind, SchemeParams};

const JOBS: usize = 120;

fn params(pool_width: Option<usize>) -> SchemeParams {
    SchemeParams {
        fast_dnn: false,
        pool_width,
        ..Default::default()
    }
}

#[test]
fn paper_network_reports_match_the_golden_at_every_pool_width() {
    let corp = golden::slug(SchemeKind::Corp);
    let expected = golden::report(&format!("{corp}-paper-{JOBS}jobs"));
    for width in [Some(1), Some(2)] {
        let report = run_cell(
            Environment::Cluster,
            SchemeKind::Corp,
            JOBS,
            &params(width),
            false,
        );
        assert_eq!(
            serde::json::to_string(&report),
            expected,
            "paper-network CORP at pool width {width:?} diverged from the golden report"
        );
    }
}

#[test]
fn paper_network_two_shard_report_matches_the_golden() {
    let (report, _) = run_cell_sharded(
        Environment::Cluster,
        SchemeKind::Corp,
        JOBS,
        &params(None),
        2,
        false,
    );
    assert_eq!(
        serde::json::to_string(&report),
        golden::report(&format!(
            "{}-paper-{JOBS}jobs-2shards",
            golden::slug(SchemeKind::Corp)
        )),
        "paper-network CORP at 2 shards diverged from the golden report"
    );
}
