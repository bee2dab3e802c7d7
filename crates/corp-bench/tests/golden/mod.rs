//! Committed golden reports: serialized `SimulationReport`s of the
//! determinism and pool-runtime cells, captured from the code that still
//! ran the scoped-thread runtime, the serial prediction switch and the
//! reference DNN kernels side by side with the pool (every arm reproduced
//! them exactly). The `*shards*` fixtures pin the sharded control plane's
//! decisions and every `ControlPlaneStats` counter; the CloudScale, DRA,
//! 8-shard and 120-job ones were captured from the striped two-phase-commit
//! store before it was replaced by the single-owner ledger. A diff against
//! them is a changed decision; never recapture them to make a test pass.

use corp_bench::env::SchemeKind;

/// The committed golden report `name` (`tests/golden/{name}.json`).
pub fn report(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .trim_end()
        .to_string()
}

/// The golden-file stem of `scheme`.
pub fn slug(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Corp => "corp",
        SchemeKind::Rccr => "rccr",
        SchemeKind::CloudScale => "cloudscale",
        SchemeKind::Dra => "dra",
    }
}
