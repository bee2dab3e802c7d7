//! Experiment harness for the CORP reproduction.
//!
//! One runner per table/figure of the paper's evaluation (Section IV):
//!
//! | paper artifact | runner | what it sweeps |
//! |---|---|---|
//! | Table II | [`experiments::table2`] | parameter settings |
//! | Fig. 6  | [`experiments::fig6`]  | prediction error rate vs #jobs (cluster) |
//! | Fig. 7  | [`experiments::fig7`]  | per-resource utilization vs #jobs (cluster) |
//! | Fig. 8  | [`experiments::fig8`]  | overall utilization vs SLO violation rate (cluster) |
//! | Fig. 9  | [`experiments::fig9`]  | SLO violation rate vs confidence level (cluster) |
//! | Fig. 10 | [`experiments::fig10`] | allocation overhead for 300 jobs (cluster) |
//! | Fig. 11 | [`experiments::fig11`] | per-resource utilization vs #jobs (EC2) |
//! | Fig. 12 | [`experiments::fig12`] | overall utilization vs SLO violation rate (EC2) |
//! | Fig. 13 | [`experiments::fig13`] | SLO violation rate vs confidence level (EC2) |
//! | Fig. 14 | [`experiments::fig14`] | allocation overhead for 300 jobs (EC2) |
//! | DESIGN.md §6 | [`experiments::ablations`] | CORP component ablations |
//! | DESIGN.md §2 (corp-cluster) | [`experiments::scalability`] | throughput/conflicts vs scheduler shard count |
//!
//! Sweeps fan out across a `corp-pool` worker pool, one worker per cell —
//! every cell of a figure is an independent, deterministic simulation, so
//! the fan-out is embarrassingly parallel and data-race-free by
//! construction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several same-length arrays in lockstep; the
// index-based loops are clearer than zipped iterator chains there.
#![allow(clippy::needless_range_loop)]

pub mod env;
pub mod experiments;
pub mod resilience;
pub mod scale;
pub mod serve;
pub mod table;

pub use env::{
    build_sharded_provisioner, historical_histories, run_cell_sharded, Environment, SchemeKind,
    ALL_SCHEMES,
};
pub use experiments::{
    ablations, fig10, fig11, fig12, fig13, fig14, fig6, fig7, fig8, fig9, scalability, table2,
    FigureTable, SHARD_COUNTS,
};
pub use resilience::{
    chaos_workload, resilience_experiment, run_resilience, ResilienceArgs, RESILIENCE_BASELINE_FILE,
};
pub use scale::{run_scale, scale_experiment, ScaleArgs, ScaleResult, SCALE_BASELINE_FILE};
pub use serve::{
    parse_seed, run_serve, run_serve_sharded, serve_experiment, serve_workload, ServeArgs,
};
pub use table::TextTable;
