//! Self-tests of the benchmark harness, on small inputs.

use corp_trace::{GoogleCsvReader, IngestConfig, JobSource, TraceJobSource};
use perfbench::inputs::{self, Size};
use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Inputs, WORKLOADS};
use perfbench::{measure, Request};
use std::collections::BTreeSet;
use std::io::Cursor;

const SEED: u64 = 11;

#[test]
fn decorated_and_plain_provisioners_report_identically() {
    // corp-pooled is CORP, corp-sharded is 2-shard CORP, serve-storm is
    // RCCR under the daemon.
    for workload in WORKLOADS {
        let inputs = Inputs::generate(workload, SEED, Size::small());
        let plain = workloads::replay(&inputs, false).unwrap();
        let traced = workloads::replay(&inputs, true).unwrap();
        assert!(
            plain.report.sim().completed > 0,
            "{workload:?} placed nothing"
        );
        assert_eq!(
            plain.report.to_json(),
            traced.report.to_json(),
            "{workload:?}: the timing decorators changed a decision"
        );
    }
}

#[test]
fn csv_feed_decodes_exactly_the_jobs_written_in_order() {
    let ingest = IngestConfig::default();
    let written: Vec<_> = inputs::storm_trace(SEED, &Size::small()).collect();
    let csv = inputs::encode_csv(written.clone(), &ingest);
    assert_eq!(csv.jobs, written.len());
    assert_eq!(
        csv.rows,
        written.iter().map(|j| j.demand.len()).sum::<usize>()
    );
    let decoded: Vec<_> = TraceJobSource::new(
        GoogleCsvReader::new(Cursor::new(&csv.bytes[..])),
        ingest.clone(),
    )
    .into_specs()
    .collect();
    assert_eq!(decoded.len(), written.len());
    for (got, job) in decoded.iter().zip(&written) {
        let want = inputs::expected_decode(job, &ingest);
        assert_eq!(
            serde::json::to_string(got),
            serde::json::to_string(&want),
            "job {} decoded differently",
            job.id
        );
    }
    assert!(decoded
        .windows(2)
        .all(|w| w[0].arrival_slot <= w[1].arrival_slot));
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`, with
/// the `"unit"` that follows each.
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk.find(&format!("\"{key}\"")).expect("field present");
        let rest = &chunk[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_json_metrics("end_to_end"), pairs(&END_TO_END));
    assert_eq!(benchmark_json_metrics("per_layer"), pairs(&PER_LAYER));

    // What a run actually prints: every listed name, nothing else.
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = measure(&Request {
                workload,
                seed: SEED,
                seconds: 0.1,
                trace,
                size: Size::small(),
            })
            .unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let listed = if trace {
                pairs(&PER_LAYER)
            } else {
                pairs(&END_TO_END)
            };
            assert_eq!(printed, listed, "{workload:?} trace={trace}");
            assert!(outcome.replays >= 3);
        }
    }
}

#[test]
fn per_layer_values_cover_their_workload() {
    for workload in WORKLOADS {
        let inputs = Inputs::generate(workload, SEED, Size::small());
        let traced = workloads::replay(&inputs, true).unwrap();
        let csv = inputs.csv.as_ref().map(|c| (c.rows, c.bytes.len()));
        let (m, accounted) = metrics::per_layer(workload, &traced, csv);
        let keys: BTreeSet<&str> = m.keys().copied().collect();
        let listed: BTreeSet<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| *n != "trace_overhead_ratio")
            .collect();
        assert_eq!(keys, listed, "{workload:?}");
        assert!(accounted <= traced.wall_s * 1.05, "{workload:?}");
        assert!(m["pipeline.provision_s"] > 0.0, "{workload:?}");
        assert!(m["place.claims"] > 0.0, "{workload:?}");
        match workload {
            workloads::Workload::CorpPooled => {
                assert!(m["setup.pretrain_s"] > 0.0);
                assert!(m["engine.step_s"] > 0.0);
                assert_eq!(m["cluster.shard_s"], 0.0);
            }
            workloads::Workload::CorpSharded => {
                assert!(m["cluster.shard_s"] > 0.0);
                assert!(m["cluster.reservations"] > 0.0);
            }
            workloads::Workload::ServeStorm => {
                assert!(m["trace.decode_s"] > 0.0);
                assert_eq!(m["trace.jobs"], inputs.offered() as f64);
                assert!(m["serve.ticks"] > 0.0);
                assert_eq!(m["setup.pretrain_s"], 0.0);
            }
        }
    }
}
