//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]`
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line of standard output. Any failed check prints the reason to
//! standard error, no numbers, and exits with code 1; bad arguments exit
//! with code 2.

use perfbench::inputs::Size;
use perfbench::workloads::{Workload, WORKLOADS};
use perfbench::{measure, Request};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1> [--spans PATH]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Request, Option<String>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: `{value}` is not a u64"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds: `{value}` is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                })
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let req = Request {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(),
    };
    Ok((req, spans))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (req, spans_path) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match measure(&req) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let (Some(path), Some(csv)) = (spans_path, &outcome.spans_csv) {
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
        println!("spans: {path}");
    }
    println!(
        "workload {} seed {} replays {} jobs offered {}",
        req.workload.name(),
        req.seed,
        outcome.replays,
        outcome.attempted
    );
    let mut json = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        println!("  {name:<30} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{json}}}}}",
        outcome.attempted
    );
    ExitCode::SUCCESS
}
