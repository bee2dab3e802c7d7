//! `corp-exp` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! corp-exp all            # every artifact (slow: trains the paper DNN)
//! corp-exp fig6 fig7      # specific figures
//! corp-exp --fast all     # small DNN, quick smoke pass
//! corp-exp scalability    # sharded-control-plane sweep (1..8 shards)
//! corp-exp faults         # availability under deterministic fault injection
//! corp-exp perf           # hot-path throughput baseline (BENCH_hotpath.json)
//! corp-exp e2e            # end-to-end throughput + shard sweep (BENCH_e2e.json)
//! corp-exp e2e --shards 8 # pin the sharded arms to one shard count
//! corp-exp perf --e2e     # alias for the e2e runner
//! corp-exp --json fig6    # machine-readable output (one JSON array)
//! ```
//!
//! The figure runners accept exactly `--fast`, `--json`, `--e2e` and
//! `--shards K`; any other `--flag` exits 2 with that list.
//!
//! `e2e` drives a 1024-VM fleet and is excluded from `all`; ask for it by
//! name (or via `--e2e`). `serve` runs the event-driven daemon and takes
//! its own flags (`--replay PATH`, `--record PATH`, `--speed inf|N`,
//! `--seed S`, `--jobs N`, `--queue-cap C`,
//! `--policy block|shed-oldest|reject-new`, `--width W`, `--shards K`,
//! `--smoke`):
//!
//! ```text
//! corp-exp serve --fast --jobs 120 --speed inf --seed 7
//! corp-exp serve --replay t.trace --policy shed-oldest --queue-cap 16
//! ```
//!
//! `resilience` is chaos-serve: the daemon under combined control-plane
//! faults and arrival storms with deadlines, the brownout ladder, and
//! per-shard circuit breakers armed (`--seed S`, `--jobs N`,
//! `--shards K`, `--intensity X`, `--width W`, `--smoke`, `--bench`):
//!
//! ```text
//! corp-exp resilience --fast --smoke --bench   # writes BENCH_serve.json
//! corp-exp resilience --intensity 2 --shards 4
//! ```
//!
//! `scale` is the streaming soak: a lazily-pulled synthetic arrival
//! stream through the reclaiming arena engine, with throughput, arena
//! high-water, and peak RSS recorded to `BENCH_scale.json` (`--vms N`,
//! `--jobs N`, `--seed S`, `--shards K`, `--smoke`):
//!
//! ```text
//! corp-exp scale --smoke        # CI configuration + invariant checks
//! corp-exp scale                # 50k VMs, 1M jobs
//! corp-exp scale --shards 8     # soak behind the sharded control plane
//! ```

use corp_bench::experiments;
use corp_bench::resilience::{resilience_experiment, ResilienceArgs};
use corp_bench::scale::{scale_experiment, ScaleArgs};
use corp_bench::serve::{serve_experiment, ServeArgs};
use corp_bench::FigureTable;

/// The flags the figure runners accept (the subcommands parse their own).
const BATCH_FLAGS: &str = "--fast, --json, --e2e, --shards K";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            return run_subcommand("serve", &args[1..], ServeArgs::parse, serve_experiment)
        }
        Some("resilience") => {
            return run_subcommand(
                "resilience",
                &args[1..],
                ResilienceArgs::parse,
                resilience_experiment,
            )
        }
        Some("scale") => {
            return run_subcommand("scale", &args[1..], ScaleArgs::parse, |_, a| {
                scale_experiment(a)
            })
        }
        _ => {}
    }
    let mut fast = false;
    let mut json = false;
    let mut e2e_alias = false;
    // `--shards K` pins the e2e runner's sharded arms to one shard count
    // instead of the default 1/2/4/8 sweep.
    let mut shards: Option<usize> = None;
    let mut wanted: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--json" => json = true,
            "--e2e" => e2e_alias = true,
            "--shards" => match rest.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(k) if k >= 1 => shards = Some(k),
                _ => {
                    eprintln!("--shards needs a positive integer shard count");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`; accepted flags: {BATCH_FLAGS}");
                std::process::exit(2);
            }
            name => wanted.push(name),
        }
    }
    if e2e_alias {
        // `perf --e2e` means the end-to-end runner, not the hot-path one.
        wanted.retain(|w| *w != "perf");
        wanted.push("e2e");
    }
    let all = wanted.is_empty() || wanted.contains(&"all");

    type Runner = Box<dyn Fn(bool) -> FigureTable>;
    let runners: Vec<(&str, Runner)> = vec![
        ("table2", Box::new(|_| experiments::table2())),
        ("fig6", Box::new(experiments::fig6)),
        ("fig7", Box::new(experiments::fig7)),
        ("fig8", Box::new(experiments::fig8)),
        ("fig9", Box::new(experiments::fig9)),
        ("fig10", Box::new(experiments::fig10)),
        ("fig11", Box::new(experiments::fig11)),
        ("fig12", Box::new(experiments::fig12)),
        ("fig13", Box::new(experiments::fig13)),
        ("fig14", Box::new(experiments::fig14)),
        ("ablations", Box::new(experiments::ablations)),
        ("scalability", Box::new(experiments::scalability)),
        ("faults", Box::new(experiments::availability)),
        ("perf", Box::new(|fast| or_exit(experiments::perf(fast)))),
        (
            "e2e",
            Box::new(move |fast| or_exit(experiments::e2e(fast, shards))),
        ),
    ];

    let mut matched = false;
    let mut collected: Vec<FigureTable> = Vec::new();
    for (name, run) in &runners {
        // The 1024-VM e2e benchmark only runs when asked for by name.
        if (all && *name != "e2e") || wanted.contains(name) {
            matched = true;
            let started = std::time::Instant::now();
            let figure = run(fast);
            if json {
                collected.push(figure);
            } else {
                println!("{figure}");
            }
            eprintln!(
                "[{name} regenerated in {:.1}s]",
                started.elapsed().as_secs_f64()
            );
        }
    }
    if json && matched {
        println!("{}", serde::json::to_string(&collected));
    }
    if !matched {
        eprintln!(
            "unknown experiment(s) {:?}; available: {}",
            wanted,
            runners
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }
}

/// Handles a flag-taking subcommand (`corp-exp <name> <flags>`): parse,
/// run, render (`--json` prints a one-figure JSON array). Bad flags and
/// failed runs — smoke assertions included — print one line and exit 2,
/// matching the unknown-experiment path.
fn run_subcommand<A>(
    name: &str,
    flags: &[String],
    parse: fn(&[String]) -> Result<A, String>,
    run: impl FnOnce(bool, &A) -> Result<FigureTable, String>,
) {
    let fast = flags.iter().any(|a| a == "--fast");
    let json = flags.iter().any(|a| a == "--json");
    let started = std::time::Instant::now();
    match parse(flags).and_then(|parsed| run(fast, &parsed)) {
        Ok(figure) => {
            if json {
                println!("{}", serde::json::to_string(&vec![figure]));
            } else {
                println!("{figure}");
            }
            eprintln!(
                "[{name} regenerated in {:.1}s]",
                started.elapsed().as_secs_f64()
            );
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Unwraps a batch runner's figure; a failed run (a perf or e2e gate
/// verdict) prints its one line and exits 2.
fn or_exit(figure: Result<FigureTable, String>) -> FigureTable {
    figure.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}
