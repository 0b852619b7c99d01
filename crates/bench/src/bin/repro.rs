//! Regenerates every table and figure listed in the README's
//! Experiments table.
//!
//! ```text
//! cargo run --release -p trustex-bench --bin repro            # all, paper scale
//! cargo run --release -p trustex-bench --bin repro -- --smoke # all, smoke scale
//! cargo run --release -p trustex-bench --bin repro -- e4 e6   # a subset
//! cargo run --release -p trustex-bench --bin repro -- --threads 1 e5 e8 e9
//! cargo run --release -p trustex-bench --bin repro -- --threads 8
//! ```
//!
//! Positional ids select a subset — the form perf iteration on a hot
//! path wants (e.g. `e6` isolates the P-Grid overlay ladder, `e5 e8 e9`
//! the trust layer). Unknown or repeated ids are rejected with exit
//! code 2 before any work runs.
//!
//! `--threads N` pins the worker-pool size used by the arm-parallel
//! experiment runner and the sharded market simulator (default: detected
//! parallelism; results are identical for every value). Each run also
//! writes per-experiment wall-clock timings to `BENCH_repro.json` at
//! paper scale and to `BENCH_repro.smoke.json` at smoke scale, so a
//! smoke run never overwrites the paper-scale baseline (override the
//! path with `--bench-out PATH`): a flat JSON object mapping experiment
//! id → milliseconds, so CI can track the perf trajectory per PR.
//!
//! Every table except E2 and E12 is a pure function of its seed
//! (bit-identical for any `--threads`). E2 is the scheduler scaling
//! ladder — greedy to `n = 10⁶`, indexed sandholm to `n = 10⁵`, the
//! quadratic scan to `n = 4096`, branch-and-bound to `n = 30` — whose
//! cells are wall-clock medians; E12 is the trust-service replay, whose
//! count/epoch columns are seed-pinned but whose throughput and latency
//! percentiles are wall-clock. Both machine-dependent by design.

use std::time::Instant;
use trustex_bench::timings_to_json;
use trustex_market::experiments::{find, Scale, ALL};
use trustex_netsim::pool::{default_threads, set_default_threads};

struct Args {
    smoke: bool,
    threads: usize,
    bench_out: Option<String>,
    ids: Vec<String>,
}

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: repro [--smoke] [--threads N] [--bench-out PATH] [id...]");
    eprintln!(
        "known ids: {}",
        ALL.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn parse_args(raw: Vec<String>) -> Args {
    let mut args = Args {
        smoke: false,
        threads: 0,
        bench_out: None,
        ids: Vec::new(),
    };
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage_exit("--threads requires a value"));
                args.threads = match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => usage_exit(&format!("invalid thread count: {value}")),
                };
            }
            "--bench-out" => {
                args.bench_out = Some(
                    iter.next()
                        .unwrap_or_else(|| usage_exit("--bench-out requires a path")),
                );
            }
            other if other.starts_with("--") => {
                usage_exit(&format!("unknown flag: {other}"));
            }
            id => args.ids.push(id.to_owned()),
        }
    }
    args
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect());
    if args.threads > 0 {
        set_default_threads(args.threads);
    }
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Paper
    };

    let selected: Vec<_> = if args.ids.is_empty() {
        ALL.iter().collect()
    } else {
        // Duplicates would run an experiment twice and emit duplicate
        // keys in the timings JSON — reject them up front like unknown
        // ids.
        let mut seen: Vec<&str> = Vec::with_capacity(args.ids.len());
        args.ids
            .iter()
            .map(|id| {
                if seen.contains(&id.as_str()) {
                    usage_exit(&format!("duplicate experiment id: {id}"));
                }
                seen.push(id);
                find(id).unwrap_or_else(|| usage_exit(&format!("unknown experiment id: {id}")))
            })
            .collect()
    };

    println!(
        "# trustex experiment reproduction ({} scale, {} threads)\n",
        if args.smoke { "smoke" } else { "paper" },
        default_threads(),
    );
    let mut timings: Vec<(&str, f64)> = Vec::with_capacity(selected.len());
    for experiment in selected {
        let start = Instant::now();
        let table = (experiment.run)(scale);
        let elapsed = start.elapsed();
        timings.push((experiment.id, elapsed.as_secs_f64() * 1_000.0));
        println!("[{}] {} ({elapsed:.2?})", experiment.id, experiment.title);
        println!("{}", table.render());
    }

    let json = timings_to_json(&timings);
    let bench_out = args.bench_out.as_deref().unwrap_or(if args.smoke {
        "BENCH_repro.smoke.json"
    } else {
        "BENCH_repro.json"
    });
    match std::fs::write(bench_out, &json) {
        Ok(()) => eprintln!("wall-clock timings written to {bench_out}"),
        Err(err) => {
            eprintln!("failed to write {bench_out}: {err}");
            std::process::exit(1);
        }
    }
}
