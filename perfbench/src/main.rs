//! Closed-loop benchmark driver for one workload in one process.
//!
//! ```text
//! perfbench <market|overlay|service> --seed N --seconds S --trace 0|1
//! ```
//!
//! The workload's inputs are generated from `--seed`. After set-up,
//! batches run back to back for `--seconds` seconds, and always at least
//! the workload's guard prefix. An untraced run times the set-up a fixed
//! number of times per workload, spread over the timed phase (see
//! [`probe::Phase`]). Timings are reported by their fastest sample (see
//! [`probe::fastest`]). With
//! `--trace 1` the benchmark also times each call it makes into a
//! layer's public API (outside-in probes; nothing inside the crates is
//! instrumented).
//!
//! The last line of standard output is one JSON object: end-to-end
//! metrics, the per-layer metrics the workload measured, interference
//! readings, and the guard counts that must repeat exactly for a seed.
//! `run.py` turns it into the benchmark result.

mod env;
mod market;
mod overlay;
mod probe;
mod service;

use probe::{Guard, Layers, PhaseResult};
use std::fmt::Write as _;

/// Parsed command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back to `main` for printing.
pub struct Outcome {
    pub phase: PhaseResult,
    /// Ops attempted over the whole timed phase.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    pub guard: Guard,
    pub layers: Layers,
    /// Human-readable descriptions of failed checks (empty when correct).
    pub problems: Vec<String>,
}

fn usage() -> ! {
    eprintln!("usage: perfbench <market|overlay|service> --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse() -> (String, Ctx) {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| usage());
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => ctx.trace = value == "1",
            _ => usage(),
        }
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        usage();
    }
    (workload, ctx)
}

/// A JSON number, or `null` for values JSON cannot carry.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let (workload, ctx) = parse();
    let outcome = match workload.as_str() {
        "market" => market::run(&ctx),
        "overlay" => overlay::run(&ctx),
        "service" => service::run(&ctx),
        _ => usage(),
    };
    let Outcome {
        phase,
        attempted,
        failed,
        guard,
        layers,
        problems,
    } = outcome;
    const SHOWN: usize = 20;
    for p in problems.iter().take(SHOWN) {
        eprintln!("check failed: {p}");
    }
    if problems.len() > SHOWN {
        eprintln!("check failed: ... and {} more", problems.len() - SHOWN);
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"trace\":{},\"seed\":{},\"batches\":{},\
         \"attempted\":{attempted},\"failed\":{failed},\"correct\":{},",
        ctx.trace,
        ctx.seed,
        phase.batches,
        failed == 0 && problems.is_empty(),
    );
    let e2e = [
        ("setup_s", phase.fastest_setup_s),
        ("ops_per_s", phase.cycle_ops_per_s),
        ("batch_min_ms", phase.fastest_batch_ms),
        ("peak_rss_mb", phase.peak_rss_mb),
        ("mean_ops_per_s", phase.mean_ops_per_s),
        ("batch_p50_ms", phase.p50_ms),
        ("batch_p90_ms", phase.p90_ms),
    ];
    let fields: Vec<String> = e2e
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let _ = write!(out, "\"e2e\":{{{}}},", fields.join(","));
    let fields: Vec<String> = phase.setup_s.iter().map(|v| num(*v)).collect();
    let _ = write!(out, "\"setup_reps_s\":[{}],", fields.join(","));
    let fields: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let _ = write!(out, "\"layers\":{{{}}},", fields.join(","));
    let env = &phase.env;
    let _ = write!(
        out,
        "\"env\":{{\"steal_ratio\":{},\"nonvoluntary_ctxt_switches\":{},\"cpu_util\":{}}},",
        num(env.steal_ratio),
        env.nonvoluntary_ctxt_switches,
        num(env.cpu_util),
    );
    let fields: Vec<String> = guard.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let _ = write!(out, "\"guard\":{{{}}}}}", fields.join(","));
    println!("{out}");
}
