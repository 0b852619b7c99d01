//! # trustex-bench — experiment reproduction
//!
//! This crate carries the `repro` binary, which regenerates every
//! table/figure listed in the README's Experiments table (`cargo run
//! --release -p trustex-bench --bin repro`), optionally a single
//! experiment by id (`… -- e4`) and at smoke scale (`… -- --smoke`), and
//! records each experiment's wall clock.
//! The closed-loop performance benchmark lives in `perfbench/`.
//!
//! The library portion holds the small helpers the binary shares with
//! its tests.

pub use trustex_market::experiments::{find, Scale, ALL};

/// Serializes per-experiment wall-clock timings as the `BENCH_repro.json`
/// document: a flat JSON object mapping experiment id → milliseconds.
///
/// Hand-rolled because the workspace has no serialization library; ids
/// are bare `[a-z0-9]+` so no string escaping is needed.
///
/// # Examples
///
/// ```
/// let json = trustex_bench::timings_to_json(&[("e0", 12.5), ("e1", 3.0)]);
/// assert_eq!(json, "{\n  \"e0\": 12.500,\n  \"e1\": 3.000\n}\n");
/// ```
pub fn timings_to_json(timings: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, ms)) in timings.iter().enumerate() {
        let comma = if i + 1 == timings.len() { "" } else { "," };
        out.push_str(&format!("  \"{id}\": {ms:.3}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_json_shape() {
        assert_eq!(timings_to_json(&[]), "{\n}\n");
        let one = timings_to_json(&[("e8", 1234.5678)]);
        assert_eq!(one, "{\n  \"e8\": 1234.568\n}\n");
        let two = timings_to_json(&[("e0", 1.0), ("e10", 2.25)]);
        assert!(two.contains("\"e0\": 1.000,"));
        assert!(two.contains("\"e10\": 2.250\n"));
        // No trailing comma before the closing brace.
        assert!(!two.contains(",\n}"));
    }
}
