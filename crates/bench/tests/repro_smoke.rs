//! Fast end-to-end smoke test of the reproduction pipeline.
//!
//! Mirrors `cargo run -p trustex-bench --bin repro -- --smoke` twice
//! over: once in-process through the experiment registry (so a failure
//! points at the experiment that broke), and once by spawning the actual
//! `repro` binary (so the CLI surface — flag parsing, experiment
//! selection, exit codes — stays covered too).

use std::process::Command;
use trustex_bench::{find, Scale, ALL};

/// Every experiment runs at smoke scale and produces a non-trivial table.
#[test]
fn all_experiments_run_at_smoke_scale() {
    for experiment in &ALL {
        let table = (experiment.run)(Scale::Smoke);
        assert!(
            !table.rows().is_empty(),
            "experiment {} produced an empty table",
            experiment.id
        );
        let rendered = table.render();
        assert!(
            rendered.trim_start().starts_with("##"),
            "experiment {} table does not render a markdown heading:\n{rendered}",
            experiment.id
        );
    }
}

/// The registry lookup used by the CLI finds every id and nothing else.
#[test]
fn registry_lookup_is_consistent() {
    for experiment in &ALL {
        let found = find(experiment.id).expect("registered id must resolve");
        assert_eq!(found.id, experiment.id);
    }
    assert!(find("e99").is_none());
    assert!(find("").is_none());
}

/// Scratch directory for one test's `repro` run, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("repro_smoke_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The real binary completes `--smoke` (with an explicit thread count),
/// prints every experiment's tag and writes machine-readable wall-clock
/// timings to `BENCH_repro.smoke.json`, leaving the paper-scale
/// `BENCH_repro.json` alone.
#[test]
fn repro_binary_smoke_run_succeeds_and_emits_timings() {
    let scratch = ScratchDir::new("full");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "--threads", "2"])
        .current_dir(&scratch.0)
        .output()
        .expect("failed to spawn repro binary");
    assert!(
        output.status.success(),
        "repro --smoke exited with {:?}\nstderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("smoke scale"), "missing smoke-scale header");
    for experiment in &ALL {
        assert!(
            stdout.contains(&format!("[{}]", experiment.id)),
            "experiment {} missing from repro output",
            experiment.id
        );
    }
    let json = std::fs::read_to_string(scratch.0.join("BENCH_repro.smoke.json"))
        .expect("repro --smoke must write BENCH_repro.smoke.json");
    assert!(
        !scratch.0.join("BENCH_repro.json").exists(),
        "a smoke run must not write the paper-scale BENCH_repro.json"
    );
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    for experiment in &ALL {
        assert!(
            json.contains(&format!("\"{}\": ", experiment.id)),
            "experiment {} missing from BENCH_repro.smoke.json:\n{json}",
            experiment.id
        );
    }
}

/// `--bench-out` redirects the timings file and subsets only time what
/// actually ran.
#[test]
fn repro_binary_bench_out_subset() {
    let scratch = ScratchDir::new("subset");
    let out_path = scratch.0.join("timings.json");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "--bench-out"])
        .arg(&out_path)
        .args(["e0", "e4"])
        .current_dir(&scratch.0)
        .output()
        .expect("failed to spawn repro binary");
    assert!(output.status.success());
    let json = std::fs::read_to_string(&out_path).expect("custom bench-out path");
    assert!(json.contains("\"e0\": "));
    assert!(json.contains("\"e4\": "));
    assert!(!json.contains("\"e8\""), "unran experiment timed:\n{json}");
    assert!(
        !scratch.0.join("BENCH_repro.json").exists(),
        "default path must not be written when --bench-out is given"
    );
}

/// Positional ids run exactly the listed subset — the targeted form perf
/// iteration uses (`e5 e8 e9` skips the expensive e6) — and compose with
/// `--bench-out`.
#[test]
fn repro_binary_only_runs_exactly_the_listed_subset() {
    let scratch = ScratchDir::new("only");
    let out_path = scratch.0.join("timings.json");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "--bench-out"])
        .arg(&out_path)
        .args(["e5", "e9"])
        .current_dir(&scratch.0)
        .output()
        .expect("failed to spawn repro binary");
    assert!(
        output.status.success(),
        "repro e5 e9 exited with {:?}\nstderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = std::fs::read_to_string(&out_path).expect("bench-out written");
    for ran in ["e5", "e9"] {
        assert!(stdout.contains(&format!("[{ran}]")), "{ran} missing");
        assert!(json.contains(&format!("\"{ran}\": ")), "{ran} not timed");
    }
    for skipped in ["e0", "e6", "e8"] {
        assert!(
            !stdout.contains(&format!("[{skipped}]")),
            "{skipped} ran although not listed"
        );
        assert!(!json.contains(&format!("\"{skipped}\"")));
    }
}

/// An id list with an unknown or a repeated id is rejected with exit
/// code 2 before any experiment runs, even when earlier ids are valid.
#[test]
fn repro_binary_only_rejects_bad_id_lists() {
    let scratch = ScratchDir::new("only_bad");
    for (args, needle) in [
        (&["e5", "e99"][..], "unknown experiment id"),
        (&["e5", ""][..], "unknown experiment id"),
        // Duplicates would run an experiment twice and write duplicate
        // keys into the timings JSON.
        (&["e5", "e5"][..], "duplicate experiment id"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&scratch.0)
            .output()
            .expect("failed to spawn repro binary");
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(needle),
            "args {args:?}: stderr missing {needle:?}:\n{stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "args {args:?}: work ran before the rejection"
        );
    }
}

/// Unknown experiment ids are rejected with exit code 2.
#[test]
fn repro_binary_rejects_unknown_id() {
    let scratch = ScratchDir::new("bad_id");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--smoke", "e99"])
        .current_dir(&scratch.0)
        .output()
        .expect("failed to spawn repro binary");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment id"));
}

/// Malformed flags are rejected with exit code 2 before any work runs.
#[test]
fn repro_binary_rejects_bad_flags() {
    let scratch = ScratchDir::new("bad_flags");
    for args in [
        &["--threads", "zero"][..],
        &["--threads", "0"][..],
        &["--threads"][..],
        &["--frobnicate"][..],
        &["--only", "e5"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&scratch.0)
            .output()
            .expect("failed to spawn repro binary");
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
    }
}
