//! Measurement plumbing shared by the workloads: the timed phase, the
//! per-call probe accumulator, the per-layer metric table and the guard
//! counts.

use crate::env;
use crate::Ctx;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The per-layer metrics a workload measured, by the names (and in the
/// units) `BENCHMARK.json` lists them under. `run.py` reports every
/// listed metric, 0 for those of layers the workload does not exercise,
/// and refuses a name the list does not hold.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &f64)> {
        self.0.iter()
    }
}

/// Exact counts over the workload's guard prefix (its first batches).
/// They must repeat bit for bit for a seed, traced or not.
#[derive(Default)]
pub struct Guard(BTreeMap<&'static str, u64>);

impl Guard {
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_insert(0) += value;
    }

    /// Folds an exact floating-point result in by its bit pattern.
    pub fn mix_f64(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_insert(0);
        *slot = slot.rotate_left(5) ^ value.to_bits();
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &u64)> {
        self.0.iter()
    }
}

/// Wall time and call count of one probed call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    total: Duration,
    calls: u64,
}

impl Acc {
    /// Times `f` as `calls` calls of the probed function.
    pub fn time<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(t.elapsed(), calls);
        out
    }

    /// Runs `f`, timing it as one call when `on` (the traced run).
    pub fn time_if<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if on {
            self.time(1, f)
        } else {
            f()
        }
    }

    pub fn add(&mut self, elapsed: Duration, calls: u64) {
        self.total += elapsed;
        self.calls += calls;
    }

    /// Adds another accumulator's time and calls.
    pub fn merge(&mut self, other: Acc) {
        self.add(other.total, other.calls);
    }

    /// Mean seconds per call (0 before the first call).
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / self.calls as f64
        }
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The fastest of `values` (0 when there are none): how the timing
/// metrics read their samples. The machines this benchmark runs on are
/// shared, and other tenants' load slows every batch of a run by up to
/// 2× for tens of seconds at a time, with little hypervisor steal to show
/// for it. A median then reports whichever speed held most of the run,
/// and flips from run to run. Interference only ever adds time, so the
/// fastest sample is the one nearest the code's own speed; it needs the
/// machine quiet for a single batch.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// How a workload's timed phase is laid out, in batches and set-ups.
pub struct Schedule {
    /// Batches whose exact counts form the guard. A run always completes
    /// them, whatever its budget.
    pub guard_batches: usize,
    /// Batches in one cycle of the workload's work. The last batch of each
    /// cycle also runs the workload's periodic step (repair, checkpoint).
    pub cycle_batches: usize,
    /// Set-up repetitions of an untraced run. A traced run times one
    /// set-up only: it reports no `setup_s`.
    pub setup_reps: usize,
}

/// The timed phase: batches run back to back until the time budget is
/// spent and the guard prefix is complete. Only time inside batches is
/// counted; input generation and output checks run off the clock.
///
/// The phase also times the workload's set-up repetitions. The first is
/// the set-up the phase runs on. The others run between batches, off the
/// clock, once the guard prefix is done: each in its own equal slice of
/// the budget, right after a batch that shows the machine quiet, or at
/// the end of its slice. A set-up lasts up to a second, far longer than
/// a batch, so a repetition timed at a random moment rarely sees the
/// machine quiet throughout; quiet spells last seconds, so one started
/// in a quiet spell mostly does. The peak resident set is read just
/// before the first repetition, so it holds a single set-up.
pub struct Phase {
    budget: Duration,
    schedule: &'static Schedule,
    setup_reps: usize,
    setup_s: Vec<f64>,
    /// Wall time spent in set-up repetitions during the phase.
    setup_wall: Duration,
    peak_rss_mb: Option<f64>,
    started: Instant,
    env0: env::Sample,
    busy: Duration,
    ops: u64,
    batch_ms: Vec<f64>,
    fastest_ms: f64,
}

/// A batch within this factor of the fastest batch so far shows the
/// machine quiet.
const QUIET: f64 = 1.1;

/// Summary of a finished phase.
pub struct PhaseResult {
    pub batches: usize,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The fastest set-up repetition.
    pub fastest_setup_s: f64,
    /// Ops of one cycle ÷ the cycle's fastest time: the fastest ordinary
    /// batch times their number in a cycle, plus the fastest of the
    /// batches that end a cycle. Periodic work is thus counted at its
    /// share, which the fastest batch alone would leave out.
    pub cycle_ops_per_s: f64,
    /// The fastest batch.
    pub fastest_batch_ms: f64,
    /// Ops ÷ seconds spent inside batches.
    pub mean_ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Peak resident set (MiB) after one set-up and the guard prefix.
    pub peak_rss_mb: f64,
    pub env: env::Delta,
}

impl Phase {
    /// Starts the phase after the first set-up, which took `first_setup_s`.
    pub fn start(ctx: &Ctx, schedule: &'static Schedule, first_setup_s: f64) -> Phase {
        Phase {
            budget: Duration::from_secs_f64(ctx.seconds),
            schedule,
            setup_reps: if ctx.trace { 1 } else { schedule.setup_reps },
            setup_s: vec![first_setup_s],
            setup_wall: Duration::ZERO,
            peak_rss_mb: None,
            started: Instant::now(),
            env0: env::sample(),
            busy: Duration::ZERO,
            ops: 0,
            batch_ms: Vec::new(),
            fastest_ms: f64::INFINITY,
        }
    }

    /// Wall time of the phase so far, set-up repetitions excepted.
    fn clock(&self) -> Duration {
        self.started.elapsed() - self.setup_wall
    }

    /// Whether another batch should run.
    pub fn running(&self) -> bool {
        self.in_guard() || self.clock() < self.budget
    }

    /// Whether the next batch belongs to the guard prefix.
    pub fn in_guard(&self) -> bool {
        self.batch_ms.len() < self.schedule.guard_batches
    }

    /// Index of the next batch.
    pub fn batch_index(&self) -> u64 {
        self.batch_ms.len() as u64
    }

    pub fn record(&mut self, elapsed: Duration, ops: u64) {
        self.busy += elapsed;
        self.ops += ops;
        let ms = elapsed.as_secs_f64() * 1e3;
        self.batch_ms.push(ms);
        self.fastest_ms = self.fastest_ms.min(ms);
    }

    /// See [`PhaseResult::cycle_ops_per_s`]. Every batch of a workload
    /// holds the same number of ops.
    fn cycle_ops_per_s(&self) -> f64 {
        let cycle = self.schedule.cycle_batches;
        let (mut ends, mut ordinary) = (Vec::new(), Vec::new());
        for (i, &ms) in self.batch_ms.iter().enumerate() {
            if i % cycle == cycle - 1 {
                ends.push(ms);
            } else {
                ordinary.push(ms);
            }
        }
        let cycle_ms = (cycle - 1) as f64 * fastest(&ordinary) + fastest(&ends);
        let cycle_ops = self.ops as f64 / self.batch_ms.len().max(1) as f64 * cycle as f64;
        cycle_ops / (cycle_ms / 1e3).max(1e-12)
    }

    /// Runs `setup` once, timed and dropped at once, as the next set-up
    /// repetition.
    fn setup_rep<T>(&mut self, setup: impl FnOnce() -> T) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(env::peak_rss_mb());
        }
        let t = Instant::now();
        drop(std::hint::black_box(setup()));
        let elapsed = t.elapsed();
        self.setup_wall += elapsed;
        self.setup_s.push(elapsed.as_secs_f64());
    }

    /// Call between batches: runs a set-up repetition when one is due.
    pub fn between_batches<T>(&mut self, setup: impl FnOnce() -> T) {
        let done = self.setup_s.len();
        if done >= self.setup_reps || self.in_guard() {
            return;
        }
        let slice = self.budget.div_f64((self.setup_reps - 1) as f64);
        let opens = slice.mul_f64((done - 1) as f64);
        let quiet = self
            .batch_ms
            .last()
            .is_some_and(|&ms| ms <= QUIET * self.fastest_ms);
        let clock = self.clock();
        if clock >= opens + slice || (clock >= opens && quiet) {
            self.setup_rep(setup);
        }
    }

    /// Ends the phase, first running any set-up repetitions still owed
    /// (when the guard prefix outlasted the budget).
    pub fn finish<T>(mut self, mut setup: impl FnMut() -> T) -> PhaseResult {
        let wall = self.started.elapsed().as_secs_f64();
        let env = self.env0.delta_to(&env::sample(), wall);
        while self.setup_s.len() < self.setup_reps {
            self.setup_rep(&mut setup);
        }
        PhaseResult {
            batches: self.batch_ms.len(),
            cycle_ops_per_s: self.cycle_ops_per_s(),
            fastest_setup_s: fastest(&self.setup_s),
            setup_s: self.setup_s,
            fastest_batch_ms: fastest(&self.batch_ms),
            mean_ops_per_s: self.ops as f64 / self.busy.as_secs_f64().max(1e-9),
            p50_ms: quantile(&self.batch_ms, 0.5),
            p90_ms: quantile(&self.batch_ms, 0.9),
            peak_rss_mb: self.peak_rss_mb.unwrap_or_else(env::peak_rss_mb),
            env,
        }
    }
}

/// Runs `f` once and returns its result with its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
