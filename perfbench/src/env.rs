//! Interference readings from `/proc`: hypervisor steal, involuntary
//! context switches, the process's CPU use, and its peak resident set.
//! Every reading degrades to zero when `/proc` is unavailable.

use std::fs;

/// Clock ticks per second of the `/proc` tick counters (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// One point-in-time reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Machine-wide steal ticks (`/proc/stat`).
    steal: u64,
    /// Machine-wide ticks of every state (`/proc/stat`).
    total: u64,
    /// This process's user + system ticks (`/proc/self/stat`).
    cpu: u64,
    /// This process's involuntary context switches.
    nonvoluntary: u64,
}

/// Readings over an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Steal ticks ÷ all ticks, machine-wide.
    pub steal_ratio: f64,
    pub nonvoluntary_ctxt_switches: u64,
    /// Process CPU seconds ÷ wall seconds.
    pub cpu_util: f64,
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

pub fn sample() -> Sample {
    let mut s = Sample::default();
    if let Ok(stat) = fs::read_to_string("/proc/stat") {
        if let Some(cpu) = stat.lines().next() {
            // user nice system idle iowait irq softirq steal (guest time
            // is already counted in user).
            let ticks: Vec<u64> = cpu
                .split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|t| t.parse().ok())
                .collect();
            s.total = ticks.iter().sum();
            s.steal = ticks.get(7).copied().unwrap_or(0);
        }
    }
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let tick = |i: usize| f.get(i).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0);
            s.cpu = tick(11) + tick(12);
        }
    }
    s.nonvoluntary = status_field("nonvoluntary_ctxt_switches:").unwrap_or(0);
    s
}

impl Sample {
    pub fn delta_to(&self, later: &Sample, wall_s: f64) -> Delta {
        let total = later.total.saturating_sub(self.total);
        Delta {
            steal_ratio: if total == 0 {
                0.0
            } else {
                later.steal.saturating_sub(self.steal) as f64 / total as f64
            },
            nonvoluntary_ctxt_switches: later.nonvoluntary.saturating_sub(self.nonvoluntary),
            cpu_util: later.cpu.saturating_sub(self.cpu) as f64 / USER_HZ / wall_s.max(1e-9),
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}
