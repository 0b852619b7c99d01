//! # trustex-netsim — deterministic discrete-event network substrate
//!
//! This crate provides the simulation substrate that the rest of the
//! `trustex` workspace (the reproduction of *Trust-Aware Cooperation*,
//! Despotovic/Aberer/Hauswirth, ICDCS 2002) runs on:
//!
//! * [`rng::SimRng`] — a deterministic, seedable xoshiro256\*\* PRNG so that
//!   every experiment in the paper reproduction is replayable bit-for-bit.
//! * [`time::SimTime`] and [`event::EventQueue`] — a virtual clock and a
//!   stable discrete-event queue (ties broken by insertion order).
//! * [`net`] — message latency/drop models with per-kind accounting, used
//!   by the P-Grid reputation storage to count routing messages.
//! * [`fault`] — a seeded per-link fault plane (loss, delay jitter,
//!   partition episodes) whose every decision is a pure function of
//!   `(seed, src, dst, msg_seq)`, so chaos runs replay bit-for-bit.
//! * [`backoff`] — shared saturating exponential-backoff arithmetic,
//!   which paces both the lifecycle's rejoin scheduler and the
//!   deterministic-jitter [`backoff::RetryPolicy`] of fault-plane retries.
//! * [`churn`] — node availability timelines (alternating exponential
//!   up/down periods), used for the churn experiments.
//! * [`stats`] — exact-quantile samples shared by the experiment
//!   harness.
//! * [`crc`] — CRC-32C checksums backing the durable-evidence codec in
//!   `trustex-persist` (snapshot sections, evidence-log frames).
//!
//! * [`pool`] — a deterministic `std::thread` worker pool. Experiments
//!   are specified as deterministic functions of a seed, so parallelism
//!   is only ever applied to *pre-drawn* independent work (experiment
//!   arms, pre-forked session streams) and results are reassembled in
//!   submission order: thread count changes wall-clock time, never
//!   results.
//!
//! ## Example
//!
//! ```
//! use trustex_netsim::rng::SimRng;
//! use trustex_netsim::event::EventQueue;
//! use trustex_netsim::time::SimTime;
//!
//! let mut rng = SimRng::new(42);
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.push(SimTime::from_millis(5), "world");
//! queue.push(SimTime::from_millis(1), "hello");
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!((t, what), (SimTime::from_millis(1), "hello"));
//! assert!(rng.chance(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod churn;
pub mod crc;
pub mod event;
pub mod fault;
pub mod net;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use backoff::{backoff_delay, saturating_shl, RetryPolicy};
pub use churn::{ChurnModel, ChurnTimeline};
pub use crc::{crc32c, Crc32};
pub use event::EventQueue;
pub use fault::{FaultConfig, FaultFate, FaultPlane, PartitionSpec};
pub use net::{Latency, MsgKind, NetConfig, Network, NodeId};
pub use pool::{parallel_map, resolve_threads, set_default_threads};
pub use rng::SimRng;
pub use stats::Sample;
pub use time::SimTime;
