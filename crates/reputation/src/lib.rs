//! # trustex-reputation — reputation management over P-Grid
//!
//! The "reputation management" module of the reference architecture in
//! *Trust-Aware Cooperation* (Figure 1), built the way the paper's
//! reference \[2\] (Aberer & Despotovic, CIKM 2001) does it: complaints
//! stored decentrally in a **P-Grid** — a binary-trie-structured P2P
//! overlay with replication — queried with `O(log N)` messages and
//! resolved against lying storage peers by majority voting.
//!
//! * [`record`] — complaints, binary keys, trie paths.
//! * [`pgrid`] — the distributed trie: emergent bootstrap, greedy
//!   routing, replicated inserts and queries with message accounting,
//!   plus true membership dynamics (`join`/`leave`).
//! * [`lifecycle`] — admission pacing over the grid: join backoff,
//!   bounded admission rate, stale-peer eviction.
//! * [`resolve`] — majority-vote resolution against lying replicas.
//! * [`system`] — the facade the market simulation uses
//!   ([`system::ReputationSystem`]).
//!
//! ```
//! use trustex_reputation::prelude::*;
//! use trustex_trust::model::PeerId;
//!
//! let mut sys = ReputationSystem::new(64, 42);
//! sys.file_complaint(PeerId(3), PeerId(9), 0, None);
//! let tally = sys.query_tally(PeerId(1), PeerId(9), None).expect("resolved");
//! assert_eq!(tally.received, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lifecycle;
pub mod pgrid;
pub mod record;
pub mod resolve;
pub mod system;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::lifecycle::{Lifecycle, TickReport};
    pub use crate::pgrid::{InsertReceipt, PGrid, PGridConfig, QueryResult};
    pub use crate::record::{key_for_peer, BitPath, Complaint, Key};
    pub use crate::resolve::{majority_vote, StorageBehavior};
    pub use crate::system::{ReputationSystem, TallyReport};
}
