//! P-Grid: the distributed binary-trie storage of Aberer et al., used by
//! the CIKM 2001 reputation system (the paper's reference \[2\]).
//!
//! Each peer owns a binary *path*; it stores the data items whose keys
//! the path prefixes, and it keeps, for every level `l` of its path, a
//! small bucket of *references* to peers on the other side of the trie
//! at that level (same first `l` bits, opposite bit `l`). Queries
//! greedily resolve one more key bit per hop, giving `O(log N)` routing
//! messages. Peers sharing the same full path are *replicas* of each
//! other.
//!
//! The grid is built by the emergent pairwise-meeting protocol: peers
//! repeatedly meet — uniformly at random for cross-subtree references
//! and, in alternation, within their own subspace (the recursive
//! meeting cascade, sampled through the leaf directory) so that
//! identical-path peers keep splitting the key space even at 10^5-peer
//! populations. Splitting stops at a configured depth so that each leaf
//! retains a replica group.
//!
//! # Flat-arena layout (10^5–10^6-peer populations)
//!
//! Everything the hot paths touch lives in flat, index-addressed
//! storage — no per-peer allocation graph, no tree-shaped directory:
//!
//! * **Peer state is struct-of-arrays.** Paths, departure flags,
//!   reference tables and complaint stores are parallel `Vec`s indexed
//!   by the dense peer index. The per-level reference buckets of *all*
//!   peers share one flat `Vec<RefEntry>` arena with a fixed
//!   `max_depth × MAX_REFS` stride per peer, so a meeting touches two
//!   short cache lines instead of chasing nested `Vec`s.
//! * **Flat complaint stores.** A peer's store is one `Vec` of 16-byte
//!   [`Complaint`]s sorted by `(by, about)`: an insert is a binary-search
//!   upsert, a meeting's store union is one linear two-way merge, and a
//!   query reads the store as one contiguous run instead of walking tree
//!   nodes. A departing peer's store is freed, not just emptied.
//! * **Heap-slot leaf directory.** The directory mapping every occupied
//!   path to its owners is a flat arena of `2^(max_depth+1)` buckets
//!   indexed by [`BitPath::slot`] (the u64-bit-packed heap layout of the
//!   complete trie: root = 1, children of `s` = `2s`/`2s+1`). Lookup is
//!   one shift — replica-group resolution probes `max_depth + 1` slots
//!   directly ([`PGrid::responsible_peers`] is `O(depth)`), replacing
//!   first the naive O(n) population scan and then the `BTreeMap`
//!   directory of earlier revisions. Bucket membership moves are O(1)
//!   positional swap-removes patched through `dir_pos`. A query or
//!   insert collects its replica group on the stack (spilling to the
//!   heap only past 32 members), so the fan-out allocates nothing.
//! * **Subtree counts.** A second heap-indexed arena counts the live
//!   peers at-or-below every trie node, maintained in O(1) per path
//!   extension and O(depth) per leave. [`PGrid::join`] uses it to sample
//!   uniform meeting partners from the newcomer's shrinking subspace in
//!   O(depth) per draw, so admissions stay cheap at any population. The
//!   walk reads the counts alone — a node's own bucket size is its count
//!   minus its two children's — and touches a directory bucket only for
//!   the final pick.
//! * **Bounded reference buckets.** Each per-level bucket holds at most
//!   four entries stamped with the meeting tick that last
//!   confirmed them; when a full bucket must admit a new peer, the
//!   *stalest* entry is overwritten in place (recency as a liveness
//!   proxy — O(1), no shifting), and entries pointing at departed peers
//!   are evicted lazily on the next bucket touch. [`PGrid::repair`]
//!   evicts them eagerly in one sweep over the arena, split into
//!   disjoint chunks of at least 4096 peers on the worker pool
//!   ([`trustex_netsim::pool`]); buckets are independent, so the result
//!   is the same for every thread count.
//! * **Complaint compaction.** A peer's store keeps one entry per
//!   `(by, about)` pair — the latest round wins — so repeated inserts
//!   about the same relationship never grow a replica's store beyond
//!   the number of distinct complaining pairs in its subspace. Replica
//!   synchronisation merges stores under the same latest-round rule.
//!
//! # Membership dynamics
//!
//! The overlay supports true joins and leaves, not just availability
//! masks over a bootstrap-time population:
//!
//! * [`PGrid::join`] admits a newcomer at the trie root and descends by
//!   the ordinary meeting protocol — each meeting with a peer of its
//!   current subspace extends its path one bit — finishing with a
//!   replica handoff that copies the store of its new group (or of the
//!   deepest remaining owner of its subspace), so coverage moves with
//!   responsibility.
//! * [`PGrid::leave`] removes a peer from the directory and releases
//!   its subtree counts; references other peers hold to it die lazily
//!   (routing treats departed peers as down, bucket touches and
//!   [`PGrid::repair`] evict them).
//!
//! Admission pacing (join backoff, bounded admission rate, stale-peer
//! eviction) lives one layer up, in [`crate::lifecycle`].

use crate::record::{BitPath, Complaint, Key};
use std::cmp::Ordering;
use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::net::{Delivery, MsgKind, Network, NodeId};
use trustex_netsim::pool::{default_threads, parallel_map};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;
use trustex_trust::model::PeerId;

/// Upper bound on `max_depth`: the leaf directory and subtree counts
/// are flat arenas of `2^(max_depth+1)` slots each. It is also the
/// depth [`PGridConfig::for_population`] clamps to.
const ARENA_DEPTH_LIMIT: u8 = 16;

/// References kept per `(peer, level)` bucket: the reference arena's
/// stride, so a whole bucket of 8-byte entries is half a cache line.
const MAX_REFS: usize = 4;

/// Global-mixing meetings per peer in [`PGrid::build`] (more meetings =
/// better-filled reference tables). The split-cascade and
/// replica-mixing phases are fixed-budget and not counted here.
const MEETINGS_PER_PEER: usize = 48;

/// Fewest peers per chunk of [`PGrid::repair`]'s eviction sweep: below
/// this a worker thread costs more than the slice of the sweep it
/// takes, so smaller grids sweep on the calling thread.
const REPAIR_CHUNK: usize = 4096;

/// Replica-group members collected on the stack before
/// [`ReplicaGroup`] spills to the heap; groups target about 4 members.
const GROUP_INLINE: usize = 32;

/// Configuration of a [`PGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PGridConfig {
    /// Width of the key space in bits (1..=32).
    pub key_bits: u8,
    /// Maximum trie depth; `2^max_depth` leaves. Choosing
    /// `max_depth ≈ log2(n_peers / replication)` yields the target
    /// replica-group size. At most 16 (the directory arena holds
    /// `2^(max_depth+1)` slots).
    pub max_depth: u8,
}

impl Default for PGridConfig {
    fn default() -> Self {
        PGridConfig {
            key_bits: 16,
            max_depth: 6,
        }
    }
}

impl PGridConfig {
    /// A configuration sized for `n` peers targeting a replica-group size
    /// of roughly `replication` (≥ 1).
    pub fn for_population(n: usize, replication: usize) -> PGridConfig {
        let repl = replication.max(1);
        let leaves = (n / repl).max(1);
        let depth = (usize::BITS - leaves.leading_zeros())
            .saturating_sub(1)
            .clamp(1, u32::from(ARENA_DEPTH_LIMIT)) as u8;
        PGridConfig {
            max_depth: depth,
            ..PGridConfig::default()
        }
    }

    /// The configuration's range rules; returns the first one violated.
    fn validate(&self) -> Result<(), &'static str> {
        if !(1..=32).contains(&self.key_bits) {
            return Err("key_bits must lie in 1..=32");
        }
        if self.max_depth < 1 || self.max_depth > self.key_bits {
            return Err("max_depth must lie in 1..=key_bits");
        }
        if self.max_depth > ARENA_DEPTH_LIMIT {
            return Err("max_depth exceeds the directory-arena limit of 16");
        }
        Ok(())
    }
}

/// One bounded-bucket reference entry: a peer and the meeting tick that
/// last confirmed it (higher = fresher). 8 bytes, so a whole bucket of
/// [`MAX_REFS`] entries is half a cache line in the flat arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefEntry {
    peer: u32,
    stamp: u32,
}

impl RefEntry {
    const VACANT: RefEntry = RefEntry { peer: 0, stamp: 0 };
}

/// Jitter salt for a retry on the `from → to` link, so concurrent
/// retries on distinct links desynchronize deterministically.
fn link_salt(from: usize, to: usize) -> u64 {
    ((from as u64) << 32) | (to as u64 & 0xFFFF_FFFF)
}

/// Sends one `kind` message from `from` at virtual time `at`, with
/// bounded retry: attempt `k` (0-based) goes to `target(k)`. When an
/// attempt is dropped and `retry` is set, the sender waits the policy's
/// timeout (exponential backoff plus deterministic jitter) and tries
/// again until the attempt budget runs out; with `retry == None` the
/// first drop gives up. Returns the peer that received the message and
/// the sender's total wait (accrued timeouts plus the delivery delay).
fn send_with_retry(
    kind: MsgKind,
    from: usize,
    mut target: impl FnMut(usize) -> usize,
    at: SimTime,
    retry: Option<&RetryPolicy>,
    net: &mut Network,
    rng: &mut SimRng,
) -> Option<(usize, SimTime)> {
    let mut waited = SimTime::ZERO;
    let mut attempts = 0u32;
    loop {
        let to = target(attempts as usize);
        match net.send_link(
            kind,
            NodeId(from as u32),
            NodeId(to as u32),
            at + waited,
            rng,
        ) {
            Delivery::Delivered(d) => return Some((to, waited + d)),
            Delivery::Dropped => {
                attempts += 1;
                let policy = retry?;
                if !policy.allows(attempts) {
                    return None;
                }
                waited += policy.timeout(attempts, link_salt(from, to));
            }
        }
    }
}

/// A key's live replica group in ascending index order: up to
/// [`GROUP_INLINE`] members on the stack, a larger group on the heap,
/// so the fan-out of a query or insert allocates nothing.
#[derive(Default)]
struct ReplicaGroup {
    inline: [u32; GROUP_INLINE],
    len: usize,
    spill: Vec<u32>,
}

impl ReplicaGroup {
    fn push(&mut self, member: u32) {
        if self.len < GROUP_INLINE {
            self.inline[self.len] = member;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(member);
        }
    }

    fn members(&self) -> &[u32] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn sort(&mut self) {
        if self.spill.is_empty() {
            self.inline[..self.len].sort_unstable();
        } else {
            self.spill.sort_unstable();
        }
    }
}

/// Orders complaints by their `(by, about)` pair, the key of a store.
fn pair_order(x: &Complaint, y: &Complaint) -> Ordering {
    (x.by, x.about).cmp(&(y.by, y.about))
}

/// The union of two stores under the compaction rule (latest round per
/// pair wins): one linear two-way merge of the sorted entries.
fn merged_store(a: &[Complaint], b: &[Complaint]) -> Vec<Complaint> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match pair_order(&a[i], &b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(Complaint {
                    round: a[i].round.max(b[j].round),
                    ..a[i]
                });
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out.shrink_to_fit();
    out
}

/// Receipt for an insert: how it travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReceipt {
    /// Routing hops to the first responsible replica.
    pub hops: u32,
    /// Replicas that stored the item (0 = insert failed).
    pub replicas_reached: usize,
    /// Total latency accumulated along the routing path.
    pub latency: SimTime,
}

/// Result of a key query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Routing hops to the first responsible replica.
    pub hops: u32,
    /// Per-replica answers: the complaints each reachable replica holds
    /// for the queried key (dense peer index, complaint list).
    pub answers: Vec<(usize, Vec<Complaint>)>,
    /// Total latency of routing plus the slowest replica round-trip.
    pub latency: SimTime,
}

impl QueryResult {
    /// Whether at least one replica answered.
    pub fn is_resolved(&self) -> bool {
        !self.answers.is_empty()
    }
}

/// The distributed trie, laid out as a flat struct-of-arrays arena (see
/// the module docs for the layout rationale).
#[derive(Debug, Clone)]
pub struct PGrid {
    cfg: PGridConfig,
    /// `paths[i]` = peer `i`'s trie position (kept after departure for
    /// diagnostics; departed peers are excluded from the directory).
    paths: Vec<BitPath>,
    /// Departure flags: `true` once [`PGrid::leave`] removed the peer.
    departed: Vec<bool>,
    /// Number of non-departed peers.
    live: usize,
    /// Flat reference arena: peer `i`'s level-`l` bucket occupies
    /// `refs[(i·D + l)·R .. (i·D + l)·R + ref_len[i·D + l]]` where
    /// `D = max_depth`, `R = MAX_REFS`.
    refs: Vec<RefEntry>,
    /// Occupancy of each `(peer, level)` bucket in the arena.
    ref_len: Vec<u8>,
    /// Compacted complaint stores: one entry per `(by, about)` pair,
    /// holding the latest round, sorted by pair.
    stores: Vec<Vec<Complaint>>,
    /// Leaf-directory arena: `buckets[path.slot()]` = dense indices of
    /// the live peers at exactly that path.
    buckets: Vec<Vec<u32>>,
    /// `subtree[slot]` = live peers whose path is at or below the slot.
    subtree: Vec<u32>,
    /// Number of non-empty directory buckets.
    occupied: usize,
    /// `dir_pos[i]` = position of peer `i` inside its directory bucket
    /// (makes directory moves O(1) via swap-remove).
    dir_pos: Vec<u32>,
    /// Meeting tick, stamps reference entries for recency eviction.
    clock: u64,
}

impl PGrid {
    /// Builds a grid of `n` peers by the emergent meeting protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the configuration is invalid.
    pub fn build(n: usize, cfg: PGridConfig, rng: &mut SimRng) -> PGrid {
        assert!(n > 0, "need at least one peer");
        if let Err(rule) = cfg.validate() {
            panic!("invalid P-Grid configuration: {rule}");
        }
        let d = cfg.max_depth as usize;
        let slots = 1usize << (cfg.max_depth + 1);
        let mut grid = PGrid {
            cfg,
            paths: vec![BitPath::EMPTY; n],
            departed: vec![false; n],
            live: n,
            refs: vec![RefEntry::VACANT; n * d * MAX_REFS],
            ref_len: vec![0; n * d],
            stores: vec![Vec::new(); n],
            buckets: {
                let mut b = vec![Vec::new(); slots];
                b[BitPath::EMPTY.slot()] = (0..n as u32).collect();
                b
            },
            subtree: {
                let mut s = vec![0u32; slots];
                s[BitPath::EMPTY.slot()] = n as u32;
                s
            },
            occupied: 1,
            dir_pos: (0..n as u32).collect(),
            clock: 0,
        };
        // Phase 1 — split cascade: every round pairs up the peers inside
        // each occupied bucket (shuffled), so identical-path peers keep
        // meeting and splitting all the way to `max_depth`. Uniform
        // random pairs alone almost never share a path once the
        // population is large, which stalled the trie a few levels deep;
        // the cascade matures it in `O(n · depth)` meetings.
        for _ in 0..cfg.max_depth {
            grid.bucket_pairing_round(rng);
        }
        // Phase 2 — global mixing: uniform random meetings between
        // distinct peers fill the cross-subtree (shallow-level)
        // reference buckets and gossip them around.
        if n >= 2 {
            let meetings = MEETINGS_PER_PEER.saturating_mul(n) / 2;
            for _ in 0..meetings {
                let a = rng.index(n);
                let b = rng.index_except(n, a);
                grid.meet(a, b, rng);
            }
        }
        // Phase 3 — replica mixing: a few more bucket-pairing rounds.
        // Same-path meetings gossip across *every* level, so the deep
        // reference buckets (unreachable by random pairing) spread
        // through each replica group, and replica stores synchronise.
        for _ in 0..4 {
            grid.bucket_pairing_round(rng);
        }
        grid
    }

    /// One cascade round: pair up (shuffled) the members of every bucket
    /// with at least two peers and run the pairwise meetings. The bucket
    /// snapshot is taken up front, in slot (level) order: meetings move
    /// peers into deeper slots, and freshly split peers must not pair
    /// again within the same round.
    fn bucket_pairing_round(&mut self, rng: &mut SimRng) {
        let snapshot: Vec<Vec<u32>> = self
            .buckets
            .iter()
            .filter(|b| b.len() >= 2)
            .cloned()
            .collect();
        for mut members in snapshot {
            rng.shuffle(&mut members);
            for pair in members.chunks_exact(2) {
                self.meet(pair[0] as usize, pair[1] as usize, rng);
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> PGridConfig {
        self.cfg
    }

    /// Number of peer slots currently allocated, including departed
    /// peers' tombstones. Dense indices are never reused between
    /// compactions; [`PGrid::compact`] reclaims the tombstones and
    /// renumbers (returning the mapping).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the grid has no peers (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of peers currently in the overlay (not departed).
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Whether the peer at a dense index is still in the overlay.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn is_live(&self, peer: usize) -> bool {
        !self.departed[peer]
    }

    /// The trie path of the peer at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn path(&self, peer: usize) -> BitPath {
        self.paths[peer]
    }

    /// Complaints currently stored at a peer (one per `(by, about)`
    /// pair, carrying the latest round seen).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn stored(&self, peer: usize) -> impl ExactSizeIterator<Item = Complaint> + '_ {
        self.stores[peer].iter().copied()
    }

    /// Number of complaints stored at a peer (distinct `(by, about)`
    /// pairs).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn store_len(&self, peer: usize) -> usize {
        self.stores[peer].len()
    }

    /// Number of distinct occupied paths in the leaf directory.
    pub fn leaf_count(&self) -> usize {
        self.occupied
    }

    /// Total meetings held so far (the reference-stamp clock). Each
    /// bootstrap, repair or join meeting advances it by exactly one, so
    /// deltas count executed meetings.
    pub fn meetings_held(&self) -> u64 {
        self.clock
    }

    /// The defensive routing hop bound: greedy routing resolves at least
    /// one key bit per hop, so anything past this indicates a
    /// reference-table inconsistency.
    pub fn hop_limit(&self) -> u32 {
        4 * self.cfg.key_bits as u32 + 8
    }

    /// The flat-arena index of peer `peer`'s level-`level` bucket.
    #[inline]
    fn bucket_index(&self, peer: usize, level: usize) -> usize {
        peer * self.cfg.max_depth as usize + level
    }

    /// Peer `peer`'s level-`level` reference bucket as a slice.
    #[inline]
    fn ref_bucket(&self, peer: usize, level: usize) -> &[RefEntry] {
        let li = self.bucket_index(peer, level);
        let base = li * MAX_REFS;
        &self.refs[base..base + self.ref_len[li] as usize]
    }

    /// Compacting upsert: keeps the latest round per `(by, about)` pair.
    fn store_insert(&mut self, peer: usize, item: Complaint) {
        let store = &mut self.stores[peer];
        match store.binary_search_by(|c| pair_order(c, &item)) {
            Ok(i) => store[i].round = store[i].round.max(item.round),
            Err(i) => store.insert(i, item),
        }
    }

    /// Unions two peers' stores under the compaction rule (latest round
    /// per pair wins); both end up with the merged store. Replicas in
    /// sync already hold equal stores, which stay as they are.
    fn merge_stores(&mut self, a: usize, b: usize) {
        if self.stores[a] == self.stores[b] {
            return;
        }
        let merged = merged_store(&self.stores[a], &self.stores[b]);
        self.stores[a] = merged.clone();
        self.stores[b] = merged;
    }

    /// The pairwise-meeting exchange at the heart of P-Grid construction.
    fn meet(&mut self, a: usize, b: usize, rng: &mut SimRng) {
        debug_assert!(a != b, "a peer cannot meet itself");
        debug_assert!(
            !self.departed[a] && !self.departed[b],
            "departed peers do not meet"
        );
        self.clock += 1;
        let (pa, pb) = (self.paths[a], self.paths[b]);
        let l = pa.common_prefix(pb);
        if l == pa.len() && l == pb.len() {
            // Identical paths: the two peers cover the same subspace, so
            // they union their stores first — after a split, whichever
            // side ends up responsible for an item keeps a copy — and
            // then split the subspace if depth remains (at max depth
            // they stay replicas and the union *is* the sync).
            self.merge_stores(a, b);
            if pa.len() < self.cfg.max_depth {
                let bit_a = rng.chance(0.5);
                self.extend_path(a, bit_a);
                self.extend_path(b, !bit_a);
                self.add_ref(a, l, b);
                self.add_ref(b, l, a);
            }
        } else if l == pa.len() {
            // a's path is a proper prefix of b's: a specialises to the
            // complement of b's next bit, and they reference each other.
            let bit_b = pb.bit(l);
            self.extend_path(a, !bit_b);
            self.add_ref(a, l, b);
            self.add_ref(b, l, a);
        } else if l == pb.len() {
            let bit_a = pa.bit(l);
            self.extend_path(b, !bit_a);
            self.add_ref(a, l, b);
            self.add_ref(b, l, a);
        } else {
            // Paths diverge at level l: mutual references at that level.
            self.add_ref(a, l, b);
            self.add_ref(b, l, a);
        }
        // Reference gossip: share one random reference per common level so
        // tables fill beyond the direct meeting partners.
        let common = self.paths[a].common_prefix(self.paths[b]) as usize;
        for level in 0..common {
            let shared = rng.pick(self.ref_bucket(a, level)).map(|e| e.peer);
            if let Some(shared) = shared {
                self.add_ref(b, level as u8, shared as usize);
            }
            let shared = rng.pick(self.ref_bucket(b, level)).map(|e| e.peer);
            if let Some(shared) = shared {
                self.add_ref(a, level as u8, shared as usize);
            }
        }
    }

    fn extend_path(&mut self, peer: usize, bit: bool) {
        let old = self.paths[peer];
        let new = old.child(bit);
        self.dir_remove(peer, old);
        self.paths[peer] = new;
        self.dir_insert(peer, new);
        // The peer stays inside every ancestor's subtree; only the new
        // node gains it.
        self.subtree[new.slot()] += 1;
    }

    /// Removes `peer` from its directory bucket in O(1) (positional
    /// swap-remove; the displaced peer's position is patched).
    fn dir_remove(&mut self, peer: usize, path: BitPath) {
        let bucket = &mut self.buckets[path.slot()];
        let pos = self.dir_pos[peer] as usize;
        debug_assert_eq!(bucket[pos], peer as u32, "directory position out of sync");
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.dir_pos[moved as usize] = pos as u32;
        }
        if bucket.is_empty() {
            self.occupied -= 1;
        }
    }

    fn dir_insert(&mut self, peer: usize, path: BitPath) {
        let bucket = &mut self.buckets[path.slot()];
        if bucket.is_empty() {
            self.occupied += 1;
        }
        self.dir_pos[peer] = bucket.len() as u32;
        bucket.push(peer as u32);
    }

    fn add_ref(&mut self, peer: usize, level: u8, target: usize) {
        if peer == target || self.departed[target] {
            return;
        }
        // The invariant: target's path agrees with peer's on `level` bits
        // and (when long enough) differs at bit `level`.
        let (pp, tp) = (self.paths[peer], self.paths[target]);
        if pp.len() <= level || tp.len() <= level {
            return;
        }
        if pp.common_prefix(tp) != level || pp.bit(level) == tp.bit(level) {
            return;
        }
        let stamp = self.clock as u32;
        let li = self.bucket_index(peer, level as usize);
        let base = li * MAX_REFS;
        let mut len = self.ref_len[li] as usize;
        // One scan: refresh the target if present, and lazily evict
        // entries whose peer has departed (order within a bucket is
        // routing-irrelevant — candidates are sampled uniformly — so
        // eviction is a positional overwrite from the tail, never a
        // shift; pinned by the same-seed determinism test).
        let mut i = 0;
        while i < len {
            let e = self.refs[base + i];
            if self.departed[e.peer as usize] {
                len -= 1;
                self.refs[base + i] = self.refs[base + len];
                continue;
            }
            if e.peer as usize == target {
                self.refs[base + i].stamp = stamp;
                self.ref_len[li] = len as u8;
                return;
            }
            i += 1;
        }
        if len >= MAX_REFS {
            // Bucket full: overwrite the stalest entry in place (recency
            // as a liveness proxy) — O(1) in the slot, replacing the old
            // `Vec::remove` which shifted the bucket on the bootstrap
            // hot path.
            let victim = (0..len)
                .min_by_key(|&i| self.refs[base + i].stamp)
                .expect("bucket non-empty");
            self.refs[base + victim] = RefEntry {
                peer: target as u32,
                stamp,
            };
        } else {
            self.refs[base + len] = RefEntry {
                peer: target as u32,
                stamp,
            };
            len += 1;
        }
        self.ref_len[li] = len as u8;
    }

    /// Dense indices of all live peers responsible for `key` (ground
    /// truth, not a network operation), in ascending index order.
    ///
    /// Resolved through the leaf-directory arena: one slot probe per
    /// candidate depth, `O(max_depth)` instead of the naive full
    /// population scan.
    pub fn responsible_peers(&self, key: Key) -> Vec<usize> {
        let group = self.replica_group(key, None);
        group.members().iter().map(|&i| i as usize).collect()
    }

    /// Greedy routing from `origin` towards a peer responsible for `key`.
    ///
    /// Each hop sends one message through `net`; unavailable peers
    /// (per `alive`, `None` = everyone up) and departed peers are
    /// skipped among the level's references. Returns the responsible
    /// peer index, hop count and accumulated latency, or `None` when
    /// routing dead-ends.
    pub fn route(
        &self,
        origin: usize,
        key: Key,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
    ) -> Option<(usize, u32, SimTime)> {
        self.route_at(origin, key, alive, net, rng, SimTime::ZERO, None)
    }

    /// [`PGrid::route`] with an explicit virtual start time and an
    /// optional per-hop retry policy; see [`PGrid::query_at`].
    #[allow(clippy::too_many_arguments)]
    fn route_at(
        &self,
        origin: usize,
        key: Key,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
        start: SimTime,
        retry: Option<&RetryPolicy>,
    ) -> Option<(usize, u32, SimTime)> {
        let w = self.cfg.key_bits;
        let up = |i: usize| !self.departed[i] && alive.is_none_or(|a| a[i]);
        if !up(origin) {
            return None;
        }
        let mut current = origin;
        let mut hops = 0u32;
        let mut latency = SimTime::ZERO;
        let hop_limit = self.hop_limit();
        loop {
            let path = self.paths[current];
            if path.is_prefix_of_key(key, w) {
                return Some((current, hops, latency));
            }
            let level = path.common_prefix_with_key(key, w) as usize;
            // Uniform draw over the live candidates without collecting
            // them: count, then index the same filtered order.
            let bucket = self.ref_bucket(current, level);
            let live = bucket.iter().filter(|e| up(e.peer as usize)).count();
            if live == 0 {
                return None; // dead end: no live reference at this level
            }
            let pick = rng.index(live);
            // Each retry fails over to the next live reference at this
            // level, wrapping round the bucket.
            let failover = |attempt: usize| {
                bucket
                    .iter()
                    .filter(|e| up(e.peer as usize))
                    .nth((pick + attempt) % live)
                    .expect("picked within the live count")
                    .peer as usize
            };
            let (next, waited) = send_with_retry(
                MsgKind::Route,
                current,
                failover,
                start + latency,
                retry,
                net,
                rng,
            )?;
            latency += waited;
            hops += 1;
            if hops > hop_limit {
                return None; // defensive: reference-table inconsistency
            }
            current = next;
        }
    }

    /// The live replica group for a key: every live peer responsible for
    /// it, in ascending index order. Peers with shorter paths covering
    /// the key count as members — in a real deployment the landing peer
    /// reaches them by continuing to route within its subtree, which
    /// costs the same one message per member this model charges.
    fn replica_group(&self, key: Key, alive: Option<&[bool]>) -> ReplicaGroup {
        let w = self.cfg.key_bits;
        let mut group = ReplicaGroup::default();
        for len in 0..=self.cfg.max_depth {
            let bucket = &self.buckets[BitPath::key_prefix(key, len, w).slot()];
            for &m in bucket {
                if alive.is_none_or(|a| a[m as usize]) {
                    group.push(m);
                }
            }
        }
        group.sort();
        group
    }

    /// Inserts a complaint under `key`: routes to a responsible replica,
    /// then pushes the item to the live members of its replica group.
    pub fn insert(
        &mut self,
        origin: usize,
        key: Key,
        item: Complaint,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
    ) -> InsertReceipt {
        self.insert_at(origin, key, item, alive, net, rng, SimTime::ZERO, None)
    }

    /// [`PGrid::insert`] with a virtual start time and optional retry
    /// (see [`PGrid::query_at`]); replica pushes retry independently,
    /// each on its own backoff schedule.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_at(
        &mut self,
        origin: usize,
        key: Key,
        item: Complaint,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
        start: SimTime,
        retry: Option<&RetryPolicy>,
    ) -> InsertReceipt {
        let Some((landing, hops, latency)) =
            self.route_at(origin, key, alive, net, rng, start, retry)
        else {
            return InsertReceipt {
                hops: 0,
                replicas_reached: 0,
                latency: SimTime::ZERO,
            };
        };
        let group = self.replica_group(key, alive);
        let mut reached = 0;
        let mut max_extra = SimTime::ZERO;
        for &member in group.members() {
            let member = member as usize;
            if member != landing {
                let push = |_| member;
                let kind = MsgKind::Replicate;
                match send_with_retry(kind, landing, push, start + latency, retry, net, rng) {
                    Some((_, d)) => max_extra = max_extra.max(d),
                    None => continue,
                }
            }
            self.store_insert(member, item);
            reached += 1;
        }
        InsertReceipt {
            hops,
            replicas_reached: reached,
            latency: latency + max_extra,
        }
    }

    /// Queries all live replicas for the items stored under `key`.
    pub fn query(
        &self,
        origin: usize,
        key: Key,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
    ) -> QueryResult {
        self.query_at(origin, key, alive, net, rng, SimTime::ZERO, None)
    }

    /// [`PGrid::query`] with a virtual start time and an optional retry
    /// policy.
    ///
    /// `start` anchors every send on the virtual clock (the fault
    /// plane's partition episodes are time-gated); accumulated latency
    /// advances it hop by hop. When a routing hop's message is dropped
    /// and `retry` is set, the sender waits the policy's timeout
    /// (exponential backoff + deterministic jitter, accrued into the
    /// reported latency), fails over to the *next* live reference at
    /// the same level (alternate-reference failover, wrapping round the
    /// bucket), and tries again until the policy's attempt budget runs
    /// out. Because the wait advances the virtual clock, retries can
    /// straddle a partition's heal time and succeed where the first
    /// attempt was blocked. With `retry == None` the first drop aborts
    /// the route. Replica probes retry the same member independently,
    /// each on its own backoff schedule.
    #[allow(clippy::too_many_arguments)]
    pub fn query_at(
        &self,
        origin: usize,
        key: Key,
        alive: Option<&[bool]>,
        net: &mut Network,
        rng: &mut SimRng,
        start: SimTime,
        retry: Option<&RetryPolicy>,
    ) -> QueryResult {
        let Some((landing, hops, latency)) =
            self.route_at(origin, key, alive, net, rng, start, retry)
        else {
            return QueryResult {
                hops: 0,
                answers: Vec::new(),
                latency: SimTime::ZERO,
            };
        };
        let w = self.cfg.key_bits;
        let group = self.replica_group(key, alive);
        let mut answers = Vec::with_capacity(group.members().len());
        let mut max_extra = SimTime::ZERO;
        for &member in group.members() {
            let member = member as usize;
            if member != landing {
                let probe = |_| member;
                let kind = MsgKind::ReplicaQuery;
                match send_with_retry(kind, landing, probe, start + latency, retry, net, rng) {
                    Some((_, d)) => max_extra = max_extra.max(d),
                    None => continue,
                }
            }
            let items: Vec<Complaint> = self
                .stored(member)
                .filter(|c| {
                    // Only items indexed under the queried key — a peer's
                    // store can hold items for every key in its subspace.
                    crate::record::key_for_peer(c.by, w) == key
                        || crate::record::key_for_peer(c.about, w) == key
                })
                .collect();
            answers.push((member, items));
        }
        QueryResult {
            hops,
            answers,
            latency: latency + max_extra,
        }
    }

    /// Admits a new peer into the overlay and returns its dense index.
    ///
    /// The newcomer starts at the trie root and descends by the regular
    /// meeting protocol: each meeting with a peer sampled uniformly from
    /// its current subspace (O(depth) via the subtree counts) extends
    /// its path by one bit — splitting an equal-path partner, or
    /// specialising against a deeper one — until it reaches the
    /// configured depth or is alone in its subspace. Splits hand the
    /// partner's store to the newcomer (the store union of a meeting), and
    /// a final handoff syncs from its new replica group — or from the
    /// deepest remaining owner of its subspace — so an admitted peer
    /// answers queries with the data its group already holds.
    pub fn join(&mut self, rng: &mut SimRng) -> usize {
        let d = self.cfg.max_depth as usize;
        let idx = self.paths.len();
        assert!(idx < u32::MAX as usize, "dense index space exhausted");
        self.paths.push(BitPath::EMPTY);
        self.departed.push(false);
        self.stores.push(Vec::new());
        let new_refs = self.refs.len() + d * MAX_REFS;
        self.refs.resize(new_refs, RefEntry::VACANT);
        self.ref_len.resize(self.ref_len.len() + d, 0);
        self.dir_pos.push(0);
        self.live += 1;
        self.dir_insert(idx, BitPath::EMPTY);
        self.subtree[BitPath::EMPTY.slot()] += 1;

        // Descent: every iteration extends the newcomer's path by one
        // bit, so this loop runs at most `max_depth` times.
        while self.paths[idx].len() < self.cfg.max_depth {
            let Some(partner) = self.sample_in_subtree(self.paths[idx], idx, rng) else {
                break; // alone in the subspace: nobody left to split with
            };
            self.meet(idx, partner, rng);
        }

        // Replica handoff: sync the store from the new group.
        if let Some(donor) = self.handoff_donor(idx, rng) {
            if self.paths[donor] == self.paths[idx] {
                // Same path ⇒ descent stopped at max depth: a full
                // replica meeting (two-way store union + references).
                self.meet(idx, donor, rng);
            } else {
                // Deepest remaining owner of the newcomer's subspace —
                // its store covers a superspace, copy it one way.
                self.stores[idx] = merged_store(&self.stores[idx], &self.stores[donor]);
            }
        }
        idx
    }

    /// Samples a uniform peer from the subtree rooted at `path` (peers
    /// whose path equals or extends it), excluding `exclude` — which
    /// must itself sit at exactly `path`. O(depth) via the subtree
    /// counts alone: a node's own bucket holds its count minus its
    /// children's, and `exclude` sits at `dir_pos[exclude]` of the root
    /// bucket, so the walk reads a directory bucket only for the pick.
    fn sample_in_subtree(&self, path: BitPath, exclude: usize, rng: &mut SimRng) -> Option<usize> {
        debug_assert_eq!(
            self.paths[exclude], path,
            "exclude sits at the subtree root"
        );
        let mut slot = path.slot();
        let total = self.subtree[slot] as usize;
        if total <= 1 {
            return None;
        }
        let mut r = rng.index(total - 1);
        // Walk down: at each node the bucket's own members come first
        // (skipping `exclude`, which only appears in the root bucket),
        // then the 0-subtree, then the 1-subtree.
        let mut skip = Some(self.dir_pos[exclude] as usize);
        loop {
            let (left, right) = match self.subtree.get(slot << 1..(slot << 1) + 2) {
                Some(&[zero, one]) => (zero as usize, one as usize),
                _ => (0, 0),
            };
            let local = self.subtree[slot] as usize - left - right - usize::from(skip.is_some());
            if r < local {
                let pos = match skip {
                    Some(s) if r >= s => r + 1,
                    _ => r,
                };
                return Some(self.buckets[slot][pos] as usize);
            }
            r -= local;
            skip = None;
            assert!(left + right > 0, "subtree counts out of sync with buckets");
            slot <<= 1;
            if r >= left {
                r -= left;
                slot |= 1;
            }
        }
    }

    /// The peer a joining newcomer syncs its store from: a random member
    /// of its own bucket (a replica) when one exists, else a random
    /// member of the deepest occupied proper prefix of its path — the
    /// closest remaining owner of its new subspace. `None` when the
    /// newcomer is the only peer covering its subspace.
    fn handoff_donor(&self, idx: usize, rng: &mut SimRng) -> Option<usize> {
        let path = self.paths[idx];
        let bucket = &self.buckets[path.slot()];
        if bucket.len() > 1 {
            let pos = rng.index_except(bucket.len(), self.dir_pos[idx] as usize);
            return Some(bucket[pos] as usize);
        }
        for len in (0..path.len()).rev() {
            let bucket = &self.buckets[path.prefix(len).slot()];
            if !bucket.is_empty() {
                return rng.pick(bucket).map(|&m| m as usize);
            }
        }
        None
    }

    /// Removes a peer from the overlay: its directory entry disappears
    /// (it stops being responsible for any key), its subtree counts are
    /// released along its path prefixes, and its own references and
    /// store are dropped. References other peers hold to it die lazily:
    /// routing treats departed peers as permanently down, bucket touches
    /// evict them opportunistically, and [`PGrid::repair`] sweeps them
    /// out eagerly. The vacated slot stays as a tombstone — dense
    /// indices are never reused — until [`PGrid::compact`] reclaims it.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range or already departed.
    pub fn leave(&mut self, peer: usize) {
        assert!(!self.departed[peer], "peer {peer} already departed");
        let path = self.paths[peer];
        self.dir_remove(peer, path);
        for len in 0..=path.len() {
            self.subtree[path.prefix(len).slot()] -= 1;
        }
        self.departed[peer] = true;
        self.live -= 1;
        // Free the tombstone's store; `clear` would keep its capacity.
        self.stores[peer] = Vec::new();
        let d = self.cfg.max_depth as usize;
        for li in peer * d..(peer + 1) * d {
            self.ref_len[li] = 0;
        }
    }

    /// Compacts the arena: departed peers' slots — kept as tombstones by
    /// [`PGrid::leave`] so dense indices stay stable between compactions
    /// — are reclaimed, and the surviving peers are renumbered densely
    /// in their old relative order. All arenas (paths, reference
    /// buckets, stores, directory) shrink to the live population, so a
    /// long-running overlay under churn holds memory proportional to
    /// its *live* size, not its all-time admission count.
    ///
    /// Returns the old→new index mapping (`None` for departed slots) so
    /// callers holding dense indices (experiment bookkeeping) can follow
    /// the renumbering; a [`crate::lifecycle::Lifecycle`] does not
    /// follow it. Reference entries
    /// pointing at departed peers (lazily evicted otherwise) are
    /// dropped during the sweep; directory buckets, subtree counts and
    /// the meeting clock are preserved, so routing behaviour is
    /// unchanged.
    pub fn compact(&mut self) -> Vec<Option<u32>> {
        let n = self.paths.len();
        let d = self.cfg.max_depth as usize;
        let r = MAX_REFS;
        let mut mapping = vec![None; n];
        let mut next = 0u32;
        for (old, slot) in mapping.iter_mut().enumerate() {
            if !self.departed[old] {
                *slot = Some(next);
                next += 1;
            }
        }
        let live = next as usize;
        debug_assert_eq!(live, self.live, "departure flags out of sync");
        if live < n {
            // Slide every surviving peer's rows down in index order (the
            // destination is always at or before the source, so forward
            // copies never clobber unread rows).
            let mut write = 0usize;
            for (old, slot) in mapping.iter().enumerate().take(n) {
                if slot.is_none() {
                    continue;
                }
                if write != old {
                    self.paths[write] = self.paths[old];
                    self.dir_pos[write] = self.dir_pos[old];
                    self.stores[write] = std::mem::take(&mut self.stores[old]);
                    self.refs
                        .copy_within(old * d * r..(old + 1) * d * r, write * d * r);
                    self.ref_len.copy_within(old * d..(old + 1) * d, write * d);
                }
                write += 1;
            }
            self.paths.truncate(live);
            self.dir_pos.truncate(live);
            self.stores.truncate(live);
            self.refs.truncate(live * d * r);
            self.ref_len.truncate(live * d);
            self.departed.truncate(live);
            self.departed.fill(false);
            // Reclaim, not just truncate: the point of compaction is that
            // memory tracks the live population.
            self.paths.shrink_to_fit();
            self.dir_pos.shrink_to_fit();
            self.stores.shrink_to_fit();
            self.refs.shrink_to_fit();
            self.ref_len.shrink_to_fit();
            self.departed.shrink_to_fit();
        }
        // Renumber reference targets; entries pointing at departed peers
        // die here (tail overwrite, the bucket-order-irrelevant idiom of
        // `add_ref`). Vacated tail slots are reset so equal histories
        // keep bit-identical arenas.
        for li in 0..live * d {
            let base = li * r;
            let orig = self.ref_len[li] as usize;
            let mut len = orig;
            let mut i = 0;
            while i < len {
                match mapping[self.refs[base + i].peer as usize] {
                    Some(new) => {
                        self.refs[base + i].peer = new;
                        i += 1;
                    }
                    None => {
                        len -= 1;
                        self.refs[base + i] = self.refs[base + len];
                    }
                }
            }
            self.refs[base + len..base + orig].fill(RefEntry::VACANT);
            self.ref_len[li] = len as u8;
        }
        // Directory buckets hold only live peers; renumber in place.
        // Bucket positions are unchanged, so `dir_pos` stays valid, and
        // subtree counts already track live peers only.
        for bucket in &mut self.buckets {
            for member in bucket.iter_mut() {
                *member = mapping[*member as usize].expect("directory members are live");
            }
        }
        mapping
    }

    /// Repairs reference tables after churn: every live peer evicts its
    /// references to peers `alive` reports down or departed
    /// (liveness-aware eviction), then **exactly** `meetings` additional
    /// random meetings between distinct live peers refill the buckets
    /// and re-synchronise replica stores.
    ///
    /// The meeting pair is sampled without replacement (second index
    /// drawn from the remaining positions and shifted over the first),
    /// so the full meeting budget is always delivered — the old
    /// draw-with-replacement loop silently dropped every `a == b`
    /// collision, under-delivering worst for small live populations.
    ///
    /// Down peers keep their state untouched — when they return, the
    /// regular meeting protocol reintegrates them. On grids of at least
    /// 8192 peers the eviction sweep runs on the worker pool; the
    /// repaired grid is the same for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != self.len()`.
    pub fn repair(&mut self, alive: &[bool], meetings: usize, rng: &mut SimRng) {
        assert_eq!(alive.len(), self.paths.len(), "mask length mismatch");
        let up: Vec<bool> = alive
            .iter()
            .zip(&self.departed)
            .map(|(&a, &gone)| a && !gone)
            .collect();
        self.evict_down_references(&up);
        let live: Vec<usize> = (0..up.len()).filter(|&i| up[i]).collect();
        if live.len() < 2 {
            return;
        }
        for _ in 0..meetings {
            let a = rng.index(live.len());
            let b = rng.index_except(live.len(), a);
            self.meet(live[a], live[b], rng);
        }
    }

    /// The eviction sweep of [`PGrid::repair`]: every `up` peer drops
    /// its references to peers that are not `up`, in the bucket-order
    /// idiom of `add_ref` (tail overwrite). Buckets are independent, so
    /// disjoint chunks of at least [`REPAIR_CHUNK`] peers sweep on the
    /// worker pool with the same result as one sequential pass. Each
    /// bucket is checked branch-free over its `[0, ref_len)` prefix and
    /// rewritten only when it holds a dead target; slots past `ref_len`
    /// are never read (after [`PGrid::compact`] they can hold stale
    /// indices past the arena).
    fn evict_down_references(&mut self, up: &[bool]) {
        let d = self.cfg.max_depth as usize;
        let r = MAX_REFS;
        let parts = default_threads().min(up.len() / REPAIR_CHUNK).max(1);
        let per_chunk = up.len().div_ceil(parts).max(1);
        let chunks: Vec<_> = self
            .refs
            .chunks_mut(per_chunk * d * r)
            .zip(self.ref_len.chunks_mut(per_chunk * d))
            .collect();
        parallel_map(0, chunks, |k, (refs, lens)| {
            let peers = refs.chunks_mut(d * r).zip(lens.chunks_mut(d));
            for (peer, (peer_refs, peer_lens)) in (k * per_chunk..).zip(peers) {
                if !up[peer] {
                    continue; // down peers keep their state untouched
                }
                for (bucket, len) in peer_refs.chunks_mut(r).zip(peer_lens) {
                    let bucket = &mut bucket[..*len as usize];
                    let dead = bucket
                        .iter()
                        .fold(false, |dead, e| dead | !up[e.peer as usize]);
                    if !dead {
                        continue;
                    }
                    let mut n = bucket.len();
                    let mut i = 0;
                    while i < n {
                        if up[bucket[i].peer as usize] {
                            i += 1;
                        } else {
                            n -= 1;
                            bucket[i] = bucket[n];
                        }
                    }
                    *len = n as u8;
                }
            }
        });
    }

    /// Checks every structural invariant of the flat arena and returns
    /// the first rule violated:
    ///
    /// * the configuration's ranges, and arena lengths that match the
    ///   population and the configuration;
    /// * the directory indexes every non-departed peer exactly once,
    ///   under its own path's slot, at the position `dir_pos` records,
    ///   and no departed or unknown peer;
    /// * the live, occupied-bucket and subtree counts agree with the
    ///   departure flags and the directory;
    /// * every complaint store is strictly sorted by `(by, about)` pair;
    /// * no path is deeper than `max_depth`;
    /// * reference buckets hold at most four entries, are empty
    ///   for departed peers and for levels at or below a peer's path
    ///   length, and every entry targets another known peer that
    ///   diverges from its holder at exactly the bucket's level.
    ///
    /// Snapshot restore runs it on every decoded grid and reports a
    /// violation as [`PersistError::Invalid`], so a restored grid is
    /// never a silently inconsistent arena.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.cfg.validate()?;
        let n = self.paths.len();
        let d = self.cfg.max_depth as usize;
        let slots = 1usize << (self.cfg.max_depth + 1);
        if self.departed.len() != n
            || self.dir_pos.len() != n
            || self.stores.len() != n
            || self.ref_len.len() != n * d
            || self.refs.len() != n * d * MAX_REFS
            || self.buckets.len() != slots
            || self.subtree.len() != slots
        {
            return Err("arena lengths disagree with the population or configuration");
        }
        if self.departed.iter().filter(|&&gone| !gone).count() != self.live {
            return Err("live count disagrees with the departure flags");
        }
        let mut seen = vec![false; n];
        let mut indexed = 0usize;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            for (pos, &m) in bucket.iter().enumerate() {
                let m = m as usize;
                if m >= n || self.departed[m] {
                    return Err("directory indexes a departed or unknown peer");
                }
                if std::mem::replace(&mut seen[m], true) {
                    return Err("directory indexes a peer twice");
                }
                if self.paths[m].slot() != slot {
                    return Err("directory member filed under the wrong path");
                }
                if self.dir_pos[m] as usize != pos {
                    return Err("dir_pos out of sync with the directory");
                }
                indexed += 1;
            }
        }
        if indexed != self.live {
            return Err("directory does not index every live peer");
        }
        if self.occupied != self.buckets.iter().filter(|b| !b.is_empty()).count() {
            return Err("occupied-bucket count out of sync");
        }
        for slot in 1..slots {
            let children = if (slot << 1) < slots {
                self.subtree[slot << 1] + self.subtree[(slot << 1) | 1]
            } else {
                0
            };
            if self.subtree[slot] != self.buckets[slot].len() as u32 + children {
                return Err("subtree count out of sync");
            }
        }
        if self
            .stores
            .iter()
            .any(|s| s.windows(2).any(|w| pair_order(&w[0], &w[1]).is_ge()))
        {
            return Err("complaint store not strictly sorted by pair");
        }
        for peer in 0..n {
            let plen = self.paths[peer].len();
            if plen > self.cfg.max_depth {
                return Err("path deeper than max_depth");
            }
            for level in 0..d {
                let len = self.ref_len[peer * d + level] as usize;
                if len > MAX_REFS {
                    return Err("reference bucket over capacity");
                }
                if (self.departed[peer] || level as u8 >= plen) && len != 0 {
                    return Err("departed or shallow peer holds references");
                }
                for e in self.ref_bucket(peer, level) {
                    let t = e.peer as usize;
                    if t >= n || t == peer {
                        return Err("reference targets an unknown peer or self");
                    }
                    let tp = self.paths[t];
                    if tp.len() <= level as u8 || self.paths[peer].common_prefix(tp) != level as u8
                    {
                        return Err("reference violates the divergence contract");
                    }
                }
            }
        }
        Ok(())
    }

    /// [`PGrid::validate`] as an assertion.
    ///
    /// # Panics
    ///
    /// Panics with the violated rule when the arena is inconsistent.
    pub fn check_invariants(&self) {
        if let Err(rule) = self.validate() {
            panic!("P-Grid invariant violated: {rule}");
        }
    }
}

/// Reads one persisted configuration slot, refusing with `context` any
/// value other than `expected`. The bucket capacity and the meeting
/// count are constants; the layout keeps the slots they were once
/// written to.
fn take_fixed_u64(
    r: &mut ByteReader,
    expected: usize,
    context: &'static str,
) -> Result<(), PersistError> {
    if r.take_u64()? == expected as u64 {
        Ok(())
    } else {
        Err(PersistError::Invalid { context })
    }
}

/// ## Wire layout (section tag `PGRD`)
///
/// ```text
/// cfg       := key_bits:u8 max_depth:u8 max_refs:u64 meetings_per_peer:u64
/// state     := cfg clock:u64
///              n:len (path_packed:u64 departed:u8)*n
///              (ref_len:u8 (peer:u32 stamp:u32)*ref_len)*(n·max_depth)
///              (store_len:len (by:u32 about:u32 round:u64)*store_len)*n
///              bucket_count:len (slot:u64 members:len member:u32*)*
/// ```
///
/// `max_refs` and `meetings_per_peer` always hold the constants 4 and
/// 48; decode refuses any other value with
/// [`PersistError::Invalid`], so a payload cannot size the reference
/// arena.
///
/// Only the occupied prefix of each reference bucket is serialized — the
/// arena beyond `ref_len` is lazy-eviction garbage; restore refills it
/// with vacant entries, so a restored grid re-encodes bit-identically.
/// Directory buckets travel in ascending slot order with their member
/// order preserved (replica sampling reads it), and `live` / `dir_pos` /
/// `occupied` / `subtree` are derived, then the whole arena must pass
/// [`PGrid::validate`].
impl Persistable for PGrid {
    const TAG: [u8; 4] = *b"PGRD";

    fn encode_state(&self, w: &mut ByteWriter) {
        let d = self.cfg.max_depth as usize;
        w.put_u8(self.cfg.key_bits);
        w.put_u8(self.cfg.max_depth);
        w.put_u64(MAX_REFS as u64);
        w.put_u64(MEETINGS_PER_PEER as u64);
        w.put_u64(self.clock);
        w.put_len(self.paths.len());
        for (i, p) in self.paths.iter().enumerate() {
            w.put_u64(p.packed());
            w.put_bool(self.departed[i]);
        }
        for peer in 0..self.paths.len() {
            for level in 0..d {
                let li = self.bucket_index(peer, level);
                w.put_u8(self.ref_len[li]);
                for e in self.ref_bucket(peer, level) {
                    w.put_u32(e.peer);
                    w.put_u32(e.stamp);
                }
            }
        }
        for store in &self.stores {
            w.put_len(store.len());
            for c in store {
                w.put_u32(c.by.0);
                w.put_u32(c.about.0);
                w.put_u64(c.round);
            }
        }
        w.put_len(self.occupied);
        for (slot, bucket) in self.buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            w.put_u64(slot as u64);
            w.put_len(bucket.len());
            for &m in bucket {
                w.put_u32(m);
            }
        }
    }

    fn decode_state(r: &mut ByteReader) -> Result<PGrid, PersistError> {
        let cfg = PGridConfig {
            key_bits: r.take_u8()?,
            max_depth: r.take_u8()?,
        };
        take_fixed_u64(
            r,
            MAX_REFS,
            "max_refs differs from the reference-bucket capacity",
        )?;
        take_fixed_u64(
            r,
            MEETINGS_PER_PEER,
            "meetings_per_peer differs from the bootstrap meeting count",
        )?;
        cfg.validate()
            .map_err(|context| PersistError::Invalid { context })?;
        let d = cfg.max_depth as usize;
        let clock = r.take_u64()?;
        let n = r.take_len(9)?;
        if n == 0 {
            return Err(PersistError::Invalid {
                context: "a grid has at least one peer",
            });
        }
        let mut paths = Vec::with_capacity(n);
        let mut departed = Vec::with_capacity(n);
        for _ in 0..n {
            let path = BitPath::from_packed(r.take_u64()?).ok_or(PersistError::Malformed {
                context: "non-canonical packed path",
            })?;
            paths.push(path);
            departed.push(r.take_bool()?);
        }
        // Bound the arena allocations by the declared ref lengths still
        // to be read: each of the n·d buckets costs at least 1 byte.
        if n.saturating_mul(d) > r.remaining() {
            return Err(PersistError::Malformed {
                context: "length prefix exceeds remaining input",
            });
        }
        let mut refs = vec![RefEntry::VACANT; n * d * MAX_REFS];
        let mut ref_len = vec![0u8; n * d];
        for li in 0..n * d {
            let len = r.take_u8()?;
            if len as usize > MAX_REFS {
                return Err(PersistError::Invalid {
                    context: "reference bucket over capacity",
                });
            }
            ref_len[li] = len;
            for k in 0..len as usize {
                refs[li * MAX_REFS + k] = RefEntry {
                    peer: r.take_u32()?,
                    stamp: r.take_u32()?,
                };
            }
        }
        let mut stores = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.take_len(16)?;
            let mut store = Vec::with_capacity(len);
            for _ in 0..len {
                store.push(Complaint {
                    by: PeerId(r.take_u32()?),
                    about: PeerId(r.take_u32()?),
                    round: r.take_u64()?,
                });
            }
            store.sort_unstable_by(pair_order);
            if store.windows(2).any(|w| pair_order(&w[0], &w[1]).is_eq()) {
                return Err(PersistError::Invalid {
                    context: "duplicate complaint pair in a store",
                });
            }
            stores.push(store);
        }
        let slots = 1usize << (cfg.max_depth + 1);
        let mut buckets = vec![Vec::new(); slots];
        let mut dir_pos = vec![0u32; n];
        let occupied = r.take_len(13)?;
        let mut live = 0usize;
        let mut prev_slot = 0usize;
        for _ in 0..occupied {
            let slot = r.take_u64()? as usize;
            if slot == 0 || slot >= slots || slot <= prev_slot {
                return Err(PersistError::Invalid {
                    context: "directory slots not strictly ascending",
                });
            }
            prev_slot = slot;
            let members = r.take_len(4)?;
            if members == 0 {
                return Err(PersistError::Invalid {
                    context: "empty bucket serialized as occupied",
                });
            }
            let mut bucket = Vec::with_capacity(members);
            for pos in 0..members {
                let m = r.take_u32()?;
                if m as usize >= n {
                    return Err(PersistError::Invalid {
                        context: "directory indexes a departed or unknown peer",
                    });
                }
                dir_pos[m as usize] = pos as u32;
                bucket.push(m);
                live += 1;
            }
            buckets[slot] = bucket;
        }
        let mut subtree = vec![0u32; slots];
        for slot in (1..slots).rev() {
            let children = if (slot << 1) < slots {
                subtree[slot << 1] + subtree[(slot << 1) | 1]
            } else {
                0
            };
            subtree[slot] = buckets[slot].len() as u32 + children;
        }
        let grid = PGrid {
            cfg,
            paths,
            departed,
            live,
            refs,
            ref_len,
            stores,
            buckets,
            subtree,
            occupied,
            dir_pos,
            clock,
        };
        grid.validate()
            .map_err(|context| PersistError::Invalid { context })?;
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_netsim::net::NetConfig;

    fn grid(n: usize, depth: u8, seed: u64) -> (PGrid, SimRng, Network) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig {
            max_depth: depth,
            ..PGridConfig::default()
        };
        let g = PGrid::build(n, cfg, &mut rng);
        (g, rng, Network::new(NetConfig::default()))
    }

    #[test]
    fn bootstrap_reaches_full_depth() {
        let (g, _, _) = grid(128, 5, 1);
        let depths: Vec<u8> = (0..g.len()).map(|i| g.path(i).len()).collect();
        let full = depths.iter().filter(|&&len| len == 5).count();
        assert!(
            full as f64 / g.len() as f64 > 0.85,
            "bootstrap should mature: {depths:?}"
        );
        // Residual shallow peers are tolerable (they hold larger
        // subspaces) but must be rare and near-full-depth.
        assert!(depths.iter().all(|&len| len >= 4), "{depths:?}");
    }

    #[test]
    fn replica_groups_nonempty_at_depth() {
        let (g, _, _) = grid(128, 4, 2);
        // 128 peers over 16 leaves: every leaf should have ~8 replicas.
        for leaf in 0..16u32 {
            let count = (0..g.len())
                .filter(|&i| g.path(i) == BitPath::from_bits(leaf, 4))
                .count();
            assert!(count >= 1, "leaf {leaf:04b} unpopulated");
        }
    }

    #[test]
    fn leaf_directory_matches_naive_scan() {
        let (g, mut rng, _) = grid(160, 5, 21);
        let w = g.config().key_bits;
        for _ in 0..300 {
            let key = Key::from_bits(rng.next_u64() as u32 & 0xFFFF);
            let naive: Vec<usize> = (0..g.len())
                .filter(|&i| g.is_live(i) && g.path(i).is_prefix_of_key(key, w))
                .collect();
            assert_eq!(g.responsible_peers(key), naive, "key {:#x}", key.bits());
        }
        g.check_invariants();
        // Occupied paths: all 2^d leaves plus possibly a few shallower
        // stragglers — never more than the whole trie.
        assert!(g.leaf_count() < 1 << (g.config().max_depth + 1));
    }

    #[test]
    fn reference_buckets_stay_bounded() {
        let (g, _, _) = grid(256, 6, 22);
        g.check_invariants(); // includes the per-bucket capacity bound
    }

    #[test]
    fn routing_reaches_responsible_peer() {
        let (g, mut rng, mut net) = grid(128, 5, 3);
        let mut failures = 0;
        for t in 0..200u32 {
            let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
            let origin = rng.index(g.len());
            match g.route(origin, key, None, &mut net, &mut rng) {
                Some((peer, _hops, _)) => {
                    assert!(
                        g.path(peer).is_prefix_of_key(key, g.config().key_bits),
                        "landed on non-responsible peer"
                    );
                }
                None => failures += 1,
            }
        }
        assert!(failures <= 4, "too many routing failures: {failures}/200");
    }

    #[test]
    fn routing_cost_is_logarithmic() {
        let (g, mut rng, mut net) = grid(256, 6, 4);
        let mut total_hops = 0u32;
        let mut resolved = 0u32;
        for t in 0..300u32 {
            let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
            let origin = rng.index(g.len());
            if let Some((_, hops, _)) = g.route(origin, key, None, &mut net, &mut rng) {
                total_hops += hops;
                resolved += 1;
            }
        }
        assert!(resolved > 280);
        let mean = total_hops as f64 / resolved as f64;
        assert!(
            mean <= 6.5,
            "mean hops {mean} should be ≈ depth (6) or less"
        );
    }

    #[test]
    fn insert_then_query_roundtrip() {
        let (mut g, mut rng, mut net) = grid(64, 4, 5);
        let subject = PeerId(42);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let c = Complaint {
            by: PeerId(1),
            about: subject,
            round: 3,
        };
        let receipt = g.insert(0, key, c, None, &mut net, &mut rng);
        assert!(receipt.replicas_reached >= 1, "insert must reach a replica");
        let result = g.query(17, key, None, &mut net, &mut rng);
        assert!(result.is_resolved());
        assert!(
            result.answers.iter().any(|(_, items)| items.contains(&c)),
            "stored complaint must be retrievable"
        );
    }

    #[test]
    fn insert_replicates_to_group() {
        let (mut g, mut rng, mut net) = grid(64, 3, 6);
        let subject = PeerId(9);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let c = Complaint {
            by: PeerId(2),
            about: subject,
            round: 0,
        };
        let receipt = g.insert(1, key, c, None, &mut net, &mut rng);
        // 64 peers over 8 leaves: replica groups of ~8.
        assert!(
            receipt.replicas_reached >= 3,
            "expected multi-replica insert, got {}",
            receipt.replicas_reached
        );
        let holders = (0..g.len())
            .filter(|&i| g.stored(i).any(|x| x == c))
            .count();
        assert_eq!(holders, receipt.replicas_reached);
    }

    #[test]
    fn complaint_compaction_keeps_latest_round() {
        let (mut g, mut rng, mut net) = grid(64, 3, 13);
        let subject = PeerId(7);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let pair = |round| Complaint {
            by: PeerId(2),
            about: subject,
            round,
        };
        // Repeated inserts for the same (by, about) pair never grow the
        // stores; the latest round wins regardless of arrival order.
        for round in [1u64, 5, 3] {
            g.insert(0, key, pair(round), None, &mut net, &mut rng);
        }
        let holders: Vec<usize> = (0..g.len()).filter(|&i| g.store_len(i) > 0).collect();
        assert!(!holders.is_empty());
        for i in holders {
            assert_eq!(g.store_len(i), 1, "store must stay compacted");
            assert_eq!(g.stored(i).next().expect("one item"), pair(5));
        }
        // A different pair is a separate entry.
        g.insert(
            0,
            key,
            Complaint {
                by: PeerId(3),
                about: subject,
                round: 0,
            },
            None,
            &mut net,
            &mut rng,
        );
        assert!((0..g.len()).any(|i| g.store_len(i) == 2));
    }

    /// Store upserts and meeting merges against a `BTreeMap` oracle
    /// keyed by `(by, about)` holding the latest round: after every step
    /// each store lists exactly the oracle's entries, in pair order.
    #[test]
    fn store_upsert_and_merge_match_btreemap_oracle() {
        use std::collections::BTreeMap;
        let (mut g, mut rng, _) = grid(8, 2, 47);
        let mut oracle: Vec<BTreeMap<(PeerId, PeerId), u64>> = vec![BTreeMap::new(); g.len()];
        for step in 0..2000 {
            let a = rng.index(g.len());
            if step % 7 == 6 {
                let mut b = rng.index(g.len() - 1);
                if b >= a {
                    b += 1;
                }
                g.merge_stores(a, b);
                let mut merged = oracle[a].clone();
                for (&pair, &round) in &oracle[b] {
                    let r = merged.entry(pair).or_insert(round);
                    *r = (*r).max(round);
                }
                oracle[a] = merged.clone();
                oracle[b] = merged;
            } else {
                let item = Complaint {
                    by: PeerId(rng.index(6) as u32),
                    about: PeerId(rng.index(6) as u32),
                    round: rng.index(50) as u64,
                };
                g.store_insert(a, item);
                let r = oracle[a].entry((item.by, item.about)).or_insert(item.round);
                *r = (*r).max(item.round);
            }
            for (peer, want) in oracle.iter().enumerate() {
                let want: Vec<Complaint> = want
                    .iter()
                    .map(|(&(by, about), &round)| Complaint { by, about, round })
                    .collect();
                assert_eq!(g.stored(peer).collect::<Vec<_>>(), want, "step {step}");
                assert_eq!(g.store_len(peer), want.len());
            }
        }
    }

    /// Decode sorts each store by pair, so any entry order restores to
    /// the canonical grid, and still rejects a pair stored twice; an
    /// unsorted store in a live arena fails `validate`.
    #[test]
    fn decode_sorts_stores_and_rejects_duplicate_pairs() {
        use trustex_persist::snapshot::{from_bytes, to_bytes};
        let (mut g, _, _) = grid(8, 2, 48);
        let c = |by, round| Complaint {
            by: PeerId(by),
            about: PeerId(1),
            round,
        };
        g.stores[0] = vec![c(2, 5), c(1, 7)];
        assert_eq!(
            g.validate(),
            Err("complaint store not strictly sorted by pair")
        );
        let restored: PGrid = from_bytes(&to_bytes(&g)).expect("unsorted entries restore");
        assert_eq!(restored.stores[0], vec![c(1, 7), c(2, 5)]);
        g.stores[0].reverse();
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(to_bytes(&restored), to_bytes(&g));
        g.stores[0] = vec![c(1, 7), c(1, 9)];
        assert_eq!(
            from_bytes::<PGrid>(&to_bytes(&g)).map(|_| ()),
            Err(PersistError::Invalid {
                context: "duplicate complaint pair in a store",
            })
        );
    }

    #[test]
    fn repair_restores_routing_after_churn() {
        let (mut g, mut rng, mut net) = grid(192, 5, 14);
        // Take down 40% of peers.
        let alive: Vec<bool> = (0..g.len()).map(|_| !rng.chance(0.4)).collect();
        let success = |g: &PGrid, rng: &mut SimRng, net: &mut Network| {
            let mut ok = 0;
            for t in 0..100u32 {
                let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
                let origin = (0..g.len()).find(|&i| alive[i]).expect("someone is up");
                if g.route(origin, key, Some(&alive), net, rng).is_some() {
                    ok += 1;
                }
            }
            ok
        };
        let before = success(&g, &mut rng, &mut net);
        g.repair(&alive, 8 * g.len(), &mut rng);
        let after = success(&g, &mut rng, &mut net);
        assert!(
            after >= before && after >= 95,
            "repair should restore routing: {before} -> {after}"
        );
        g.check_invariants();
    }

    #[test]
    fn repair_executes_exactly_the_requested_meetings() {
        // Regression: the old repair drew both endpoints with
        // replacement and skipped a == b collisions, so fewer than
        // `meetings` meetings actually happened — acute for small live
        // populations, where collisions are frequent.
        let (mut g, mut rng, _) = grid(24, 3, 33);
        let alive: Vec<bool> = (0..g.len()).map(|i| i % 4 != 0).collect();
        let before = g.meetings_held();
        g.repair(&alive, 500, &mut rng);
        assert_eq!(
            g.meetings_held() - before,
            500,
            "repair must deliver its full meeting budget"
        );
        // Tiny live population: collisions would have eaten most of the
        // budget under sampling with replacement.
        let mut tiny_alive = vec![false; g.len()];
        tiny_alive[1] = true;
        tiny_alive[2] = true;
        let before = g.meetings_held();
        g.repair(&tiny_alive, 64, &mut rng);
        assert_eq!(g.meetings_held() - before, 64);
        // Fewer than two live peers: nobody to meet, zero meetings.
        let solo = {
            let mut m = vec![false; g.len()];
            m[0] = true;
            m
        };
        let before = g.meetings_held();
        g.repair(&solo, 64, &mut rng);
        assert_eq!(g.meetings_held(), before);
        // An arena compacted down to nobody repairs to nothing as well.
        for peer in 0..g.len() {
            g.leave(peer);
        }
        g.compact();
        assert!(g.is_empty());
        g.repair(&[], 64, &mut rng);
        assert_eq!(g.meetings_held(), before);
    }

    #[test]
    fn query_with_down_replicas_still_resolves() {
        let (mut g, mut rng, mut net) = grid(96, 3, 7);
        let subject = PeerId(5);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let c = Complaint {
            by: PeerId(3),
            about: subject,
            round: 1,
        };
        g.insert(0, key, c, None, &mut net, &mut rng);
        // Take down 30% of peers (but keep the origin up).
        let mut alive = vec![true; g.len()];
        for (i, up) in alive.iter_mut().enumerate() {
            if i != 4 && rng.chance(0.3) {
                *up = false;
            }
        }
        let mut resolved = 0;
        for _ in 0..20 {
            let r = g.query(4, key, Some(&alive), &mut net, &mut rng);
            if r.is_resolved() {
                resolved += 1;
            }
        }
        assert!(resolved >= 15, "churn resilience too low: {resolved}/20");
    }

    #[test]
    fn down_origin_cannot_route() {
        let (g, mut rng, mut net) = grid(16, 2, 8);
        let key = crate::record::key_for_peer(PeerId(0), g.config().key_bits);
        let mut alive = vec![true; g.len()];
        alive[3] = false;
        assert!(g.route(3, key, Some(&alive), &mut net, &mut rng).is_none());
    }

    #[test]
    fn join_descends_to_depth_and_integrates() {
        let (mut g, mut rng, mut net) = grid(96, 4, 40);
        let n0 = g.len();
        let idx = g.join(&mut rng);
        assert_eq!(idx, n0);
        assert_eq!(g.len(), n0 + 1);
        assert_eq!(g.live_len(), n0 + 1);
        assert!(g.is_live(idx));
        // 96 peers over 16 leaves: the newcomer always finds partners
        // all the way down.
        assert_eq!(g.path(idx).len(), g.config().max_depth);
        g.check_invariants();
        // The newcomer is part of the responsible set for keys under its
        // path, and routing still lands on prefix-owners.
        for t in 200..260u32 {
            let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
            if let Some((peer, _, _)) = g.route(idx, key, None, &mut net, &mut rng) {
                assert!(g.path(peer).is_prefix_of_key(key, g.config().key_bits));
            }
        }
    }

    #[test]
    fn join_handoff_carries_stored_complaints() {
        let (mut g, mut rng, mut net) = grid(64, 3, 41);
        let subject = PeerId(23);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let c = Complaint {
            by: PeerId(4),
            about: subject,
            round: 9,
        };
        let receipt = g.insert(0, key, c, None, &mut net, &mut rng);
        assert!(receipt.replicas_reached >= 1);
        // Every admitted peer that becomes responsible for the key must
        // hold the complaint (replica handoff), so the query round-trip
        // keeps the "every answering replica has it" contract.
        for _ in 0..24 {
            g.join(&mut rng);
        }
        g.check_invariants();
        let result = g.query(5, key, None, &mut net, &mut rng);
        assert!(result.is_resolved());
        for (member, items) in &result.answers {
            assert!(
                items.contains(&c),
                "replica {member} (joined: {}) lost the complaint",
                *member >= 64
            );
        }
    }

    #[test]
    fn leave_removes_peer_from_directory_and_routing() {
        let (mut g, mut rng, mut net) = grid(96, 4, 42);
        let victim = 17;
        g.leave(victim);
        assert!(!g.is_live(victim));
        assert_eq!(g.live_len(), 95);
        assert_eq!(g.len(), 96, "dense indices are never reused");
        g.check_invariants();
        // Departed peers are neither responsible nor routable.
        for t in 0..120u32 {
            let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
            assert!(!g.responsible_peers(key).contains(&victim));
            if let Some((peer, _, _)) = g.route(3, key, None, &mut net, &mut rng) {
                assert_ne!(peer, victim, "routing landed on a departed peer");
            }
        }
        assert!(g
            .route(victim, Key::from_bits(0), None, &mut net, &mut rng)
            .is_none());
        assert_eq!(g.store_len(victim), 0);
    }

    #[test]
    #[should_panic(expected = "already departed")]
    fn double_leave_panics() {
        let (mut g, _, _) = grid(16, 2, 43);
        g.leave(3);
        g.leave(3);
    }

    #[test]
    fn join_leave_interleaving_keeps_invariants() {
        let (mut g, mut rng, _) = grid(48, 3, 44);
        for step in 0..60usize {
            if step % 3 == 0 && g.live_len() > 4 {
                // Leave a random live peer.
                let live: Vec<usize> = (0..g.len()).filter(|&i| g.is_live(i)).collect();
                let pick = live[rng.index(live.len())];
                g.leave(pick);
            } else {
                g.join(&mut rng);
            }
        }
        g.check_invariants();
        assert!(g.live_len() >= 4);
    }

    #[test]
    fn compact_reclaims_departed_slots_and_preserves_behaviour() {
        let (mut g, mut rng, mut net) = grid(96, 4, 45);
        let subject = PeerId(31);
        let key = crate::record::key_for_peer(subject, g.config().key_bits);
        let c = Complaint {
            by: PeerId(6),
            about: subject,
            round: 2,
        };
        g.insert(0, key, c, None, &mut net, &mut rng);
        for victim in [3usize, 17, 17 + 1, 40, 95] {
            g.leave(victim);
        }
        let responsible_before: Vec<BitPath> = g
            .responsible_peers(key)
            .iter()
            .map(|&i| g.path(i))
            .collect();
        let mapping = g.compact();
        // Mapping shape: departed slots are None, survivors are renumbered
        // densely in their old order.
        assert_eq!(mapping.len(), 96);
        assert!([3usize, 17, 18, 40, 95]
            .iter()
            .all(|&v| mapping[v].is_none()));
        let survivors: Vec<u32> = mapping.iter().filter_map(|m| *m).collect();
        assert_eq!(survivors, (0..91).collect::<Vec<u32>>());
        assert_eq!(g.len(), 91, "tombstones reclaimed");
        assert_eq!(g.live_len(), 91);
        g.check_invariants();
        // The same replica group (by path) serves the key, and the stored
        // complaint survived the renumbering.
        let responsible_after: Vec<BitPath> = g
            .responsible_peers(key)
            .iter()
            .map(|&i| g.path(i))
            .collect();
        assert_eq!(responsible_after, responsible_before);
        let result = g.query(1, key, None, &mut net, &mut rng);
        assert!(result.is_resolved());
        assert!(result.answers.iter().any(|(_, items)| items.contains(&c)));
        // Compacting an all-live grid is the identity.
        let idmap = g.compact();
        assert!(idmap.iter().enumerate().all(|(i, m)| *m == Some(i as u32)));
        assert_eq!(g.len(), 91);
    }

    /// The bounded-memory contract under long-running churn: with a
    /// compaction every cycle, the arena never grows past the live
    /// population plus one cycle's admissions — it does NOT accumulate
    /// the all-time join count (which reaches 10× the population here).
    #[test]
    fn long_churn_with_compaction_keeps_arena_bounded() {
        let (mut g, mut rng, mut net) = grid(64, 4, 46);
        let per_cycle = 16usize;
        for _ in 0..40 {
            for _ in 0..per_cycle {
                g.join(&mut rng);
            }
            for _ in 0..per_cycle {
                let live: Vec<usize> = (0..g.len()).filter(|&i| g.is_live(i)).collect();
                g.leave(live[rng.index(live.len())]);
            }
            let mapping = g.compact();
            assert_eq!(g.len(), g.live_len(), "no tombstones survive a compact");
            assert!(
                g.len() <= 64 + per_cycle,
                "arena grew past live + one cycle: {}",
                g.len()
            );
            assert_eq!(mapping.iter().filter(|m| m.is_some()).count(), g.len());
            // The ordinary churn response: a repair round against the
            // freshly compacted (renumbered) arena.
            g.repair(&vec![true; g.len()], g.len(), &mut rng);
        }
        g.check_invariants();
        // 640 joins later the overlay still routes.
        let mut resolved = 0;
        for t in 0..60u32 {
            let key = crate::record::key_for_peer(PeerId(t), g.config().key_bits);
            if g.route(0, key, None, &mut net, &mut rng).is_some() {
                resolved += 1;
            }
        }
        assert!(
            resolved >= 55,
            "routing degraded under churn: {resolved}/60"
        );
    }

    #[test]
    fn message_accounting() {
        let (mut g, mut rng, mut net) = grid(64, 4, 9);
        let key = crate::record::key_for_peer(PeerId(1), g.config().key_bits);
        let c = Complaint {
            by: PeerId(0),
            about: PeerId(1),
            round: 0,
        };
        g.insert(0, key, c, None, &mut net, &mut rng);
        g.query(5, key, None, &mut net, &mut rng);
        assert!(net.total_sent() > 0, "operations must send messages");
        assert!(net.sent("route") > 0 || net.sent("replicate") > 0);
    }

    #[test]
    fn config_for_population() {
        let cfg = PGridConfig::for_population(256, 4);
        assert_eq!(cfg.max_depth, 6); // 256/4 = 64 leaves = depth 6
        let cfg = PGridConfig::for_population(10, 100);
        assert_eq!(cfg.max_depth, 1); // clamped at 1
        let cfg = PGridConfig::for_population(1 << 24, 1);
        assert_eq!(cfg.max_depth, ARENA_DEPTH_LIMIT); // clamped at the arena limit
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn determinism_same_seed() {
        // Same seed ⇒ identical grids down to the reference arena: paths,
        // directory, every bucket's exact entry order and stamps. This
        // pins the in-place stalest-overwrite eviction (bucket order is
        // routing-irrelevant but must stay deterministic).
        let (mut a, mut rng_a, _) = grid(64, 4, 11);
        let (mut b, mut rng_b, _) = grid(64, 4, 11);
        for _ in 0..8 {
            a.join(&mut rng_a);
            b.join(&mut rng_b);
        }
        a.leave(5);
        b.leave(5);
        assert_eq!(a.compact(), b.compact());
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.refs, b.refs);
        assert_eq!(a.ref_len, b.ref_len);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.subtree, b.subtree);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.clock, b.clock);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_build_panics() {
        let mut rng = SimRng::new(0);
        PGrid::build(0, PGridConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "directory-arena limit")]
    fn oversized_depth_panics() {
        let mut rng = SimRng::new(0);
        let cfg = PGridConfig {
            key_bits: 32,
            max_depth: ARENA_DEPTH_LIMIT + 1,
        };
        PGrid::build(4, cfg, &mut rng);
    }

    /// A corrupted arena field is caught by both forms of the validator:
    /// `validate` names the rule, and `check_invariants` still panics
    /// (callers detect broken arenas through the panic). The revived
    /// departed peer passes every directory rule on its own, and only
    /// the live-count rule stops a later `leave` from corrupting the
    /// directory.
    #[test]
    fn corrupted_arena_fails_validate_and_panics_check() {
        type Corrupt = fn(&mut PGrid);
        let corruptions: [(&str, Corrupt); 2] = [
            ("dir_pos out of sync with the directory", |g| {
                let member = g
                    .buckets
                    .iter()
                    .find(|b| b.len() >= 2)
                    .expect("shared path")[0];
                g.dir_pos[member as usize] += 1;
            }),
            ("live count disagrees with the departure flags", |g| {
                g.leave(5);
                g.departed[5] = false;
            }),
        ];
        for (rule, corrupt) in corruptions {
            let (mut g, _, _) = grid(64, 4, 3);
            assert_eq!(g.validate(), Ok(()));
            corrupt(&mut g);
            assert_eq!(g.validate(), Err(rule));
            let panicked = std::panic::catch_unwind(|| g.check_invariants());
            assert!(panicked.is_err(), "check_invariants must panic: {rule}");
        }
    }
}
