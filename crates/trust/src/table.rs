//! Per-peer evidence tables.
//!
//! The trust models store their per-subject state in tables keyed by
//! [`PeerId`] instead of `HashMap`s: the market simulation assigns dense
//! ids `0..n`, and a table reads like a dense `Vec` over those ids.
//!
//! Evidence is sparse per evaluator. An agent's model learns only from
//! the agent's own exchanges and the witness reports it receives, so a
//! 10³-agent market writes a few dozen of each model's 10³ slots. The
//! Beta, mean and EWMA models therefore keep their slots in a
//! [`PeerTable`]: one packed entry per id ever written, found through an
//! open-addressing index that is at most half full. A table of `m`
//! written ids costs `m` entries plus 8–16 B per entry of index,
//! whatever the ids and whatever the population hint
//! (`with_population`, `ensure_capacity`), which only raises the dense
//! length. The complaint model keeps a plain dense `Vec` grown by
//! `dense_slot`, because its population median ranges over every slot.
//!
//! The contract is *grow-on-write*: writes to ids beyond the current
//! dense length raise it, and reads of never-written ids observe the
//! cold value without allocating.
//!
//! The dense length still follows the largest id ever written, and the
//! persisted format walks it. One write about `PeerId(u32::MAX - 1)`
//! costs one entry, but the next encode walks 2³² ids: a 16 GiB position
//! buffer in [`PeerTable::iter`] and at least 16 B of output per id. Ids
//! must be dense, and an id read from outside the program must be
//! bounded before it reaches a write (a restored engine bounds its
//! pending delta; see [`crate::engine`]).

use crate::model::PeerId;

/// Mutable access to `peer`'s slot in a dense table, growing the table
/// with default slots when the id lies beyond the current capacity — the
/// dense replacement for `HashMap::entry(..).or_default()`.
pub(crate) fn dense_slot<T: Default + Clone>(table: &mut Vec<T>, peer: PeerId) -> &mut T {
    let index = peer.index();
    if index >= table.len() {
        table.resize(index + 1, T::default());
    }
    &mut table[index]
}

/// The index length a table allocates on its first write.
const MIN_INDEX: usize = 8;

/// The index slot where the probe for `peer` starts, in an index of
/// `capacity` slots (a power of two, at least 2): the top bits of the id
/// times 2⁶⁴/φ (Fibonacci hashing), so consecutive ids spread out.
fn home(peer: PeerId, capacity: usize) -> usize {
    let hash = u64::from(peer.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hash >> (64 - capacity.trailing_zeros())) as usize
}

/// A per-peer table that stores only the slots that were written.
///
/// Reads behave like a dense `Vec` of length [`PeerTable::len`] padded
/// with the table's cold value: an id that was never written, or that
/// lies beyond the table, reads as cold. Storage is the written slots,
/// packed in first-write order, plus an open-addressing index from id to
/// slot: a power-of-two number of `u32` positions, at most half full,
/// probed linearly from the id's hash and rebuilt from the slots when it
/// would pass half. The dense length is a plain number.
///
/// # Examples
///
/// ```
/// use trustex_trust::model::PeerId;
/// use trustex_trust::table::PeerTable;
///
/// let mut scores = PeerTable::new((0.5, 0u64));
/// scores.ensure_capacity(4);
/// *scores.slot_mut(PeerId(2)) = (0.9, 3);
/// assert_eq!(scores.get(PeerId(2)), (0.9, 3));
/// assert_eq!(scores.get(PeerId(1)), (0.5, 0));
/// assert_eq!(scores.get(PeerId(99)), (0.5, 0));
/// assert_eq!(scores.iter().collect::<Vec<_>>()[1..3], [(0.5, 0), (0.9, 3)]);
/// assert_eq!(scores.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PeerTable<T> {
    /// Open-addressing index over `entries`: each slot holds one past
    /// the position of an entry, or 0 when empty. Empty until the first
    /// write, then a power of two at least twice `entries.len()`.
    index: Vec<u32>,
    /// The written slots, in first-write order.
    entries: Vec<(PeerId, T)>,
    /// The dense length: one past the largest id the table was sized
    /// for or written at.
    len: usize,
    /// What a never-written id reads as.
    cold: T,
}

impl<T: Copy + Default> Default for PeerTable<T> {
    /// An empty table whose cold value is `T::default()`.
    fn default() -> Self {
        PeerTable::new(T::default())
    }
}

impl<T: Copy> PeerTable<T> {
    /// An empty table whose never-written ids read as `cold`.
    pub fn new(cold: T) -> PeerTable<T> {
        PeerTable {
            index: Vec::new(),
            entries: Vec::new(),
            len: 0,
            cold,
        }
    }

    /// The dense length: one past the largest id the table was sized
    /// for or written at.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dense length is 0.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raises the dense length to `n` (never lowers it). Allocates
    /// nothing: slots are allocated only when written.
    pub fn ensure_capacity(&mut self, n: usize) {
        self.len = self.len.max(n);
    }

    /// Finds `peer`: `Ok(position in entries)` when it was written, else
    /// `Err(the empty index slot its probe ended at)`, 0 for an empty
    /// index.
    fn probe(&self, peer: PeerId) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = home(peer, self.index.len());
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                pos if self.entries[pos as usize - 1].0 == peer => return Ok(pos as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the index at `capacity` slots (a power of two, at least
    /// twice the entry count) from every entry, in first-write order.
    fn rebuild_index(&mut self, capacity: usize) {
        let mask = capacity - 1;
        self.index.clear();
        self.index.resize(capacity, 0);
        for (pos, &(peer, _)) in (1..).zip(&self.entries) {
            let mut slot = home(peer, capacity);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = pos;
        }
    }

    /// `peer`'s value, or the cold value when `peer` was never written.
    pub fn get(&self, peer: PeerId) -> T {
        match self.probe(peer) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => self.cold,
        }
    }

    /// Mutable access to `peer`'s slot, creating it cold on first write
    /// and raising the dense length when `peer` lies beyond it.
    pub fn slot_mut(&mut self, peer: PeerId) -> &mut T {
        let mut slot = match self.probe(peer) {
            Ok(pos) => return &mut self.entries[pos].1,
            Err(slot) => slot,
        };
        if 2 * (self.entries.len() + 1) > self.index.len() {
            self.rebuild_index((2 * self.index.len()).max(MIN_INDEX));
            slot = self.probe(peer).expect_err("peer is still unwritten");
        }
        self.entries.push((peer, self.cold));
        self.index[slot] =
            u32::try_from(self.entries.len()).expect("a peer table holds fewer than 2^32 slots");
        self.len = self.len.max(peer.index() + 1);
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Resets `peer`'s slot to the cold value. A never-written id stays
    /// unwritten and the table does not grow.
    pub fn forget(&mut self, peer: PeerId) {
        if let Ok(pos) = self.probe(peer) {
            self.entries[pos].1 = self.cold;
        }
    }

    /// Every value for ids `0..len`, cold where never written — the
    /// sequence a dense `Vec` of the same length would hold.
    ///
    /// The walk is linear: it first scatters the entry positions into
    /// one buffer of a `u32` per id, then reads it in id order, so the
    /// index is never probed. The buffer lives as long as the iterator
    /// and is at most a quarter of what an encode writes for the same
    /// ids.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let mut positions = vec![0u32; self.len];
        for (pos, &(peer, _)) in (1..).zip(&self.entries) {
            positions[peer.index()] = pos;
        }
        positions.into_iter().map(|pos| match pos {
            0 => self.cold,
            pos => self.entries[pos as usize - 1].1,
        })
    }

    /// Fills `out[i]` with `map` of id `i`'s value: the cold image
    /// everywhere, then the written ids below `out.len()`. Bit-identical
    /// to mapping [`PeerTable::get`] per id, for any row length.
    pub fn map_row_into<E: Copy>(&self, out: &mut [E], map: impl Fn(T) -> E) {
        out.fill(map(self.cold));
        for &(peer, value) in &self.entries {
            if let Some(slot) = out.get_mut(peer.index()) {
                *slot = map(value);
            }
        }
    }

    /// Lists `map` of every written slot in `out` (cleared first), in
    /// first-write order, and returns `map` of the cold value, which
    /// every id not listed reads as. Forgotten slots stay listed with
    /// the cold image; ids beyond any row the caller fills are listed
    /// too.
    pub fn map_sparse_into<E>(&self, out: &mut Vec<(PeerId, E)>, map: impl Fn(T) -> E) -> E {
        out.clear();
        out.extend(self.entries.iter().map(|&(peer, value)| (peer, map(value))));
        map(self.cold)
    }

    /// Rebuilds a table of dense length `n` from the values of ids
    /// `0..n` in order (the sequence [`PeerTable::iter`] yields), storing
    /// a slot only for values that `is_cold` rejects. `is_cold` should
    /// compare bits, not `==`, so that a value that merely equals the cold
    /// one (say a `-0.0` count) keeps its slot and re-encodes unchanged.
    pub(crate) fn try_from_dense<E>(
        cold: T,
        n: usize,
        mut next: impl FnMut() -> Result<T, E>,
        is_cold: impl Fn(&T) -> bool,
    ) -> Result<PeerTable<T>, E> {
        let mut table = PeerTable::new(cold);
        table.ensure_capacity(n);
        // Ids end at `u32::MAX`: the values of a longer table stay unread,
        // so the caller's reader fails on them instead of wrapping ids.
        for peer in (0..=u32::MAX).take(n).map(PeerId) {
            let value = next()?;
            if !is_cold(&value) {
                table.entries.push((peer, value));
            }
        }
        // Every id is distinct, so the index is built once, at the end.
        if !table.entries.is_empty() {
            let capacity = (2 * table.entries.len()).next_power_of_two();
            table.rebuild_index(capacity.max(MIN_INDEX));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{EwmaTrust, MeanTrust};
    use crate::beta::BetaTrust;
    use crate::model::{Conduct, TrustEstimate, TrustModel, WitnessReport};
    use proptest::prelude::*;

    /// An oracle slot whose `Default` is the table's cold value, so a
    /// plain `Vec` grown by [`dense_slot`] pads exactly as the table
    /// reads. The cold value is EWMA's, which is not `Default` for the
    /// bare tuple.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Slot(f64, u64);

    impl Default for Slot {
        fn default() -> Self {
            Slot(0.5, 0)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Writes `value` at the id; ids past every reservation grow
        /// the table.
        Write(u32, u64),
        Forget(u32),
        Reserve(usize),
    }

    /// Ids whose probes all start at the last slot of every index of up
    /// to 64 slots (the top six bits of their hash are set), so they
    /// collide with each other and their probes wrap to slot 0.
    fn colliding_ids() -> Vec<u32> {
        (0..)
            .filter(|&id| home(PeerId(id), 64) == 63)
            .take(6)
            .collect()
    }

    /// Ids come from a small range, so forgotten ids are often written
    /// again; one draw in eight lands far past the reservations and one
    /// in eight on an id that shares its home slot. One draw in eight is
    /// a burst of up to 40 writes, so tables cross several index
    /// rebuilds.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let colliding = colliding_ids();
        prop::collection::vec(
            (0u8..8, 0u32..40, 0u8..8, 0u64..6).prop_map(move |(kind, id, stretch, value)| {
                let id = match stretch {
                    0 => id + 100,
                    1 => colliding[id as usize % colliding.len()],
                    _ => id % 24,
                };
                match kind {
                    0..=2 => vec![Op::Write(id, value)],
                    3 | 4 => vec![Op::Forget(id)],
                    5 | 6 => vec![Op::Reserve(id as usize * 2)],
                    _ => (0..id).map(|k| Op::Write(200 + 3 * k, value)).collect(),
                }
            }),
            0..60,
        )
        .prop_map(|ops| ops.into_iter().flatten().collect())
    }

    /// Row lengths shorter than, equal to and longer than `len`.
    fn row_lens(len: usize) -> [usize; 5] {
        [0, len / 2, len.saturating_sub(1), len, len + 3]
    }

    fn assert_model_rows(model: &dyn TrustModel, len: usize) {
        for row_len in row_lens(len) {
            let mut row = vec![TrustEstimate::new(0.0, 1.0); row_len];
            model.predict_row_into(&mut row);
            for (i, got) in row.iter().enumerate() {
                let want = model.predict(PeerId(i as u32));
                assert_eq!(
                    (got.p_honest.to_bits(), got.confidence.to_bits()),
                    (want.p_honest.to_bits(), want.confidence.to_bits()),
                    "{} row[{i}] of len {row_len} (table {len})",
                    model.name()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A `PeerTable` reads exactly like a dense `Vec` grown by
        /// `dense_slot` under random writes (past capacity too, across
        /// index rebuilds, and at ids that share a home slot), forgets,
        /// reservations and re-writes of forgotten ids — `get` up to
        /// `len + 2` and far past it, the dense iteration and row fills
        /// of every length — and the Beta, mean and EWMA models built on
        /// it fill rows bit-identical to per-subject `predict`.
        #[test]
        fn peer_table_matches_dense_vec(ops in ops()) {
            let mut table = PeerTable::new((0.5, 0u64));
            let mut oracle: Vec<Slot> = Vec::new();
            let mut beta = BetaTrust::new();
            let mut mean = MeanTrust::new();
            let mut ewma = EwmaTrust::new();
            for &op in &ops {
                match op {
                    Op::Write(id, value) => {
                        let peer = PeerId(id);
                        let slot = table.slot_mut(peer);
                        slot.0 = value as f64 / 8.0;
                        slot.1 += value;
                        let slot = dense_slot(&mut oracle, peer);
                        slot.0 = value as f64 / 8.0;
                        slot.1 += value;
                        let conduct = Conduct::from_honest(value % 2 == 0);
                        let models: [&mut dyn TrustModel; 3] = [&mut beta, &mut mean, &mut ewma];
                        for model in models {
                            model.record_direct(peer, conduct, value);
                            model.record_witness(WitnessReport {
                                witness: PeerId(id ^ 1),
                                subject: peer,
                                conduct: conduct.inverted(),
                                round: value,
                            });
                        }
                        beta.grade_witness(PeerId(id ^ 1), value > 2, value);
                    }
                    Op::Forget(id) => {
                        table.forget(PeerId(id));
                        if let Some(slot) = oracle.get_mut(id as usize) {
                            *slot = Slot::default();
                        }
                        beta.forget_peer(PeerId(id));
                        mean.forget_peer(PeerId(id));
                        ewma.forget_peer(PeerId(id));
                    }
                    Op::Reserve(n) => {
                        table.ensure_capacity(n);
                        if oracle.len() < n {
                            oracle.resize(n, Slot::default());
                        }
                        beta.ensure_capacity(n);
                        mean.ensure_capacity(n);
                        ewma.ensure_capacity(n);
                    }
                }
                let len = oracle.len();
                prop_assert_eq!(table.len(), len);
                prop_assert!(2 * table.entries.len() <= table.index.len() || table.index.is_empty());
                for id in 0..len + 2 {
                    let want = oracle.get(id).copied().unwrap_or_default();
                    let got = table.get(PeerId(id as u32));
                    prop_assert_eq!(Slot(got.0, got.1), want);
                }
                for far in [len as u32 + 1000, u32::MAX - 1, u32::MAX] {
                    let got = table.get(PeerId(far));
                    prop_assert_eq!(Slot(got.0, got.1), Slot::default());
                    table.forget(PeerId(far));
                }
                prop_assert_eq!(table.len(), len);
                let dense: Vec<Slot> = table.iter().map(|(x, n)| Slot(x, n)).collect();
                prop_assert_eq!(&dense, &oracle);
                for row_len in row_lens(len) {
                    let mut row = vec![Slot(-1.0, 9); row_len];
                    table.map_row_into(&mut row, |(x, n)| Slot(x, n));
                    for (id, got) in row.iter().enumerate() {
                        prop_assert_eq!(*got, oracle.get(id).copied().unwrap_or_default());
                    }
                }
                let mut listed = vec![(PeerId(7), Slot(-1.0, 9))];
                let cold = table.map_sparse_into(&mut listed, |(x, n)| Slot(x, n));
                let mut sparse = vec![cold; len];
                for &(peer, slot) in &listed {
                    sparse[peer.index()] = slot;
                }
                prop_assert_eq!(&sparse, &oracle);
                prop_assert_eq!(listed.len(), table.entries.len());
            }
            let len = oracle.len();
            assert_model_rows(&beta, len);
            assert_model_rows(&mean, len);
            assert_model_rows(&ewma, len);
        }
    }

    /// Writes in a scrambled order, colliding ids among them, keep every
    /// earlier entry readable across each index rebuild from 8 to 2048
    /// slots, and the index stays at most half full.
    #[test]
    fn index_rebuilds_keep_every_entry() {
        let mut table = PeerTable::new(0u64);
        let mut ids = colliding_ids();
        for id in (0..1000).map(|k| (k * 7919) % 1009) {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let mut lengths = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            *table.slot_mut(PeerId(id)) = u64::from(id) + 1;
            if lengths.last() != Some(&table.index.len()) {
                lengths.push(table.index.len());
            }
            assert!(2 * table.entries.len() <= table.index.len());
            for &seen in &ids[..=i] {
                assert_eq!(table.get(PeerId(seen)), u64::from(seen) + 1, "id {seen}");
            }
        }
        assert_eq!(lengths, [8, 16, 32, 64, 128, 256, 512, 1024, 2048]);
    }

    /// One write at the second-largest id allocates a handful of slots,
    /// not an index of 2³² entries; the dense length still covers it.
    #[test]
    fn a_write_at_a_huge_id_allocates_o1() {
        let mut table = PeerTable::new(0u64);
        let far = PeerId(u32::MAX - 1);
        *table.slot_mut(far) = 7;
        assert_eq!(table.len(), u32::MAX as usize);
        assert_eq!(table.entries.len(), 1);
        assert!(table.index.capacity() <= MIN_INDEX);
        assert!(table.entries.capacity() <= MIN_INDEX);
        assert_eq!(table.get(far), 7);
        assert_eq!(table.get(PeerId(u32::MAX)), 0);
        assert_eq!(table.get(PeerId(0)), 0);
        let mut row = [9u64; 4];
        table.map_row_into(&mut row, |v| v);
        assert_eq!(row, [0; 4]);
        table.forget(far);
        assert_eq!(table.get(far), 0);
        assert_eq!(table.len(), u32::MAX as usize);
    }

    #[test]
    fn grows_on_demand_and_keeps_values() {
        let mut table: Vec<u32> = Vec::new();
        *dense_slot(&mut table, PeerId(3)) = 7;
        assert_eq!(table, vec![0, 0, 0, 7]);
        *dense_slot(&mut table, PeerId(0)) = 1;
        assert_eq!(table.len(), 4, "writes below capacity must not grow");
        assert_eq!(table, vec![1, 0, 0, 7]);
    }
}
