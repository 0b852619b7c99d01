//! Per-peer evidence tables.
//!
//! The trust models store their per-subject state in tables indexed by
//! [`PeerId::index`] instead of `HashMap`s: the market simulation assigns
//! dense ids `0..n`, so a direct index replaces a hash-and-probe on every
//! `record_*` and `predict`.
//!
//! Evidence is sparse per evaluator. An agent's model learns only from
//! the agent's own exchanges and the witness reports it receives, so a
//! 10³-agent market writes a few dozen of each model's 10³ slots. The
//! Beta, mean and EWMA models therefore keep their slots in a
//! [`PeerTable`]: a `u32` position per id plus one packed entry per id
//! ever written. A table costs 4 B × (largest id + 1) for the index plus
//! one entry per written id; the population hint (`with_population`,
//! `ensure_capacity`) pre-sizes only the index. The complaint model keeps
//! a plain dense `Vec` grown by `dense_slot`, because its population
//! median ranges over every slot.
//!
//! The contract is *grow-on-write*: writes to ids beyond the current
//! capacity grow the table, and reads of never-written ids observe the
//! cold value without allocating.
//!
//! The index still grows with the largest id ever written: one write
//! about `PeerId(u32::MAX)` asks for 2³² index slots (16 GiB). Ids must
//! be dense, and an id read from outside the program must be bounded
//! before it reaches a write (a restored engine bounds its pending
//! delta; see [`crate::engine`]).

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

/// A per-peer table that stores only the slots that were written.
///
/// Reads behave like a dense `Vec` of length [`PeerTable::len`] padded
/// with the table's cold value: an id that was never written, or that
/// lies beyond the table, reads as cold. Storage is an index of one
/// `u32` per id (0 = never written) plus the written slots, packed in
/// first-write order.
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
    /// `index[id]` is one past the position of `id`'s entry in
    /// `entries`, or 0 when `id` was never written.
    index: Vec<u32>,
    /// The written slots, in first-write order.
    entries: Vec<(PeerId, T)>,
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
            cold,
        }
    }

    /// The dense length: one past the largest id the table was sized
    /// for or written at.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the dense length is 0.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sizes the index for ids `0..n` (never shrinks), at 4 B per id;
    /// slots are still allocated only when written.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize(n, 0);
        }
    }

    /// `peer`'s value, or the cold value when `peer` was never written.
    pub fn get(&self, peer: PeerId) -> T {
        match self.index.get(peer.index()) {
            Some(&pos) if pos != 0 => self.entries[pos as usize - 1].1,
            _ => self.cold,
        }
    }

    /// Mutable access to `peer`'s slot, creating it cold on first write
    /// and growing the index when `peer` lies beyond it.
    pub fn slot_mut(&mut self, peer: PeerId) -> &mut T {
        let id = peer.index();
        if id >= self.index.len() {
            self.index.resize(id + 1, 0);
        }
        let mut pos = self.index[id] as usize;
        if pos == 0 {
            self.entries.push((peer, self.cold));
            pos = self.entries.len();
            self.index[id] = u32::try_from(pos).expect("a peer table holds fewer than 2^32 slots");
        }
        &mut self.entries[pos - 1].1
    }

    /// Resets `peer`'s slot to the cold value. A never-written id stays
    /// unwritten and the table does not grow.
    pub fn forget(&mut self, peer: PeerId) {
        if let Some(&pos) = self.index.get(peer.index()) {
            if pos != 0 {
                self.entries[pos as usize - 1].1 = self.cold;
            }
        }
    }

    /// Every value for ids `0..len`, cold where never written — the
    /// sequence a dense `Vec` of the same length would hold.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.index.iter().map(|&pos| match pos {
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
                *table.slot_mut(peer) = value;
            }
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

    /// Ids come from a small range, so forgotten ids are often written
    /// again; one draw in eight lands far past the reservations.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            (0u8..4, 0u32..24, 0u8..8, 0u64..6).prop_map(|(kind, id, stretch, value)| {
                let id = if stretch == 0 { id + 100 } else { id };
                match kind {
                    0 | 1 => Op::Write(id, value),
                    2 => Op::Forget(id),
                    _ => Op::Reserve(id as usize * 2),
                }
            }),
            0..80,
        )
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
        /// `dense_slot` under random writes (past capacity too),
        /// forgets, reservations and re-writes of forgotten ids — `get`
        /// up to `len + 2`, the dense iteration and row fills of every
        /// length — and the Beta, mean and EWMA models built on it fill
        /// rows bit-identical to per-subject `predict`.
        #[test]
        fn peer_table_matches_dense_vec(ops in ops()) {
            let mut table = PeerTable::new((0.5, 0u64));
            let mut oracle: Vec<Slot> = Vec::new();
            let mut beta = BetaTrust::new();
            let mut mean = MeanTrust::new();
            let mut ewma = EwmaTrust::new(0.3);
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
                for id in 0..len + 2 {
                    let want = oracle.get(id).copied().unwrap_or_default();
                    let got = table.get(PeerId(id as u32));
                    prop_assert_eq!(Slot(got.0, got.1), want);
                }
                let dense: Vec<Slot> = table.iter().map(|(x, n)| Slot(x, n)).collect();
                prop_assert_eq!(&dense, &oracle);
                for row_len in row_lens(len) {
                    let mut row = vec![Slot(-1.0, 9); row_len];
                    table.map_row_into(&mut row, |(x, n)| Slot(x, n));
                    for (id, got) in row.iter().enumerate() {
                        prop_assert_eq!(*got, oracle.get(id).copied().unwrap_or_default());
                    }
                }
            }
            let len = oracle.len();
            assert_model_rows(&beta, len);
            assert_model_rows(&mean, len);
            assert_model_rows(&ewma, len);
        }
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
