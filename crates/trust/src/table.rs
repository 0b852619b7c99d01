//! Dense per-peer evidence tables.
//!
//! All four trust models store their per-subject state in
//! population-sized `Vec`s indexed by [`PeerId::index`] instead of
//! `HashMap`s: the market simulation assigns dense ids `0..n`, so a
//! direct index replaces a hash-and-probe on every `record_*` and
//! `predict`, and `predict_row_into` becomes a single contiguous sweep.
//!
//! The contract is *grow-on-write*: constructors take an optional
//! population hint (`with_population`) that pre-sizes the table, writes
//! to ids beyond the current capacity grow it ([`dense_slot`]), and reads
//! of never-written ids observe the cold default without allocating.
//!
//! A table therefore costs memory in proportion to the largest id ever
//! written, not to the number of peers seen: one write about
//! `PeerId(u32::MAX)` asks for 2³² slots. Ids must be dense, and an id
//! read from outside the program must be bounded before it reaches a
//! write (a restored engine bounds its pending delta; see
//! [`crate::engine`]).

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

#[cfg(test)]
mod tests {
    use super::*;

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
