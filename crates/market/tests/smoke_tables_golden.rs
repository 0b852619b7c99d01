//! Cross-commit pins on smoke-scale experiment tables.
//!
//! `report_golden` pins a handful of `MarketReport` bits; this file pins
//! whole tables. Each entry is one CRC-32C over every cell of one
//! experiment's [`Scale::Smoke`] table, taken over the exact value of
//! the cell (`f64` bits for numbers, the bytes for labels), so a change
//! that moves a single cell by one ulp fails here.
//!
//! The pinned experiments are the seed-pinned tables the exchange and
//! decision layers feed: e1 and e3 (required margins from the greedy
//! scheduler), e7 (`schedule` under trust-derived exposure bounds), e4
//! (the market strategies' `plan`) and e14 (the market under fault
//! injection). Wall-clock tables (e2, e12, e13) are not pinned.
//!
//! The constants must never change by accident. A change that moves
//! them on purpose updates them in the same commit and says so in
//! CHANGES.md. On a mismatch the failure message prints the observed
//! values in the same layout as [`GOLDEN`].

use trustex_market::prelude::*;
use trustex_netsim::crc::Crc32;

/// Expected CRC-32C per experiment id.
const GOLDEN: [(&str, u32); 5] = [
    ("e1", 0x0c88d4ee),
    ("e3", 0xf9acfe5b),
    ("e4", 0x5eb9ed29),
    ("e7", 0xc3fa4609),
    ("e14", 0x1ab29acf),
];

/// CRC-32C over the table's cells in row-major order. Each cell is a
/// tag byte followed by its exact value (labels length-prefixed), and
/// each row ends with a separator byte, so a value that moves across a
/// cell or row boundary changes the hashed bytes.
fn table_crc(table: &Table) -> u32 {
    let mut crc = Crc32::new();
    for row in table.rows() {
        for cell in row {
            match cell {
                Cell::Text(s) => {
                    crc.update(&[0]);
                    crc.update(&(s.len() as u64).to_le_bytes());
                    crc.update(s.as_bytes());
                }
                Cell::Int(v) => {
                    crc.update(&[1]);
                    crc.update(&v.to_le_bytes());
                }
                Cell::Num(v) => {
                    crc.update(&[2]);
                    crc.update(&v.to_bits().to_le_bytes());
                }
            }
        }
        crc.update(&[0xFF]);
    }
    crc.finish()
}

#[test]
fn smoke_tables_match_golden() {
    let mut observed = String::new();
    let mut mismatch = false;
    for (id, expected) in GOLDEN {
        let experiment = find_experiment(id).expect("known experiment id");
        let got = table_crc(&(experiment.run)(Scale::Smoke));
        mismatch |= got != expected;
        observed += &format!("    ({id:?}, {got:#010x}),\n");
    }
    assert!(!mismatch, "smoke table cells moved; observed:\n{observed}");
}
