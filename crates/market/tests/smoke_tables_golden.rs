//! Cross-commit pins on smoke-scale experiment tables.
//!
//! `report_golden` pins a handful of `MarketReport` bits; this file pins
//! whole tables. Each entry is one CRC-32C over every cell of one
//! experiment's [`Scale::Smoke`] table, taken over the exact value of
//! the cell (`f64` bits for numbers, the bytes for labels), so a change
//! that moves a single cell by one ulp fails here.
//!
//! Every experiment whose table has no wall-clock cell is pinned (12 of
//! 15): e0 (the reference pipeline, the one table that reads replica
//! votes from the P-Grid store), e1 and e3 (required margins from the
//! greedy scheduler), e4 (the market strategies' `plan`), e5 (trust
//! accuracy), e6 (P-Grid routing and churn), e7 (`schedule` under
//! trust-derived exposure bounds), e8 (the end-to-end marketplace), e9
//! (trust convergence), e10 (ablations), e11 (the adversary zoo) and
//! e14 (the market under fault injection). Wall-clock tables (e2, e12,
//! e13) are not pinned.
//!
//! The constants must never change by accident. A change that moves
//! them on purpose updates them in the same commit and says so in
//! CHANGES.md. On a mismatch the failure message prints the observed
//! values in the same layout as [`GOLDEN`].

use trustex_market::prelude::*;
use trustex_netsim::crc::Crc32;

/// Expected CRC-32C per experiment id.
const GOLDEN: [(&str, u32); 12] = [
    ("e0", 0xf96963fd),
    ("e1", 0x0c88d4ee),
    ("e3", 0xf9acfe5b),
    ("e4", 0x5eb9ed29),
    ("e5", 0x23608520),
    ("e6", 0x86ca752e),
    ("e7", 0xc3fa4609),
    ("e8", 0x33e01210),
    ("e9", 0x2c5f7d88),
    ("e10", 0x7fb5f8e9),
    ("e11", 0x388614a6),
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
