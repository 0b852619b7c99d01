//! Smoke-runs every registered experiment at reduced scale and sanity
//! checks the qualitative shape each one is supposed to reproduce.

use trust_aware_cooperation::market::experiments::{find, Scale, ALL};
use trust_aware_cooperation::market::table::Cell;

fn num(cell: &Cell) -> f64 {
    match cell {
        Cell::Num(v) => *v,
        Cell::Int(v) => *v as f64,
        Cell::Text(t) => panic!("expected number, got {t}"),
    }
}

#[test]
fn every_experiment_produces_rows_and_renders() {
    for e in &ALL {
        let t = (e.run)(Scale::Smoke);
        assert!(!t.rows().is_empty(), "{}", e.id);
        let rendered = t.render();
        // Title, header and rule lines, then one line per row.
        assert_eq!(
            rendered.lines().count(),
            t.rows().len() + 3,
            "{}: rendered row count",
            e.id
        );
        assert!(rendered.contains(t.title()), "{}: title in render", e.id);
    }
}

#[test]
fn e1_reproduces_the_impossibility_result() {
    let t = (find("e1").unwrap().run)(Scale::Smoke);
    // Every instance family has zero fully safe sequences (column 2) and
    // full feasibility at a whole-item-cost stake happens at least
    // sometimes (column 5 > 0 somewhere).
    assert!(t.rows().iter().all(|r| num(&r[2]) == 0.0));
    assert!(t.rows().iter().any(|r| num(&r[5]) > 0.0));
}

#[test]
fn e4_reproduces_the_crossover_shape() {
    let t = (find("e4").unwrap().run)(Scale::Smoke);
    // In the fully honest population (dishonest = 0), trust-aware honest
    // gains per session approach deliver-first's (within 40%), while
    // safe-only sits at zero.
    let honest_rows: Vec<_> = t.rows().iter().filter(|r| num(&r[0]) == 0.0).collect();
    let gain_of = |label: &str| {
        honest_rows
            .iter()
            .find(|r| matches!(&r[1], Cell::Text(s) if s == label))
            .map(|r| num(&r[3]))
            .expect("row")
    };
    assert_eq!(gain_of("safe-only"), 0.0);
    let aware = gain_of("trust-aware");
    let naive = gain_of("deliver-first");
    assert!(
        aware > 0.6 * naive,
        "honest-population welfare: trust-aware {aware} vs naive {naive}"
    );
}

#[test]
fn e6_reproduces_logarithmic_cost() {
    let t = (find("e6").unwrap().run)(Scale::Smoke);
    let rows = t.rows();
    // Mean hops grow by far less than the 4× peer-count growth.
    let first_hops = num(&rows[0][1]);
    let last_hops = num(&rows[rows.len() - 1][1]);
    assert!(last_hops < first_hops + 3.0);
}

#[test]
fn e9_beta_converges_fastest_or_close() {
    let t = (find("e9").unwrap().run)(Scale::Smoke);
    let last = t.rows().last().unwrap();
    let beta = num(&last[1]);
    // Beta must land in a sane band at the end of the run.
    assert!(beta < 0.5, "beta final MAE {beta}");
}
