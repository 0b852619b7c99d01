//! The game-theoretic extension (the paper's stated future work):
//! solve a scheduled exchange as an extensive-form game and find the
//! minimal reputation stake that makes completion subgame-perfect.
//!
//! ```text
//! cargo run --release --example game_theory
//! ```

use trust_aware_cooperation::core::game::{analyze, min_supporting_stake, Stakes};
use trust_aware_cooperation::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.5), (0.5, 2.0)])?;
    let deal = Deal::with_split_surplus(goods)?;
    println!(
        "deal: {} items, price {}, total surplus {}",
        deal.goods().len(),
        deal.price(),
        deal.goods().total_surplus()
    );

    // Schedule under a modest trust-backed margin.
    let margins = SafetyMargins::symmetric(Money::from_f64(0.75))?;
    let plan = schedule(&deal, margins, PaymentPolicy::Lazy)?;
    let seq = plan.sequence();
    println!("scheduled {} steps under margins {margins}\n", seq.len());

    // Sweep the symmetric outside stake and watch the equilibrium flip.
    println!(
        "{:>10}  {:>10}  {:>22}",
        "stake", "completes?", "first defection"
    );
    for stake_milli in [0i64, 250, 500, 750, 1_000, 1_500] {
        let stake = Money::from_micros(stake_milli * 1_000);
        let eq = analyze(&deal, seq, Stakes::symmetric(stake));
        let defection = match eq.first_defection {
            Some((role, step)) => format!("{role} at step {step}"),
            None => "—".to_owned(),
        };
        println!(
            "{:>10}  {:>10}  {:>22}",
            stake.to_string(),
            eq.completes,
            defection
        );
    }

    // The exact threshold, and its relationship to the margins.
    let stake = min_supporting_stake(&deal, seq).expect("verified sequences are supportable");
    println!(
        "\nminimal symmetric supporting stake: {stake} (granted margin each side: {})",
        margins.eps_supplier()
    );
    println!(
        "theorem: the stake never exceeds the margin — the scheduler's ε is exactly\n\
         the reputation collateral the exchange consumes."
    );

    // Zero stakes: backward induction unravels the whole trade.
    let eq = analyze(&deal, seq, Stakes::ZERO);
    println!(
        "\nwith zero stakes: completes = {}, equilibrium welfare = {} (deal surplus {})",
        eq.completes,
        eq.supplier_value + eq.consumer_value,
        deal.goods().total_surplus()
    );
    Ok(())
}
