//! Quickstart: schedule and execute one trust-aware exchange.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use trust_aware_cooperation::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A supplier sells three items; both parties know both value
    // functions (supplier cost, consumer value) — the paper's setting.
    let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.5)])?;
    let deal = Deal::with_split_surplus(goods)?;
    println!(
        "deal: {} items, price {}, supplier profit {}, consumer surplus {}",
        deal.goods().len(),
        deal.price(),
        deal.supplier_profit(),
        deal.consumer_surplus()
    );

    // Sandholm's impossibility: no fully safe sequence exists because
    // every item costs the supplier something.
    let needed = min_required_margin(deal.goods());
    println!("fully safe exchange possible: {}", needed.is_zero());
    println!("minimal total margin required: {needed}");

    // Trust-aware relaxation: partners who tolerate a little exposure
    // (backed by trust) can trade. Grant each side half the requirement
    // plus a hair more.
    let margins = SafetyMargins::symmetric(needed.scale(0.5) + Money::from_micros(1))?;
    let plan = schedule(&deal, margins, PaymentPolicy::Lazy)?;
    println!("\nscheduled sequence ({} steps):", plan.sequence().len());
    for (i, action) in plan.sequence().actions().iter().enumerate() {
        println!("  {i:2}. {action}");
    }
    println!(
        "worst exposures along the way: consumer-tempted {} / supplier-tempted {}",
        plan.max_consumer_temptation(),
        plan.max_supplier_temptation()
    );

    // Execute between an honest supplier and an honest consumer.
    let outcome = execute(&deal, plan.sequence(), &mut Honest, &mut Honest);
    println!("\nhonest execution: {:?}", outcome.status);
    println!(
        "gains: supplier {}, consumer {}",
        outcome.supplier_gain, outcome.consumer_gain
    );

    // A schedule-aware rational defector with zero outside stake cannot
    // profit beyond the margin we granted.
    let mut defector = RationalDefector { stake: Money::ZERO };
    let outcome = execute(&deal, plan.sequence(), &mut Honest, &mut defector);
    println!("\nagainst a zero-stake defector: {:?}", outcome.status);
    println!(
        "defector haul {} (bounded by ε_s = {})",
        outcome.consumer_gain - deal.consumer_surplus().min(outcome.consumer_gain),
        margins.eps_supplier()
    );
    Ok(())
}
