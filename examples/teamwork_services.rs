//! "Trades of services in a teamwork environment" (§3): service bundles
//! where some tasks are individually unprofitable, demonstrating how the
//! greedy order sequences negative-surplus tasks first and how much
//! trust a deal needs before it can go ahead.
//!
//! ```text
//! cargo run --release --example teamwork_services
//! ```

use trust_aware_cooperation::core::prelude::*;
use trust_aware_cooperation::core::scheduler::{greedy_order, requirement_profile};
use trust_aware_cooperation::decision::prelude::*;
use trust_aware_cooperation::market::prelude::*;
use trust_aware_cooperation::netsim::rng::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SimRng::new(41);
    let deal = Workload::Teamwork.generate_deal(&mut rng);
    println!("a teamwork service bundle ({} tasks):", deal.goods().len());
    for item in deal.goods().iter() {
        println!(
            "  {}: provider cost {}, client value {}, surplus {}",
            item.id(),
            item.supplier_cost(),
            item.consumer_value(),
            item.surplus()
        );
    }
    println!(
        "price {}, provider profit {}, client surplus {}",
        deal.price(),
        deal.supplier_profit(),
        deal.consumer_surplus()
    );

    // The optimal delivery order and its per-position requirement.
    let order = greedy_order(deal.goods());
    let reqs = requirement_profile(deal.goods(), &order);
    println!("\noptimal service order (requirement = margin needed at that step):");
    for (id, req) in order.iter().zip(&reqs) {
        println!("  {id} -> requires margin {req}");
    }
    println!(
        "minimal total margin: {}",
        min_required_margin(deal.goods())
    );

    // How much mutual trust does this deal need?
    let policy = ExposurePolicy::with_cap(deal.price());
    match min_trust_to_trade(&deal, policy, policy) {
        Some(p) => println!("\nminimal symmetric trust to trade: p_honest ≈ {p:.3}"),
        None => println!("\neven full trust cannot cover this bundle's margin"),
    }

    // Plan with solid mutual trust and execute.
    let inputs = PartyInputs {
        trust_in_opponent: trustex_trust::model::TrustEstimate::new(0.97, 0.9),
        exposure: policy,
    };
    let nx = plan_exchange(&deal, inputs, inputs, PaymentPolicy::Balanced)?;
    println!(
        "negotiated margins: {} (total {})",
        nx.margins,
        nx.margins.total()
    );
    let outcome = execute(&deal, nx.plan.sequence(), &mut Honest, &mut Honest);
    println!(
        "execution: {:?}; provider {}, client {}",
        outcome.status, outcome.supplier_gain, outcome.consumer_gain
    );
    Ok(())
}
