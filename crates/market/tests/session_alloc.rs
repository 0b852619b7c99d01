//! Exact heap-allocation counts of a market session's draw and plan.
//!
//! Every session draws one deal and plans one exchange, so an extra
//! allocation on either path is paid once per session. The counts are
//! exact and do not drift between runs or machines the way wall-clock
//! time does, so this binary pins them:
//!
//! * `Workload::Ebay.generate_deal` allocates once: the goods set's
//!   item list, built straight from the item draws.
//! * a successful `plan(Strategy::TrustAware, ..)` allocates three
//!   times: the greedy delivery order, the action list, and the
//!   verifier's delivered-item flags. The verified sequence moves into
//!   its result without a copy.
//!
//! Counts come from the shared counting allocator
//! (`tests/support/counting_alloc.rs`), per calling thread.

use trustex_core::policy::PaymentPolicy;
use trustex_market::prelude::*;
use trustex_netsim::rng::SimRng;
use trustex_trust::model::TrustEstimate;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocations;

/// Allocations per `generate_deal(Ebay)`.
const DEAL_ALLOCATIONS: usize = 1;

/// Allocations per successful `plan(TrustAware)`.
const PLAN_ALLOCATIONS: usize = 3;

#[test]
fn ebay_deal_allocates_once() {
    let mut rng = SimRng::new(0xA110C);
    for i in 0..200 {
        let (deal, allocations) = count_allocations(|| Workload::Ebay.generate_deal(&mut rng));
        assert_eq!(
            allocations,
            DEAL_ALLOCATIONS,
            "deal {i} ({} items)",
            deal.goods().len()
        );
    }
}

#[test]
fn trust_aware_plan_allocates_three_times() {
    let mut rng = SimRng::new(0xA110D);
    let trusted = TrustEstimate::new(0.95, 1.0);
    let mut planned = 0;
    for i in 0..200 {
        let deal = Workload::Ebay.generate_deal(&mut rng);
        let (plan, allocations) = count_allocations(|| {
            plan(
                Strategy::TrustAware,
                &deal,
                trusted,
                trusted,
                PaymentPolicy::Lazy,
            )
        });
        if plan.is_ok() {
            planned += 1;
            assert_eq!(
                allocations,
                PLAN_ALLOCATIONS,
                "deal {i} ({} items)",
                deal.goods().len()
            );
        }
    }
    assert!(planned >= 100, "only {planned} of 200 deals planned");
}
