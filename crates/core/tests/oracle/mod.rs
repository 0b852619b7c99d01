//! The subset-DP feasibility oracle and the order-source sweep shared by
//! the scheduler property suites.
//!
//! The DP is exponential in time and memory, so no production path runs
//! it; it stays here as an exact cross-check for branch-and-bound, greedy
//! and Sandholm on small instances (`n ≤ 16` in the proptests, `n = 18`
//! at the boundary probe, and the cap itself).

use trustex_core::goods::{Goods, ItemId};
use trustex_core::money::Money;
use trustex_core::safety::SafetyMargins;
use trustex_core::scheduler::{
    branch_and_bound_order, greedy_order, required_margin_of_order, sandholm_order, TooManyItems,
};

/// Each order source's delivery order under `margins`, `None` where it
/// finds none: the greedy order when its requirement fits, the Sandholm
/// construction, and branch-and-bound.
///
/// # Panics
///
/// Panics beyond `BRANCH_AND_BOUND_MAX_ITEMS` items.
pub fn order_sources(
    goods: &Goods,
    margins: SafetyMargins,
) -> [(&'static str, Option<Vec<ItemId>>); 3] {
    let greedy = greedy_order(goods);
    let greedy_fits = required_margin_of_order(goods, &greedy) <= margins.total();
    [
        ("greedy", greedy_fits.then_some(greedy)),
        ("sandholm", sandholm_order(goods, margins).ok()),
        (
            "bnb",
            branch_and_bound_order(goods, margins).expect("within the bnb cap"),
        ),
    ]
}

/// Largest item count accepted by [`subset_dp_order`].
pub const SUBSET_DP_MAX_ITEMS: usize = 24;

/// Exact feasibility by subset DP, returning a feasible delivery order if
/// one exists (`Ok(None)` when infeasible).
///
/// State: set `T` of still-undelivered items. `T` is reachable iff the
/// full set can be reduced to `T` respecting (†) at every step; an item
/// `x ∈ T` can be delivered from `T` iff `Vs(x) − (s(T) − s(x)) ≤ ε`.
/// The DP explores reachable states breadth-first. Superseded as the
/// primary ground truth by `branch_and_bound_order`; kept as an
/// independent cross-check oracle for small instances.
///
/// # Errors
///
/// [`TooManyItems`] beyond [`SUBSET_DP_MAX_ITEMS`] items.
pub fn subset_dp_order(
    goods: &Goods,
    margins: SafetyMargins,
) -> Result<Option<Vec<ItemId>>, TooManyItems> {
    let n = goods.len();
    if n > SUBSET_DP_MAX_ITEMS {
        return Err(TooManyItems {
            n_items: n,
            limit: SUBSET_DP_MAX_ITEMS,
        });
    }
    let eps = margins.total();
    let ids: Vec<ItemId> = goods.ids().collect();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    // surplus_of[mask] computed incrementally would need 2^n memory anyway
    // for `visited`; keep per-item surpluses and accumulate on the fly.
    let surplus: Vec<Money> = ids.iter().map(|id| goods.item(*id).surplus()).collect();
    let cost: Vec<Money> = ids
        .iter()
        .map(|id| goods.item(*id).supplier_cost())
        .collect();

    let mut visited = vec![false; 1usize << n];
    // predecessor[mask] = item removed to reach `mask` from mask|bit.
    let mut predecessor: Vec<u8> = vec![u8::MAX; 1usize << n];
    let mut frontier: Vec<(u32, Money)> = vec![(full, surplus.iter().copied().sum())];
    visited[full as usize] = true;

    while let Some((mask, s_mask)) = frontier.pop() {
        if mask == 0 {
            continue;
        }
        for i in 0..n {
            let bit = 1u32 << i;
            if mask & bit == 0 {
                continue;
            }
            // Deliver item i from state `mask`.
            if cost[i] - (s_mask - surplus[i]) <= eps {
                let next = mask & !bit;
                if !visited[next as usize] {
                    visited[next as usize] = true;
                    predecessor[next as usize] = i as u8;
                    frontier.push((next, s_mask - surplus[i]));
                }
            }
        }
    }

    if !visited[0] {
        return Ok(None);
    }
    // Reconstruct the order by walking predecessors from the empty set up.
    let mut order_rev: Vec<ItemId> = Vec::with_capacity(n);
    let mut mask = 0u32;
    while mask != full {
        let i = predecessor[mask as usize];
        debug_assert_ne!(i, u8::MAX, "broken predecessor chain");
        order_rev.push(ids[i as usize]);
        mask |= 1u32 << i;
    }
    order_rev.reverse();
    Ok(Some(order_rev))
}
