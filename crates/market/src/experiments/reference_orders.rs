//! The reference order sources E2 times against the greedy scheduler:
//! the paper's stepwise construction and an exact solver. They are
//! measuring instruments, not schedulers the system runs — the market,
//! the decision layer and the examples plan through
//! [`trustex_core::scheduler::schedule`] — so they live next to the one
//! experiment that runs them.
//!
//! * [`sandholm_order`] — the step-by-step construction in the style of
//!   the algorithm the paper cites: build the order from the **last**
//!   delivery backwards, at each step taking the best placeable item.
//!   One placement-order sort walked behind a budget cursor replaces the
//!   quadratic per-step scan, giving `O(n log n)` with output
//!   bit-identical to [`sandholm_order_scan`], the original `O(n²)` scan
//!   kept as a test oracle and as the baseline the scaling experiment
//!   times.
//! * [`branch_and_bound_order`] — exact feasibility by depth-first
//!   search over delivery suffixes with surplus-based pruning, failed-
//!   state memoisation and a greedy completion bound; the ground truth
//!   for optimality claims, practical to `n ≈ 30` (and far beyond on
//!   feasible instances, where the completion bound fires at the root).
//!   It refuses deals above `BRANCH_AND_BOUND_MAX_ITEMS` with
//!   [`TooManyItems`].
//!
//! Both build on the requirement (†) of `trustex_core::scheduler`'s
//! module docs: an order is feasible at total margin `ε` iff every
//! position `j` has `Vs(x_j) − Σ_{i>j} s(x_i) ≤ ε`.

use std::cmp::Ordering;
use std::collections::HashSet;
use trustex_core::goods::{Goods, Item, ItemId};
use trustex_core::money::Money;
use trustex_core::safety::SafetyMargins;
use trustex_core::scheduler::{greedy_order, min_required_margin, ScheduleError};

/// Largest item count accepted by [`branch_and_bound_order`].
///
/// The search is exact, and therefore worst-case exponential in the
/// number of *negative-surplus* items (rotation dominance makes
/// non-negative-surplus items forced moves): an adversarial all-negative
/// instance probed just under its exact boundary really does visit
/// `~2^n` masks. The cap keeps that accidental worst case bounded,
/// while still reaching the `n = 30` the differential suite certifies.
const BRANCH_AND_BOUND_MAX_ITEMS: usize = 30;

/// [`branch_and_bound_order`] refused an instance beyond its size cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TooManyItems {
    /// Items in the deal.
    pub n_items: usize,
    /// The hard limit.
    pub limit: usize,
}

/// The Sandholm *placement* order (the reverse of the emitted delivery
/// order): positive-surplus items by ascending `Vs` (they enlarge the
/// collateral for everything placed earlier), then non-positive-surplus
/// items by descending `Vc`; ties by id, matching the quadratic scan's
/// selection rule exactly.
fn sandholm_placement_cmp(a: &Item, b: &Item) -> Ordering {
    match (a.surplus().is_positive(), b.surplus().is_positive()) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (true, true) => a
            .supplier_cost()
            .cmp(&b.supplier_cost())
            .then(a.id().cmp(&b.id())),
        (false, false) => b
            .consumer_value()
            .cmp(&a.consumer_value())
            .then(a.id().cmp(&b.id())),
    }
}

/// Paper-style stepwise construction: chooses deliveries from the last
/// position backwards. An item `x` is *placeable* at the current last
/// free position when `Vs(x) ≤ ε + s(W)`, `W` being the set already
/// placed after it. Among placeable items the rule prefers
/// positive-surplus items with minimal `Vs` (they enlarge the collateral
/// for everything placed earlier); once no positive-surplus item remains,
/// negative-surplus items with maximal `Vc`.
///
/// This is the `O(n log n)` form: one placement-order sort walked once
/// behind a budget cursor. Output — success order, error, and error
/// payload — is bit-identical to [`sandholm_order_scan`], the original
/// `O(n²)` formulation kept as a test oracle.
///
/// The placement sort reversed is the greedy delivery sort with its id
/// tie-break reversed, and the budget walk fails exactly when the greedy
/// order's requirement exceeds `ε`; the tests pin both.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when at some step nothing is placeable;
/// `required` is [`min_required_margin`].
pub(super) fn sandholm_order(
    goods: &Goods,
    margins: SafetyMargins,
) -> Result<Vec<ItemId>, ScheduleError> {
    let eps = margins.total();
    // The quadratic scan provably interleaves nothing: while any
    // positive-surplus item remains it either places the placeable
    // positive with minimal (Vs, id) or fails (an unplaceable
    // minimal-Vs positive means no positive is placeable, and placing
    // a negative first shrinks the budget and can never help); only
    // then come negatives by maximal (Vc, −id). So the whole
    // construction is the placement-order sort walked once behind a
    // budget cursor. The budget grows monotonically through the
    // positive phase and shrinks monotonically through the negative
    // phase, so the first unplaced index is always the scan's pick,
    // and a blocked head item can never become placeable later —
    // failure here is exactly the scan's eventual failure.
    let mut order: Vec<ItemId> = goods.ids().collect();
    order.sort_unstable_by(|a, b| sandholm_placement_cmp(goods.item(*a), goods.item(*b)));
    let mut budget = eps;
    for &id in &order {
        let item = goods.item(id);
        if item.supplier_cost() > budget {
            return Err(ScheduleError::Infeasible {
                required: min_required_margin(goods),
                available: eps,
            });
        }
        budget += item.surplus();
    }
    order.reverse();
    Ok(order)
}

/// The original `O(n²)` per-step scan formulation of [`sandholm_order`],
/// kept verbatim as the reference oracle the indexed version is pinned
/// against — the complexity the paper quotes, and the baseline the E2
/// scaling experiment measures.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when at some step nothing is placeable.
pub(super) fn sandholm_order_scan(
    goods: &Goods,
    margins: SafetyMargins,
) -> Result<Vec<ItemId>, ScheduleError> {
    let eps = margins.total();
    let mut remaining: Vec<ItemId> = goods.ids().collect();
    let mut placed_surplus = Money::ZERO; // s(W)
    let mut reversed: Vec<ItemId> = Vec::with_capacity(goods.len());

    while !remaining.is_empty() {
        let budget = eps + placed_surplus;
        // Scan remaining items for the best placeable candidate: O(n) per
        // step, O(n²) total.
        let mut best: Option<(usize, ItemId)> = None;
        let mut any_positive_left = false;
        for (pos, &id) in remaining.iter().enumerate() {
            let item = goods.item(id);
            if item.surplus().is_positive() {
                any_positive_left = true;
            }
            if item.supplier_cost() > budget {
                continue; // not placeable
            }
            let better = match best {
                None => true,
                Some((_, cur)) => {
                    let c = goods.item(cur);
                    let cand_pos_surplus = item.surplus().is_positive();
                    let cur_pos_surplus = c.surplus().is_positive();
                    match (cand_pos_surplus, cur_pos_surplus) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => {
                            // Prefer smaller Vs (keeps cheap tail deliveries).
                            (item.supplier_cost(), id) < (c.supplier_cost(), cur)
                        }
                        (false, false) => {
                            // Prefer larger Vc (big-value items late).
                            (item.consumer_value(), std::cmp::Reverse(id))
                                > (c.consumer_value(), std::cmp::Reverse(cur))
                        }
                    }
                }
            };
            if better {
                best = Some((pos, id));
            }
        }
        // A positive-surplus item must be placed while positive-surplus
        // items remain: placing a negative-surplus item first shrinks the
        // budget and can never help. If the best candidate is negative-
        // surplus while positives are still pending, the positives are
        // unplaceable now and forever.
        match best {
            Some((pos, id)) if !any_positive_left || goods.item(id).surplus().is_positive() => {
                placed_surplus += goods.item(id).surplus();
                reversed.push(id);
                remaining.swap_remove(pos);
            }
            _ => {
                return Err(ScheduleError::Infeasible {
                    required: min_required_margin(goods),
                    available: eps,
                });
            }
        }
    }
    reversed.reverse();
    Ok(reversed)
}

/// Cheap multiplicative hasher for the `u64` state masks of the
/// branch-and-bound memo — the memo lookup sits on the hottest search
/// path and needs no DoS resistance.
#[derive(Default)]
struct MaskHasher(u64);

impl std::hash::Hasher for MaskHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

type MaskSet = HashSet<u64, std::hash::BuildHasherDefault<MaskHasher>>;

/// Depth-first branch-and-bound search state for
/// [`branch_and_bound_order`].
struct BnbSearch<'a> {
    ids: &'a [ItemId],
    cost: &'a [Money],
    surplus: &'a [Money],
    /// Indexes of items with `s ≥ 0`, sorted by ascending `(Vs, id)` —
    /// the forced-move queue.
    gainers: &'a [usize],
    /// Indexes of items with `s < 0`, sorted by descending `(Vc, −id)` —
    /// the branch heuristic (try big-value items last-in-delivery first).
    drainers: &'a [usize],
    /// All indexes in global greedy delivery order. The greedy order of
    /// *any* subset is a subsequence of this, so the completion bound is
    /// a sortless masked pass.
    greedy_idx: &'a [usize],
    eps: Money,
    total_surplus: Money,
    /// Masks proven to admit no completion (the budget is a function of
    /// the mask alone, so failure memoisation is sound).
    failed: MaskSet,
    /// Items placed so far, backwards: `chosen[0]` is the last delivery.
    chosen: Vec<usize>,
    /// Greedy completion (in delivery order) recorded on early success.
    completion: Vec<ItemId>,
}

impl BnbSearch<'_> {
    /// Can `remaining` be fully placed, given that everything outside it
    /// is already placed at later positions? `rem_surplus = s(remaining)`
    /// and `pos_surplus = Σ_{x ∈ remaining} max(s(x), 0)` are threaded to
    /// keep each node O(k) before branching.
    fn solve(&mut self, remaining: u64, rem_surplus: Money, pos_surplus: Money) -> bool {
        if remaining == 0 {
            return true;
        }
        if self.failed.contains(&remaining) {
            return false;
        }
        // Budget for the current last free position: ε + s(placed).
        let budget = self.eps + (self.total_surplus - rem_surplus);

        // Dominance (rotation lemma): if a placeable item `a` with
        // s(a) ≥ 0 exists and *any* completion σ of this state exists,
        // then moving `a` to the front of σ is also a completion — `a`'s
        // own constraint is exactly placeability, and every other item's
        // collateral either keeps its placed-after set or gains `a`
        // (+s(a) ≥ 0). So such an item can be placed as a forced move,
        // no branching. The cheapest-to-place candidate is the minimal-
        // (Vs, id) remaining gainer: if even it is blocked, none is —
        // and if gainers remain while only budget-shrinking drainers are
        // placeable, no gainer can ever become placeable again, so the
        // state is dead. (An exchange argument, not an appeal to greedy
        // optimality: the oracle stays independent of the code under
        // differential test.)
        let mut gainers_left = false;
        for &i in self.gainers {
            if remaining & (1u64 << i) == 0 {
                continue;
            }
            gainers_left = true;
            if self.cost[i] <= budget {
                self.chosen.push(i);
                if self.solve(
                    remaining & !(1u64 << i),
                    rem_surplus - self.surplus[i],
                    pos_surplus - self.surplus[i],
                ) {
                    return true;
                }
                self.chosen.pop();
            }
            break; // minimal-(Vs, id) gainer blocked or subtree failed
        }
        if gainers_left {
            self.failed.insert(remaining);
            return false;
        }

        // Drainers only from here (pos_surplus == 0): the budget can only
        // shrink. Surplus-based pruning: wherever item x ends up, the
        // items delivered after it contribute at most the positive
        // surpluses of the other remaining items (none, here) on top of
        // s(placed) — any remaining item priced above that ceiling kills
        // the state. Sound and independent of greedy optimality.
        let mut bits = remaining;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let own_pos = self.surplus[i].max(Money::ZERO);
            if self.cost[i] > budget + (pos_surplus - own_pos) {
                self.failed.insert(remaining);
                return false;
            }
        }

        // Greedy completion bound: if the greedy order of `remaining`
        // fits the budget, that concrete order *is* a valid completion —
        // no optimality assumption, the profile check verifies it
        // outright. On feasible instances this fires at the root.
        if self.greedy_completion_fits(remaining, budget) {
            return true;
        }

        for &i in self.drainers {
            let bit = 1u64 << i;
            if remaining & bit == 0 || self.cost[i] > budget {
                continue;
            }
            self.chosen.push(i);
            if self.solve(remaining & !bit, rem_surplus - self.surplus[i], pos_surplus) {
                return true;
            }
            self.chosen.pop();
        }
        self.failed.insert(remaining);
        false
    }

    /// Checks whether the greedy order of `remaining` keeps every
    /// position's requirement within `budget`; records it as the
    /// completion when it does.
    fn greedy_completion_fits(&mut self, remaining: u64, budget: Money) -> bool {
        let mut suffix = Money::ZERO;
        let mut worst = Money::MIN;
        for &i in self.greedy_idx.iter().rev() {
            if remaining & (1u64 << i) == 0 {
                continue;
            }
            worst = worst.max(self.cost[i] - suffix);
            suffix += self.surplus[i];
        }
        if worst <= budget {
            self.completion.clear();
            self.completion.extend(
                self.greedy_idx
                    .iter()
                    .filter(|&&i| remaining & (1u64 << i) != 0)
                    .map(|&i| self.ids[i]),
            );
            true
        } else {
            false
        }
    }
}

/// Exact feasibility by branch-and-bound, returning a feasible delivery
/// order if one exists (`Ok(None)` when infeasible).
///
/// The search mirrors the stepwise construction: it assigns deliveries
/// from the **last** position backwards (so each node's constraint is
/// just `Vs(x) ≤ ε + s(placed)`). Four devices make it exact *and* fast:
///
/// * **rotation dominance** — a placeable item with non-negative surplus
///   can always be moved to the front of any completion (every other
///   item's collateral only gains), so such items are forced moves and
///   branching happens only among the budget-shrinking negative-surplus
///   items — `2^#negatives` worst-case states instead of `2^n`;
/// * **surplus-based pruning** — a node is cut when some remaining item
///   could not satisfy (†) even if every other remaining item with
///   positive surplus were delivered after it;
/// * **greedy completion bound** — when the greedy order of the
///   remaining set fits the node's budget, that order is spliced in as
///   the completion (its requirement profile is checked directly, so no
///   optimality assumption leaks into the oracle); on feasible instances
///   this fires at the root;
/// * **failed-state memoisation** — a mask's budget is a function of the
///   mask, so a subtree that failed once can never succeed; the search
///   therefore visits at most the subset-DP state count, and in practice
///   orders of magnitude fewer.
///
/// Infeasibility verdicts rest on exchange arguments and exhaustive
/// search, never on the greedy comparator under differential test, which
/// is what lets the suite use this oracle to *prove* the paper's claim
/// that the greedy margin is the exact minimum at sizes an exhaustive
/// subset DP cannot reach (`n ≈ 30`; the suites' subset-DP oracle stops
/// at 24 items).
///
/// # Errors
///
/// [`TooManyItems`] beyond `BRANCH_AND_BOUND_MAX_ITEMS` items.
pub(super) fn branch_and_bound_order(
    goods: &Goods,
    margins: SafetyMargins,
) -> Result<Option<Vec<ItemId>>, TooManyItems> {
    let n = goods.len();
    if n > BRANCH_AND_BOUND_MAX_ITEMS {
        return Err(TooManyItems {
            n_items: n,
            limit: BRANCH_AND_BOUND_MAX_ITEMS,
        });
    }
    let ids: Vec<ItemId> = goods.ids().collect();
    let cost: Vec<Money> = ids
        .iter()
        .map(|id| goods.item(*id).supplier_cost())
        .collect();
    let surplus: Vec<Money> = ids.iter().map(|id| goods.item(*id).surplus()).collect();
    let mut gainers: Vec<usize> = (0..n).filter(|&i| !surplus[i].is_negative()).collect();
    gainers.sort_unstable_by_key(|&i| (cost[i], ids[i]));
    let mut drainers: Vec<usize> = (0..n).filter(|&i| surplus[i].is_negative()).collect();
    drainers.sort_unstable_by(|&a, &b| {
        goods
            .item(ids[b])
            .consumer_value()
            .cmp(&goods.item(ids[a]).consumer_value())
            .then(ids[a].cmp(&ids[b]))
    });
    // Item ids are the dense indexes, so the greedy order is the index
    // order the completion bound walks.
    let greedy_idx: Vec<usize> = greedy_order(goods).iter().map(|id| id.index()).collect();

    let total_surplus: Money = surplus.iter().copied().sum();
    let pos_surplus: Money = surplus.iter().copied().filter(|s| s.is_positive()).sum();
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };

    let mut search = BnbSearch {
        ids: &ids,
        cost: &cost,
        surplus: &surplus,
        gainers: &gainers,
        drainers: &drainers,
        greedy_idx: &greedy_idx,
        eps: margins.total(),
        total_surplus,
        failed: MaskSet::default(),
        chosen: Vec::with_capacity(n),
        completion: Vec::new(),
    };
    if !search.solve(full, total_surplus, pos_surplus) {
        return Ok(None);
    }
    // Delivery order: the greedy completion covers the earliest
    // positions, then the chosen stack unwinds backwards.
    let mut order = search.completion;
    order.extend(search.chosen.iter().rev().map(|&i| ids[i]));
    debug_assert_eq!(order.len(), n);
    Ok(Some(order))
}

#[cfg(test)]
#[path = "../../../../tests/support/subset_dp.rs"]
mod subset_dp;

#[cfg(test)]
mod tests {
    use super::subset_dp::subset_dp_order;
    use super::*;
    use proptest::prelude::*;
    use trustex_core::deal::Deal;
    use trustex_core::policy::PaymentPolicy;
    use trustex_core::scheduler::{feasible, interleave_payments, required_margin_of_order};
    use trustex_core::sequence::{verify, Action};

    fn goods(pairs: &[(f64, f64)]) -> Goods {
        Goods::from_f64_pairs(pairs).unwrap()
    }

    fn margins(eps: f64) -> SafetyMargins {
        SafetyMargins::symmetric(Money::from_f64(eps / 2.0)).unwrap()
    }

    /// Total-margin helper.
    fn at(total: Money) -> SafetyMargins {
        SafetyMargins::new(total, Money::ZERO).expect("non-negative")
    }

    /// Goods of `1..=max_n` items with costs/values in 0..=10 units.
    fn goods_strategy(max_n: usize) -> impl Strategy<Value = Goods> {
        prop::collection::vec((0i64..=10_000_000, 0i64..=10_000_000), 1..=max_n).prop_map(|pairs| {
            Goods::new(
                pairs
                    .into_iter()
                    .map(|(c, v)| (Money::from_micros(c), Money::from_micros(v))),
            )
            .expect("non-empty, non-negative")
        })
    }

    fn margins_strategy() -> impl Strategy<Value = SafetyMargins> {
        (0i64..=8_000_000, 0i64..=8_000_000).prop_map(|(a, b)| {
            SafetyMargins::new(Money::from_micros(a), Money::from_micros(b)).expect("non-negative")
        })
    }

    /// A valid price for the goods: Vs(G) + t · (Vc(G) − Vs(G)).
    fn deal_for(goods: Goods, t: f64) -> Option<Deal> {
        let lo = goods.total_supplier_cost();
        let hi = goods.total_consumer_value();
        if hi < lo {
            return None; // negative-total-surplus set: no rational price
        }
        let price = lo + (hi - lo).scale(t);
        Deal::new(goods, price).ok()
    }

    /// The reference sources' delivery orders under `margins`, `None`
    /// where a source finds none.
    fn order_sources(
        goods: &Goods,
        margins: SafetyMargins,
    ) -> [(&'static str, Option<Vec<ItemId>>); 2] {
        [
            ("sandholm", sandholm_order(goods, margins).ok()),
            (
                "bnb",
                branch_and_bound_order(goods, margins).expect("within the bnb cap"),
            ),
        ]
    }

    /// The greedy sort key without its id tie-break: items with equal
    /// keys are tied in the greedy order.
    fn greedy_key(item: &Item) -> (bool, Money) {
        if item.surplus().is_positive() {
            (true, item.supplier_cost())
        } else {
            (false, item.consumer_value())
        }
    }

    /// The greedy order with its id tie-break reversed: each run of tied
    /// items reversed in place.
    fn greedy_order_ties_reversed(goods: &Goods) -> Vec<ItemId> {
        let mut order = greedy_order(goods);
        order
            .chunk_by_mut(|a, b| greedy_key(goods.item(*a)) == greedy_key(goods.item(*b)))
            .for_each(<[ItemId]>::reverse);
        order
    }

    /// Deterministic uniform-valuation generator for the fixed-size suites.
    fn random_goods(n: usize, seed: u64) -> Goods {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as i64 % 10_000_001
        };
        Goods::new((0..n).map(|_| (Money::from_micros(next()), Money::from_micros(next()))))
            .expect("non-empty")
    }

    /// Deterministic workload-shaped generator: `Vc = Vs × markup` with
    /// markup in `[0.7, 2.1]`, matching the paper-style curves where most —
    /// but not all — items carry positive surplus.
    fn random_markup_goods(n: usize, seed: u64) -> Goods {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        Goods::new((0..n).map(|_| {
            let cost = next() * 10.0;
            let markup = 0.7 + 1.4 * next();
            (Money::from_f64(cost), Money::from_f64(cost * markup))
        }))
        .expect("non-empty")
    }

    // --- small fixed instances -------------------------------------------

    #[test]
    fn all_algorithms_agree_on_feasibility_small() {
        // Deterministic pseudo-random instances, n ≤ 6, several margins.
        let mut x = 2u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..60 {
            let n = 1 + (trial % 6);
            let pairs: Vec<(f64, f64)> = (0..n).map(|_| (next() * 8.0, next() * 8.0)).collect();
            let g = goods(&pairs);
            for eps_units in [0.0, 0.5, 1.5, 4.0, 10.0] {
                let m = margins(eps_units);
                let greedy_ok = feasible(&g, m);
                let sandholm_ok = sandholm_order(&g, m).is_ok();
                let bnb_ok = branch_and_bound_order(&g, m).unwrap().is_some();
                assert_eq!(
                    greedy_ok, bnb_ok,
                    "greedy vs bnb: {pairs:?} eps={eps_units}"
                );
                assert_eq!(
                    sandholm_ok, bnb_ok,
                    "sandholm vs bnb: {pairs:?} eps={eps_units}"
                );
            }
        }
    }

    #[test]
    fn indexed_sandholm_matches_scan_exactly() {
        let mut x = 7u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..80 {
            let n = 1 + (trial % 8);
            let pairs: Vec<(f64, f64)> = (0..n).map(|_| (next() * 8.0, next() * 8.0)).collect();
            let g = goods(&pairs);
            for eps_units in [0.0, 0.5, 1.5, 4.0, 10.0] {
                let m = margins(eps_units);
                assert_eq!(
                    sandholm_order(&g, m),
                    sandholm_order_scan(&g, m),
                    "{pairs:?} eps={eps_units}"
                );
            }
        }
    }

    #[test]
    fn schedulers_produce_verified_sequences() {
        let g = goods(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0), (0.5, 2.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(4.0);
        let g = deal.goods();
        let orders = [
            ("sandholm", sandholm_order(g, m).unwrap()),
            ("bnb", branch_and_bound_order(g, m).unwrap().unwrap()),
        ];
        for (source, order) in orders {
            for policy in PaymentPolicy::ALL {
                let seq = interleave_payments(&deal, m, &order, policy)
                    .unwrap_or_else(|e| panic!("{source}/{policy:?}: {e}"));
                let v =
                    verify(&deal, m, seq).unwrap_or_else(|e| panic!("{source}/{policy:?}: {e}"));
                assert_eq!(v.sequence().delivery_count(), 4, "{source}/{policy:?}");
                let paid: Money = v
                    .sequence()
                    .actions()
                    .iter()
                    .map(|a| match a {
                        Action::Pay(m) => *m,
                        Action::Deliver(_) => Money::ZERO,
                    })
                    .sum();
                assert_eq!(paid, deal.price(), "{source}/{policy:?}");
            }
        }
    }

    #[test]
    fn exact_margin_schedules() {
        let g = goods(&[(3.0, 10.0), (2.0, 8.0)]);
        let req = min_required_margin(&g);
        let m = SafetyMargins::new(req, Money::ZERO).unwrap();
        assert!(sandholm_order(&g, m).is_ok());
        assert!(branch_and_bound_order(&g, m).unwrap().is_some());
    }

    #[test]
    fn branch_and_bound_rejects_beyond_cap() {
        let over = BRANCH_AND_BOUND_MAX_ITEMS + 1;
        let pairs: Vec<(f64, f64)> = (0..over).map(|i| (1.0, 2.0 + i as f64)).collect();
        let g = goods(&pairs);
        let err = branch_and_bound_order(&g, margins(1000.0)).unwrap_err();
        assert_eq!(
            err,
            TooManyItems {
                n_items: over,
                limit: BRANCH_AND_BOUND_MAX_ITEMS
            }
        );
        // At the cap itself a wide margin solves instantly via the
        // greedy completion bound at the root.
        let pairs: Vec<(f64, f64)> = (0..BRANCH_AND_BOUND_MAX_ITEMS)
            .map(|i| (1.0, 2.0 + i as f64))
            .collect();
        let g = goods(&pairs);
        let order = branch_and_bound_order(&g, margins(1000.0))
            .unwrap()
            .unwrap();
        assert_eq!(order.len(), BRANCH_AND_BOUND_MAX_ITEMS);
    }

    #[test]
    fn branch_and_bound_order_respects_margin() {
        let g = goods(&[(2.0, 6.0), (5.0, 6.0), (3.0, 1.0)]);
        let req = min_required_margin(&g);
        let m = SafetyMargins::new(req, Money::ZERO).unwrap();
        let order = branch_and_bound_order(&g, m).unwrap().expect("feasible");
        assert!(required_margin_of_order(&g, &order) <= req);
        if req > Money::ZERO {
            let below = SafetyMargins::new(req - Money::from_micros(1), Money::ZERO).unwrap();
            assert!(branch_and_bound_order(&g, below).unwrap().is_none());
        }
    }

    #[test]
    fn sandholm_is_margin_sensitive() {
        let g = goods(&[(2.0, 6.0), (5.0, 6.0)]);
        // min margin: deliver Vs=2 last? req profile for [1(Vs5), 0(Vs2)]:
        // req(x1)=5 - s(x0)=5-4=1; req(x0)=2 ⇒ margin 2. Order [0,1]:
        // req(x0)=2-1=1; req(x1)=5 ⇒ 5. Optimal = 2.
        assert_eq!(min_required_margin(&g), Money::from_units(2));
        assert!(sandholm_order(&g, margins(2.0)).is_ok());
        assert!(sandholm_order(&g, margins(1.9)).is_err());
    }

    // --- differential properties against the subset DP and greedy -------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sandholm_agrees_with_subset_dp(goods in goods_strategy(8), margins in margins_strategy()) {
            let sandholm = sandholm_order(&goods, margins);
            let dp = subset_dp_order(&goods, margins);
            prop_assert_eq!(sandholm.is_ok(), dp.is_some());
            if let Ok(order) = sandholm {
                // The produced order itself satisfies the margin.
                prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
            }
        }

        /// Every reference source's delivery order, under every payment
        /// policy, yields a sequence that passes the independent verifier,
        /// and its realized exposure stays within the margins.
        #[test]
        fn scheduled_sequences_verify_and_respect_exposure(
            goods in goods_strategy(8),
            margins in margins_strategy(),
            t in 0.0f64..=1.0,
        ) {
            prop_assume!(feasible(&goods, margins));
            let Some(deal) = deal_for(goods, t) else { return Ok(()); };
            for (source, order) in order_sources(deal.goods(), margins) {
                let order = order.expect("feasible instance must yield an order");
                for policy in PaymentPolicy::ALL {
                    let seq = interleave_payments(&deal, margins, &order, policy)
                        .expect("feasible order must interleave");
                    let v = verify(&deal, margins, seq)
                        .unwrap_or_else(|e| panic!("{source}/{policy:?}: {e}"));
                    // Exposure bounded by the margins.
                    prop_assert!(v.max_consumer_temptation() <= margins.eps_supplier());
                    prop_assert!(v.max_supplier_temptation() <= margins.eps_consumer());
                    // Structure: every item delivered once, full price paid.
                    prop_assert_eq!(v.sequence().delivery_count(), deal.goods().len());
                    let paid: Money = v
                        .sequence()
                        .actions()
                        .iter()
                        .map(|a| match a {
                            Action::Pay(m) => *m,
                            Action::Deliver(_) => Money::ZERO,
                        })
                        .sum();
                    prop_assert_eq!(paid, deal.price());
                }
            }
        }

        /// What the indexed Sandholm order is: on integer-unit goods (so
        /// ties are common) it succeeds exactly when the greedy order's
        /// requirement fits ε, and then emits the greedy order with its id
        /// tie-break reversed.
        #[test]
        fn sandholm_is_greedy_with_reversed_tie_break(
            pairs in prop::collection::vec((0i64..=10, 0i64..=10), 1..=12),
            eps_units in 0i64..=20,
        ) {
            let goods = Goods::new(
                pairs.into_iter().map(|(c, v)| (Money::from_units(c), Money::from_units(v))),
            )
            .expect("non-empty, non-negative");
            let eps = Money::from_units(eps_units);
            let greedy_req = required_margin_of_order(&goods, &greedy_order(&goods));
            match sandholm_order(&goods, at(eps)) {
                Ok(order) => {
                    prop_assert!(greedy_req <= eps);
                    prop_assert_eq!(order, greedy_order_ties_reversed(&goods));
                }
                Err(_) => prop_assert!(greedy_req > eps),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Oracle vs oracle: branch-and-bound and subset DP agree on
        /// feasibility for every instance within the DP's comfortable range,
        /// and a returned order actually fits the margin.
        #[test]
        fn bnb_agrees_with_subset_dp(goods in goods_strategy(16), margins in margins_strategy()) {
            let dp = subset_dp_order(&goods, margins);
            let bnb = branch_and_bound_order(&goods, margins).expect("within bnb cap");
            prop_assert_eq!(dp.is_some(), bnb.is_some(),
                "bnb and DP disagree: margins={:?} goods={:?}", margins, goods);
            if let Some(order) = bnb {
                prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
            }
        }

        /// The paper's optimality claim, certified by the exact oracle: the
        /// greedy order's required margin is feasible, and one micro-unit
        /// less is not.
        #[test]
        fn greedy_margin_is_exact_minimum(goods in goods_strategy(16)) {
            let req = required_margin_of_order(&goods, &greedy_order(&goods));
            prop_assert_eq!(req, min_required_margin(&goods));
            prop_assert!(branch_and_bound_order(&goods, at(req)).expect("size ok").is_some(),
                "bnb infeasible at the greedy margin — greedy not optimal");
            if req > Money::ZERO {
                prop_assert!(
                    branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                        .expect("size ok")
                        .is_none(),
                    "bnb feasible below the greedy margin — min margin not tight");
            }
        }

        /// Sandholm is complete and sound at its margin: it succeeds iff the
        /// instance is feasible at ε, and the order it emits never needs
        /// more than ε.
        #[test]
        fn sandholm_succeeds_iff_feasible(goods in goods_strategy(20), margins in margins_strategy()) {
            match sandholm_order(&goods, margins) {
                Ok(order) => {
                    prop_assert!(feasible(&goods, margins));
                    prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
                }
                Err(ScheduleError::Infeasible { required, available }) => {
                    prop_assert!(!feasible(&goods, margins));
                    prop_assert_eq!(required, min_required_margin(&goods));
                    prop_assert_eq!(available, margins.total());
                }
            }
        }

        /// The indexed sandholm is the scan, bit for bit: same success
        /// orders, same errors, same error payloads, on the identical
        /// instance stream.
        #[test]
        fn indexed_sandholm_matches_scan(goods in goods_strategy(20), margins in margins_strategy()) {
            prop_assert_eq!(
                sandholm_order(&goods, margins),
                sandholm_order_scan(&goods, margins)
            );
        }

        /// Tight margins: both sandholm variants agree along the exact
        /// feasibility boundary, where the error path is actually exercised.
        #[test]
        fn indexed_sandholm_matches_scan_at_boundary(
            goods in goods_strategy(20),
            below in 1i64..=1_000_000,
        ) {
            let req = min_required_margin(&goods);
            for total in [req, (req - Money::from_micros(below)).max(Money::ZERO)] {
                let m = at(total);
                prop_assert_eq!(sandholm_order(&goods, m), sandholm_order_scan(&goods, m));
            }
        }

        /// Below the minimum margin neither reference source finds an
        /// order, sandholm's `Infeasible` carries the true minimal margin,
        /// and the reported requirement is itself schedulable (certified by
        /// the exact oracle).
        #[test]
        fn infeasible_error_carries_true_min_margin(
            goods in goods_strategy(12),
            below in 1i64..=2_000_000,
        ) {
            let req = min_required_margin(&goods);
            prop_assume!(req > Money::ZERO);
            let m = at((req - Money::from_micros(below)).max(Money::ZERO));
            let infeasible = ScheduleError::Infeasible { required: req, available: m.total() };
            for (source, order) in order_sources(&goods, m) {
                prop_assert!(order.is_none(), "{} ordered below the minimum margin", source);
            }
            prop_assert_eq!(sandholm_order(&goods, m), Err(infeasible));
            // The reported requirement is tight: the exact oracle schedules at it.
            prop_assert!(branch_and_bound_order(&goods, at(req)).expect("size ok").is_some());
        }
    }

    // --- exact oracle at and beyond the subset DP's reach ----------------

    /// The acceptance bar for the exact oracle: n = 30 workload-shaped
    /// random instances — far beyond the subset DP's cap — solved on both
    /// sides of the exact feasibility boundary, certifying greedy optimality
    /// at that size.
    #[test]
    fn branch_and_bound_solves_n30_at_the_boundary() {
        for seed in 0..20u64 {
            let goods = random_markup_goods(30, 0x3030 + seed);
            let req = min_required_margin(&goods);
            let order = branch_and_bound_order(&goods, at(req))
                .expect("size ok")
                .expect("must be feasible at the greedy margin");
            assert_eq!(order.len(), 30, "seed {seed}");
            assert!(
                required_margin_of_order(&goods, &order) <= req,
                "seed {seed}"
            );
            if req > Money::ZERO {
                assert!(
                    branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                        .expect("size ok")
                        .is_none(),
                    "seed {seed}: feasible below the greedy margin — greedy not optimal"
                );
            }
        }
    }

    /// Unbiased uniform valuations (≈ half the items negative-surplus, the
    /// worst shape for the search) right at the subset DP's cap, both sides
    /// of the boundary.
    #[test]
    fn branch_and_bound_exact_on_uniform_n24() {
        for seed in 0..6u64 {
            let goods = random_goods(24, 0x2424 + seed);
            let req = min_required_margin(&goods);
            assert!(
                branch_and_bound_order(&goods, at(req))
                    .expect("size ok")
                    .is_some(),
                "seed {seed}"
            );
            if req > Money::ZERO {
                assert!(
                    branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                        .expect("size ok")
                        .is_none(),
                    "seed {seed}: feasible below the greedy margin"
                );
            }
        }
    }

    /// DP cross-check near its ceiling: n = 18 instances, margins straddling
    /// the exact boundary, the two exact oracles must agree everywhere.
    #[test]
    fn dp_cross_checks_bnb_at_n18() {
        for seed in 0..4u64 {
            let goods = random_goods(18, 0x1818 + seed);
            let req = min_required_margin(&goods);
            let probes = [
                Money::ZERO,
                req / 2,
                (req - Money::from_micros(1)).max(Money::ZERO),
                req,
            ];
            for total in probes {
                let m = at(total);
                let dp = subset_dp_order(&goods, m);
                let bnb = branch_and_bound_order(&goods, m).expect("within bnb cap");
                assert_eq!(
                    dp.is_some(),
                    bnb.is_some(),
                    "seed {seed} total {total}: oracles disagree"
                );
            }
        }
    }

    /// `TooManyItems` fires exactly at the exact solver's cap — one item
    /// under passes, one item over errors with the right payload.
    #[test]
    fn too_many_items_fires_exactly_at_the_cap() {
        // All-expensive items (every Vs above any achievable collateral at
        // ε = 0) so the at-cap run answers `Ok(None)` without exploring the
        // exponential state space — the cap check happens before any search.
        let instance = |n: usize| Goods::from_f64_pairs(&vec![(10.0, 1.0); n]).expect("non-empty");
        let tight = SafetyMargins::fully_safe();
        assert_eq!(
            branch_and_bound_order(&instance(BRANCH_AND_BOUND_MAX_ITEMS), tight),
            Ok(None)
        );
        assert_eq!(
            branch_and_bound_order(&instance(BRANCH_AND_BOUND_MAX_ITEMS + 1), tight).unwrap_err(),
            TooManyItems {
                n_items: BRANCH_AND_BOUND_MAX_ITEMS + 1,
                limit: BRANCH_AND_BOUND_MAX_ITEMS
            }
        );
    }
}
