//! Exchange schedulers: the paper's quadratic algorithm (kept as a
//! reference oracle), an indexed `O(n log n)` equivalent, an optimal
//! `O(n log n)` greedy with an allocation-free hot path, and an exact
//! branch-and-bound ground-truth solver.
//!
//! # Theory
//!
//! Fix a delivery order `x₁ … xₙ`. Because payments are arbitrarily
//! divisible and irreversible, the order admits a (relaxed-)safe payment
//! interleaving **iff** for every position `j`
//!
//! ```text
//!   req(j)  :=  Vs(x_j) − Σ_{i>j} s(x_i)   ≤   ε           (†)
//! ```
//!
//! where `s(x) = Vc(x) − Vs(x)` is the item's surplus and
//! `ε = ε_s + ε_c` is the total window widening of
//! [`SafetyMargins`]. Intuition: when item `x_j` is handed over, the only
//! collateral keeping both parties honest is the surplus still to come;
//! the supplier's remaining production cost `Vs(x_j)` may exceed it by at
//! most the tolerated exposure.
//!
//! *Proof sketch (⇐).* Pay before each delivery down to
//! `min(R, U_next)`; (†) guarantees the admissible range is non-empty and
//! the invariants `L ≤ R ≤ U` are restored after every atomic action.
//! *(⇒)* At the moment `x_j` is delivered the window must contain the
//! outstanding `R`, which forces (†). ∎
//!
//! With `ε = 0` and `j = n`, (†) reads `Vs(xₙ) ≤ 0`: **an isolated
//! exchange with strictly positive delivery costs admits no fully safe
//! sequence** — the impossibility the paper cites from Sandholm, and the
//! reason reputation/trust must widen the window.
//!
//! # The implementations
//!
//! * [`greedy_order`] — sorts negative-surplus items by ascending `Vc`,
//!   then positive-surplus items by descending `Vs`. An adjacent-exchange
//!   argument (see `min_required_margin`) shows this order minimises
//!   `max_j req(j)` — *simultaneously for every ε* — so it is feasible
//!   whenever any order is. `O(n log n)`; [`greedy_order_into`] and the
//!   [`Scheduler`] scratch struct expose the same computation with zero
//!   per-call allocation, which is what takes it to `n = 10⁶`.
//! * [`sandholm_order`] — the step-by-step construction in the style of
//!   the algorithm the paper cites: build the order from the **last**
//!   delivery backwards, at each step taking the best placeable item.
//!   Two ordered candidate indexes (minimum-`Vs` positives, then
//!   maximum-`Vc` negatives) walked behind a budget-threshold cursor
//!   replace the quadratic per-step scan, giving `O(n log n)` with output
//!   bit-identical to [`sandholm_order_scan`], the original `O(n²)` scan
//!   kept as a test oracle.
//! * [`branch_and_bound_order`] — exact feasibility by depth-first
//!   search over delivery suffixes with surplus-based pruning, failed-
//!   state memoisation and a greedy completion bound; the ground truth
//!   for optimality claims, practical to `n ≈ 30` (and far beyond on
//!   feasible instances, where the completion bound fires at the root).

use crate::deal::Deal;
use crate::goods::{Goods, Item, ItemId};
use crate::money::Money;
use crate::policy::PaymentPolicy;
use crate::safety::SafetyMargins;
use crate::sequence::{verify, Action, ExchangeSequence, VerifiedSequence};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// Which scheduling algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Optimal `O(n log n)` sort (default).
    #[default]
    Greedy,
    /// Indexed `O(n log n)` stepwise construction (paper-style; output
    /// bit-identical to the original quadratic scan).
    Sandholm,
    /// Branch-and-bound exact solver (ground truth; ≤
    /// [`BRANCH_AND_BOUND_MAX_ITEMS`] items).
    BranchAndBound,
}

impl Algorithm {
    /// All algorithms, for cross-validation sweeps.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::Greedy,
        Algorithm::Sandholm,
        Algorithm::BranchAndBound,
    ];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::Sandholm => "sandholm",
            Algorithm::BranchAndBound => "bnb",
        }
    }
}

/// Largest item count accepted by [`branch_and_bound_order`].
///
/// The search is exact, and therefore worst-case exponential in the
/// number of *negative-surplus* items (rotation dominance makes
/// non-negative-surplus items forced moves): an adversarial all-negative
/// instance probed just under its exact boundary really does visit
/// `~2^n` masks. The cap keeps that accidental worst case bounded,
/// while still reaching the `n = 30` the differential suite certifies.
pub const BRANCH_AND_BOUND_MAX_ITEMS: usize = 30;

/// Error from the schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No delivery order satisfies the margins; `required` is the
    /// smallest total margin `ε_s + ε_c` that would make the deal
    /// schedulable, `available` is what the parties granted.
    Infeasible {
        /// Minimal total margin for which a sequence exists.
        required: Money,
        /// The margin that was available (`ε_s + ε_c`).
        available: Money,
    },
    /// The exact solver refuses instances beyond its cap
    /// ([`BRANCH_AND_BOUND_MAX_ITEMS`]).
    TooManyItems {
        /// Items in the deal.
        n_items: usize,
        /// The hard limit.
        limit: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible {
                required,
                available,
            } => write!(
                f,
                "no feasible exchange sequence: requires total margin {required}, available {available}"
            ),
            ScheduleError::TooManyItems { n_items, limit } => {
                write!(f, "exact solver limited to {limit} items, got {n_items}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The greedy delivery order: non-positive-surplus items first (ascending
/// `Vc`, ties by id), then positive-surplus items (descending `Vs`, ties
/// by id).
fn greedy_cmp(a: &Item, b: &Item) -> Ordering {
    match (a.surplus().is_positive(), b.surplus().is_positive()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (false, false) => a
            .consumer_value()
            .cmp(&b.consumer_value())
            .then(a.id().cmp(&b.id())),
        (true, true) => b
            .supplier_cost()
            .cmp(&a.supplier_cost())
            .then(a.id().cmp(&b.id())),
    }
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

/// The greedy delivery order: negative-surplus items first (ascending
/// `Vc`), then positive-surplus items (descending `Vs`). Ties break by
/// item id so the order is deterministic.
///
/// This order minimises `max_j req(j)` over all orders (see module docs),
/// independent of the margins.
pub fn greedy_order(goods: &Goods) -> Vec<ItemId> {
    let mut order = Vec::new();
    greedy_order_into(goods, &mut order);
    order
}

/// [`greedy_order`] into a caller-reusable buffer: a single index-based
/// unstable sort, no allocation once `out` has warmed to capacity.
pub fn greedy_order_into(goods: &Goods, out: &mut Vec<ItemId>) {
    out.clear();
    out.extend(goods.ids());
    out.sort_unstable_by(|a, b| greedy_cmp(goods.item(*a), goods.item(*b)));
}

/// The per-position requirement profile of a delivery order:
/// `req(j) = Vs(x_j) − Σ_{i>j} s(x_i)` for each position `j` (0-based).
///
/// # Panics
///
/// Panics if `order` is not a permutation of the goods' item ids (checked
/// via length and per-item lookup).
pub fn requirement_profile(goods: &Goods, order: &[ItemId]) -> Vec<Money> {
    let mut reqs = Vec::new();
    requirement_profile_into(goods, order, &mut reqs);
    reqs
}

/// [`requirement_profile`] into a caller-reusable buffer: one reverse
/// suffix-sum pass, no allocation once `out` has warmed to capacity.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the goods' item ids.
pub fn requirement_profile_into(goods: &Goods, order: &[ItemId], out: &mut Vec<Money>) {
    assert_eq!(order.len(), goods.len(), "order must cover all items");
    out.clear();
    out.resize(order.len(), Money::ZERO);
    // Suffix surpluses: suffix[j] = Σ_{i>j} s(x_i).
    let mut suffix = Money::ZERO;
    for j in (0..order.len()).rev() {
        let item = goods.item(order[j]);
        out[j] = item.supplier_cost() - suffix;
        suffix += item.surplus();
    }
}

/// The margin a given delivery order requires:
/// `max(0, max_j req(j))`, evaluated in one suffix-sum pass without
/// materialising the profile.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the goods' item ids.
pub fn required_margin_of_order(goods: &Goods, order: &[ItemId]) -> Money {
    assert_eq!(order.len(), goods.len(), "order must cover all items");
    let mut suffix = Money::ZERO;
    let mut worst = Money::ZERO;
    for &id in order.iter().rev() {
        let item = goods.item(id);
        worst = worst.max(item.supplier_cost() - suffix);
        suffix += item.surplus();
    }
    worst
}

/// The minimal total margin `ε_s + ε_c` for which *any* feasible delivery
/// order exists — evaluated on the greedy order, which is minimax-optimal.
///
/// A fully safe exchange exists iff this is zero.
///
/// One-shot convenience over [`Scheduler::min_required_margin`]; callers
/// probing many instances (or one instance at many margins) should hold a
/// [`Scheduler`] to skip the per-call allocation.
///
/// # Examples
///
/// ```
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::scheduler::min_required_margin;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Single item with positive cost: isolated safe exchange impossible —
/// // the required margin equals the cost of the last delivery.
/// let goods = Goods::from_f64_pairs(&[(3.0, 10.0)])?;
/// assert_eq!(min_required_margin(&goods), Money::from_units(3));
/// # Ok(())
/// # }
/// ```
pub fn min_required_margin(goods: &Goods) -> Money {
    Scheduler::new().min_required_margin(goods)
}

/// Whether the goods admit any delivery order under the given margins.
pub fn feasible(goods: &Goods, margins: SafetyMargins) -> bool {
    min_required_margin(goods) <= margins.total()
}

/// Reusable scratch buffers for the scheduler hot path.
///
/// [`min_required_margin`](Scheduler::min_required_margin),
/// [`feasible`](Scheduler::feasible) and
/// [`sandholm_order_into`](Scheduler::sandholm_order_into) perform zero
/// per-call heap allocation once the buffers have warmed to the largest
/// instance size seen, which is what lets the greedy hot path stream
/// `n = 10⁶` instances. The struct is cheap to create; hold one per
/// worker and feed it every instance.
///
/// # Examples
///
/// ```
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::safety::SafetyMargins;
/// use trustex_core::scheduler::Scheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sched = Scheduler::new();
/// let goods = Goods::from_f64_pairs(&[(3.0, 10.0), (2.0, 1.0)])?;
/// // One derivation answers any number of margin checks.
/// let req = sched.min_required_margin(&goods);
/// assert!(!sched.feasible(&goods, SafetyMargins::fully_safe()));
/// assert!(sched.feasible(&goods, SafetyMargins::new(req, Money::ZERO)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    order: Vec<ItemId>,
}

impl Scheduler {
    /// A scheduler with empty scratch buffers.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// [`min_required_margin`] without per-call allocation: derives the
    /// greedy order into the internal scratch buffer and folds the
    /// requirement profile in the same pass.
    pub fn min_required_margin(&mut self, goods: &Goods) -> Money {
        let mut order = std::mem::take(&mut self.order);
        greedy_order_into(goods, &mut order);
        let req = required_margin_of_order(goods, &order);
        self.order = order;
        req
    }

    /// [`feasible`] without per-call allocation. Callers checking one
    /// instance against a batch of margins should call
    /// [`min_required_margin`](Scheduler::min_required_margin) once and
    /// compare totals themselves — the requirement does not depend on the
    /// margin.
    pub fn feasible(&mut self, goods: &Goods, margins: SafetyMargins) -> bool {
        self.min_required_margin(goods) <= margins.total()
    }

    /// [`sandholm_order`] into a caller-reusable buffer; zero per-call
    /// allocation on the success path once the buffers have warmed.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Infeasible`] when no order fits the margins; the
    /// exact `required` margin is derived once, from the scratch buffers.
    pub fn sandholm_order_into(
        &mut self,
        goods: &Goods,
        margins: SafetyMargins,
        out: &mut Vec<ItemId>,
    ) -> Result<(), ScheduleError> {
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
        out.clear();
        out.extend(goods.ids());
        out.sort_unstable_by(|a, b| sandholm_placement_cmp(goods.item(*a), goods.item(*b)));
        let mut budget = eps;
        for &id in out.iter() {
            let item = goods.item(id);
            if item.supplier_cost() > budget {
                return Err(ScheduleError::Infeasible {
                    required: self.min_required_margin(goods),
                    available: eps,
                });
            }
            budget += item.surplus();
        }
        out.reverse();
        Ok(())
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
/// This is the indexed `O(n log n)` form: two ordered candidate indexes
/// (minimum-`Vs` positives, maximum-`Vc` negatives) walked once behind a
/// budget cursor. Output — success order, error, and error payload — is
/// bit-identical to [`sandholm_order_scan`], the original `O(n²)`
/// formulation kept as a test oracle.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when at some step nothing is placeable.
pub fn sandholm_order(goods: &Goods, margins: SafetyMargins) -> Result<Vec<ItemId>, ScheduleError> {
    let mut order = Vec::new();
    Scheduler::new().sandholm_order_into(goods, margins, &mut order)?;
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
pub fn sandholm_order_scan(
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
/// [`ScheduleError::TooManyItems`] beyond
/// [`BRANCH_AND_BOUND_MAX_ITEMS`] items.
pub fn branch_and_bound_order(
    goods: &Goods,
    margins: SafetyMargins,
) -> Result<Option<Vec<ItemId>>, ScheduleError> {
    let n = goods.len();
    if n > BRANCH_AND_BOUND_MAX_ITEMS {
        return Err(ScheduleError::TooManyItems {
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
    let mut greedy_idx: Vec<usize> = (0..n).collect();
    greedy_idx.sort_unstable_by(|&a, &b| greedy_cmp(goods.item(ids[a]), goods.item(ids[b])));

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

/// Interleaves payments into a delivery order according to `policy`,
/// producing a complete exchange sequence.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] if the order violates (†) — callers that
/// obtained the order from a scheduler under the same margins never see
/// this.
pub fn interleave_payments(
    deal: &Deal,
    margins: SafetyMargins,
    order: &[ItemId],
    policy: PaymentPolicy,
) -> Result<ExchangeSequence, ScheduleError> {
    let goods = deal.goods();
    assert_eq!(order.len(), goods.len(), "order must cover all items");

    let mut actions = Vec::with_capacity(order.len() * 2 + 1);
    let mut outstanding = deal.price();
    // Remaining cost/value *before* each delivery.
    let mut remaining_cost = goods.total_supplier_cost();
    let mut remaining_value = goods.total_consumer_value();

    for &id in order {
        let item = goods.item(id);
        // Admissible outstanding balance after an optional payment, such
        // that delivering `id` right after stays within the window.
        let lower_now = remaining_cost - margins.eps_consumer();
        let upper_after = (remaining_value - item.consumer_value()) + margins.eps_supplier();
        let lo = lower_now.max(Money::ZERO);
        let hi = outstanding.min(upper_after);
        if lo > hi {
            return Err(ScheduleError::Infeasible {
                required: min_required_margin(goods),
                available: margins.total(),
            });
        }
        let target = policy.choose_outstanding(lo, hi);
        let payment = outstanding - target;
        if payment.is_positive() {
            actions.push(Action::Pay(payment));
            outstanding = target;
        }
        actions.push(Action::Deliver(id));
        remaining_cost -= item.supplier_cost();
        remaining_value -= item.consumer_value();
    }
    if outstanding.is_positive() {
        actions.push(Action::Pay(outstanding));
    }
    Ok(ExchangeSequence::new(actions))
}

/// Runs the chosen algorithm end to end: order the deliveries, interleave
/// payments, and independently [`verify`] the result.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when the margins are too tight, or
/// [`ScheduleError::TooManyItems`] for [`Algorithm::BranchAndBound`] on
/// large deals.
///
/// # Panics
///
/// Panics if the internally produced sequence fails verification — that
/// would be a bug in this crate, not a caller error.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::policy::PaymentPolicy;
/// use trustex_core::safety::SafetyMargins;
/// use trustex_core::scheduler::{schedule, Algorithm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)])?;
/// let deal = Deal::new(goods, Money::from_units(9))?;
/// // Fully safe is impossible (every item costs the supplier something)…
/// let margins = SafetyMargins::fully_safe();
/// assert!(schedule(&deal, margins, PaymentPolicy::Lazy, Algorithm::Greedy).is_err());
/// // …but a small trust-backed margin makes the deal schedulable.
/// let margins = SafetyMargins::symmetric(Money::from_units(1))?;
/// let verified = schedule(&deal, margins, PaymentPolicy::Lazy, Algorithm::Greedy)?;
/// assert!(verified.max_consumer_temptation() <= margins.eps_supplier());
/// # Ok(())
/// # }
/// ```
pub fn schedule(
    deal: &Deal,
    margins: SafetyMargins,
    policy: PaymentPolicy,
    algorithm: Algorithm,
) -> Result<VerifiedSequence, ScheduleError> {
    let goods = deal.goods();
    let order = match algorithm {
        Algorithm::Greedy => {
            let order = greedy_order(goods);
            let required = required_margin_of_order(goods, &order);
            if required > margins.total() {
                return Err(ScheduleError::Infeasible {
                    required,
                    available: margins.total(),
                });
            }
            order
        }
        Algorithm::Sandholm => sandholm_order(goods, margins)?,
        Algorithm::BranchAndBound => match branch_and_bound_order(goods, margins)? {
            Some(order) => order,
            None => {
                return Err(ScheduleError::Infeasible {
                    required: min_required_margin(goods),
                    available: margins.total(),
                });
            }
        },
    };
    let sequence = interleave_payments(deal, margins, &order, policy)?;
    Ok(verify(deal, margins, &sequence)
        .expect("scheduler produced a sequence rejected by the verifier (bug)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goods(pairs: &[(f64, f64)]) -> Goods {
        Goods::from_f64_pairs(pairs).unwrap()
    }

    fn margins(eps: f64) -> SafetyMargins {
        SafetyMargins::symmetric(Money::from_f64(eps / 2.0)).unwrap()
    }

    // --- impossibility & existence -------------------------------------

    #[test]
    fn isolated_exchange_impossible_with_positive_costs() {
        // Every item has Vs > 0 ⇒ the last delivery always violates (†)
        // with ε = 0, whatever the order.
        let g = goods(&[(2.0, 5.0), (1.0, 4.0), (3.0, 6.0)]);
        assert!(min_required_margin(&g).is_positive());
        assert!(!feasible(&g, SafetyMargins::fully_safe()));
    }

    #[test]
    fn zero_cost_last_item_enables_fully_safe() {
        // A zero-cost item can be delivered last; here every prefix works.
        let g = goods(&[(0.0, 5.0), (2.0, 4.0)]);
        assert_eq!(min_required_margin(&g), Money::ZERO);
        assert!(feasible(&g, SafetyMargins::fully_safe()));
    }

    #[test]
    fn min_margin_single_item_equals_cost() {
        let g = goods(&[(3.0, 10.0)]);
        assert_eq!(min_required_margin(&g), Money::from_units(3));
        assert!(feasible(&g, margins(3.0)));
        assert!(!feasible(&g, margins(2.9)));
    }

    #[test]
    fn feasibility_monotone_in_margin() {
        let g = goods(&[(2.0, 3.0), (4.0, 1.0), (1.0, 6.0)]);
        let req = min_required_margin(&g);
        let below = SafetyMargins::new(req - Money::from_micros(1), Money::ZERO).unwrap();
        let exact = SafetyMargins::new(req, Money::ZERO).unwrap();
        assert!(!feasible(&g, below));
        assert!(feasible(&g, exact));
    }

    // --- greedy order structure ----------------------------------------

    #[test]
    fn greedy_puts_negative_surplus_first() {
        let g = goods(&[(1.0, 5.0), (5.0, 1.0), (2.0, 6.0), (6.0, 2.0)]);
        let order = greedy_order(&g);
        let surpluses: Vec<bool> = order
            .iter()
            .map(|id| g.item(*id).surplus().is_positive())
            .collect();
        // All `false` (non-positive surplus) before all `true`.
        let first_true = surpluses.iter().position(|b| *b).unwrap();
        assert!(surpluses[first_true..].iter().all(|b| *b));
        assert!(surpluses[..first_true].iter().all(|b| !*b));
    }

    #[test]
    fn greedy_negative_sorted_by_value_positive_by_cost_desc() {
        let g = goods(&[
            (5.0, 1.0), // neg, Vc=1
            (9.0, 3.0), // neg, Vc=3
            (1.0, 8.0), // pos, Vs=1
            (4.0, 9.0), // pos, Vs=4
        ]);
        let order = greedy_order(&g);
        let idx: Vec<usize> = order.iter().map(|id| id.index()).collect();
        assert_eq!(idx, vec![0, 1, 3, 2]);
    }

    #[test]
    fn greedy_order_into_reuses_buffer() {
        let g1 = goods(&[(5.0, 1.0), (1.0, 8.0)]);
        let g2 = goods(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]);
        let mut buf = Vec::new();
        greedy_order_into(&g1, &mut buf);
        assert_eq!(buf, greedy_order(&g1));
        greedy_order_into(&g2, &mut buf);
        assert_eq!(buf, greedy_order(&g2));
    }

    #[test]
    fn requirement_profile_matches_manual() {
        // Two items: a (Vs=2, Vc=5, s=3), b (Vs=1, Vc=4, s=3).
        // Order [a, b]: req(a) = 2 - s(b) = -1 ; req(b) = 1 - 0 = 1.
        let g = goods(&[(2.0, 5.0), (1.0, 4.0)]);
        let ids: Vec<ItemId> = g.ids().collect();
        let reqs = requirement_profile(&g, &ids);
        assert_eq!(reqs, vec![Money::from_units(-1), Money::from_units(1)]);
        assert_eq!(required_margin_of_order(&g, &ids), Money::from_units(1));
    }

    #[test]
    fn scheduler_scratch_matches_free_functions() {
        let mut sched = Scheduler::new();
        let gs = [
            goods(&[(3.0, 10.0)]),
            goods(&[(2.0, 6.0), (5.0, 6.0)]),
            goods(&[(0.0, 5.0), (2.0, 4.0), (7.0, 1.0)]),
        ];
        for g in &gs {
            assert_eq!(sched.min_required_margin(g), min_required_margin(g));
            for eps in [0.0, 1.5, 4.0] {
                assert_eq!(sched.feasible(g, margins(eps)), feasible(g, margins(eps)));
            }
        }
    }

    // --- cross-validation of the algorithms -----------------------------

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
        for alg in Algorithm::ALL {
            for policy in PaymentPolicy::ALL {
                let v = schedule(&deal, m, policy, alg)
                    .unwrap_or_else(|e| panic!("{alg:?}/{policy:?}: {e}"));
                assert_eq!(v.sequence().delivery_count(), 4, "{alg:?}/{policy:?}");
                assert_eq!(
                    v.sequence().total_paid(),
                    deal.price(),
                    "{alg:?}/{policy:?}"
                );
            }
        }
    }

    #[test]
    fn infeasible_error_reports_required_margin() {
        let g = goods(&[(3.0, 10.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let err = schedule(
            &deal,
            SafetyMargins::fully_safe(),
            PaymentPolicy::Lazy,
            Algorithm::Greedy,
        )
        .unwrap_err();
        match err {
            ScheduleError::Infeasible {
                required,
                available,
            } => {
                assert_eq!(required, Money::from_units(3));
                assert_eq!(available, Money::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("requires total margin"));
    }

    #[test]
    fn exact_margin_schedules() {
        let g = goods(&[(3.0, 10.0), (2.0, 8.0)]);
        let req = min_required_margin(&g);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = SafetyMargins::new(req, Money::ZERO).unwrap();
        for alg in Algorithm::ALL {
            assert!(
                schedule(&deal, m, PaymentPolicy::Lazy, alg).is_ok(),
                "{alg:?} must schedule at the exact margin"
            );
        }
    }

    #[test]
    fn branch_and_bound_rejects_beyond_cap() {
        let over = BRANCH_AND_BOUND_MAX_ITEMS + 1;
        let pairs: Vec<(f64, f64)> = (0..over).map(|i| (1.0, 2.0 + i as f64)).collect();
        let g = goods(&pairs);
        let err = branch_and_bound_order(&g, margins(1000.0)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::TooManyItems {
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

    #[test]
    fn interleave_lazy_defers_final_payment() {
        let g = goods(&[(1.0, 4.0), (2.0, 5.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(6.0);
        let order = greedy_order(deal.goods());
        let seq = interleave_payments(&deal, m, &order, PaymentPolicy::Lazy).unwrap();
        // Lazy: the last action must be a payment (consumer pays last).
        assert!(matches!(seq.actions().last(), Some(Action::Pay(_))));
    }

    #[test]
    fn interleave_eager_prepays() {
        let g = goods(&[(1.0, 4.0), (2.0, 5.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(20.0); // wide margins: eager pays everything upfront
        let order = greedy_order(deal.goods());
        let seq = interleave_payments(&deal, m, &order, PaymentPolicy::Eager).unwrap();
        assert!(
            matches!(seq.actions().first(), Some(Action::Pay(_))),
            "eager should front-load payments: {:?}",
            seq.actions()
        );
        // With margins that wide the whole price is paid before delivery.
        match seq.actions().first() {
            Some(Action::Pay(m0)) => assert_eq!(*m0, deal.price()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn algorithm_labels() {
        assert_eq!(Algorithm::Greedy.label(), "greedy");
        assert_eq!(Algorithm::default(), Algorithm::Greedy);
        assert_eq!(Algorithm::ALL.len(), 3);
        assert_eq!(Algorithm::Sandholm.label(), "sandholm");
        assert_eq!(Algorithm::BranchAndBound.label(), "bnb");
    }

    #[test]
    fn required_margin_zero_for_all_zero_cost() {
        let g = goods(&[(0.0, 3.0), (0.0, 1.0)]);
        assert_eq!(min_required_margin(&g), Money::ZERO);
        let deal = Deal::new(g, Money::from_units(2)).unwrap();
        let v = schedule(
            &deal,
            SafetyMargins::fully_safe(),
            PaymentPolicy::Lazy,
            Algorithm::Greedy,
        )
        .unwrap();
        assert_eq!(v.max_consumer_temptation(), Money::ZERO);
        assert_eq!(v.max_supplier_temptation(), Money::ZERO);
    }
}
