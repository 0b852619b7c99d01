//! Complaint-based trust (Aberer & Despotovic, CIKM 2001 — reference \[2\]
//! of the paper).
//!
//! The CIKM 2001 system records only *negative* feedback: after a bad
//! interaction, the wronged peer files a complaint `c(p, q)`. The key
//! observation is that for an honest population both filing and receiving
//! complaints are rare, while cheaters *receive* many complaints and
//! liars *file* many; the product
//!
//! ```text
//!   T(q) = (cr(q) + 1) · (cf(q) + 1)
//! ```
//!
//! (complaints received × complaints filed, Laplace-shifted) is small for
//! honest peers and large for misbehaving ones. A peer is assessed
//! dishonest when its product exceeds a dispersion-based threshold of the
//! observed sample — the decision rule the CIKM paper phrases as
//! detecting outliers relative to the average behaviour.
//!
//! The module exposes both the paper-faithful binary decision
//! ([`ComplaintTrust::assess`]) and a smooth probability mapping so the
//! model can participate in the common [`TrustModel`] interface.

use crate::confidence::evidence_confidence;
use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use crate::table::dense_slot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// Configuration of the complaint-based model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplaintConfig {
    /// A peer is assessed dishonest when its complaint product exceeds
    /// `outlier_factor` times the population median product.
    pub outlier_factor: f64,
    /// Weight of a witness-relayed complaint relative to a direct one.
    pub witness_weight: f64,
    /// Scorer-weighted aggregation: additionally scale relayed
    /// complaints by the evaluator's current honesty estimate for the
    /// *complainer* (`predict(witness).p_honest`). Peers whose own
    /// complaint product already marks them as outliers — serial
    /// slanderers, heavily-complained-about cheaters — lose most of
    /// their power to pile further complaints onto victims.
    pub scorer_weighted: bool,
}

impl Default for ComplaintConfig {
    fn default() -> Self {
        ComplaintConfig {
            outlier_factor: 4.0,
            witness_weight: 0.5,
            scorer_weighted: false,
        }
    }
}

/// Binary assessment in the style of the CIKM 2001 decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assessment {
    /// No evidence of misbehaviour beyond the population baseline.
    Trustworthy,
    /// Complaint product exceeds the outlier threshold.
    Untrustworthy,
}

impl Assessment {
    /// Whether the assessment is trustworthy.
    pub fn is_trustworthy(self) -> bool {
        matches!(self, Assessment::Trustworthy)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    received: f64,
    filed: f64,
    /// Whether this peer ever appeared in a complaint. Dense tables hold
    /// a slot for every id, but the median over an undeclared population
    /// is taken only over peers *with records* — exactly the peers the
    /// old map-backed storage held an entry for.
    seen: bool,
}

impl Tally {
    fn product(&self) -> f64 {
        (self.received + 1.0) * (self.filed + 1.0)
    }
}

/// The median's rank bracket: a value `m` of the median multiset (the
/// recorded products plus the silent-peer 1.0 padding) with the number
/// of elements below it and equal to it under `f64::total_cmp`, where
/// equal means bit-equal.
///
/// Every tally mutation moves the counts in O(1), so the bracket stays
/// exact for the current multiset. `m` is still the median while
/// `below ≤ len/2 < below + equal`; only when a mutation pushes the
/// middle rank out of that range does a fresh selection re-centre it.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    value: f64,
    below: usize,
    equal: usize,
}

impl Bracket {
    /// The count `x` belongs to, if it lies at or below `m`.
    fn count_of(&mut self, x: f64) -> Option<&mut usize> {
        match x.total_cmp(&self.value) {
            std::cmp::Ordering::Less => Some(&mut self.below),
            std::cmp::Ordering::Equal => Some(&mut self.equal),
            std::cmp::Ordering::Greater => None,
        }
    }

    /// Records a multiset change from a mutation: `gone` leaves the
    /// multiset and `new` enters it.
    fn shift(&mut self, gone: Option<f64>, new: Option<f64>) {
        if let Some(count) = gone.and_then(|x| self.count_of(x)) {
            *count -= 1;
        }
        if let Some(count) = new.and_then(|x| self.count_of(x)) {
            *count += 1;
        }
    }

    /// `m`, if it is the element at rank `mid` of the sorted multiset.
    fn median_at(&self, mid: usize) -> Option<f64> {
        (self.below <= mid && mid < self.below + self.equal).then_some(self.value)
    }
}

/// Selection scratch and the rank bracket, read and written as one unit.
#[derive(Debug, Default)]
struct MedianState {
    /// Scratch for the selection pass, reused across recomputes.
    products: Vec<f64>,
    /// Established by the first selection, then kept exact by every
    /// mutation.
    bracket: Option<Bracket>,
}

/// Lazily recomputed population median, shared across concurrent
/// readers.
///
/// Mutations (`&mut self` on the model) raise `dirty` and move the rank
/// bracket through `Mutex::get_mut`, without locking. The next
/// `median_product` call — predictions arrive in large read-only batches
/// between mutations, possibly from several metric worker threads at
/// once — reads the median off the bracket in O(1) while the middle rank
/// stays inside it. Otherwise it reselects in O(n) with
/// `select_nth_unstable_by` into the reused scratch buffer and re-centres
/// the bracket with one counting pass. Either way it publishes the value
/// through `bits`. Concurrent recomputes serialise on the state lock, so
/// no reader sees a torn bracket, and every racer stores identical bits:
/// the median is a pure function of the (then-immutable) tallies.
#[derive(Debug)]
struct MedianCache {
    /// `f64::to_bits` of the cached median; meaningful only when
    /// `dirty` is false.
    bits: AtomicU64,
    dirty: AtomicBool,
    state: Mutex<MedianState>,
}

impl Default for MedianCache {
    /// Starts dirty so the first read computes rather than trusting the
    /// placeholder bits.
    fn default() -> Self {
        MedianCache {
            bits: AtomicU64::new(1.0f64.to_bits()),
            dirty: AtomicBool::new(true),
            state: Mutex::new(MedianState::default()),
        }
    }
}

impl MedianCache {
    fn snapshot(&self) -> MedianCache {
        // Load `dirty` before `bits`: a concurrent recompute publishes
        // bits first and clears dirty second (release), so observing
        // dirty == false guarantees the subsequent bits load is the
        // published value. The reverse order could pair stale bits with
        // a fresh clean flag.
        let dirty = self.dirty.load(Ordering::Acquire);
        MedianCache {
            bits: AtomicU64::new(self.bits.load(Ordering::Acquire)),
            dirty: AtomicBool::new(dirty),
            state: Mutex::new(MedianState {
                products: Vec::new(),
                bracket: self.lock().bracket,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MedianState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the cache dirty for a mutation and hands out the bracket,
    /// if one is established, for the mutation to move.
    fn touch(&mut self) -> Option<&mut Bracket> {
        *self.dirty.get_mut() = true;
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.bracket.as_mut()
    }

    /// Drops the bracket: the next read reselects from scratch.
    fn invalidate(&mut self) {
        *self.dirty.get_mut() = true;
        self.state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .bracket = None;
    }
}

/// The complaint-based trust model.
///
/// Direct dishonest experiences file complaints; witness reports relay
/// complaints observed elsewhere (at reduced weight). Honest experiences
/// do not generate data — faithfully to \[2\], which stores only
/// complaints.
///
/// # Examples
///
/// ```
/// use trustex_trust::complaints::{Assessment, ComplaintTrust};
/// use trustex_trust::model::{Conduct, PeerId, TrustModel};
///
/// let mut model = ComplaintTrust::new();
/// let cheater = PeerId(100);
/// // Eight victims complain about the cheater.
/// for victim in 0..8 {
///     model.file_complaint(PeerId(victim), cheater, 0);
/// }
/// assert_eq!(model.assess(cheater), Assessment::Untrustworthy);
/// assert!(model.predict(cheater).p_honest < 0.5);
/// assert_eq!(model.assess(PeerId(1)), Assessment::Trustworthy);
/// ```
#[derive(Debug)]
pub struct ComplaintTrust {
    config: ComplaintConfig,
    /// Dense per-peer tallies, indexed by [`PeerId::index`].
    tallies: Vec<Tally>,
    /// Number of peers with `seen == true` — the size the map-backed
    /// storage used to have.
    recorded: usize,
    /// Known community size; peers without records count as product 1.0
    /// when computing the population median.
    population: Option<usize>,
    median: MedianCache,
}

impl Clone for ComplaintTrust {
    fn clone(&self) -> Self {
        ComplaintTrust {
            config: self.config,
            tallies: self.tallies.clone(),
            recorded: self.recorded,
            population: self.population,
            median: self.median.snapshot(),
        }
    }
}

impl Default for ComplaintTrust {
    fn default() -> Self {
        Self::new()
    }
}

impl ComplaintConfig {
    /// The configuration's rules: outlier factor at least 1, witness
    /// weight in `[0, 1]`. Returns the first rule violated (NaN violates
    /// every rule).
    fn validate(&self) -> Result<(), &'static str> {
        if !(1.0..).contains(&self.outlier_factor) {
            return Err("complaint outlier factor must be ≥ 1");
        }
        if !(0.0..=1.0).contains(&self.witness_weight) {
            return Err("complaint witness weight must be in [0, 1]");
        }
        Ok(())
    }
}

impl ComplaintTrust {
    /// Creates a model with the default configuration.
    pub fn new() -> ComplaintTrust {
        ComplaintTrust::with_config(ComplaintConfig::default())
    }

    /// Creates a model with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `outlier_factor < 1` or `witness_weight ∉ [0, 1]`.
    pub fn with_config(config: ComplaintConfig) -> ComplaintTrust {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        ComplaintTrust {
            config,
            tallies: Vec::new(),
            recorded: 0,
            population: None,
            median: MedianCache::default(),
        }
    }

    /// Creates a default-configured model for a community of `n` peers:
    /// the tally table is pre-sized and the population declared (as by
    /// [`ComplaintTrust::set_population`]) in one step.
    pub fn with_population(n: usize) -> ComplaintTrust {
        let mut model = ComplaintTrust::new();
        model.set_population(n);
        model.ensure_capacity(n);
        model
    }

    /// Pre-sizes the tally table to hold peers `0..n` (never shrinks,
    /// does not declare a population). Writes beyond the capacity still
    /// grow on demand.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.tallies.len() < n {
            self.tallies.resize(n, Tally::default());
        }
    }

    /// Declares the community size, so that complaint-free peers enter
    /// the median with the baseline product 1.0 — without it the median
    /// is taken only over peers that appear in some complaint, which
    /// overstates the baseline in quiet communities.
    pub fn set_population(&mut self, n: usize) {
        self.population = Some(n);
        self.median.invalidate();
    }

    /// The active configuration.
    pub fn config(&self) -> ComplaintConfig {
        self.config
    }

    /// Records a complaint filed by `by` about `about` with unit weight.
    pub fn file_complaint(&mut self, by: PeerId, about: PeerId, _round: u64) {
        self.add_complaint(by, about, 1.0);
    }

    /// Whether the median multiset still pads with at least one silent
    /// 1.0 (a declared population larger than the recorded peers).
    fn has_silent(&self) -> bool {
        self.population.is_some_and(|n| self.recorded < n)
    }

    /// Applies `change` to a peer's tally, marking it as recorded (the
    /// dense stand-in for map-entry creation), and moves the median
    /// bracket with the product.
    fn update_tally(&mut self, peer: PeerId, change: impl FnOnce(&mut Tally)) {
        let had_silent = self.has_silent();
        let slot = dense_slot(&mut self.tallies, peer);
        let (was_seen, before) = (slot.seen, slot.product());
        if !was_seen {
            slot.seen = true;
            self.recorded += 1;
        }
        change(slot);
        if let Some(bracket) = self.median.touch() {
            // A newly recorded peer's product was the baseline 1.0: it
            // takes the place of a silent 1.0 if there is one, and joins
            // the multiset otherwise.
            bracket.shift(
                (was_seen || had_silent).then_some(before),
                Some(slot.product()),
            );
        }
    }

    fn add_complaint(&mut self, by: PeerId, about: PeerId, weight: f64) {
        self.update_tally(about, |t| t.received += weight);
        self.update_tally(by, |t| t.filed += weight);
    }

    /// The Laplace-shifted complaint product `T(q)`.
    pub fn complaint_product(&self, peer: PeerId) -> f64 {
        self.tallies
            .get(peer.index())
            .copied()
            .unwrap_or_default()
            .product()
    }

    /// Complaints received / filed by a peer (direct + discounted).
    pub fn tally(&self, peer: PeerId) -> (f64, f64) {
        let t = self.tallies.get(peer.index()).copied().unwrap_or_default();
        (t.received, t.filed)
    }

    /// Median complaint product over the community: peers with records
    /// contribute their product, the rest (when a population size is
    /// declared) contribute the baseline 1.0. Returns 1.0 when empty.
    ///
    /// The value is cached behind a mutation dirty-flag, and the
    /// prediction batches between mutations read the cached value. After
    /// a mutation, the next call reads the median off a rank bracket
    /// (the last median with the counts below and equal to it, which
    /// every mutation keeps exact in O(1)) while the middle rank stays
    /// inside it. Only a first call, a re-declared population or a
    /// middle rank that left the bracket reselects in O(n) via
    /// `select_nth_unstable_by` (no sort, no allocation after warm-up).
    /// Both paths return the same element, bit for bit.
    pub fn median_product(&self) -> f64 {
        if !self.median.dirty.load(Ordering::Acquire) {
            return f64::from_bits(self.median.bits.load(Ordering::Acquire));
        }
        let median = self.compute_median();
        self.median.bits.store(median.to_bits(), Ordering::Release);
        self.median.dirty.store(false, Ordering::Release);
        median
    }

    /// The median of the recorded products plus the silent-peer baseline
    /// padding: off the bracket when it still holds the middle rank,
    /// else an O(n) selection that re-centres the bracket.
    fn compute_median(&self) -> f64 {
        if self.recorded == 0 {
            return 1.0;
        }
        let len = self
            .population
            .map_or(self.recorded, |n| n.max(self.recorded));
        let mid = len / 2;
        let mut state = self.median.lock();
        if let Some(median) = state.bracket.and_then(|b| b.median_at(mid)) {
            return median;
        }
        let MedianState { products, bracket } = &mut *state;
        products.clear();
        products.extend(self.tallies.iter().filter(|t| t.seen).map(Tally::product));
        products.resize(len, 1.0);
        let (left, &mut median, right) = products.select_nth_unstable_by(mid, f64::total_cmp);
        // The selection leaves only elements ≤ m on the left and ≥ m on
        // the right, so counting the copies of m (equal under total_cmp
        // means bit-equal) on each side places the bracket.
        let copies = |side: &[f64]| {
            side.iter()
                .filter(|x| x.to_bits() == median.to_bits())
                .count()
        };
        let equal_left = copies(left);
        *bracket = Some(Bracket {
            value: median,
            below: mid - equal_left,
            equal: 1 + equal_left + copies(right),
        });
        median
    }

    /// The CIKM-style binary decision: untrustworthy when the complaint
    /// product exceeds `outlier_factor ×` the population median.
    pub fn assess(&self, peer: PeerId) -> Assessment {
        let threshold = self.config.outlier_factor * self.median_product();
        if self.complaint_product(peer) > threshold {
            Assessment::Untrustworthy
        } else {
            Assessment::Trustworthy
        }
    }

    fn estimate_of(&self, tally: Tally, threshold: f64) -> TrustEstimate {
        // Smooth mapping: the farther above the median the product lies,
        // the lower the honesty estimate. At the median: ~0.5 + baseline;
        // well below: near the baseline prior of honest communities.
        let ratio = tally.product() / threshold;
        let p = 1.0 / (1.0 + ratio * ratio);
        TrustEstimate::new(p, evidence_confidence(tally.received + tally.filed))
    }
}

impl TrustModel for ComplaintTrust {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, _round: u64) {
        // Only negative experiences produce data: the evaluator files a
        // complaint against the subject. The evaluator's own filing
        // tally is not part of its view of *others* (the reputation
        // system tracks global filing counts; see `trustex-reputation`),
        // so only the received side is bumped here.
        if !conduct.is_honest() {
            self.update_tally(subject, |t| t.received += 1.0);
        }
    }

    fn record_witness(&mut self, report: WitnessReport) {
        if !report.conduct.is_honest() {
            let mut weight = self.config.witness_weight;
            if self.config.scorer_weighted {
                // Defense knob: a complainer whose own product is already
                // outlier-grade gets its relayed complaints deflated.
                weight *= self.predict(report.witness).p_honest;
            }
            self.add_complaint(report.witness, report.subject, weight);
        }
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        let tally = self
            .tallies
            .get(subject.index())
            .copied()
            .unwrap_or_default();
        let threshold = self.config.outlier_factor * self.median_product();
        self.estimate_of(tally, threshold)
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        // One median read (amortized O(1)) and one threshold multiply
        // serve the whole sweep.
        let threshold = self.config.outlier_factor * self.median_product();
        let covered = self.tallies.len().min(out.len());
        for (slot, tally) in out[..covered].iter_mut().zip(&self.tallies) {
            *slot = self.estimate_of(*tally, threshold);
        }
        if covered < out.len() {
            let cold = self.estimate_of(Tally::default(), threshold);
            out[covered..].fill(cold);
        }
    }

    fn forget_peer(&mut self, peer: PeerId) {
        // Clearing the tally drops both directions — complaints the peer
        // received and complaints it filed. Complaints it filed also
        // bumped *other* peers' received counts; those stay, exactly as
        // gossip already absorbed elsewhere cannot be re-attributed.
        // Its product leaves the median multiset, and a silent 1.0
        // takes its place when the declared population needs one.
        if let Some(slot) = self.tallies.get_mut(peer.index()) {
            if slot.seen {
                let gone = slot.product();
                *slot = Tally::default();
                self.recorded -= 1;
                let silent = self.has_silent().then_some(1.0);
                if let Some(bracket) = self.median.touch() {
                    bracket.shift(Some(gone), silent);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "complaints"
    }

    fn prepare_snapshot(&self) {
        // Settle the lazy median now: a sealed model (a snapshot epoch)
        // has a clean cache, so its readers only ever do atomic loads —
        // never the median-state mutex.
        self.median_product();
    }
}

impl Persistable for ComplaintTrust {
    const TAG: [u8; 4] = *b"CMPL";

    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_f64(self.config.outlier_factor);
        w.put_f64(self.config.witness_weight);
        w.put_bool(self.config.scorer_weighted);
        match self.population {
            Some(n) => {
                w.put_bool(true);
                w.put_u64(n as u64);
            }
            None => w.put_bool(false),
        }
        w.put_len(self.tallies.len());
        for t in &self.tallies {
            w.put_f64(t.received);
            w.put_f64(t.filed);
            w.put_bool(t.seen);
        }
        // `recorded` is derived (seen-count) and the median cache is
        // lazily recomputed — neither travels.
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        let config = ComplaintConfig {
            outlier_factor: r.take_finite_f64()?,
            witness_weight: r.take_finite_f64()?,
            scorer_weighted: r.take_bool()?,
        };
        config
            .validate()
            .map_err(|context| PersistError::Invalid { context })?;
        let population = if r.take_bool()? {
            Some(r.take_u64()? as usize)
        } else {
            None
        };
        let n = r.take_len(17)?;
        let mut tallies = Vec::with_capacity(n);
        let mut recorded = 0usize;
        for _ in 0..n {
            let t = Tally {
                received: r.take_finite_f64()?,
                filed: r.take_finite_f64()?,
                seen: r.take_bool()?,
            };
            if t.received < 0.0 || t.filed < 0.0 {
                return Err(PersistError::Invalid {
                    context: "complaint tallies must be non-negative",
                });
            }
            if !t.seen && (t.received != 0.0 || t.filed != 0.0) {
                return Err(PersistError::Invalid {
                    context: "unseen peer with non-zero complaint tally",
                });
            }
            recorded += usize::from(t.seen);
            tallies.push(t);
        }
        // The median cache starts dirty: the first read recomputes it
        // from the restored tallies — a pure function, so the value is
        // bit-identical to the encoded instance's.
        Ok(ComplaintTrust {
            config,
            tallies,
            recorded,
            population,
            median: MedianCache::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_data_is_trustworthy() {
        let m = ComplaintTrust::new();
        assert!(m.assess(PeerId(1)).is_trustworthy());
        assert_eq!(m.complaint_product(PeerId(1)), 1.0);
        assert_eq!(m.median_product(), 1.0);
        let e = m.predict(PeerId(1));
        assert!(e.p_honest > 0.9, "clean record should look honest");
        assert_eq!(e.confidence, 0.0);
    }

    #[test]
    fn cheater_detected_by_received_complaints() {
        let mut m = ComplaintTrust::new();
        let cheater = PeerId(99);
        for v in 0..8 {
            m.file_complaint(PeerId(v), cheater, 0);
        }
        assert_eq!(m.assess(cheater), Assessment::Untrustworthy);
        // Victims each filed one complaint: product (0+1)(1+1)=2, median
        // stays low, so victims remain trustworthy.
        assert!(m.assess(PeerId(0)).is_trustworthy());
        assert!(m.predict(cheater).p_honest < m.predict(PeerId(0)).p_honest);
    }

    #[test]
    fn liar_detected_by_filed_complaints() {
        let mut m = ComplaintTrust::new();
        let liar = PeerId(50);
        // The liar slanders many peers; a few honest complaints exist too.
        for v in 0..10 {
            m.file_complaint(liar, PeerId(v), 0);
        }
        m.file_complaint(PeerId(1), PeerId(2), 0);
        assert_eq!(m.assess(liar), Assessment::Untrustworthy);
        // Slander victims each received one complaint; with the median at
        // (1+1)(0+1) = 2 they stay below the outlier threshold.
        assert!(m.assess(PeerId(3)).is_trustworthy());
    }

    #[test]
    fn tally_tracks_both_directions() {
        let mut m = ComplaintTrust::new();
        m.file_complaint(PeerId(1), PeerId(2), 0);
        m.file_complaint(PeerId(2), PeerId(1), 0);
        m.file_complaint(PeerId(3), PeerId(1), 0);
        let (recv, filed) = m.tally(PeerId(1));
        assert_eq!((recv, filed), (2.0, 1.0));
        assert_eq!(m.complaint_product(PeerId(1)), 6.0);
    }

    #[test]
    fn record_direct_files_only_on_dishonest() {
        let mut m = ComplaintTrust::new();
        let p = PeerId(1);
        m.record_direct(p, Conduct::Honest, 0);
        assert_eq!(m.tally(p), (0.0, 0.0));
        m.record_direct(p, Conduct::Dishonest, 0);
        assert_eq!(m.tally(p).0, 1.0);
    }

    #[test]
    fn witness_complaints_discounted() {
        let mut m = ComplaintTrust::new();
        let subject = PeerId(1);
        m.record_witness(WitnessReport {
            witness: PeerId(2),
            subject,
            conduct: Conduct::Dishonest,
            round: 0,
        });
        assert_eq!(m.tally(subject).0, 0.5, "default witness weight is 0.5");
        // Honest witness reports produce nothing.
        m.record_witness(WitnessReport {
            witness: PeerId(2),
            subject,
            conduct: Conduct::Honest,
            round: 0,
        });
        assert_eq!(m.tally(subject).0, 0.5);
    }

    #[test]
    fn probability_monotone_in_complaints() {
        let mut m = ComplaintTrust::new();
        let subject = PeerId(1);
        let mut last = m.predict(subject).p_honest;
        for v in 2..12 {
            m.file_complaint(PeerId(v), subject, 0);
            let p = m.predict(subject).p_honest;
            assert!(p <= last, "more complaints must not increase trust");
            last = p;
        }
        assert!(
            last < 0.5,
            "ten complaints should drop below coin-flip: {last}"
        );
    }

    #[test]
    fn scorer_weighting_deflates_outlier_complainers() {
        let weighted_cfg = ComplaintConfig {
            scorer_weighted: true,
            ..ComplaintConfig::default()
        };
        let mut weighted = ComplaintTrust::with_config(weighted_cfg);
        let mut plain = ComplaintTrust::new();
        let slanderer = PeerId(50);
        let victim = PeerId(1);
        // The slanderer racks up an outlier-grade filing record first.
        for m in [&mut weighted, &mut plain] {
            m.set_population(20);
            for v in 10..20 {
                m.file_complaint(slanderer, PeerId(v), 0);
            }
        }
        let report = WitnessReport {
            witness: slanderer,
            subject: victim,
            conduct: Conduct::Dishonest,
            round: 0,
        };
        weighted.record_witness(report);
        plain.record_witness(report);
        assert_eq!(plain.tally(victim).0, 0.5);
        // The slanderer's own product (11) sits far above the median
        // threshold, so p_honest(slanderer) ≈ 0.35 and the relayed
        // complaint lands at ≈ 0.17 instead of 0.5.
        let (weighted_received, _) = weighted.tally(victim);
        assert!(
            weighted_received < 0.2,
            "outlier complainer must be deflated: {weighted_received}"
        );
    }

    #[test]
    fn forget_peer_clears_the_record_and_reopens_trust() {
        let mut m = ComplaintTrust::with_population(16);
        let cheater = PeerId(7);
        for v in 0..8 {
            m.file_complaint(PeerId(v), cheater, 0);
        }
        assert_eq!(m.assess(cheater), Assessment::Untrustworthy);
        let bystander_before = m.tally(PeerId(3));
        m.forget_peer(cheater);
        assert!(m.assess(cheater).is_trustworthy(), "whitewashed record");
        assert_eq!(m.tally(cheater), (0.0, 0.0));
        assert_eq!(m.tally(PeerId(3)), bystander_before);
        // Double-forget and out-of-table ids are no-ops.
        m.forget_peer(cheater);
        m.forget_peer(PeerId(9_999));
    }

    #[test]
    #[should_panic(expected = "outlier factor")]
    fn invalid_factor_panics() {
        ComplaintTrust::with_config(ComplaintConfig {
            outlier_factor: 0.5,
            ..ComplaintConfig::default()
        });
    }

    #[test]
    fn assessment_threshold_scales_with_population() {
        // In a noisy population where everyone has a few complaints, a
        // peer with the same few complaints is NOT an outlier.
        let mut m = ComplaintTrust::new();
        for p in 0..10u32 {
            for v in 0..3u32 {
                m.file_complaint(PeerId(100 + v), PeerId(p), 0);
            }
        }
        // Everyone has 3 received: products equal, nobody untrustworthy.
        for p in 0..10u32 {
            assert!(
                m.assess(PeerId(p)).is_trustworthy(),
                "uniform noise must not flag anyone"
            );
        }
        assert_eq!(m.name(), "complaints");
    }
}
