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
//! dishonest when its product exceeds [`OUTLIER_FACTOR`] (4) times the
//! median product over the recorded peers (plus a baseline 1.0 for each
//! silent peer when a population size is declared). The CIKM paper
//! phrases its rule as detecting outliers relative to the average
//! behaviour; this fixed multiple of the median stands in for it, and no
//! dispersion of the sample enters.
//!
//! The model maps the binary decision onto a smooth probability
//! ([`complaint_estimate`]) so it can participate in the common
//! [`TrustModel`] interface: a peer lies below ½ exactly when its
//! product exceeds the outlier threshold.

use crate::confidence::evidence_confidence;
use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use crate::table::dense_slot;
use crate::{take_count, take_fixed_f64};
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// A peer is assessed dishonest when its complaint product exceeds
/// `OUTLIER_FACTOR` times the population median product.
pub const OUTLIER_FACTOR: f64 = 4.0;

/// Weight of a witness-relayed complaint relative to a direct one.
const WITNESS_WEIGHT: f64 = 0.5;

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

    /// Whether the tally is bit-identical to the default one. A decoded
    /// unseen tally may hold `-0.0` counts, which are not cold.
    fn is_cold(&self) -> bool {
        !self.seen && self.received.to_bits() == 0 && self.filed.to_bits() == 0
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
///
/// A model holds a bracket once its first seal has selected, and keeps
/// it across clones and later seals.
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

    /// Whether `m` is the element at rank `mid` of the sorted multiset.
    fn holds(&self, mid: usize) -> bool {
        self.below <= mid && mid < self.below + self.equal
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
/// use trustex_trust::complaints::ComplaintTrust;
/// use trustex_trust::model::{Conduct, PeerId, TrustModel};
///
/// let mut model = ComplaintTrust::new();
/// let cheater = PeerId(100);
/// // Eight victims complain about the cheater.
/// for victim in 0..8 {
///     model.file_complaint(PeerId(victim), cheater, 0);
/// }
/// assert!(model.predict(cheater).p_honest < 0.5);
/// assert!(model.predict(PeerId(1)).p_honest > 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ComplaintTrust {
    /// Dense per-peer tallies, indexed by [`PeerId::index`].
    tallies: Vec<Tally>,
    /// Number of peers with `seen == true` — the size the map-backed
    /// storage used to have.
    recorded: usize,
    /// Known community size; peers without records count as product 1.0
    /// when computing the population median.
    population: Option<usize>,
    /// The population median as of the last [`TrustModel::seal`];
    /// `None` (stale) once a mutation follows it.
    median: Option<f64>,
    /// The rank bracket around the last selected median.
    bracket: Option<Bracket>,
    /// Scorer-weighted aggregation: additionally scale relayed
    /// complaints by the evaluator's current honesty estimate for the
    /// *complainer* (`predict(witness).p_honest`). Peers whose own
    /// complaint product already marks them as outliers — serial
    /// slanderers, heavily-complained-about cheaters — lose most of
    /// their power to pile further complaints onto victims.
    scorer_weighted: bool,
}

impl ComplaintTrust {
    /// Creates an empty model with no declared population.
    pub fn new() -> ComplaintTrust {
        ComplaintTrust::default()
    }

    /// Creates a model for a community of `n` peers:
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
        self.median = None;
        self.bracket = None;
    }

    /// Enables (or disables) scorer-weighted aggregation of relayed
    /// complaints; returns the model for builder-style chaining.
    pub fn scorer_weighted(mut self, on: bool) -> ComplaintTrust {
        self.scorer_weighted = on;
        self
    }

    /// Records a complaint filed by `by` about `about` with unit weight.
    pub fn file_complaint(&mut self, by: PeerId, about: PeerId, _round: u64) {
        self.add_complaint(by, about, 1.0);
    }

    /// The silent peers: how far a declared population exceeds the
    /// recorded peers. Each pads the median multiset with a 1.0.
    fn silent(&self) -> usize {
        self.population
            .map_or(0, |n| n.saturating_sub(self.recorded))
    }

    /// Applies `change` to a peer's tally, marking it as recorded (the
    /// dense stand-in for map-entry creation), and moves the median
    /// bracket with the product.
    fn update_tally(&mut self, peer: PeerId, change: impl FnOnce(&mut Tally)) {
        let had_silent = self.silent() > 0;
        let slot = dense_slot(&mut self.tallies, peer);
        let (was_seen, before) = (slot.seen, slot.product());
        if !was_seen {
            slot.seen = true;
            self.recorded += 1;
        }
        change(slot);
        self.median = None;
        if let Some(bracket) = &mut self.bracket {
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

    /// Complaints received / filed by a peer (direct + discounted).
    pub fn tally(&self, peer: PeerId) -> (f64, f64) {
        let t = self.tallies.get(peer.index()).copied().unwrap_or_default();
        (t.received, t.filed)
    }

    /// Median complaint product over the community: peers with records
    /// contribute their product, the rest (when a population size is
    /// declared) contribute the baseline 1.0. Returns 1.0 when empty.
    ///
    /// A sealed model (see [`TrustModel::seal`]) returns the median its
    /// seal stored. A model mutated since then computes the same value
    /// without storing it, exactly as the next seal will: off the rank
    /// bracket (the last median with the counts below and equal to it,
    /// which every mutation keeps exact in O(1)) while the middle rank
    /// stays inside it, else by a fresh selection. Both paths return the
    /// same element, bit for bit.
    pub fn median_product(&self) -> f64 {
        self.median
            .unwrap_or_else(|| self.locate_median().map_or(1.0, |b| b.value))
    }

    /// The median with its rank counts, or `None` when no peer is
    /// recorded (the median is then 1.0): the kept bracket while it
    /// still holds the middle rank, else a fresh selection.
    fn locate_median(&self) -> Option<Bracket> {
        if self.recorded == 0 {
            return None;
        }
        let silent = self.silent();
        let mid = (self.recorded + silent) / 2;
        if let Some(bracket) = self.bracket.filter(|b| b.holds(mid)) {
            return Some(bracket);
        }
        // Every product (r+1)(f+1) is ≥ 1.0, so the 1.0s (the silent
        // peers and the recorded peers without complaints) are the
        // smallest elements of the multiset: only the products above
        // 1.0 need a buffer, at most one entry per recorded peer.
        let mut above: Vec<f64> = self
            .tallies
            .iter()
            .filter(|t| t.seen)
            .map(Tally::product)
            .filter(|&p| p > 1.0)
            .collect();
        let ones = silent + self.recorded - above.len();
        if mid < ones {
            return Some(Bracket {
                value: 1.0,
                below: 0,
                equal: ones,
            });
        }
        let (left, &mut value, right) = above.select_nth_unstable_by(mid - ones, f64::total_cmp);
        // The selection leaves only elements ≤ m on the left and ≥ m on
        // the right, so counting the copies of m (equal under total_cmp
        // means bit-equal) on each side places the bracket.
        let copies = |side: &[f64]| {
            side.iter()
                .filter(|x| x.to_bits() == value.to_bits())
                .count()
        };
        let equal_left = copies(left);
        Some(Bracket {
            value,
            below: mid - equal_left,
            equal: 1 + equal_left + copies(right),
        })
    }
}

/// The complaint rule: the honesty estimate of a peer that received
/// `received` and filed `filed` complaints, against an outlier
/// `threshold` ([`OUTLIER_FACTOR`] × the population median product).
///
/// The farther the complaint product lies above the threshold, the
/// lower the estimate: exactly at it, 0.5; well below it, near 1.
/// Confidence grows with the number of complaints.
pub fn complaint_estimate(received: f64, filed: f64, threshold: f64) -> TrustEstimate {
    let ratio = (received + 1.0) * (filed + 1.0) / threshold;
    let p = 1.0 / (1.0 + ratio * ratio);
    TrustEstimate::new(p, evidence_confidence(received + filed))
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
            let mut weight = WITNESS_WEIGHT;
            if self.scorer_weighted {
                // Defense knob: a complainer whose own product is already
                // outlier-grade gets its relayed complaints deflated.
                // Sealing first stores the median the predict reads, so
                // a stream of reports locates it once per mutation, not
                // once per report and again at the next seal.
                self.seal();
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
        let threshold = OUTLIER_FACTOR * self.median_product();
        complaint_estimate(tally.received, tally.filed, threshold)
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        // One median read and one threshold multiply serve the whole
        // sweep.
        let threshold = OUTLIER_FACTOR * self.median_product();
        let covered = self.tallies.len().min(out.len());
        for (slot, tally) in out[..covered].iter_mut().zip(&self.tallies) {
            *slot = complaint_estimate(tally.received, tally.filed, threshold);
        }
        if covered < out.len() {
            let cold = complaint_estimate(0.0, 0.0, threshold);
            out[covered..].fill(cold);
        }
    }

    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
        let threshold = OUTLIER_FACTOR * self.median_product();
        let estimate = |t: &Tally| complaint_estimate(t.received, t.filed, threshold);
        let written = (0..=u32::MAX).map(PeerId).zip(&self.tallies);
        out.clear();
        out.extend(
            written
                .filter(|(_, t)| !t.is_cold())
                .map(|(peer, t)| (peer, estimate(t))),
        );
        estimate(&Tally::default())
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
                let silent = (self.silent() > 0).then_some(1.0);
                self.median = None;
                if let Some(bracket) = &mut self.bracket {
                    bracket.shift(Some(gone), silent);
                }
            }
        }
    }

    fn seal(&mut self) {
        if self.median.is_none() {
            let located = self.locate_median();
            self.median = Some(located.map_or(1.0, |b| b.value));
            self.bracket = located.or(self.bracket);
        }
    }
}

impl Persistable for ComplaintTrust {
    const TAG: [u8; 4] = *b"CMPL";

    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_f64(OUTLIER_FACTOR);
        w.put_f64(WITNESS_WEIGHT);
        w.put_bool(self.scorer_weighted);
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
        // `recorded` is derived (seen-count) and the median and its
        // bracket are re-derived by the next seal — none of them travels.
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        for v in [OUTLIER_FACTOR, WITNESS_WEIGHT] {
            take_fixed_f64(
                r,
                v,
                "complaint configuration differs from the model's constants",
            )?;
        }
        let scorer_weighted = r.take_bool()?;
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
                received: take_count(r, "complaint tallies must be in [0, 2^53]")?,
                filed: take_count(r, "complaint tallies must be in [0, 2^53]")?,
                seen: r.take_bool()?,
            };
            if !t.seen && (t.received != 0.0 || t.filed != 0.0) {
                return Err(PersistError::Invalid {
                    context: "unseen peer with non-zero complaint tally",
                });
            }
            recorded += usize::from(t.seen);
            tallies.push(t);
        }
        // The median starts stale: the first seal selects it from the
        // restored tallies — a pure function, so the value is
        // bit-identical to the encoded instance's.
        Ok(ComplaintTrust {
            tallies,
            recorded,
            population,
            median: None,
            bracket: None,
            scorer_weighted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CIKM outlier decision, read through the estimate: a peer is
    /// flagged when its complaint product exceeds the threshold, which
    /// is where its honesty estimate drops below ½.
    fn flagged(m: &ComplaintTrust, peer: PeerId) -> bool {
        m.predict(peer).p_honest < 0.5
    }

    /// The Laplace-shifted complaint product `T(q)` of a peer.
    fn product(m: &ComplaintTrust, peer: PeerId) -> f64 {
        m.tallies
            .get(peer.index())
            .copied()
            .unwrap_or_default()
            .product()
    }

    #[test]
    fn no_data_is_trustworthy() {
        let m = ComplaintTrust::new();
        assert!(!flagged(&m, PeerId(1)));
        assert_eq!(product(&m, PeerId(1)), 1.0);
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
        assert!(flagged(&m, cheater));
        // Victims each filed one complaint: product (0+1)(1+1)=2, median
        // stays low, so victims remain trustworthy.
        assert!(!flagged(&m, PeerId(0)));
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
        assert!(flagged(&m, liar));
        // Slander victims each received one complaint; with the median at
        // (1+1)(0+1) = 2 they stay below the outlier threshold.
        assert!(!flagged(&m, PeerId(3)));
    }

    #[test]
    fn tally_tracks_both_directions() {
        let mut m = ComplaintTrust::new();
        m.file_complaint(PeerId(1), PeerId(2), 0);
        m.file_complaint(PeerId(2), PeerId(1), 0);
        m.file_complaint(PeerId(3), PeerId(1), 0);
        let (recv, filed) = m.tally(PeerId(1));
        assert_eq!((recv, filed), (2.0, 1.0));
        assert_eq!(product(&m, PeerId(1)), 6.0);
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
        let mut weighted = ComplaintTrust::new().scorer_weighted(true);
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
        assert!(flagged(&m, cheater));
        let bystander_before = m.tally(PeerId(3));
        m.forget_peer(cheater);
        assert!(!flagged(&m, cheater), "whitewashed record");
        assert_eq!(m.tally(cheater), (0.0, 0.0));
        assert_eq!(m.tally(PeerId(3)), bystander_before);
        // Double-forget and out-of-table ids are no-ops.
        m.forget_peer(cheater);
        m.forget_peer(PeerId(9_999));
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
                !flagged(&m, PeerId(p)),
                "uniform noise must not flag anyone"
            );
        }
    }
}
