//! Differential suite for the dense-table trust models.
//!
//! The models moved from `HashMap<PeerId, …>` to population-sized `Vec`
//! storage with a sealed (stored until the next mutation) complaint
//! median and a batched `predict_row_into` read path. This suite pins
//! the refactor to reference implementations retaining the old
//! map-backed semantics:
//!
//! * dense storage ≡ the map semantics on random operation streams with
//!   sparse ids and cold probes (including the map-presence subtlety
//!   of ungraded witnesses);
//! * `predict_row_into` and the sparse `predict_row_sparse` ≡
//!   per-subject `predict`, bit for bit, for all four models, for rows
//!   shorter and longer than the table, before and after `forget_peer`;
//! * the median ≡ a from-scratch sort oracle under random
//!   mutate/seal/predict interleavings.

use proptest::prelude::*;
use std::collections::HashMap;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::{ComplaintTrust, OUTLIER_FACTOR};
use trustex_trust::confidence::evidence_confidence;
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

/// One step of a random model workout. Ids are drawn from a small range
/// plus occasional far-out ids, so dense tables see sparse growth.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: u32,
    b: u32,
    honest: bool,
    round: u64,
}

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..4, 0u32..24, 0u32..24, any::<bool>(), 0u64..30, 0u8..16).prop_map(
            |(kind, a, b, honest, round, stretch)| Op {
                kind,
                // One in 16 draws lands on a far-out id to exercise
                // sparse growth and cold in-range slots.
                a: if stretch == 0 { a + 1000 } else { a },
                b,
                honest,
                round,
            },
        ),
        0..max_len,
    )
}

fn witness_report(witness: u32, subject: u32, honest: bool, round: u64) -> WitnessReport {
    WitnessReport {
        witness: PeerId(witness),
        subject: PeerId(subject),
        conduct: Conduct::from_honest(honest),
        round,
    }
}

/// Probe ids covering touched, cold-in-range and never-grown slots.
fn probes() -> impl Iterator<Item = PeerId> {
    (0u32..26).chain([100, 999, 1000, 1023, 5000]).map(PeerId)
}

fn bits(estimate: TrustEstimate) -> (u64, u64) {
    (estimate.p_honest.to_bits(), estimate.confidence.to_bits())
}

/// Both row reads agree with per-subject `predict`: the dense row, and
/// a row filled with the sparse read's cold estimate and then the
/// listed ids (bit for bit), at five lengths; and every probe id reads
/// as listed, or as cold when not listed.
fn assert_rows_match(label: &str, model: &dyn TrustModel, table_hint: usize) {
    let mut listed = Vec::new();
    let cold = model.predict_row_sparse(&mut listed);
    let mut ids: Vec<PeerId> = listed.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), listed.len(), "{label} lists an id twice");
    for len in [0usize, 1, table_hint / 2, table_hint, table_hint + 7] {
        let mut row = vec![TrustEstimate::UNKNOWN; len];
        model.predict_row_into(&mut row);
        let mut sparse_row = vec![cold; len];
        for &(id, estimate) in &listed {
            if let Some(slot) = sparse_row.get_mut(id.index()) {
                *slot = estimate;
            }
        }
        for (i, (got, sparse)) in row.iter().zip(&sparse_row).enumerate() {
            let want = model.predict(PeerId(i as u32));
            assert_eq!(
                (want.p_honest, want.confidence),
                (got.p_honest, got.confidence),
                "{label} row[{i}] of len {len} diverged from predict"
            );
            assert_eq!(
                bits(*sparse),
                bits(want),
                "{label} sparse row[{i}] of len {len} diverged from predict"
            );
        }
    }
    for p in probes() {
        let read = listed
            .iter()
            .find(|&&(id, _)| id == p)
            .map_or(cold, |&(_, estimate)| estimate);
        assert_eq!(bits(read), bits(model.predict(p)), "{label} sparse {p}");
    }
}

/// [`assert_rows_match`], before and after the model forgets a few
/// probe ids: written ones, unwritten ones and one beyond the table.
fn assert_rows_match_across_forget(label: &str, model: &mut dyn TrustModel, table_hint: usize) {
    assert_rows_match(label, model, table_hint);
    for p in [0, 3, 25, 1000, 5000].map(PeerId) {
        model.forget_peer(p);
    }
    assert_rows_match(label, model, table_hint);
}

// ---------------------------------------------------------------------
// Reference implementations: the old map-backed storage, verbatim
// semantics, with the models' constants: beta prior Beta(1, 1), witness
// weights ½, witness prior 0.6.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RefEvidence {
    honest: f64,
    dishonest: f64,
}

impl RefEvidence {
    fn observe(&mut self, conduct: Conduct, weight: f64) {
        match conduct {
            Conduct::Honest => self.honest += weight,
            Conduct::Dishonest => self.dishonest += weight,
        }
    }
}

/// Map-backed beta model (the pre-dense storage layout).
#[derive(Default)]
struct RefBeta {
    evidence: HashMap<PeerId, RefEvidence>,
    witness_evidence: HashMap<PeerId, RefEvidence>,
}

impl RefBeta {
    fn grade_witness(&mut self, witness: PeerId, corroborated: bool) {
        self.witness_evidence
            .entry(witness)
            .or_default()
            .observe(Conduct::from_honest(corroborated), 1.0);
    }

    fn witness_reliability(&self, witness: PeerId) -> f64 {
        match self.witness_evidence.get(&witness) {
            None => 0.6,
            Some(e) => (1.0 + e.honest) / (1.0 + 1.0 + e.honest + e.dishonest),
        }
    }

    fn record_direct(&mut self, subject: PeerId, conduct: Conduct) {
        self.evidence
            .entry(subject)
            .or_default()
            .observe(conduct, 1.0);
    }

    fn record_witness(&mut self, report: WitnessReport) {
        let reliability = self.witness_reliability(report.witness);
        let discount = (2.0 * reliability - 1.0).max(0.0);
        let weight = 0.5 * discount;
        if weight <= 0.0 {
            return;
        }
        self.evidence
            .entry(report.subject)
            .or_default()
            .observe(report.conduct, weight);
    }

    fn posterior(&self, subject: PeerId) -> (f64, f64) {
        let e = self.evidence.get(&subject).copied().unwrap_or_default();
        (1.0 + e.honest, 1.0 + e.dishonest)
    }

    fn predict(&self, subject: PeerId) -> f64 {
        let (alpha, beta) = self.posterior(subject);
        alpha / (alpha + beta)
    }

    /// Confidence from the evidence mass beyond the Beta(1, 1) prior.
    fn confidence(&self, subject: PeerId) -> f64 {
        let (alpha, beta) = self.posterior(subject);
        evidence_confidence((alpha + beta) - 2.0)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RefTally {
    received: f64,
    filed: f64,
}

/// Map-backed complaint model with the sort-per-call median (the
/// pre-dense, pre-cache layout — also the from-scratch median oracle).
#[derive(Default)]
struct RefComplaints {
    tallies: HashMap<PeerId, RefTally>,
    population: Option<usize>,
}

impl RefComplaints {
    fn add_complaint(&mut self, by: PeerId, about: PeerId, weight: f64) {
        self.tallies.entry(about).or_default().received += weight;
        self.tallies.entry(by).or_default().filed += weight;
    }

    fn record_direct(&mut self, subject: PeerId, conduct: Conduct) {
        if !conduct.is_honest() {
            self.tallies.entry(subject).or_default().received += 1.0;
        }
    }

    fn record_witness(&mut self, report: WitnessReport) {
        if !report.conduct.is_honest() {
            self.add_complaint(report.witness, report.subject, 0.5);
        }
    }

    fn complaint_product(&self, peer: PeerId) -> f64 {
        let t = self.tallies.get(&peer).copied().unwrap_or_default();
        (t.received + 1.0) * (t.filed + 1.0)
    }

    fn tally(&self, peer: PeerId) -> (f64, f64) {
        let t = self.tallies.get(&peer).copied().unwrap_or_default();
        (t.received, t.filed)
    }

    /// The old sort-per-call median — the from-scratch oracle the stale
    /// and the sealed value must always equal.
    fn median_product(&self) -> f64 {
        if self.tallies.is_empty() {
            return 1.0;
        }
        let mut products: Vec<f64> = self
            .tallies
            .values()
            .map(|t| (t.received + 1.0) * (t.filed + 1.0))
            .collect();
        if let Some(n) = self.population {
            let silent = n.saturating_sub(products.len());
            products.extend(std::iter::repeat_n(1.0, silent));
        }
        products.sort_by(f64::total_cmp);
        products[products.len() / 2]
    }

    fn predict(&self, subject: PeerId) -> f64 {
        let product = self.complaint_product(subject);
        let median = self.median_product();
        let ratio = product / (OUTLIER_FACTOR * median);
        1.0 / (1.0 + ratio * ratio)
    }
}

// ---------------------------------------------------------------------
// The differential properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense beta storage reproduces the map-backed reference bit for
    /// bit — posterior, reliability and prediction — on random streams
    /// of direct records, witness reports and witness grades, with and
    /// without pre-sizing.
    #[test]
    fn beta_dense_matches_map_reference(ops in ops(120), presize in any::<bool>()) {
        let mut dense = BetaTrust::new();
        if presize {
            dense.ensure_capacity(24);
        }
        let mut reference = RefBeta::default();
        for op in &ops {
            match op.kind {
                0 => {
                    let conduct = Conduct::from_honest(op.honest);
                    dense.record_direct(PeerId(op.a), conduct, op.round);
                    reference.record_direct(PeerId(op.a), conduct);
                }
                1 => {
                    let report = witness_report(op.a, op.b, op.honest, op.round);
                    dense.record_witness(report);
                    reference.record_witness(report);
                }
                _ => {
                    dense.grade_witness(PeerId(op.a), op.honest, op.round);
                    reference.grade_witness(PeerId(op.a), op.honest);
                }
            }
        }
        for p in probes() {
            prop_assert_eq!(dense.witness_reliability(p), reference.witness_reliability(p));
            prop_assert_eq!(dense.predict(p).p_honest, reference.predict(p));
            prop_assert_eq!(dense.predict(p).confidence, reference.confidence(p));
        }
        assert_rows_match_across_forget("beta", &mut dense, 1024);
    }

    /// Dense complaint storage (tallies, products, median, predictions,
    /// assessments) reproduces the map-backed reference bit for bit,
    /// with and without a declared population.
    #[test]
    fn complaints_dense_matches_map_reference(
        ops in ops(120),
        population in 0usize..40,
    ) {
        let mut dense = ComplaintTrust::new();
        let mut reference = RefComplaints::default();
        if population > 0 {
            dense.set_population(population);
            reference.population = Some(population);
        }
        for op in &ops {
            match op.kind {
                0 => {
                    let conduct = Conduct::from_honest(op.honest);
                    dense.record_direct(PeerId(op.a), conduct, op.round);
                    reference.record_direct(PeerId(op.a), conduct);
                }
                1 => {
                    let report = witness_report(op.a, op.b, op.honest, op.round);
                    dense.record_witness(report);
                    reference.record_witness(report);
                }
                _ => {
                    dense.file_complaint(PeerId(op.a), PeerId(op.b), op.round);
                    reference.add_complaint(PeerId(op.a), PeerId(op.b), 1.0);
                }
            }
        }
        prop_assert_eq!(dense.median_product(), reference.median_product());
        for p in probes() {
            prop_assert_eq!(dense.tally(p), reference.tally(p));
            let (received, filed) = dense.tally(p);
            prop_assert_eq!((received + 1.0) * (filed + 1.0), reference.complaint_product(p));
            prop_assert_eq!(dense.predict(p).p_honest, reference.predict(p));
        }
        assert_rows_match_across_forget("complaints", &mut dense, 1024);
    }

    /// The median equals the from-scratch sort oracle after *every*
    /// prefix of a random mutate/seal/read interleaving — reads of a
    /// sealed model and of one mutated since its last seal.
    #[test]
    fn cached_median_matches_fresh_oracle_under_interleaving(
        ops in ops(80),
        population in 0usize..30,
    ) {
        let mut dense = ComplaintTrust::new();
        let mut reference = RefComplaints::default();
        if population > 0 {
            dense.set_population(population);
            reference.population = Some(population);
        }
        for op in &ops {
            match op.kind {
                0 => {
                    dense.file_complaint(PeerId(op.a), PeerId(op.b), op.round);
                    reference.add_complaint(PeerId(op.a), PeerId(op.b), 1.0);
                }
                1 => {
                    let conduct = Conduct::from_honest(op.honest);
                    dense.record_direct(PeerId(op.a), conduct, op.round);
                    reference.record_direct(PeerId(op.a), conduct);
                }
                2 => {
                    // Re-declaring the population also invalidates.
                    let n = (op.a as usize) % 30;
                    dense.set_population(n);
                    reference.population = Some(n);
                }
                _ => {
                    // Seal, then a read-only batch: repeated reads return
                    // the stored median.
                    dense.seal();
                    let m = dense.median_product();
                    prop_assert_eq!(m, dense.median_product());
                }
            }
            prop_assert_eq!(dense.median_product(), reference.median_product());
        }
    }

    /// Dense mean/EWMA baselines match their map-backed references and
    /// their batched rows match per-subject predicts.
    #[test]
    fn baselines_dense_match_map_reference(ops in ops(120)) {
        let mut mean = MeanTrust::new();
        let mut ewma = EwmaTrust::default();
        let mut ref_counts: HashMap<PeerId, (u64, u64)> = HashMap::new();
        let mut ref_scores: HashMap<PeerId, (f64, u64)> = HashMap::new();
        let rate = 0.2;
        for op in &ops {
            let (subject, weight) = if op.kind == 0 {
                (PeerId(op.a), 1.0)
            } else {
                (PeerId(op.b), 0.5)
            };
            let conduct = Conduct::from_honest(op.honest);
            if op.kind == 0 {
                mean.record_direct(subject, conduct, op.round);
                ewma.record_direct(subject, conduct, op.round);
            } else {
                let report = witness_report(op.a, subject.0, op.honest, op.round);
                mean.record_witness(report);
                ewma.record_witness(report);
            }
            let c = ref_counts.entry(subject).or_insert((0, 0));
            if op.honest {
                c.0 += 1;
            }
            c.1 += 1;
            let (score, n) = ref_scores.entry(subject).or_insert((0.5, 0));
            let target = if op.honest { 1.0 } else { 0.0 };
            let lambda = rate * weight;
            *score = (1.0 - lambda) * *score + lambda * target;
            *n += 1;
        }
        for p in probes() {
            prop_assert_eq!(mean.counts(p), ref_counts.get(&p).copied().unwrap_or((0, 0)));
            match ref_scores.get(&p) {
                None => prop_assert_eq!(ewma.predict(p).p_honest, 0.5),
                Some((score, _)) => prop_assert_eq!(ewma.predict(p).p_honest, score.clamp(0.0, 1.0)),
            }
        }
        assert_rows_match_across_forget("mean", &mut mean, 1024);
        assert_rows_match_across_forget("ewma", &mut ewma, 1024);
    }
}

/// Mean-model witness reports count at full weight, so the mean
/// reference above folds both op kinds into one path; this pins the
/// subtle difference — the EWMA witness path halves λ — explicitly.
#[test]
fn ewma_witness_weight_regression() {
    let mut m = EwmaTrust::new();
    m.record_witness(witness_report(9, 1, true, 0));
    // λ·w = 0.1: 0.9·0.5 + 0.1·1 = 0.55.
    assert!((m.predict(PeerId(1)).p_honest - 0.55).abs() < 1e-12);
    m.record_direct(PeerId(1), Conduct::Dishonest, 0);
    // λ = 0.2: 0.8·0.55 = 0.44.
    assert!((m.predict(PeerId(1)).p_honest - 0.44).abs() < 1e-12);
}

/// `predict_row_into`'s default trait implementation (the per-subject
/// loop) agrees with the models' overridden sweeps.
#[test]
fn default_row_impl_agrees_with_overrides() {
    struct ViaDefault<'a>(&'a dyn TrustModel);
    impl TrustModel for ViaDefault<'_> {
        fn record_direct(&mut self, _: PeerId, _: Conduct, _: u64) {
            unreachable!()
        }
        fn record_witness(&mut self, _: WitnessReport) {
            unreachable!()
        }
        fn predict(&self, subject: PeerId) -> TrustEstimate {
            self.0.predict(subject)
        }
        fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
            self.0.predict_row_sparse(out)
        }
    }

    let mut beta = BetaTrust::new();
    let mut complaints = ComplaintTrust::with_population(12);
    let mut mean = MeanTrust::new();
    let mut ewma = EwmaTrust::default();
    for i in 0..10u32 {
        let conduct = Conduct::from_honest(i % 3 != 0);
        beta.record_direct(PeerId(i), conduct, i as u64);
        complaints.record_direct(PeerId(i), conduct, i as u64);
        mean.record_direct(PeerId(i), conduct, i as u64);
        ewma.record_direct(PeerId(i), conduct, i as u64);
    }
    let models: [(&str, &dyn TrustModel); 4] = [
        ("beta", &beta),
        ("complaints", &complaints),
        ("mean", &mean),
        ("ewma", &ewma),
    ];
    for (label, model) in models {
        let mut via_override = vec![TrustEstimate::UNKNOWN; 16];
        let mut via_default = vec![TrustEstimate::UNKNOWN; 16];
        model.predict_row_into(&mut via_override);
        ViaDefault(model).predict_row_into(&mut via_default);
        assert_eq!(via_override, via_default, "{label}");
    }
}
