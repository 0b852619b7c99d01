//! The community: agent profiles paired with per-agent trust models.
//!
//! Every agent owns its own [`TrustModel`] instance (trust is
//! subjective), selected by [`ModelKind`]. The community also maintains
//! the witness-corroboration bookkeeping that lets the beta model grade
//! its informants.
//!
//! The community holds its models as plain data. Reads that run
//! concurrently go through a [`CommunitySnapshot`], which seals the
//! models and borrows the community, so no write can happen while a
//! reader exists.

use trustex_agents::profile::{AgentProfile, PopulationMix};
use trustex_netsim::rng::SimRng;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use trustex_trust::table::PeerTable;

/// Community-level defenses against coordinated reporting attacks.
///
/// Both default to off so every existing experiment replays unchanged;
/// experiment E11 sweeps them against the adversary zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefenseConfig {
    /// Scorer-weighted witness aggregation: every model additionally
    /// weighs (or gates) witness reports by the evaluator's own honesty
    /// estimate of the *reporter* (see the per-model `scorer_weighted`
    /// knobs in `trustex-trust`).
    pub scorer_weighted: bool,
    /// Per-reporter cap on witness-report deliveries per round;
    /// deliveries beyond the cap are dropped community-wide. Throttles
    /// Sybil amplification and slander floods without touching ordinary
    /// gossip volumes.
    pub report_rate_cap: Option<u32>,
}

/// Which trust model every agent runs. Each kind runs with its model's
/// constant parameters; the one per-run choice is the scorer-weighted
/// witness defense ([`DefenseConfig::scorer_weighted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Bayesian beta posterior (Mui et al.).
    Beta,
    /// Complaint-product metric (Aberer–Despotovic).
    Complaints,
    /// Arithmetic mean baseline.
    Mean,
    /// EWMA baseline.
    Ewma,
}

impl ModelKind {
    /// All kinds, for sweeps.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Beta,
        ModelKind::Complaints,
        ModelKind::Mean,
        ModelKind::Ewma,
    ];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Beta => "beta",
            ModelKind::Complaints => "complaints",
            ModelKind::Mean => "mean",
            ModelKind::Ewma => "ewma",
        }
    }

    /// Builds a model sized for a community of `n` peers, with the
    /// scorer-weighted witness defense (see [`DefenseConfig`]) on or
    /// off; every other parameter is the model's constant. The Beta,
    /// mean and EWMA models set their [`PeerTable`]s' dense length to
    /// `n` and allocate evidence slots (and index space) only for the
    /// peers written, and the complaint model allocates its dense table
    /// up front and learns the population for its median.
    pub(crate) fn build(self, n: usize, scorer_weighted: bool) -> AnyModel {
        match self {
            ModelKind::Beta => {
                AnyModel::Beta(BetaTrust::with_population(n).scorer_weighted(scorer_weighted))
            }
            ModelKind::Complaints => AnyModel::Complaints(
                ComplaintTrust::with_population(n).scorer_weighted(scorer_weighted),
            ),
            ModelKind::Mean => {
                AnyModel::Mean(MeanTrust::with_population(n).scorer_weighted(scorer_weighted))
            }
            ModelKind::Ewma => {
                AnyModel::Ewma(EwmaTrust::with_population(n).scorer_weighted(scorer_weighted))
            }
        }
    }
}

/// A concrete trust model of any supported kind.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Bayesian beta posterior.
    Beta(BetaTrust),
    /// Complaint-product metric.
    Complaints(ComplaintTrust),
    /// Mean baseline.
    Mean(MeanTrust),
    /// EWMA baseline.
    Ewma(EwmaTrust),
}

impl TrustModel for AnyModel {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, round: u64) {
        match self {
            AnyModel::Beta(m) => m.record_direct(subject, conduct, round),
            AnyModel::Complaints(m) => m.record_direct(subject, conduct, round),
            AnyModel::Mean(m) => m.record_direct(subject, conduct, round),
            AnyModel::Ewma(m) => m.record_direct(subject, conduct, round),
        }
    }

    fn record_witness(&mut self, report: WitnessReport) {
        match self {
            AnyModel::Beta(m) => m.record_witness(report),
            AnyModel::Complaints(m) => m.record_witness(report),
            AnyModel::Mean(m) => m.record_witness(report),
            AnyModel::Ewma(m) => m.record_witness(report),
        }
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        match self {
            AnyModel::Beta(m) => m.predict(subject),
            AnyModel::Complaints(m) => m.predict(subject),
            AnyModel::Mean(m) => m.predict(subject),
            AnyModel::Ewma(m) => m.predict(subject),
        }
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        // One dispatch per row (not per cell) into the models' table
        // sweeps: the dense read of e12's replay.
        match self {
            AnyModel::Beta(m) => m.predict_row_into(out),
            AnyModel::Complaints(m) => m.predict_row_into(out),
            AnyModel::Mean(m) => m.predict_row_into(out),
            AnyModel::Ewma(m) => m.predict_row_into(out),
        }
    }

    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
        match self {
            AnyModel::Beta(m) => m.predict_row_sparse(out),
            AnyModel::Complaints(m) => m.predict_row_sparse(out),
            AnyModel::Mean(m) => m.predict_row_sparse(out),
            AnyModel::Ewma(m) => m.predict_row_sparse(out),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyModel::Beta(m) => m.name(),
            AnyModel::Complaints(m) => m.name(),
            AnyModel::Mean(m) => m.name(),
            AnyModel::Ewma(m) => m.name(),
        }
    }

    fn forget_peer(&mut self, peer: PeerId) {
        match self {
            AnyModel::Beta(m) => m.forget_peer(peer),
            AnyModel::Complaints(m) => m.forget_peer(peer),
            AnyModel::Mean(m) => m.forget_peer(peer),
            AnyModel::Ewma(m) => m.forget_peer(peer),
        }
    }

    fn seal(&mut self) {
        match self {
            AnyModel::Beta(m) => m.seal(),
            AnyModel::Complaints(m) => m.seal(),
            AnyModel::Mean(m) => m.seal(),
            AnyModel::Ewma(m) => m.seal(),
        }
    }
}

impl AnyModel {
    /// Grades a witness (no-op for models without witness reliability).
    pub fn grade_witness(&mut self, witness: PeerId, corroborated: bool, round: u64) {
        if let AnyModel::Beta(m) = self {
            m.grade_witness(witness, corroborated, round);
        }
    }
}

/// Witness reports awaiting corroboration, stored densely per
/// evaluator: `queues[evaluator]` is one flat `(subject, witness,
/// conduct)` list in delivery order.
///
/// The queues are not short. At the end of a perfbench `market` batch
/// (n = 10³, 10 rounds) an evaluator holds 31 reports on average, and
/// 275–544 at the end of each trading e8 arm (n = 10³, 100 rounds).
/// One flat list per evaluator keeps them in one allocation that grows
/// to its high-water mark and stays there: consuming reports is an
/// in-place `retain`, so steady-state operation allocates nothing, and
/// the storage is indexable by evaluator — the access pattern of both
/// the record path and the snapshot engine's merge phase.
#[derive(Debug, Default)]
struct PendingIndex {
    /// Per-evaluator `(subject, witness, conduct)` reports, in delivery
    /// order.
    queues: Vec<Vec<(PeerId, PeerId, Conduct)>>,
    /// Total queued reports across all evaluators.
    count: usize,
}

impl PendingIndex {
    fn new(n: usize) -> PendingIndex {
        PendingIndex {
            queues: (0..n).map(|_| Vec::new()).collect(),
            count: 0,
        }
    }

    /// Queues one report from `witness` about `subject` for `evaluator`.
    fn push(&mut self, evaluator: PeerId, subject: PeerId, witness: PeerId, conduct: Conduct) {
        self.queues[evaluator.index()].push((subject, witness, conduct));
        self.count += 1;
    }

    /// Removes `evaluator`'s queued reports about `subject`, handing
    /// each `(witness, conduct)` to `grade` in delivery order.
    fn drain(
        &mut self,
        evaluator: PeerId,
        subject: PeerId,
        mut grade: impl FnMut(PeerId, Conduct),
    ) {
        let queue = &mut self.queues[evaluator.index()];
        let before = queue.len();
        // `retain` visits every entry once, in order.
        queue.retain(|&(about, witness, conduct)| {
            if about == subject {
                grade(witness, conduct);
            }
            about != subject
        });
        self.count -= before - queue.len();
    }

    /// Drops every queued report *about* `peer` and every report *filed
    /// by* `peer` from other evaluators' queues — the pending-index side
    /// of a whitewash. The peer's own queue (reports delivered to it
    /// about others) is kept: the operator retains its knowledge.
    fn purge(&mut self, peer: PeerId) {
        for (evaluator, queue) in self.queues.iter_mut().enumerate() {
            if evaluator == peer.index() {
                continue;
            }
            let before = queue.len();
            queue.retain(|&(subject, witness, _)| subject != peer && witness != peer);
            self.count -= before - queue.len();
        }
    }

    fn len(&self) -> usize {
        self.count
    }
}

/// The community of agents.
///
/// The community owns every agent's model, the direct ledger and the
/// degraded flag as plain data. Trust is read to plan an exchange and
/// written only after the exchange ends, so concurrent readers go
/// through a [`CommunitySnapshot`], which borrows the sealed community:
/// the borrow checker rules out any write while a reader exists.
#[derive(Debug)]
pub struct Community {
    profiles: Vec<AgentProfile>,
    /// Every agent's trust model, indexed by agent id.
    models: Vec<AnyModel>,
    /// Per-(evaluator, subject) direct-experience ledger backing the
    /// degraded-mode fallback; only allocated for chaos runs.
    direct: Option<DirectLedger>,
    /// When set, predictions use direct evidence only — the graceful
    /// degradation the market engages while the witness quorum is
    /// unreachable, instead of trusting estimates that silently read
    /// lost gossip as absence of complaints.
    degraded: bool,
    /// Witness reports awaiting corroboration.
    pending: PendingIndex,
    /// Active community-level defenses.
    defense: DefenseConfig,
    /// Witness-report deliveries per reporter since the last
    /// [`Community::begin_round`]; only consulted when
    /// `defense.report_rate_cap` is set. Counted per delivery round,
    /// not per round of origin, so retransmissions of older reports
    /// share the current round's budget.
    witness_filed: Vec<u32>,
}

/// Per-(evaluator, subject) counts of direct experiences —
/// `(honest, total)` — kept outside the trust models so degraded-mode
/// fallback needs no change to any model's persisted state. One
/// [`PeerTable`] row per evaluator holds only the pairs that traded.
#[derive(Debug)]
struct DirectLedger {
    rows: Vec<PeerTable<(u32, u32)>>,
}

impl DirectLedger {
    fn new(n: usize) -> DirectLedger {
        DirectLedger {
            rows: (0..n).map(|_| PeerTable::default()).collect(),
        }
    }

    fn observe(&mut self, evaluator: PeerId, subject: PeerId, conduct: Conduct) {
        let slot = self.rows[evaluator.index()].slot_mut(subject);
        if conduct.is_honest() {
            slot.0 += 1;
        }
        slot.1 += 1;
    }

    /// The Laplace-smoothed direct-only estimate of `(honest, total)`
    /// counts: maximum ignorance for a pair that never interacted.
    fn estimate_of((honest, total): (u32, u32)) -> TrustEstimate {
        if total == 0 {
            return TrustEstimate::UNKNOWN;
        }
        let p = (f64::from(honest) + 1.0) / (f64::from(total) + 2.0);
        let confidence = f64::from(total) / (f64::from(total) + 4.0);
        TrustEstimate::new(p, confidence)
    }

    /// `evaluator`'s direct-only estimate of `subject`.
    fn estimate(&self, evaluator: PeerId, subject: PeerId) -> TrustEstimate {
        Self::estimate_of(self.rows[evaluator.index()].get(subject))
    }

    /// Resets every other evaluator's counts of `agent` to the cold
    /// `(0, 0)`; `agent`'s own row stays.
    fn forget(&mut self, agent: PeerId) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != agent.index() {
                row.forget(agent);
            }
        }
    }
}

/// A read-only view of a sealed [`Community`], taken with
/// [`Community::snapshot`] — the per-round view the sharded session
/// executor plans against.
///
/// The view borrows the community, so the community cannot be written
/// until every view is gone: reads are bit-identical to the
/// community's at snapshot time because nothing can change it. A view
/// that must outlive writes is [`trustex_trust::engine::TrustSnapshot`]'s
/// job, whose readers run while an epoch is published.
#[derive(Debug)]
pub struct CommunitySnapshot<'a> {
    community: &'a Community,
}

impl CommunitySnapshot<'_> {
    /// `evaluator`'s trust estimate of `subject` (see
    /// [`Community::predict`]).
    pub fn predict(&self, evaluator: PeerId, subject: PeerId) -> TrustEstimate {
        self.community.predict(evaluator, subject)
    }

    /// The profile of an agent (see [`Community::profile`]).
    pub fn profile(&self, agent: PeerId) -> AgentProfile {
        self.community.profile(agent)
    }
}

impl Community {
    /// Samples a community of `n` agents from `mix`, all running `kind`
    /// trust models.
    pub fn new(n: usize, mix: &PopulationMix, kind: ModelKind, rng: &mut SimRng) -> Community {
        Community::with_defense(n, mix, kind, DefenseConfig::default(), rng)
    }

    /// Like [`Community::new`] with explicit community-level defenses.
    pub fn with_defense(
        n: usize,
        mix: &PopulationMix,
        kind: ModelKind,
        defense: DefenseConfig,
        rng: &mut SimRng,
    ) -> Community {
        let profiles = mix.sample(n, rng);
        let models = (0..n)
            .map(|_| kind.build(n, defense.scorer_weighted))
            .collect();
        Community {
            profiles,
            models,
            direct: None,
            degraded: false,
            pending: PendingIndex::new(n),
            defense,
            witness_filed: vec![0; n],
        }
    }

    /// Allocates the direct-experience ledger that degraded mode falls
    /// back on. Chaos runs call this up front so every direct
    /// interaction is ledgered from round zero; without it,
    /// [`Community::set_degraded`] still works but evaluators whose
    /// model cannot separate direct evidence degrade all the way to
    /// [`TrustEstimate::UNKNOWN`].
    pub fn enable_direct_ledger(&mut self) {
        if self.direct.is_none() {
            self.direct = Some(DirectLedger::new(self.len()));
        }
    }

    /// Switches direct-evidence-only (degraded) prediction on or off.
    ///
    /// The market flips this when the fraction of witness gossip
    /// actually delivered falls below the quorum threshold — the
    /// graceful-degradation contract: rather than silently treating
    /// undelivered complaints as evidence of good behaviour, evaluators
    /// stop consuming the witness channel until it heals.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    /// Whether degraded (direct-only) prediction is active.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Seals every model (see [`TrustModel::seal`]), so that batch reads
    /// (the accuracy metrics) find them settled.
    pub fn seal(&mut self) {
        for model in &mut self.models {
            model.seal();
        }
    }

    /// Seals the models (see [`Community::seal`]) and returns a
    /// read-only view of the community, which stays sealed for as long
    /// as the view lives.
    pub fn snapshot(&mut self) -> CommunitySnapshot<'_> {
        self.seal();
        CommunitySnapshot { community: self }
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the community is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile of an agent.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn profile(&self, agent: PeerId) -> AgentProfile {
        self.profiles[agent.index()]
    }

    /// Read access to an agent's trust model.
    pub fn model(&self, agent: PeerId) -> &AnyModel {
        &self.models[agent.index()]
    }

    /// `evaluator`'s trust estimate of `subject`; direct evidence only
    /// while degraded mode is active (see [`Community::set_degraded`]).
    pub fn predict(&self, evaluator: PeerId, subject: PeerId) -> TrustEstimate {
        if self.degraded {
            // The models fold witness evidence into one posterior, so
            // the direct view comes from the ledger; a pair that never
            // interacted is maximum ignorance.
            return self
                .direct
                .as_ref()
                .map_or(TrustEstimate::UNKNOWN, |l| l.estimate(evaluator, subject));
        }
        self.models[evaluator.index()].predict(subject)
    }

    /// `evaluator`'s whole row as a sparse read (see
    /// [`TrustModel::predict_row_sparse`]): lists the subjects with
    /// written evidence in `out` and returns the estimate of every
    /// other subject — the read path the accuracy metrics are built on.
    /// While degraded, the listed subjects are the evaluator's
    /// direct-ledger row and the rest are [`TrustEstimate::UNKNOWN`].
    ///
    /// # Panics
    ///
    /// Panics if `evaluator` is out of range.
    pub(crate) fn predict_row_sparse(
        &self,
        evaluator: PeerId,
        out: &mut Vec<(PeerId, TrustEstimate)>,
    ) -> TrustEstimate {
        let model = &self.models[evaluator.index()];
        if !self.degraded {
            return model.predict_row_sparse(out);
        }
        out.clear();
        self.direct
            .as_ref()
            .map_or(TrustEstimate::UNKNOWN, |ledger| {
                ledger.rows[evaluator.index()].map_sparse_into(out, DirectLedger::estimate_of)
            })
    }

    /// Ground truth cooperation probability of an agent.
    pub fn true_cooperation_prob(&self, agent: PeerId) -> f64 {
        self.profiles[agent.index()]
            .exchange
            .true_cooperation_prob()
    }

    /// Whether an agent is fundamentally honest (ground truth).
    pub fn is_honest(&self, agent: PeerId) -> bool {
        self.profiles[agent.index()]
            .exchange
            .is_fundamentally_honest()
    }

    /// Records `evaluator`'s direct experience with `subject` and grades
    /// any pending witness reports about `subject` against it.
    pub fn record_direct(
        &mut self,
        evaluator: PeerId,
        subject: PeerId,
        conduct: Conduct,
        round: u64,
    ) {
        if let Some(ledger) = &mut self.direct {
            ledger.observe(evaluator, subject, conduct);
        }
        let model = &mut self.models[evaluator.index()];
        model.record_direct(subject, conduct, round);
        self.pending.drain(evaluator, subject, |witness, claimed| {
            model.grade_witness(witness, claimed == conduct, round);
        });
    }

    /// Opens a delivery round: every reporter's rate-cap budget (see
    /// [`DefenseConfig`]) starts afresh. Call it once per round, before
    /// the round's first witness delivery.
    pub fn begin_round(&mut self) {
        self.witness_filed.fill(0);
    }

    /// Delivers a witness report to `target`'s model and queues it for
    /// corroboration. Returns whether the report was delivered — `false`
    /// when the per-reporter rate cap (see [`DefenseConfig`]) dropped it.
    /// The cap counts deliveries in the round opened by
    /// [`Community::begin_round`], whatever round the report was issued in.
    pub fn deliver_witness_report(&mut self, target: PeerId, report: WitnessReport) -> bool {
        if let Some(cap) = self.defense.report_rate_cap {
            let filed = &mut self.witness_filed[report.witness.index()];
            if *filed >= cap {
                return false;
            }
            *filed += 1;
        }
        self.models[target.index()].record_witness(report);
        self.pending
            .push(target, report.subject, report.witness, report.conduct);
        true
    }

    /// Executes a whitewash of `agent`: every *other* evaluator forgets
    /// it (both as a subject and as a witness) in its model and in its
    /// direct-ledger row, its queued reports are purged, and its
    /// rate-cap budget resets. The agent's own model and ledger row are
    /// untouched — the operator behind the identity keeps what it knows
    /// about the rest of the community.
    pub fn whitewash(&mut self, agent: PeerId) {
        for (i, model) in self.models.iter_mut().enumerate() {
            if i != agent.index() {
                model.forget_peer(agent);
            }
        }
        if let Some(ledger) = &mut self.direct {
            ledger.forget(agent);
        }
        self.pending.purge(agent);
        if let Some(filed) = self.witness_filed.get_mut(agent.index()) {
            *filed = 0;
        }
    }

    /// Iterates over all agent ids.
    pub fn agent_ids(&self) -> impl ExactSizeIterator<Item = PeerId> {
        (0..self.profiles.len() as u32).map(PeerId)
    }

    /// Total witness reports queued for corroboration — an observable
    /// delivery count for gossip fan-out tests.
    pub fn pending_report_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_agents::behavior::ExchangeBehavior;

    fn community(kind: ModelKind) -> Community {
        let mut rng = SimRng::new(1);
        let mix = PopulationMix::standard(0.5, 0.0);
        Community::new(20, &mix, kind, &mut rng)
    }

    #[test]
    fn construction() {
        let c = community(ModelKind::Beta);
        assert_eq!(c.len(), 20);
        assert!(!c.is_empty());
        let honest = c.agent_ids().filter(|a| c.is_honest(*a)).count();
        assert_eq!(honest, 10);
    }

    #[test]
    fn ground_truth_matches_profile() {
        let c = community(ModelKind::Beta);
        for a in c.agent_ids() {
            let p = c.profile(a);
            if p.exchange == ExchangeBehavior::Honest {
                assert_eq!(c.true_cooperation_prob(a), 1.0);
            } else {
                assert_eq!(c.true_cooperation_prob(a), 0.0);
            }
        }
    }

    #[test]
    fn direct_experience_moves_estimates() {
        for kind in ModelKind::ALL {
            let mut c = community(kind);
            let (a, b) = (PeerId(0), PeerId(1));
            let before = c.predict(a, b).p_honest;
            for r in 0..5 {
                c.record_direct(a, b, Conduct::Dishonest, r);
            }
            let after = c.predict(a, b).p_honest;
            assert!(after < before, "{kind:?}: {before} -> {after}");
        }
    }

    #[test]
    fn degraded_mode_falls_back_to_the_direct_ledger() {
        let mut c = community(ModelKind::Mean);
        c.enable_direct_ledger();
        let (eval, subject, witness) = (PeerId(0), PeerId(1), PeerId(2));
        for r in 0..6 {
            c.record_direct(eval, subject, Conduct::Honest, r);
        }
        // A slander campaign the evaluator never corroborated drags the
        // normal (witness-polluted) estimate down...
        for r in 0..20 {
            c.deliver_witness_report(
                eval,
                WitnessReport {
                    witness,
                    subject,
                    conduct: Conduct::Dishonest,
                    round: r,
                },
            );
        }
        let normal = c.predict(eval, subject);
        c.set_degraded(true);
        assert!(c.degraded());
        let degraded = c.predict(eval, subject);
        // ...while the degraded estimate sees only the 6 honest direct
        // interactions: Laplace (6+1)/(6+2).
        assert!(degraded.p_honest > normal.p_honest);
        assert!((degraded.p_honest - 7.0 / 8.0).abs() < 1e-12);
        // Subjects never met directly degrade to maximum ignorance.
        assert_eq!(c.predict(eval, PeerId(7)), TrustEstimate::UNKNOWN);
        // The sparse read lists the ledger row, and a row filled from it
        // agrees bit for bit with per-cell predictions.
        let mut listed = Vec::new();
        let cold = c.predict_row_sparse(eval, &mut listed);
        assert_eq!(cold, TrustEstimate::UNKNOWN);
        assert_eq!(listed, [(subject, degraded)]);
        let mut row = vec![cold; c.len()];
        for &(s, estimate) in &listed {
            row[s.index()] = estimate;
        }
        for (i, got) in row.iter().enumerate() {
            assert_eq!(*got, c.predict(eval, PeerId(i as u32)));
        }
        // Without a ledger, a degraded row lists nothing.
        let mut bare = community(ModelKind::Mean);
        bare.record_direct(eval, subject, Conduct::Honest, 0);
        bare.set_degraded(true);
        assert_eq!(
            bare.predict_row_sparse(eval, &mut listed),
            TrustEstimate::UNKNOWN
        );
        assert!(listed.is_empty());
        // Snapshots carry the degraded view; healing restores the
        // full-evidence prediction untouched.
        let snap = c.snapshot();
        assert_eq!(snap.predict(eval, subject), degraded);
        c.set_degraded(false);
        assert_eq!(c.predict(eval, subject), normal);
    }

    #[test]
    fn witness_reports_are_queued_and_graded() {
        let mut c = community(ModelKind::Beta);
        let (evaluator, witness, subject) = (PeerId(0), PeerId(1), PeerId(2));
        // An accurate witness earns reliability once corroborated.
        c.deliver_witness_report(
            evaluator,
            WitnessReport {
                witness,
                subject,
                conduct: Conduct::Dishonest,
                round: 0,
            },
        );
        c.record_direct(evaluator, subject, Conduct::Dishonest, 1);
        if let AnyModel::Beta(m) = c.model(evaluator) {
            assert!(
                m.witness_reliability(witness) > 0.5,
                "corroborated witness gains reliability"
            );
        } else {
            panic!("expected beta model");
        }
        // Pending entry consumed.
        assert_eq!(c.pending_report_count(), 0);
    }

    /// Drains `evaluator`'s reports about `subject` into a vector.
    fn drained(
        idx: &mut PendingIndex,
        evaluator: PeerId,
        subject: PeerId,
    ) -> Vec<(PeerId, Conduct)> {
        let mut graded = Vec::new();
        idx.drain(evaluator, subject, |witness, conduct| {
            graded.push((witness, conduct))
        });
        graded
    }

    /// The dense pending index must replay the old map semantics: one
    /// queue per (evaluator, subject), reports graded in delivery
    /// order, counts exact.
    #[test]
    fn pending_index_queues_and_takes() {
        let mut idx = PendingIndex::new(4);
        assert_eq!(idx.len(), 0);
        idx.push(PeerId(0), PeerId(2), PeerId(1), Conduct::Honest);
        idx.push(PeerId(0), PeerId(3), PeerId(1), Conduct::Honest);
        idx.push(PeerId(0), PeerId(2), PeerId(3), Conduct::Dishonest);
        idx.push(PeerId(1), PeerId(2), PeerId(0), Conduct::Honest);
        assert_eq!(idx.len(), 4);
        // Wrong evaluator or subject: nothing comes out.
        assert!(drained(&mut idx, PeerId(2), PeerId(0)).is_empty());
        assert!(drained(&mut idx, PeerId(0), PeerId(1)).is_empty());
        assert_eq!(idx.len(), 4);
        // Delivery order within the pair is preserved.
        assert_eq!(
            drained(&mut idx, PeerId(0), PeerId(2)),
            vec![
                (PeerId(1), Conduct::Honest),
                (PeerId(3), Conduct::Dishonest)
            ]
        );
        assert_eq!(idx.len(), 2);
        // A drained pair is empty until new reports arrive.
        assert!(drained(&mut idx, PeerId(0), PeerId(2)).is_empty());
        idx.push(PeerId(3), PeerId(0), PeerId(2), Conduct::Honest);
        assert_eq!(drained(&mut idx, PeerId(3), PeerId(0)).len(), 1);
        assert_eq!(idx.len(), 2);
    }

    /// Differential test: seeded random pushes, drains and purges
    /// against a naive oracle — one global report list in delivery
    /// order. Every drain must grade exactly the oracle's reports for
    /// the pair, in the oracle's order, and the count must agree after
    /// every operation.
    #[test]
    fn pending_index_matches_a_global_list_oracle() {
        const N: u64 = 6;
        let mut rng = SimRng::new(0x9E4D);
        let mut idx = PendingIndex::new(N as usize);
        let mut oracle: Vec<(PeerId, PeerId, PeerId, Conduct)> = Vec::new();
        let peer = |rng: &mut SimRng| PeerId(rng.below(N) as u32);
        let (mut graded_total, mut purged_total) = (0, 0);
        for step in 0..12_000 {
            match rng.below(10) {
                0..=5 => {
                    let (e, s, w) = (peer(&mut rng), peer(&mut rng), peer(&mut rng));
                    let conduct = Conduct::from_honest(rng.chance(0.5));
                    idx.push(e, s, w, conduct);
                    oracle.push((e, s, w, conduct));
                }
                6..=8 => {
                    let (e, s) = (peer(&mut rng), peer(&mut rng));
                    let expected: Vec<_> = oracle
                        .iter()
                        .filter(|r| r.0 == e && r.1 == s)
                        .map(|r| (r.2, r.3))
                        .collect();
                    oracle.retain(|r| !(r.0 == e && r.1 == s));
                    graded_total += expected.len();
                    assert_eq!(drained(&mut idx, e, s), expected, "step {step}");
                }
                _ => {
                    let p = peer(&mut rng);
                    let before = oracle.len();
                    oracle.retain(|r| r.0 == p || (r.1 != p && r.2 != p));
                    purged_total += before - oracle.len();
                    idx.purge(p);
                }
            }
            assert_eq!(idx.len(), oracle.len(), "step {step}");
        }
        // The walk exercised every path, not just pushes.
        assert!(
            graded_total > 1_000 && purged_total > 1_000,
            "{graded_total} {purged_total}"
        );
    }

    #[test]
    fn contradicted_witness_downgraded() {
        let mut c = community(ModelKind::Beta);
        let (evaluator, witness, subject) = (PeerId(0), PeerId(1), PeerId(2));
        c.deliver_witness_report(
            evaluator,
            WitnessReport {
                witness,
                subject,
                conduct: Conduct::Dishonest,
                round: 0,
            },
        );
        c.record_direct(evaluator, subject, Conduct::Honest, 1);
        if let AnyModel::Beta(m) = c.model(evaluator) {
            assert!(m.witness_reliability(witness) < 0.5);
        } else {
            panic!("expected beta model");
        }
    }

    #[test]
    fn model_kind_labels_and_names() {
        for kind in ModelKind::ALL {
            let c = community(kind);
            assert_eq!(c.model(PeerId(0)).name(), kind.label());
        }
    }

    #[test]
    fn report_rate_cap_drops_excess_deliveries_per_reporter() {
        let mut rng = SimRng::new(1);
        let mix = PopulationMix::standard(0.5, 0.0);
        let defense = DefenseConfig {
            report_rate_cap: Some(2),
            ..DefenseConfig::default()
        };
        let mut c = Community::with_defense(20, &mix, ModelKind::Mean, defense, &mut rng);
        let spammer = PeerId(0);
        let report = |subject: u32, round: u64| WitnessReport {
            witness: spammer,
            subject: PeerId(subject),
            conduct: Conduct::Dishonest,
            round,
        };
        assert!(c.deliver_witness_report(PeerId(10), report(1, 0)));
        assert!(c.deliver_witness_report(PeerId(11), report(2, 0)));
        // Third delivery in the same round: dropped, nothing recorded.
        assert!(!c.deliver_witness_report(PeerId(12), report(3, 0)));
        assert_eq!(c.pending_report_count(), 2);
        assert_eq!(c.predict(PeerId(12), PeerId(3)), TrustEstimate::UNKNOWN);
        // Another reporter is unaffected by the spammer's budget.
        assert!(c.deliver_witness_report(
            PeerId(12),
            WitnessReport {
                witness: PeerId(5),
                subject: PeerId(3),
                conduct: Conduct::Dishonest,
                round: 0,
            }
        ));
        // A new delivery round resets the budget.
        c.begin_round();
        assert!(c.deliver_witness_report(PeerId(13), report(4, 1)));
    }

    /// Retransmitted reports keep their origin round, so one delivery
    /// round can carry reports from several origin rounds. They must
    /// all draw on the delivery round's budget: alternating origin
    /// rounds may not reset it.
    #[test]
    fn report_rate_cap_counts_delivery_round_not_origin_round() {
        let mut rng = SimRng::new(1);
        let mix = PopulationMix::standard(0.5, 0.0);
        let cap = 3;
        let defense = DefenseConfig {
            report_rate_cap: Some(cap),
            ..DefenseConfig::default()
        };
        let mut c = Community::with_defense(20, &mix, ModelKind::Mean, defense, &mut rng);
        c.begin_round();
        let admitted = (0..3 * cap)
            .filter(|&i| {
                c.deliver_witness_report(
                    PeerId(10 + i % 10),
                    WitnessReport {
                        witness: PeerId(0),
                        subject: PeerId(1 + i % 9),
                        conduct: Conduct::Dishonest,
                        round: if i % 2 == 0 { 4 } else { 5 },
                    },
                )
            })
            .count();
        assert_eq!(admitted, cap as usize);
    }

    #[test]
    fn whitewash_erases_the_agent_everywhere_but_home() {
        for kind in ModelKind::ALL {
            let mut c = community(kind);
            let churner = PeerId(3);
            let observer = PeerId(0);
            for r in 0..6 {
                c.record_direct(observer, churner, Conduct::Dishonest, r);
                c.record_direct(churner, PeerId(7), Conduct::Dishonest, r);
            }
            let own_view = c.predict(churner, PeerId(7));
            assert!(c.predict(observer, churner).p_honest < 0.5, "{kind:?}");
            c.whitewash(churner);
            let mut fresh_rng = SimRng::new(9);
            let cold = Community::new(20, &PopulationMix::standard(0.5, 0.0), kind, &mut fresh_rng)
                .predict(observer, churner);
            assert_eq!(c.predict(observer, churner), cold, "{kind:?}: not cold");
            // The operator keeps its own knowledge of others.
            assert_eq!(c.predict(churner, PeerId(7)), own_view, "{kind:?}");
        }
    }

    /// A degraded community reads the direct ledger, so a whitewash must
    /// reset the ledger too: the new identity starts cold there as well.
    #[test]
    fn whitewash_clears_the_direct_ledger() {
        let mut c = community(ModelKind::Beta);
        c.enable_direct_ledger();
        let (observer, churner) = (PeerId(0), PeerId(1));
        for r in 0..5 {
            c.record_direct(observer, churner, Conduct::Dishonest, r);
            c.record_direct(churner, PeerId(7), Conduct::Dishonest, r);
        }
        c.set_degraded(true);
        // Laplace (0+1)/(5+2) before the whitewash.
        assert!((c.predict(observer, churner).p_honest - 1.0 / 7.0).abs() < 1e-12);
        let own_view = c.predict(churner, PeerId(7));
        c.whitewash(churner);
        assert_eq!(c.predict(observer, churner), TrustEstimate::UNKNOWN);
        // The sparse read agrees: a listed churner reads cold.
        let mut listed = Vec::new();
        let cold = c.predict_row_sparse(observer, &mut listed);
        assert_eq!(cold, TrustEstimate::UNKNOWN);
        assert!(listed.iter().all(|&(_, e)| e == TrustEstimate::UNKNOWN));
        // The operator keeps its own ledger row.
        assert_eq!(c.predict(churner, PeerId(7)), own_view);
    }

    #[test]
    fn whitewash_purges_pending_reports_both_ways() {
        let mut c = community(ModelKind::Beta);
        let churner = PeerId(3);
        // A report *about* the churner and a report *by* the churner.
        c.deliver_witness_report(
            PeerId(0),
            WitnessReport {
                witness: PeerId(1),
                subject: churner,
                conduct: Conduct::Dishonest,
                round: 0,
            },
        );
        c.deliver_witness_report(
            PeerId(0),
            WitnessReport {
                witness: churner,
                subject: PeerId(5),
                conduct: Conduct::Dishonest,
                round: 0,
            },
        );
        // A report delivered *to* the churner about someone else stays.
        c.deliver_witness_report(
            churner,
            WitnessReport {
                witness: PeerId(2),
                subject: PeerId(6),
                conduct: Conduct::Honest,
                round: 0,
            },
        );
        assert_eq!(c.pending_report_count(), 3);
        c.whitewash(churner);
        assert_eq!(c.pending_report_count(), 1);
        // Corroborating PeerId(5) later must not grade the churner for
        // its pre-churn report.
        c.record_direct(PeerId(0), PeerId(5), Conduct::Dishonest, 1);
        if let AnyModel::Beta(m) = c.model(PeerId(0)) {
            assert_eq!(
                m.witness_reliability(churner),
                BetaTrust::new().witness_reliability(churner),
                "pre-churn report must not grade the fresh identity"
            );
        } else {
            panic!("expected beta model");
        }
    }

    #[test]
    fn grade_witness_noop_for_baselines() {
        let mut c = community(ModelKind::Mean);
        // Must not panic or change predictions.
        let before = c.predict(PeerId(0), PeerId(5));
        c.deliver_witness_report(
            PeerId(0),
            WitnessReport {
                witness: PeerId(1),
                subject: PeerId(5),
                conduct: Conduct::Honest,
                round: 0,
            },
        );
        c.record_direct(PeerId(0), PeerId(5), Conduct::Honest, 1);
        assert!(c.predict(PeerId(0), PeerId(5)).p_honest >= before.p_honest);
    }
}
