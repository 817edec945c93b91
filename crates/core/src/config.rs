//! Protocol configuration (paper Table 4 parameters plus implementation
//! knobs).

use pivot_data::Task;
use pivot_mpc::{FixedConfig, MODULUS};
use pivot_paillier::SlotCodec;
use pivot_trace::TraceLevel;
use pivot_trees::TreeParams;

/// Which Pivot protocol variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// §4: the trained tree is released in plaintext.
    Basic,
    /// §5: split thresholds and leaf labels stay concealed.
    Enhanced,
}

/// The slot layout of the split-statistics pipeline (SecureBoost+ style,
/// see `pivot_paillier::packing`). There is one pipeline; these are the
/// layouts it can be given ([`PivotParams::slot_plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// One slot that is the whole plaintext: every statistic is its own
    /// ciphertext.
    Off,
    /// As many slots as the keysize admits under the slot-width audit;
    /// the one-slot layout where fewer than two fit and under
    /// `verification`, whose proofs cover one statistic per ciphertext.
    Auto,
    /// Exactly this many slots (must not exceed the audited maximum;
    /// rejected by [`PivotParams::validate`] otherwise). One slot is
    /// [`Packing::Off`].
    Slots(usize),
}

/// Where a tree's label vectors come from, and with it the widest plaintext
/// one element of them can hold — the term the slot-width audit scales by
/// `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelSource {
    /// Classification on the super client's labels: `γ_k = β_k·α` with
    /// `β_k ∈ {0, 1}`.
    ClassIndicators,
    /// Regression on the super client's labels: the offset moments
    /// `(y+1)·2^f` and `(y+1)²·2^f ≤ 4·2^f` times `α`.
    OffsetMoments,
    /// §7.2 GBDT residual trees: every element the node carries is the sum
    /// of the `m` clients' encrypted shares — below `m·p` — and the split
    /// owner only ever multiplies it by a 0/1 indicator.
    ShareSums,
}

impl LabelSource {
    /// The label source of a tree trained on the super client's labels.
    pub fn of_task(task: Task) -> LabelSource {
        match task {
            Task::Classification { .. } => LabelSource::ClassIndicators,
            Task::Regression => LabelSource::OffsetMoments,
        }
    }
}

/// Malicious-model verification policy (§9.1): whether parties attach and
/// check Σ-protocol proofs on their ciphertext commitments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verification {
    /// No proofs generated or checked — bit-identical transcript to the
    /// honest-but-curious protocol (the same contract as `trace`).
    Off,
    /// Proofs are attached to every commit; a seeded-deterministic
    /// `p`-fraction per phase is verified, so honest runs pay ~`p` of the
    /// full verification cost and any tampered commit is caught with
    /// probability ≥ `p`. `Spot(1.0)` is equivalent to [`Self::Full`].
    Spot(f64),
    /// Every proof is verified by every party.
    Full,
}

impl Verification {
    /// Whether any proofs are generated at all.
    pub fn is_on(&self) -> bool {
        !matches!(self, Verification::Off)
    }

    /// The fraction of proofs each party verifies.
    pub fn probability(&self) -> f64 {
        match self {
            Verification::Off => 0.0,
            Verification::Spot(p) => *p,
            Verification::Full => 1.0,
        }
    }
}

/// A deterministic malicious-party injection (the `[adversary]` scenario
/// section, mirroring the `[faults]` plan): `party` tampers the
/// ciphertext at `index` of its `phase` commit — *after* generating its
/// proof over the honest value, so the published proof no longer matches
/// the published ciphertext and verification must catch and attribute it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarySpec {
    /// The tampering party.
    pub party: usize,
    /// Which verification phase to tamper (`setup`, `label_masks`,
    /// `stats`, `update`, `predict`).
    pub phase: String,
    /// Which committed ciphertext of that phase to tamper: a 0-based
    /// index into the party's *cumulative* commit stream for the phase
    /// (phases that commit repeatedly — per class, per tree level —
    /// keep counting, so every commit of a run is addressable exactly
    /// once).
    pub index: usize,
}

impl AdversarySpec {
    /// Parse the scenario grammar: `party <id> phase=<name> index=<k>`.
    pub fn parse(spec: &str) -> Result<AdversarySpec, String> {
        let mut phase = None;
        let mut index = 0usize;
        let mut words = spec.split_whitespace().peekable();
        let party = match (words.next(), words.peek()) {
            (Some("party"), Some(_)) => {
                let id = words.next().expect("peeked");
                id.parse::<usize>()
                    .map_err(|_| format!("adversary: bad party id {id:?}"))?
            }
            _ => return Err(format!("adversary: expected `party <id> …`, got {spec:?}")),
        };
        for word in words {
            match word.split_once('=') {
                Some(("phase", v)) => phase = Some(v.to_string()),
                Some(("index", v)) => {
                    index = v
                        .parse()
                        .map_err(|_| format!("adversary: bad index {v:?}"))?;
                }
                _ => return Err(format!("adversary: unknown clause {word:?}")),
            }
        }
        let phase = phase.ok_or_else(|| format!("adversary: missing phase= in {spec:?}"))?;
        const PHASES: [&str; 5] = ["setup", "label_masks", "stats", "update", "predict"];
        if !PHASES.contains(&phase.as_str()) {
            return Err(format!(
                "adversary: unknown phase {phase:?} (expected one of {PHASES:?})"
            ));
        }
        Ok(AdversarySpec {
            party,
            phase,
            index,
        })
    }
}

/// The audited slot layout for one run: how wide a slot must be and how
/// many fit a ciphertext.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotPlan {
    /// Slot width in bits (no slot-sum may ever reach `2^slot_bits`).
    pub slot_bits: u32,
    /// Slots per ciphertext.
    pub slots: usize,
}

impl SlotPlan {
    /// The one-slot layout: a slot wider than the modulus, so packing and
    /// unpacking are the identity, no neighbour exists to carry into, and
    /// a plaintext may hold any mod-`p` slack below `N`.
    pub fn whole_plaintext(keysize: u32) -> SlotPlan {
        SlotPlan {
            slot_bits: keysize + 1,
            slots: 1,
        }
    }

    /// Materialize the codec for this plan. The signedness offset is
    /// Algorithm 2's `2^(int_bits−1)`.
    pub fn codec(&self, fixed: &FixedConfig) -> SlotCodec {
        SlotCodec::with_offset(self.slot_bits, self.slots, fixed.int_bits - 1)
    }
}

/// Full parameter set for a Pivot training/prediction session.
#[derive(Clone, Debug)]
pub struct PivotParams {
    /// Tree-growing parameters (`h`, pruning threshold, `b`).
    pub tree: TreeParams,
    /// Protocol variant.
    pub protocol: Protocol,
    /// Paillier modulus bits (the paper's "keysize": 1024 in §8, 512 for
    /// its accuracy runs; `Default` gives 256, tests use 128–256).
    pub keysize: u32,
    /// Worker threads for the batched crypto operations (every bulk
    /// homomorphic operation, nonce powers included, goes through the
    /// shared worker pool), and so the bound on a party's crypto cores.
    /// The paper's `-PP` variants (§8.3: threshold decryption on 6 cores)
    /// are this knob above 1; at any value the trained model and per-party
    /// traffic are bit-identical: batches are order-preserving and
    /// encryption nonces come from the same seeded stream in the same
    /// order.
    pub crypto_threads: usize,
    /// Slot layout of the split statistics. Every layout trains the
    /// *same tree* (argmax parity): the slots only divide the ciphertext
    /// count.
    pub packing: Packing,
    /// Common seed for the simulated MPC offline phase.
    pub dealer_seed: u64,
    /// Malicious-model verification policy. `Off` (default) generates
    /// and checks nothing — bit-identical transcript. `Spot(p)`/`Full`
    /// attach Σ-protocol proofs to every ciphertext commit and verify a
    /// deterministic fraction; a rejected proof raises
    /// `ProtocolError::ProofRejected` naming the prover. The proofs
    /// cover one statistic per ciphertext: `Packing::Auto` is the one-slot
    /// layout under verification and `Packing::Slots(_)` is rejected.
    pub verification: Verification,
    /// Deterministic malicious-party injection for CI/testing; only
    /// meaningful with `verification` on.
    pub adversary: Option<AdversarySpec>,
    /// Protocol tracing level. `Off` (default) installs no collector —
    /// the transcript is bit-identical to an untraced run and every hook
    /// is a single atomic load. `Phases`/`Full` record span timelines
    /// and per-phase round/byte attribution; telemetry never perturbs
    /// the protocol (models, metrics, and traffic are unchanged).
    pub trace: TraceLevel,
}

impl Default for PivotParams {
    fn default() -> Self {
        PivotParams {
            tree: TreeParams::default(),
            protocol: Protocol::Basic,
            keysize: 256,
            crypto_threads: 6,
            packing: Packing::Auto,
            dealer_seed: 0x9162_07,
            verification: Verification::Off,
            adversary: None,
            trace: TraceLevel::Off,
        }
    }
}

impl PivotParams {
    /// Parameters for the enhanced protocol. Purity-based early stopping is
    /// disabled: checking purity would reveal one bit about concealed leaf
    /// labels (see `TreeParams::stop_when_pure`).
    pub fn enhanced() -> Self {
        let mut p = PivotParams {
            protocol: Protocol::Enhanced,
            ..Default::default()
        };
        p.tree.stop_when_pure = false;
        p
    }

    /// The slot-width audit (ROADMAP: "slot-width audit against the gain
    /// pipeline's `n²·2^f` bound"): how wide a packed slot must be so that
    /// over a packed statistic's whole life no slot sum ever carries into
    /// its neighbour. The worst case per slot is
    ///
    /// `max(n·element, n²·2^f)` (statistic bound) `+ 2^(int_bits−1)`
    /// (Algorithm-2 signedness offset) `+ m·(p−1)` (every party's
    /// conversion mask),
    ///
    /// where `element` bounds one label-vector plaintext of one sample
    /// (see [`LabelSource`]), and the audited width is `bits(worst_case)`.
    fn audited_slot_bits(&self, parties: usize, n_samples: usize, labels: LabelSource) -> u32 {
        let fixed = FixedConfig::default();
        let n = (n_samples as u128).max(4);
        let m = parties as u128;
        // A sum of m encrypted shares: the secret plus a mod-p slack
        // multiple, below m·p.
        let share_sum = m * (MODULUS as u128);
        // Per-sample mask plaintext: the basic protocol's [α] is an exact
        // 0/1 bit, but the enhanced Eqn-10 update rebuilds [α] as a sum of
        // m share terms, so its plaintext carries slack at *every* level
        // (the per-level conversion re-reduces, so slack never compounds
        // across depths).
        let alpha_bound: u128 = match self.protocol {
            Protocol::Basic => 1,
            Protocol::Enhanced => share_sum,
        };
        let element_bound: u128 = match labels {
            LabelSource::ClassIndicators => alpha_bound,
            LabelSource::OffsetMoments => alpha_bound << (fixed.frac_bits + 2),
            // Carried vectors are updated by the winner's plaintext
            // indicator (never Eqn 10), so the element keeps the bound it
            // was encrypted with at every depth.
            LabelSource::ShareSums => share_sum,
        };
        // `max(n,4)²·2^f` keeps the documented gain-pipeline discipline as
        // the floor even when the direct product bound is smaller.
        let floor = (n * n) << fixed.frac_bits;
        let stat_bound = (n * element_bound).max(floor);
        let offset = 1u128 << (fixed.int_bits - 1);
        let mask_bound = m * (MODULUS as u128 - 1);
        let worst = stat_bound + offset + mask_bound;
        128 - worst.leading_zeros()
    }

    /// The slot layout of this run's statistics: audited-width slots
    /// (`audited_slot_bits`) where two or more are asked
    /// for and fit, the whole plaintext otherwise — [`Packing::Off`],
    /// [`Packing::Auto`] under verification or at a keysize that admits a
    /// single audited slot, and `Packing::Slots(1)`. One slot always means
    /// the whole plaintext: the enhanced protocol refreshes its masks only
    /// for a layout that has a neighbour slot to protect.
    pub fn slot_plan(&self, parties: usize, n_samples: usize, labels: LabelSource) -> SlotPlan {
        let slot_bits = self.audited_slot_bits(parties, n_samples, labels);
        let slots = match self.packing {
            Packing::Off => 1,
            Packing::Auto if self.verification.is_on() => 1,
            Packing::Auto => SlotCodec::max_slots(self.keysize, slot_bits),
            Packing::Slots(n) => n,
        };
        if slots < 2 {
            SlotPlan::whole_plaintext(self.keysize)
        } else {
            SlotPlan { slot_bits, slots }
        }
    }

    /// The codec of the one-slot layout ([`SlotPlan::whole_plaintext`]).
    pub fn one_slot_codec(&self) -> SlotCodec {
        SlotPlan::whole_plaintext(self.keysize).codec(&FixedConfig::default())
    }

    /// Check every cross-parameter invariant a run over `n_samples`
    /// samples split across `parties` clients needs, before any protocol
    /// byte moves. `labels` selects the slot-width bound of the packing
    /// audit (regression moments and share sums widen the slots). The
    /// error names the offending parameter; callers holding outside input
    /// (the CLI) surface it, callers holding a broken invariant panic with
    /// it.
    pub fn validate(
        &self,
        n_samples: usize,
        parties: usize,
        labels: LabelSource,
    ) -> Result<(), String> {
        // Gain-pipeline overflow bound: n²·2^f < p/2 (`crate::gain`, "Scale
        // discipline").
        let n_bits = usize::BITS - n_samples.leading_zeros();
        if 2 * n_bits + FixedConfig::default().frac_bits + 1 >= 61 {
            return Err(format!(
                "{n_samples} samples overflow the fixed-point gain pipeline"
            ));
        }
        // Conversion (Algorithm 2) requires N ≫ masked values.
        if self.keysize < 128 {
            return Err(format!(
                "keysize {} is too small for share conversion (need >= 128)",
                self.keysize
            ));
        }
        if self.tree.max_depth == 0 {
            return Err("max_depth 0: trees need at least one level".into());
        }
        if self.tree.max_splits == 0 {
            return Err("max_splits 0: need at least one candidate split".into());
        }
        if let Verification::Spot(p) = self.verification {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("verification spot probability {p} outside [0, 1]"));
            }
        }
        if self.verification.is_on() && matches!(self.packing, Packing::Slots(_)) {
            return Err(
                "verification cannot run an explicit packing slot count (the \
                 packed statistics pipeline carries no proofs)"
                    .into(),
            );
        }
        if let Some(adv) = &self.adversary {
            if !self.verification.is_on() {
                return Err(
                    "an [adversary] injection needs verification on to be observable".into(),
                );
            }
            if adv.party >= parties {
                return Err(format!(
                    "adversary party {} out of range for {parties} parties",
                    adv.party
                ));
            }
        }
        // Packing audit: an explicit slot count must fit the audited slot
        // width for this label source, party count and sample count.
        if let Packing::Slots(slots) = self.packing {
            let slot_bits = self.audited_slot_bits(parties, n_samples, labels);
            let max_slots = SlotCodec::max_slots(self.keysize, slot_bits);
            if slots == 0 || slots > max_slots {
                return Err(format!(
                    "packing = {slots} slots exceeds the audited capacity of {max_slots} \
                     {slot_bits}-bit slots for keysize {}",
                    self.keysize
                ));
            }
        }
        Ok(())
    }

    /// [`PivotParams::validate`] for callers whose parameters are already
    /// an internal invariant: panics with the message.
    pub fn assert_valid_for(&self, n_samples: usize, parties: usize, labels: LabelSource) {
        self.validate(n_samples, parties, labels)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LabelSource::{ClassIndicators, OffsetMoments, ShareSums};

    #[test]
    fn defaults_validate() {
        let p = PivotParams::default();
        p.assert_valid_for(10_000, 2, ClassIndicators);
        // The defaults are the fast configuration.
        assert_eq!(p.packing, Packing::Auto);
    }

    #[test]
    fn enhanced_disables_purity_stop() {
        let p = PivotParams::enhanced();
        assert_eq!(p.protocol, Protocol::Enhanced);
        assert!(!p.tree.stop_when_pure);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn too_many_samples_rejected() {
        PivotParams::default().assert_valid_for(1 << 25, 2, ClassIndicators);
    }

    #[test]
    fn adversary_spec_parses_and_rejects() {
        let adv = AdversarySpec::parse("party 2 phase=stats index=3").unwrap();
        assert_eq!(adv.party, 2);
        assert_eq!(adv.phase, "stats");
        assert_eq!(adv.index, 3);
        // index defaults to 0.
        let adv = AdversarySpec::parse("party 0 phase=setup").unwrap();
        assert_eq!(adv.index, 0);
        assert!(AdversarySpec::parse("phase=setup").is_err());
        assert!(AdversarySpec::parse("party x phase=setup").is_err());
        assert!(AdversarySpec::parse("party 1").is_err());
        assert!(AdversarySpec::parse("party 1 phase=bogus").is_err());
        assert!(AdversarySpec::parse("party 1 phase=setup round=2").is_err());
    }

    #[test]
    fn verification_knob_validates() {
        let mut p = PivotParams {
            verification: Verification::Spot(0.25),
            ..Default::default()
        };
        p.assert_valid_for(100, 3, ClassIndicators);
        assert!(p.verification.is_on());
        assert!((p.verification.probability() - 0.25).abs() < 1e-12);
        assert_eq!(Verification::Full.probability(), 1.0);
        assert!(!Verification::Off.is_on());
        // The proofs cover one statistic per ciphertext: auto packing
        // resolves to the one-slot layout, an explicit slot count is
        // rejected.
        assert_eq!(p.packing, Packing::Auto);
        assert_eq!(
            p.slot_plan(3, 100, ClassIndicators),
            SlotPlan::whole_plaintext(p.keysize)
        );
        p.packing = Packing::Slots(2);
        let err = p.validate(100, 3, ClassIndicators).unwrap_err();
        assert!(err.contains("explicit packing slot count"), "{err}");
        // Spot probability outside [0,1] is rejected.
        let bad = PivotParams {
            verification: Verification::Spot(1.5),
            ..Default::default()
        };
        let err = bad.validate(100, 3, ClassIndicators).unwrap_err();
        assert!(err.contains("spot probability 1.5"), "{err}");
        // Adversary needs verification on and an in-range party.
        let adv = AdversarySpec::parse("party 2 phase=stats").unwrap();
        let mut p = PivotParams {
            adversary: Some(adv),
            ..Default::default()
        };
        let err = p.validate(100, 3, ClassIndicators).unwrap_err();
        assert!(err.contains("needs verification on"), "{err}");
        p.verification = Verification::Full;
        p.assert_valid_for(100, 3, ClassIndicators);
        let err = p.validate(100, 2, ClassIndicators).unwrap_err();
        assert!(err.contains("party 2 out of range"), "{err}");
    }

    #[test]
    fn slot_plan_audits_width_against_masks_and_stats() {
        let mut p = PivotParams {
            packing: Packing::Off,
            ..Default::default()
        };
        let off = p.slot_plan(3, 100, ClassIndicators);
        assert_eq!(off, SlotPlan::whole_plaintext(256), "off is one slot");
        p.packing = Packing::Auto;
        let plan = p.slot_plan(3, 100, ClassIndicators);
        // m = 3 masks dominate: 3·(2^61 − 2) + 2^44 + 10⁴·2^20 < 2^63.
        assert_eq!(plan.slot_bits, 63);
        // keysize 256 → ⌊255/63⌋ = 4 slots.
        assert_eq!(plan.slots, 4);
        p.assert_valid_for(100, 3, ClassIndicators);
        // More parties widen the slot: m = 8 → 8·2^61 + offsets ≳ 2^64.
        assert_eq!(p.slot_plan(8, 100, ClassIndicators).slot_bits, 65);
        // The statistics term matters at large n·2^f: n = 2^15, f = 20
        // gives n²·2^f = 2^50 — still below the mask term, same width.
        assert_eq!(p.slot_plan(3, 1 << 15, ClassIndicators).slot_bits, 63);
    }

    #[test]
    fn one_slot_is_always_the_whole_plaintext() {
        // An audited-width slot with no neighbour would skip the enhanced
        // protocol's mask refresh while still truncating at 63–70 bits:
        // `Slots(1)`, and `Auto` where a single audited slot fits, resolve
        // to the layout of `Off`.
        let mut p = PivotParams::enhanced();
        let whole = SlotPlan::whole_plaintext(p.keysize);
        p.packing = Packing::Slots(1);
        p.validate(100, 3, ClassIndicators).unwrap();
        assert_eq!(p.slot_plan(3, 100, ClassIndicators), whole);
        // keysize 128 admits one 70-bit slot.
        p.packing = Packing::Auto;
        p.keysize = 128;
        assert_eq!(
            p.slot_plan(3, 100, ClassIndicators),
            SlotPlan::whole_plaintext(128)
        );
        // The codec is the identity on anything below N.
        let codec = p.one_slot_codec();
        let big = pivot_bignum::BigUint::pow2(127);
        assert_eq!(codec.slots(), 1);
        assert_eq!(codec.pack(std::slice::from_ref(&big)), big);
        assert_eq!(codec.unpack(&big, 1), vec![big]);
        assert_eq!(
            codec.offset(),
            pivot_bignum::BigUint::pow2(FixedConfig::default().int_bits - 1)
        );
    }

    #[test]
    fn enhanced_slack_widens_the_slot() {
        // The enhanced protocol's Eqn-10 alpha slack multiplies the
        // statistics bound by m·p: n = 100, m = 3 → 300·2^61 ≈ 2^69.2.
        let mut p = PivotParams::enhanced();
        p.keysize = 512;
        let classification = p.slot_plan(3, 100, ClassIndicators);
        assert_eq!(classification.slot_bits, 70);
        assert_eq!(classification.slots, 7);
        // Regression moments add f + 2 = 22 bits on top.
        let regression = p.slot_plan(3, 100, OffsetMoments);
        assert_eq!(regression.slot_bits, 92);
        assert_eq!(regression.slots, 5);
        // The basic protocol at the same shape stays mask-dominated.
        let basic = PivotParams {
            keysize: 512,
            ..Default::default()
        };
        assert_eq!(basic.slot_plan(3, 100, OffsetMoments).slot_bits, 63);
    }

    #[test]
    fn share_sums_get_their_own_audit() {
        // A GBDT node statistic sums n share sums below m·p under 0/1
        // indicators: n = 120, m = 3 → 360·p, plus the Algorithm-2 offset
        // and three conversion masks, is 363·2^61 ≈ 2^69.5 — on the basic
        // protocol's parameters, which bound the other two label sources
        // at 63 bits.
        let mut p = PivotParams::default();
        for (keysize, slots) in [(512, 7), (256, 3), (192, 2)] {
            p.keysize = keysize;
            let plan = p.slot_plan(3, 120, ShareSums);
            assert_eq!(
                (plan.slot_bits, plan.slots),
                (70, slots),
                "keysize {keysize}"
            );
        }
        assert_eq!(p.slot_plan(3, 120, OffsetMoments).slot_bits, 63);
        // One 70-bit slot is no packing at all; neither is verification.
        p.keysize = 128;
        assert_eq!(
            p.slot_plan(3, 120, ShareSums),
            SlotPlan::whole_plaintext(128)
        );
        p.keysize = 512;
        p.verification = Verification::Full;
        assert_eq!(
            p.slot_plan(3, 120, ShareSums),
            SlotPlan::whole_plaintext(512)
        );
        // Carried vectors never pass through Eqn 10: the enhanced
        // protocol's parameters do not widen them.
        let mut e = PivotParams::enhanced();
        e.keysize = 512;
        assert_eq!(e.slot_plan(3, 120, ShareSums).slot_bits, 70);
        // An explicit slot count is held to the share-sum capacity, which
        // is below the capacity of the labels the super client holds.
        let p = PivotParams {
            packing: Packing::Slots(4),
            ..Default::default()
        };
        p.validate(120, 3, OffsetMoments).unwrap();
        let err = p.validate(120, 3, ShareSums).unwrap_err();
        assert!(
            err.contains("exceeds the audited capacity of 3 70-bit slots"),
            "{err}"
        );
    }

    #[test]
    fn explicit_slot_count_validated_against_capacity() {
        let mut p = PivotParams {
            packing: Packing::Slots(2),
            ..Default::default()
        };
        p.assert_valid_for(100, 3, ClassIndicators);
        p.packing = Packing::Slots(5);
        let err = p.validate(100, 3, ClassIndicators).unwrap_err();
        assert!(
            err.contains("exceeds the audited capacity of 4 63-bit slots"),
            "{err}"
        );
        // The audit sees the real party count and task: eight parties
        // widen the slot to 65 bits, regression moments under the
        // enhanced protocol widen it further.
        p.packing = Packing::Slots(4);
        let err = p.validate(100, 8, ClassIndicators).unwrap_err();
        assert!(
            err.contains("exceeds the audited capacity of 3 65-bit slots"),
            "{err}"
        );
        let mut p = PivotParams::enhanced();
        p.packing = Packing::Slots(3);
        p.validate(100, 3, ClassIndicators).unwrap();
        assert!(p.validate(100, 3, OffsetMoments).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds the audited capacity")]
    fn zero_slot_packing_rejected() {
        let p = PivotParams {
            packing: Packing::Slots(0),
            ..Default::default()
        };
        p.assert_valid_for(100, 3, ClassIndicators);
    }
}
