//! Differential privacy inside MPC (paper §9.2): secretly shared Laplace
//! sampling (Algorithm 5) and exponential-mechanism selection (Algorithm 6).
//! No party ever sees the plaintext noise or the sampled index.

use crate::engine::{Affine, MpcEngine};
use crate::field::Fp;
use crate::share::Share;

/// Algorithm 5, vectorized: `count` independent samples
/// `⟨X⟩ ~ Laplace(mu, b)` in secret-shared form.
///
/// Follows the paper exactly: draw uniform `⟨U⟩ ∈ (−1/2, 1/2)`, extract the
/// sign and magnitude with secure comparison/selection, and apply the
/// inverse CDF `X = µ − b · sgn(U) · ln(1 − 2|U|)`.
pub fn laplace_sample_vec(engine: &mut MpcEngine<'_>, mu: f64, b: f64, count: usize) -> Vec<Share> {
    let party = engine.party();
    let cfg = engine.cfg;
    let half = cfg.encode(0.5);
    // U = u − 1/2 with u uniform in [0, 1) from the offline phase.
    let u: Vec<Share> = (0..count)
        .map(|_| {
            let frac = engine.dealer_mut().random_unit_fraction(&cfg);
            Share(frac).sub_public(party, half)
        })
        .collect();

    // ⟨Us⟩ = sign, ⟨Ua⟩ = |U| (lines 2–8 of Algorithm 5).
    // |U| ≤ 1/2 at scale 2^f, so the sign test needs f + 2 bits.
    let neg = engine.ltz_vec_bounded(&u, cfg.frac_bits + 2); // 1 iff U < 0
    let minus_u: Vec<Share> = u.iter().map(|&x| -x).collect();
    let ua = engine.select_vec(&neg, &minus_u, &u);

    // ln(1 − 2·Ua); the argument lies in (0, 1]. Add one ulp so the series
    // never sees an exact zero.
    let one = engine.cfg.encode(1.0);
    let args: Vec<Share> = ua
        .iter()
        .map(|&a| (Share::from_public(party, one) - a.scale(Fp::new(2))).add_public(party, Fp::ONE))
        .collect();
    let ln = engine.ln_unit_pending(&args);

    // Us = 1 − 2·neg ∈ {−1, +1} (integer-valued share), X = µ − b·Us·ln(...).
    // The log is `−tr` of its last truncation, which rides the product's
    // opening.
    let us: Vec<Share> = neg
        .iter()
        .map(|&s| Share::from_public(party, Fp::ONE) - s.scale(Fp::new(2)))
        .collect();
    let lns: Vec<Affine> = (0..count)
        .map(|lane| Affine {
            lane,
            alpha: -Fp::ONE,
            beta: Share::ZERO,
        })
        .collect();
    // integer × fixed → scale f
    let (_, signed_ln) = engine.trunc_mul_vec(&ln.raw, ln.t, &Affine::shares(&us), &lns);
    let scaled = engine.fixscale_vec(&signed_ln, b);
    let mu_enc = engine.cfg.encode(mu);
    scaled
        .into_iter()
        .map(|t| (-t).add_public(party, mu_enc))
        .collect()
}

/// Algorithm 6 per row of `rows` (one width): a secretly shared index
/// drawn with the exponential mechanism (`Pr[r] ∝ exp(ε·score_r / 2Δ)`).
///
/// Returns `⟨index⟩` per row. Uses the max-shift form of the softmax so
/// every normalizing sum stays in `[1, R]` for the secure reciprocal; all
/// rows share one scaling, one softmax and one interval test.
pub fn exponential_mechanism(
    engine: &mut MpcEngine<'_>,
    rows: &[Vec<Share>],
    epsilon: f64,
    sensitivity: f64,
) -> Vec<Share> {
    let Some(r) = rows.first().map(Vec::len) else {
        return Vec::new();
    };
    assert!(
        r >= 1 && rows.iter().all(|row| row.len() == r),
        "rows share one non-zero width"
    );
    let party = engine.party();

    // Scaled scores ε·s/(2Δ) (public scaling), then probabilities via the
    // shifted secure softmax (lines 1–2 of Algorithm 6, with the standard
    // max-shift so the sum is at least 1).
    let scaled = engine.fixscale_vec(&rows.concat(), epsilon / (2.0 * sensitivity));
    let probs = engine.softmax_rows(&scaled, r);

    // Per row, a uniform ⟨U⟩ ∈ [0, 1) against the cumulative distribution
    // F_j (lines 5–14; the prefix sums are linear, no communication).
    let cfg = engine.cfg;
    let mut diffs = Vec::with_capacity(probs.len());
    for row in probs.chunks(r) {
        let u = Share(engine.dealer_mut().random_unit_fraction(&cfg));
        let mut cum = Share::ZERO;
        for &p in row {
            cum = cum + p;
            diffs.push(u - cum);
        }
    }
    // b_j = 1[U < F_j] is a step function, 1 exactly for j ≥ the selected
    // index, so index = (R − 1) − Σ_{j<R−1} b_j. U ∈ [0, 1) and
    // F_j ∈ (0, 1 + ulp]: the tests compare bounded uniform draws, so
    // f + 3 bits suffice.
    let bs = engine.ltz_vec_bounded(&diffs, cfg.frac_bits + 3);
    let last = Share::from_public(party, Fp::new(r as u64 - 1));
    let index = |b: &[Share]| b[..r - 1].iter().fold(last, |index, &b| index - b);
    bs.chunks(r).map(index).collect()
}
