//! Ensemble extensions of the basic protocol (§7): random forest and
//! gradient-boosted decision trees. Both reach Algorithm 3 and Algorithm 4
//! through the calls a single tree makes — `train_basic`'s list of roots,
//! `predict_basic`'s list of trees and outputs.

pub mod gbdt;
pub mod rf;

pub use gbdt::{predict_gbdt_batch, train_gbdt, GbdtModel, GbdtProtocolParams};
pub use rf::{bootstrap_masks, predict_rf_batch, train_rf, RfModel, RfProtocolParams};

use crate::party::PartyContext;
use pivot_mpc::Share;

/// The winning class of each of `n` samples, from class-major shared scores
/// (`scores[k·n + i]` is class `k` of sample `i`): secure argmax over every
/// sample's row in lockstep — ties go to the first maximum, like the
/// plaintext vote — and ONE opening round. `width` must cover the pairwise
/// differences of a row.
fn open_argmax(ctx: &mut PartyContext<'_>, scores: &[Share], n: usize, width: u32) -> Vec<f64> {
    let rows: Vec<Vec<Share>> = (0..n)
        .map(|i| scores.iter().skip(i).step_by(n).copied().collect())
        .collect();
    let winners: Vec<Share> = ctx
        .engine
        .argmax_many_bounded(&rows, width)
        .into_iter()
        .map(|(idx, _)| idx)
        .collect();
    let opened = ctx.engine.open_vec(&winners);
    opened.iter().map(|idx| idx.value() as f64).collect()
}
