//! Evaluation baselines (§8.1). Both grow the tree level by level, like
//! Pivot, so Figure 5 compares protocols rather than recursions:
//!
//! * [`spdz_dt`] — the pure-MPC strawman: every feature, threshold and
//!   label is secret-shared and the whole of CART runs inside SPDZ. It
//!   grows on Pivot's level step with Pivot-Basic's disclosure, so per
//!   level it shares Pivot-Basic's batches: one prune unit, one gain
//!   pipeline and lockstep argmax, one leaf-label batch and one opening
//!   round for the winners and leaf labels. In place of Pivot's encrypted
//!   pass and Algorithm-2 conversion it pays two Beaver rounds of
//!   `O(n·d·b·(c + 1))` secure multiplications per level, plus `O(n·d·b)`
//!   secure comparisons once — that gap is Figure 5.
//! * [`npd_dt`] — the non-private distributed trainer: plaintext labels
//!   broadcast once, then one exchange of plaintext split proposals (each
//!   client's best score and its announcement) per level. The floor of
//!   Figures 4g/5.

pub mod npd_dt;
pub mod spdz_dt;
