//! The two contracts the single level-wise trainer is held to, for
//! basic-PP, enhanced-PP, GBDT and the random forest at m = 3 with packing
//! and bounded comparisons on:
//!
//! (a) **Oracle equality.** The released model equals the `pivot-trees`
//!     plaintext oracle trained on the joined data: same splits and leaf
//!     values for the plaintext models (basic, GBDT), same opened
//!     predictions for the concealed one (enhanced).
//! (b) **Golden counters.** Rounds, secure multiplications and
//!     comparisons, threshold decryptions, training bytes and messages of
//!     every party, and the prediction vector, equal constants recorded
//!     when the level step became "a child is its parent's winning split"
//!     (`pivot_core`'s trainer module: ciphertext-free leaves, masks only
//!     where they are read, right-sibling statistics by share
//!     subtraction) — so a change that moves any protocol operation fails
//!     here. Rounds, multiplications and comparisons of the basic and
//!     GBDT rows are the ones the node-by-node trainers before it had;
//!     the enhanced rows carry one more round per split level and
//!     `(1 + K)·b` more multiplications per split for the concealed
//!     column pick. The *bytes* of four rows were re-recorded when the
//!     statistics pipeline and Algorithm 2 became one path whose one-slot
//!     layout GBDT trees run; every other pinned number, and every
//!     prediction, is as recorded before. Per party: `gbdt-h1`
//!     +94 / +98 / +94, `gbdt-h2` +192 / +192 / +188, `gbdt-h3`
//!     +378 / +384 / +382 (≤ 0.008 %: the pooled statistics cross the
//!     wire as one vector per statistic of the stride instead of one flat
//!     vector — three more 8-byte length prefixes per peer and pass, 96
//!     bytes per party at `h1`'s two passes — and the conversion masks
//!     land on the same values in chunk-major order, so a few opened
//!     bigints encode a byte longer or shorter);
//!     `enhanced-h3` +2 / −2 / +2 (keysize 256 admits one slot for the
//!     Eqn-10 conversion, now a one-slot group with the group's own
//!     offset `2^bound` instead of `2^(k−1)`: the opened sums differ in
//!     encoded length by a byte here and there).
//!
//!     The three GBDT rows were re-recorded once more when a GBDT node
//!     began to carry its stride `(α, γ₁, γ₂)` in the slots of the run's
//!     codec (keysize 256, m = 3: three 68-bit share-sum slots, one
//!     packed vector for three, `G = 1`), the two one-value conversions
//!     of the GBDT path became packed ones (four 63-bit slots), and the
//!     last round stopped folding its tree into scores nobody reads.
//!     `secure_mults` and `secure_comparisons` did not move. Per row,
//!     with 18 candidate splits, `n` training and `t` test samples:
//!
//!     | row | rounds | decryptions | bytes sent, per party | messages, per party |
//!     |---|---|---|---|---|
//!     | `gbdt-h1` (n 45, t 15) | 207 → 206 | 219 → 54 | −71 456 / −71 467 / −71 456 | −100 / −55 / −55 |
//!     | `gbdt-h2` (n 30, t 10) | 341 → 340 | 298 → 87 | −100 618 / −87 536 / −87 536 | −78 / −40 / −40 |
//!     | `gbdt-h3` (n 45, t 15) | 475 → 474 | 561 → 168 | −255 508 / −170 755 / −170 758 | −132 / −55 / −55 |
//!
//!     *Rounds* −1: the skipped accumulate's `fixscale_vec` (one
//!     regression forest, so one final tree). *Decryptions*: a
//!     statistics pass converts `1·18 + 1 = 19` ciphertexts instead of
//!     `3·18 + 3 = 57` (2 / 4 / 8 passes at `h` = 1 / 2 / 3), one
//!     accumulate instead of two converts `⌈n/4⌉` instead of `n`, and
//!     prediction `⌈t/4⌉` instead of `t`: 114 + 90 + 15 → 38 + 12 + 4,
//!     228 + 60 + 10 → 76 + 8 + 3, 456 + 90 + 15 → 152 + 12 + 4.
//!     *Bytes and messages*: those conversions' masks and partial
//!     decryptions; per tree, one exchange of `n` packed rows per client
//!     for the root instead of two of `n` share encryptions; per mask
//!     update, one broadcast vector per side instead of three; a pass
//!     pools one ciphertext per split instead of three; and the last
//!     tree's Algorithm-4 ring pass over the training samples is gone.
//!     The dealer stream is one truncation batch shorter when prediction
//!     starts, so `fixscale_vec` draws other pairs there and some pinned
//!     GBDT predictions moved by one ulp (2⁻²⁰ ≈ 9.5e−7): three of 15 at
//!     `h1`, two of 10 at `h2`, five of 15 at `h3`; the trees are the
//!     oracle's as before.
//!
//!     **The ensemble rows** (`rf-w1`, `rf-w4`, `gbdt-k3`; `h = 2`, n 60,
//!     t 15, 18 candidate splits) were recorded when a forest became the
//!     `W` roots of one frontier and its prediction one Algorithm-4 pass
//!     over its concatenated leaves. The work is the parent commit's —
//!     party 0's training `[encryptions, decryptions, mults, comparisons]`
//!     with prediction skipped equal what the parent's binary reports for
//!     the same scenario (`parent_training`), the trees are the oracle's on
//!     both — and only the rounds, the messages and the framing moved.
//!     Party 0, whole run, parent → here:
//!
//!     | row | rounds (training) | mults | comparisons | decryptions | train bytes | train messages |
//!     |---|---|---|---|---|---|---|
//!     | `rf-w1` | 192 (132) → 135 (132) | 33 015 → 33 045 | 1 297 → 1 237 | 53 → 46 | 1 147 420, same | 294, same |
//!     | `rf-w4` | 678 (528) → 138 (132) | 132 015 → 132 045 | 5 143 → 4 903 | 212 → 160 | 4 589 268 → 4 569 452 | 1 160 → 338 |
//!     | `gbdt-k3` | 1 200 (1 182) → 524 (508) | 349 305, same | 8 697, same | 285, same | 11 750 130 → 11 716 302 | 2 882 → 1 478 |
//!
//!     *Training rounds*: four trees, or the three class trees of each of
//!     two boosting rounds, share the levels of one (132 = 132; 508 is
//!     two frontiers, two softmaxes and one accumulate). *Prediction*: the
//!     parent converted each tree's encrypted label of each test sample
//!     alone (`t·W` decryptions), expanded it to a one-hot vote
//!     (`2·K` comparisons each) and ran one argmax per sample, four rounds
//!     a sample; here the `K·t` encrypted tallies convert packed
//!     (`⌈K·t/4⌉ = 8` decryptions whatever `W`), and one lockstep argmax
//!     (`t` comparisons at `width_for_magnitude(W)`, `4t` multiplications:
//!     its all-pairs finish weighs index and value of both candidates,
//!     where the tournament selected them with `2t`) and one opening
//!     serve the batch: 3 rounds at
//!     `W = 1`, 6 at `W = 4` — the bounded ladder is deeper at 4 bits than
//!     at 2, the number of samples does not enter. *Bytes and messages*:
//!     `rf-w1` is the one-root case, bit for bit the parent's training;
//!     with four roots every per-level exchange is one message instead of
//!     four (−0.4 % bytes: the length prefixes and batch headers that
//!     went). `gbdt-k3`'s counters are all the parent's: the K trees of a
//!     round were already the same work, and its prediction was already
//!     one packed conversion per class — now one exchange for the three.
//!
//!     **Every row's rounds, mults, bytes and messages** (and the ensemble
//!     rows' `parent_training` mults) were re-recorded when a comparison
//!     became one opening plus a carry-out tree. Comparisons, decryptions
//!     and predictions did not move. At width `k` (`t = k − 1` low bits) a
//!     comparison unit costs `1 + ⌈log₂ t⌉` rounds instead of
//!     `2⌈log₂ t⌉`, and a BitLT row `⌊t/2⌋ + Σ_levels (2·pairs − 1)`
//!     products instead of the suffix-OR ladder's ≈ `2t` (5 for 8 at
//!     `t = 6`, 35 for 49 at `t = 27`). A reciprocal builds `2^z` as a
//!     linear form of its thermometer bits: `⌈log₂ s⌉` rounds and `s − 1`
//!     products per element fewer. The gain's validity test rides the
//!     reciprocal's batch as lane `1[n_side < 2^0]`, so its own unit goes.
//!     `basic-h1` (n = 48, `s = 6`, one split level and one leaf level):
//!     70 → 51 rounds = −2 for the reciprocal's unit at `k = 8`, −3 for its
//!     product tree, −6 for the validity unit at `k = 7`, −4 for the gain
//!     argmax at `k = 28`, −2 each for the prune test and the leaf argmax at
//!     `k = 7`. Messages fall by two per round, one per peer.
//!     `rounds(W = 4) = rounds(W = 1)` holds.
//!
//!     **Every row's rounds, mults, bytes and messages** (and the ensemble
//!     rows' `parent_training` mults) were re-recorded once more when the
//!     dealer began to deal each masked row's bit-pair products and the
//!     gain's validity gate folded into its first product round.
//!     Comparisons, encryptions, decryptions, every tree and every
//!     prediction did not move: neither lever touches the call-order
//!     truncation stream, so every opened value is the one recorded before
//!     (no GBDT prediction moved by an ulp). Two levers:
//!
//!     - *Dealt pair products.* The carry tree's leaf product
//!       `b_{2i}·b_{2i+1}` comes with the masked row, so a comparison unit
//!       at width `k` (`t = k − 1`) costs `1 + ⌈log₂⌈t/2⌉⌉` rounds instead
//!       of `1 + ⌈log₂ t⌉` (one fewer wherever `t > 2`, which is every unit
//!       of these rows) and a BitLT row `⌊t/2⌋` fewer products.
//!     - *Folded gate.* The gated gain is `Σ p·q + (valid − 1)·2^f` with
//!       `q = valid·g_k` (classification) or `valid·n_side` (regression)
//!       multiplied in the round of `g_k·recip` (`γ₁·recip`): one round
//!       fewer per gain level, `2·K·s − s` more products per node of `s`
//!       splits (`K` classes; `s` per node for regression).
//!
//!     `basic-h1` (n = 48, `s = 6`, 18 splits, one split level and one leaf
//!     level): 51 → 46 rounds = −1 each for the prune unit at `k = 7`, the
//!     reciprocal's unit at `k = 8`, the gating round, the gain argmax's
//!     all-pairs unit at `k = 28` and the leaf argmax at `k = 7`; 7 988 →
//!     5 288 mults = −756 for the reciprocal's 252 rows (7 → 4 products at
//!     `t = 7`), −1 989 for the argmax's 153 pairs (35 → 22 at `t = 27`),
//!     −3 prune, −6 leaf argmax, +54 for the folded gate. Messages fall by
//!     two per training round, one per peer. Party 0, parent → here:
//!
//!     | row | rounds | mults | train bytes | train messages |
//!     |---|---|---|---|---|
//!     | `basic-h1` | 51 → 46 | 7 988 → 5 288 | 291 344 → 204 704 | 120 → 110 |
//!     | `basic-h2` | 96 → 87 | 20 969 → 13 206 | 741 552 → 492 704 | 220 → 202 |
//!     | `basic-h3` | 146 → 132 | 47 888 → 31 700 | 1 689 350 → 1 170 662 | 334 → 306 |
//!     | `enhanced-h1` | 67 → 59 | 8 683 → 5 727 | 291 568 → 204 320 | 138 → 124 |
//!     | `enhanced-h2` | 121 → 107 | 22 296 → 14 056 | 769 966 → 519 390 | 270 → 244 |
//!     | `enhanced-h3` | 186 → 164 | 43 229 → 28 535 | 1 526 644 → 1 091 318 | 414 → 374 |
//!     | `gbdt-h1` | 160 → 150 | 23 514 → 15 228 | 841 916 → 576 284 | 442 → 422 |
//!     | `gbdt-h2` | 258 → 240 | 65 874 → 41 766 | 2 262 698 → 1 490 378 | 630 → 594 |
//!     | `gbdt-h3` | 356 → 330 | 163 422 → 105 636 | 5 586 118 → 3 735 718 | 890 → 838 |
//!     | `rf-w1` | 99 → 90 | 24 006 → 15 912 | 856 444 → 597 004 | 222 → 204 |
//!     | `rf-w4` | 101 → 91 | 95 874 → 63 483 | 3 410 732 → 2 374 268 | 266 → 248 |
//!     | `gbdt-k3` | 403 → 376 | 254 250 → 164 982 | 8 702 094 → 5 875 950 | 1 246 → 1 194 |
//!
//!     `rf-w4` saves one round more than `rf-w1`, in prediction: its vote
//!     argmax compares at `k = 4`, whose unit now has one carry level, while
//!     `rf-w1`'s at `k = 2` had none. The other parties' bytes fall by the
//!     same amounts, to the byte, except the enhanced rows' (±5 bytes: the
//!     Beaver products come from other triples, so the shares the
//!     concealed path converts back to ciphertexts are other shares of the
//!     same values, and a few of their encryptions encode a byte longer or
//!     shorter).
//!
//!     The byte column alone was re-recorded once more when the key
//!     fixture's safe primes began to come from a sieved incremental
//!     search: the keysize-256 `N` changed, and a `BigUint` crosses the
//!     wire without its leading zero bytes, so a few ciphertexts and
//!     opened values encode a byte longer or shorter. Per party, −11 to
//!     +10 bytes (≤ 0.002 %); 30 of the 36 entries moved, no other number
//!     and no prediction did.
//!
//! Every protocol runs at three depths, because the mask rule differs at
//! each: `max_depth = 1` (no mask update at all), `2` (left masks only —
//! the depth of every benchmark workload) and `3` (right masks wanted at
//! the root, siblings that part ways). The depth-1 and depth-3 cases
//! share noisier data with `min_samples = 10`: without a purity stop
//! (scenarios have none) a small pure node ties every split, and which
//! tie wins is not the oracle's business.
//!
//! The counters are checked in-process and as three `pivot party`
//! processes over loopback TCP, whose reports must also equal the
//! in-process run's.

use pivot_cli::json::Json;
use pivot_cli::runner::{execute, prepare, Execution};
use pivot_cli::scenario::Scenario;
use pivot_core::ensemble::{
    bootstrap_masks, train_gbdt, train_rf, GbdtProtocolParams, RfProtocolParams,
};
use pivot_core::{train_basic, Counter, PartyContext};
use pivot_data::{partition_vertically, Dataset, Task};
use pivot_transport::run_parties_with;
use pivot_transport::tcp::loopback_peers;
use pivot_trees::{train_tree, CartTrainer, DecisionTree, Node, TreeParams};
use std::path::PathBuf;
use std::process::{Child, Command};

/// One party's pinned counters: `mpc_rounds`, `secure_mults`,
/// `secure_comparisons`, `threshold_decryptions`, `train_bytes_sent`,
/// `train_messages_sent`.
type Counters = [u64; 6];

struct Case {
    tag: &'static str,
    /// Scenario text: seed, algorithm, data and model.
    body: &'static str,
    /// The `[params]` lines that shape the tree.
    tree: &'static str,
    golden: [Counters; 3],
    predictions: &'static [f64],
}

const BASIC_BODY: &str = "seed = 4242\nalgorithm = \"pivot-basic-pp\"\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 36\n\
     features_per_party = 2\nclasses = 2\nflip_y = 0.05\ntest_fraction = 0.2\n";
const ENHANCED_BODY: &str = "seed = 31337\nalgorithm = \"pivot-enhanced-pp\"\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 40\n\
     features_per_party = 2\nclasses = 2\nflip_y = 0.05\ntest_fraction = 0.3\n";
const GBDT_BODY: &str = "seed = 7\nalgorithm = \"pivot-basic-pp\"\n\
     [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
     features_per_party = 2\nnoise = 0.05\ntest_fraction = 0.25\n\
     [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n";

/// The data of the depth-1 and depth-3 cases.
const BASIC_NOISY: &str = "seed = 10\nalgorithm = \"pivot-basic-pp\"\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 60\n\
     features_per_party = 2\nclasses = 2\nflip_y = 0.15\ntest_fraction = 0.2\n";
const ENHANCED_NOISY: &str = "seed = 10\nalgorithm = \"pivot-enhanced-pp\"\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 60\n\
     features_per_party = 2\nclasses = 2\nflip_y = 0.15\ntest_fraction = 0.3\n";
const GBDT_NOISY: &str = "seed = 10\nalgorithm = \"pivot-basic-pp\"\n\
     [data]\nkind = \"synthetic-regression\"\nsamples = 60\n\
     features_per_party = 2\nnoise = 0.05\ntest_fraction = 0.25\n\
     [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n";

const DEPTH_1: &str = "max_depth = 1\nmin_samples = 10\n";
const DEPTH_2: &str = "max_depth = 2\n";
const DEPTH_3: &str = "max_depth = 3\nmin_samples = 10\n";

const BASIC: [Case; 3] = [
    Case {
        tag: "basic-h1",
        body: BASIC_NOISY,
        tree: DEPTH_1,
        golden: [
            [46, 5288, 408, 31, 204706, 110],
            [46, 5288, 408, 31, 190770, 104],
            [46, 5288, 408, 31, 190770, 104],
        ],
        predictions: &[1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0],
    },
    Case {
        tag: "basic-h2",
        body: BASIC_BODY,
        tree: DEPTH_2,
        golden: [
            [87, 13206, 1114, 45, 492702, 202],
            [87, 13206, 1114, 45, 475890, 194],
            [87, 13206, 1114, 45, 475874, 194],
        ],
        predictions: &[0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    Case {
        tag: "basic-h3",
        body: BASIC_NOISY,
        tree: DEPTH_3,
        golden: [
            [132, 31700, 2444, 88, 1170668, 306],
            [132, 31700, 2444, 88, 1136018, 298],
            [132, 31700, 2444, 88, 1122162, 296],
        ],
        predictions: &[1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    },
];

const ENHANCED: [Case; 3] = [
    Case {
        tag: "enhanced-h1",
        body: ENHANCED_NOISY,
        tree: DEPTH_1,
        golden: [
            [59, 5727, 439, 21, 204322, 124],
            [59, 5727, 439, 21, 192546, 116],
            [59, 5727, 439, 21, 192544, 116],
        ],
        predictions: &[
            0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ],
    },
    Case {
        tag: "enhanced-h2",
        body: ENHANCED_BODY,
        tree: DEPTH_2,
        golden: [
            [107, 14056, 1186, 96, 519390, 244],
            [107, 14056, 1186, 96, 502871, 231],
            [107, 14056, 1186, 96, 502677, 227],
        ],
        predictions: &[
            1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0,
        ],
    },
    Case {
        tag: "enhanced-h3",
        body: ENHANCED_NOISY,
        tree: DEPTH_3,
        golden: [
            [164, 28535, 2193, 321, 1091326, 374],
            [164, 28535, 2193, 321, 1055588, 362],
            [164, 28535, 2193, 321, 1055370, 358],
        ],
        predictions: &[
            0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0,
            0.0, 0.0, 0.0,
        ],
    },
];

const GBDT: [Case; 3] = [
    Case {
        tag: "gbdt-h1",
        body: GBDT_NOISY,
        tree: DEPTH_1,
        golden: [
            [150, 15228, 836, 54, 576288, 422],
            [150, 15228, 836, 54, 562426, 367],
            [150, 15228, 836, 54, 562426, 367],
        ],
        predictions: &[
            -0.2755470275878906,
            -0.27554798126220703,
            -0.2755470275878906,
            0.3787965774536133,
            0.3787965774536133,
            -0.2755470275878906,
            -0.2755470275878906,
            0.1149148941040039,
            -0.27554798126220703,
            0.1149148941040039,
            0.1149148941040039,
            0.3787965774536133,
            0.1149148941040039,
            0.1149148941040039,
            -0.2755470275878906,
        ],
    },
    Case {
        tag: "gbdt-h2",
        body: GBDT_BODY,
        tree: DEPTH_2,
        golden: [
            [240, 41766, 2260, 87, 1490382, 594],
            [240, 41766, 2260, 87, 1476545, 544],
            [240, 41766, 2260, 87, 1476617, 546],
        ],
        predictions: &[
            0.1257009506225586,
            0.2709846496582031,
            -0.0650186538696289,
            0.2709846496582031,
            0.3996114730834961,
            -0.20336341857910156,
            -0.2263345718383789,
            0.3996114730834961,
            -0.36467933654785156,
            0.1257009506225586,
        ],
    },
    Case {
        tag: "gbdt-h3",
        body: GBDT_NOISY,
        tree: DEPTH_3,
        golden: [
            [330, 105636, 5780, 168, 3735726, 838],
            [330, 105636, 5780, 168, 3689041, 761],
            [330, 105636, 5780, 168, 3689061, 761],
        ],
        predictions: &[
            -0.4095935821533203,
            -0.5541133880615234,
            -0.4095935821533203,
            0.3486824035644531,
            0.34868335723876953,
            -0.11623764038085938,
            -0.03405952453613281,
            0.11658668518066406,
            -0.4095935821533203,
            0.10561180114746094,
            0.1789112091064453,
            0.34868335723876953,
            0.11658668518066406,
            0.043288230895996094,
            -0.4095935821533203,
        ],
    },
];

/// The ensemble rows: a forest of `trees` bootstrap trees and one-vs-rest
/// GBDT over three classes, `h = 2`, on noisy data with the `min_samples`
/// floor (see the header).
macro_rules! rf_body {
    ($trees:literal) => {
        concat!(
            "seed = 3\nalgorithm = \"pivot-basic-pp\"\n",
            "[data]\nkind = \"synthetic-classification\"\nsamples = 75\n",
            "features_per_party = 2\nclasses = 2\nflip_y = 0.15\ntest_fraction = 0.2\n",
            "[model]\nkind = \"random-forest\"\ntrees = ",
            $trees,
            "\n"
        )
    };
}
const GBDT_THREE_CLASS: &str = "seed = 7\nalgorithm = \"pivot-basic-pp\"\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 75\n\
     features_per_party = 2\nclasses = 3\ninformative = 4\nflip_y = 0.15\n\
     test_fraction = 0.2\n\
     [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n";
const DEPTH_2_FLOOR: &str = "max_depth = 2\nmin_samples = 10\n";

/// A row of the ensemble table: its golden counters, and party 0's
/// training-phase `[encryptions, threshold_decryptions, secure_mults,
/// secure_comparisons]` as the binary before the shared frontier reported
/// them (mults since re-recorded for the carry-out comparison, and again
/// for the dealt bit-pair products and the folded validity gate).
struct EnsembleCase {
    case: Case,
    parent_training: [u64; 4],
}

const RF: [EnsembleCase; 2] = [
    EnsembleCase {
        case: Case {
            tag: "rf-w1",
            body: rf_body!(1),
            tree: DEPTH_2_FLOOR,
            golden: [
                [90, 15912, 1237, 46, 597004, 204],
                [90, 15912, 1237, 46, 562290, 194],
                [90, 15912, 1237, 46, 562226, 192],
            ],
            predictions: &[
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0,
            ],
        },
        parent_training: [158, 38, 15852, 1222],
    },
    EnsembleCase {
        case: Case {
            tag: "rf-w4",
            body: rf_body!(4),
            tree: DEPTH_2_FLOOR,
            golden: [
                [91, 63483, 4903, 160, 2374278, 248],
                [91, 63483, 4903, 160, 2235344, 208],
                [91, 63483, 4903, 160, 2235424, 212],
            ],
            predictions: &[
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0,
            ],
        },
        parent_training: [632, 152, 63408, 4888],
    },
];

const GBDT_K3: EnsembleCase = EnsembleCase {
    case: Case {
        tag: "gbdt-k3",
        body: GBDT_THREE_CLASS,
        tree: DEPTH_2_FLOOR,
        golden: [
            [376, 164982, 8697, 285, 5875956, 1194],
            [376, 164982, 8697, 285, 5792566, 850],
            [376, 164982, 8697, 285, 5792484, 848],
        ],
        predictions: &[
            1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 1.0,
        ],
    },
    parent_training: [2073, 273, 163182, 8652],
};

/// Candidate splits and crypto configuration shared by every case.
const PARAMS: &str = "max_splits = 3\nkeysize = 256\ncrypto_threads = 2\n";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pivot-trainer-contract-{}-{name}",
        std::process::id()
    ))
}

/// The tree-growing parameters the scenario trains with, for the oracle.
fn tree_params(scenario: &Scenario) -> TreeParams {
    scenario
        .pivot_params(scenario.sole_algorithm().unwrap())
        .tree
}

/// Train on the joined data through the library entry point `train`, one
/// thread per party, and return the training set with every party's model.
fn train_federated<M: Send>(
    scenario: &Scenario,
    train: impl Fn(&mut PartyContext<'_>) -> M + Send + Sync,
) -> (Dataset, Vec<M>) {
    let algo = scenario.sole_algorithm().unwrap();
    let (train_set, _, params) = prepare(scenario, algo).unwrap();
    let partition = partition_vertically(&train_set, scenario.parties, 0);
    let models = run_parties_with(scenario.parties, scenario.net_config(), |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        train(&mut ctx)
    });
    (train_set, models)
}

/// Same splits (feature and threshold, exactly) in the same arena layout;
/// leaf values agree to fixed-point precision.
fn assert_same_tree(federated: &DecisionTree, oracle: &DecisionTree, what: &str) {
    assert_eq!(federated.root(), oracle.root(), "{what}: root");
    assert_eq!(
        federated.nodes().len(),
        oracle.nodes().len(),
        "{what}: node count"
    );
    for (id, (node, expect)) in federated.nodes().iter().zip(oracle.nodes()).enumerate() {
        match (node, expect) {
            (
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                },
                Node::Internal {
                    feature: of,
                    threshold: ot,
                    left: ol,
                    right: or,
                },
            ) => assert_eq!(
                (feature, threshold, left, right),
                (of, ot, ol, or),
                "{what}: split at node {id}"
            ),
            (Node::Leaf { value }, Node::Leaf { value: ov }) => assert!(
                (value - ov).abs() < 1e-3,
                "{what}: leaf {id} is {value}, oracle {ov}"
            ),
            _ => panic!("{what}: node {id} is {node:?}, oracle {expect:?}"),
        }
    }
}

/// Contract (b) for one party.
fn assert_golden(case: &Case, party: usize, counters: Counters, predictions: &[f64], how: &str) {
    assert_eq!(
        counters, case.golden[party],
        "{} {how}: party {party} [rounds, mults, comparisons, decryptions, bytes, messages]",
        case.tag
    );
    assert_eq!(
        predictions, case.predictions,
        "{} {how}: party {party} predictions",
        case.tag
    );
}

fn pivot_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pivot")
}

fn spawn_party(scenario: &str, id: usize, peers: &[String], out: &str) -> Child {
    Command::new(pivot_bin())
        .args([
            "party",
            "--scenario",
            scenario,
            "--id",
            &id.to_string(),
            "--peers",
            &peers.join(","),
            "--out",
            out,
            "--quiet",
        ])
        .spawn()
        .expect("spawn pivot party")
}

fn u64_at(report: &Json, path: &str) -> u64 {
    report
        .path(path)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("report misses {path}"))
}

/// Run the case in-process through the CLI runner and as three `pivot
/// party` processes over loopback TCP. Both must show the golden
/// counters, and the TCP reports must equal the in-process run in the
/// rest of what a transport may not change: metric, model shape and the
/// payload bytes of both phases in both directions.
fn run_both_backends(case: &Case) -> (Scenario, Execution) {
    let path = temp_path(&format!("{}.toml", case.tag));
    let text = format!("parties = 3\n{}[params]\n{}{PARAMS}", case.body, case.tree);
    std::fs::write(&path, text).unwrap();
    let scenario = Scenario::load(&path).unwrap();
    let exec = execute(&scenario, scenario.sole_algorithm().unwrap(), false).unwrap();
    for p in &exec.parties {
        let counters = [
            p.counters[Counter::Rounds],
            p.counters[Counter::SecureMults],
            p.counters[Counter::SecureComparisons],
            p.counters[Counter::ThresholdDecryptions],
            p.train[Counter::BytesSent],
            p.train[Counter::MessagesSent],
        ];
        assert_golden(case, p.party, counters, &p.predictions, "in-process");
    }

    let peers = loopback_peers(3);
    let outs: Vec<PathBuf> = (0..3)
        .map(|i| temp_path(&format!("{}-party{i}.json", case.tag)))
        .collect();
    let children: Vec<Child> = (0..3)
        .map(|i| spawn_party(path.to_str().unwrap(), i, &peers, outs[i].to_str().unwrap()))
        .collect();
    for (i, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("party process");
        assert!(status.status.success(), "{} party {i} failed", case.tag);
    }
    for (i, (out, expect)) in outs.iter().zip(&exec.parties).enumerate() {
        let report = Json::parse(&std::fs::read_to_string(out).unwrap())
            .unwrap_or_else(|e| panic!("{} party {i} report unparseable: {e}", case.tag));
        let counters = [
            u64_at(&report, "counters.mpc_rounds"),
            u64_at(&report, "counters.secure_mults"),
            u64_at(&report, "counters.secure_comparisons"),
            u64_at(&report, "counters.threshold_decryptions"),
            u64_at(&report, "network.train.bytes_sent"),
            u64_at(&report, "network.train.messages_sent"),
        ];
        let predictions: Vec<f64> = report
            .get("predictions")
            .and_then(Json::as_array)
            .expect("predictions")
            .iter()
            .map(|v| v.as_f64().expect("numeric prediction"))
            .collect();
        assert_golden(case, i, counters, &predictions, "tcp");
        assert_eq!(
            report.path("evaluation.value").unwrap().as_f64(),
            exec.metric,
            "{} party {i} metric",
            case.tag
        );
        assert_eq!(
            (
                u64_at(&report, "model.internal_nodes"),
                u64_at(&report, "network.train.bytes_received"),
                u64_at(&report, "network.predict.bytes_sent"),
                u64_at(&report, "network.predict.bytes_received"),
            ),
            (
                expect.internal_nodes as u64,
                expect.train[Counter::BytesReceived],
                expect.predict()[Counter::BytesSent],
                expect.predict()[Counter::BytesReceived],
            ),
            "{} party {i}: tcp [nodes, train recv, predict sent, predict recv] vs in-process",
            case.tag
        );
        std::fs::remove_file(out).ok();
    }
    std::fs::remove_file(&path).ok();
    (scenario, exec)
}

#[test]
fn basic_pp_equals_the_cart_oracle_and_the_golden_counters() {
    for case in &BASIC {
        let (scenario, _) = run_both_backends(case);
        let (train_set, trees) = train_federated(&scenario, train_basic::train);
        let oracle = train_tree(&train_set, &tree_params(&scenario));
        for (party, tree) in trees.iter().enumerate() {
            assert_same_tree(tree, &oracle, &format!("{} party {party}", case.tag));
        }
    }
}

#[test]
fn enhanced_pp_predicts_like_the_cart_oracle_and_matches_the_golden_counters() {
    for case in &ENHANCED {
        let (scenario, exec) = run_both_backends(case);
        let (train_set, test_set, _) = prepare(&scenario, exec.algo).unwrap();
        let oracle = train_tree(&train_set, &tree_params(&scenario));
        let samples: Vec<Vec<f64>> = (0..test_set.num_samples())
            .map(|i| test_set.sample(i).to_vec())
            .collect();
        assert_eq!(
            exec.parties[0].predictions,
            oracle.predict_batch(&samples),
            "{}: opened predictions vs oracle",
            case.tag
        );
    }
}

#[test]
fn gbdt_equals_the_boosted_cart_oracle_and_the_golden_counters() {
    for case in &GBDT {
        let (scenario, _) = run_both_backends(case);
        let rounds = scenario.model.rounds;
        let learning_rate = scenario.model.learning_rate;
        let (train_set, models) = train_federated(&scenario, |ctx| {
            train_gbdt(
                ctx,
                &GbdtProtocolParams {
                    rounds,
                    learning_rate,
                },
            )
        });
        // The protocol boosts squared-loss residuals from a zero score (§7.2).
        let mut scores = vec![0.0; train_set.num_samples()];
        for round in 0..rounds {
            let residuals: Vec<f64> = train_set
                .labels()
                .iter()
                .zip(&scores)
                .map(|(y, s)| y - s)
                .collect();
            let stage = train_set.with_labels(residuals, Task::Regression);
            let oracle = train_tree(&stage, &tree_params(&scenario));
            for (party, model) in models.iter().enumerate() {
                let what = format!("{} party {party} round {round}", case.tag);
                assert_same_tree(&model.forests[0][round], &oracle, &what);
            }
            for (i, score) in scores.iter_mut().enumerate() {
                *score += learning_rate * oracle.predict(train_set.sample(i));
            }
        }
    }
}

/// Party 0's training-phase `mpc_rounds` with prediction skipped, after
/// checking that the training work is what the parent commit did.
fn training_rounds_at_the_parents_work(row: &EnsembleCase, scenario: &Scenario) -> u64 {
    let exec = execute(scenario, scenario.sole_algorithm().unwrap(), true).unwrap();
    let p0 = &exec.parties[0].counters;
    assert_eq!(
        [
            p0[Counter::Encryptions],
            p0[Counter::ThresholdDecryptions],
            p0[Counter::SecureMults],
            p0[Counter::SecureComparisons],
        ],
        row.parent_training,
        "{}: training [encryptions, decryptions, mults, comparisons] vs the parent commit",
        row.case.tag
    );
    p0[Counter::Rounds]
}

#[test]
fn random_forest_is_the_oracle_trees_at_the_rounds_of_one_tree() {
    let mut rounds = Vec::new();
    for row in &RF {
        let (scenario, _) = run_both_backends(&row.case);
        rounds.push(training_rounds_at_the_parents_work(row, &scenario));
        let rf = RfProtocolParams {
            trees: scenario.model.trees,
            sample_fraction: scenario.model.sample_fraction,
            bootstrap_seed: scenario.seed,
        };
        let (train_set, models) = train_federated(&scenario, |ctx| train_rf(ctx, &rf));
        // Per tree, the oracle on its bootstrap rows.
        let masks = bootstrap_masks(train_set.num_samples(), &rf);
        let oracle = CartTrainer::new(&train_set, tree_params(&scenario));
        for (party, model) in models.iter().enumerate() {
            assert_eq!(model.trees.len(), rf.trees);
            for (w, (tree, mask)) in model.trees.iter().zip(&masks).enumerate() {
                let what = format!("{} party {party} tree {w}", row.case.tag);
                assert_same_tree(tree, &oracle.train_masked(mask), &what);
            }
        }
    }
    assert_eq!(rounds[0], rounds[1], "W trees cost the rounds of one");
}

#[test]
fn one_vs_rest_gbdt_equals_the_boosted_softmax_oracle_and_the_golden_counters() {
    let (scenario, _) = run_both_backends(&GBDT_K3.case);
    training_rounds_at_the_parents_work(&GBDT_K3, &scenario);
    let rounds = scenario.model.rounds;
    let learning_rate = scenario.model.learning_rate;
    let (train_set, models) = train_federated(&scenario, |ctx| {
        train_gbdt(
            ctx,
            &GbdtProtocolParams {
                rounds,
                learning_rate,
            },
        )
    });
    // One-vs-rest boosting of `1[y = k] − softmax(scores)_k` from zero
    // scores (§7.2), in the clear.
    let n = train_set.num_samples();
    let classes = 3;
    let mut scores = vec![vec![0.0f64; n]; classes];
    for round in 0..rounds {
        let probabilities: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let exp: Vec<f64> = scores.iter().map(|s| s[i].exp()).collect();
                let total: f64 = exp.iter().sum();
                exp.iter().map(|e| e / total).collect()
            })
            .collect();
        for (k, class_scores) in scores.iter_mut().enumerate() {
            let residuals = (0..n)
                .map(|i| f64::from(train_set.label(i) as usize == k) - probabilities[i][k])
                .collect();
            let stage = train_set.with_labels(residuals, Task::Regression);
            let oracle = train_tree(&stage, &tree_params(&scenario));
            for (party, model) in models.iter().enumerate() {
                let what = format!("gbdt-k3 party {party} class {k} round {round}");
                assert_same_tree(&model.forests[k][round], &oracle, &what);
            }
            for (i, score) in class_scores.iter_mut().enumerate() {
                *score += learning_rate * oracle.predict(train_set.sample(i));
            }
        }
    }
}
