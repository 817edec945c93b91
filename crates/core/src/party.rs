//! Per-client protocol context: keys, data view, transport, MPC engine.

use crate::config::{LabelSource, PivotParams};
use pivot_data::VerticalView;
use pivot_mpc::{FixedConfig, MpcEngine};
use pivot_paillier::threshold::{Combiner, SecretKeyShare};
use pivot_paillier::{fixtures, NoncePool, PublicKey};
use pivot_trace::{Counter, Counters};
use pivot_transport::Endpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Everything one client needs to participate in the Pivot protocols.
///
/// Built once per session via [`PartyContext::setup`]; the protocol entry
/// points (`train_basic`, `train_enhanced`, prediction, ensembles,
/// baselines) all take `&mut PartyContext`. The [`Endpoint`] is
/// backend-agnostic — the same context drives a thread of an in-process
/// run and a standalone `pivot party` process over TCP.
pub struct PartyContext<'a> {
    pub ep: &'a Endpoint,
    pub pk: PublicKey,
    pub combiner: Combiner,
    pub key_share: SecretKeyShare,
    pub view: VerticalView,
    /// The label-holding client (public protocol metadata, §3.1).
    pub super_client: usize,
    /// Owner client of every global feature (public schema metadata).
    pub feature_owners: Vec<usize>,
    pub engine: MpcEngine<'a>,
    pub params: PivotParams,
    /// The endpoint's counter registry ([`Endpoint::counters`]), where the
    /// protocols record the paper's Table 2 costs and phase spans their
    /// wall time.
    pub counters: Arc<Counters>,
    /// Private per-party randomness (conversion masks and other
    /// non-encryption draws). Paillier encryption nonces live in the
    /// dedicated [`NoncePool`] stream below.
    pub rng: StdRng,
    /// The party's Paillier nonce stream. All protocol encryptions draw
    /// from it in a defined order and compute each batch's `r^N mod N²`
    /// powers on `crypto_threads` workers, so outputs are bit-identical at
    /// any thread count.
    pub nonces: Arc<NoncePool>,
    /// Task override for subprotocols (GBDT trains *regression* trees on
    /// residuals even when the outer task is classification).
    pub task_override: Option<pivot_data::Task>,
    /// The malicious-model verification plane ([`crate::verify`]), built
    /// when `params.verification` is on. `None` means every hook is a
    /// no-op and the transcript is bit-identical to honest-but-curious.
    pub verify: Option<crate::verify::VerifyPlane>,
    /// Crash-recovery sink notified at level/tree barriers
    /// ([`crate::checkpoint`]). `None` (the default) keeps every barrier a
    /// no-op and the transcript bit-identical to a checkpoint-free run.
    pub checkpoint: Option<Box<dyn crate::checkpoint::CheckpointSink>>,
    /// Barriers fired so far (the checkpoint ordinal clock).
    checkpoint_ordinal: u64,
}

impl<'a> PartyContext<'a> {
    /// Initialization stage (§3.4): agree on hyper-parameters, generate the
    /// threshold keys, discover the super client.
    ///
    /// Key material comes from the deterministic fixture dealer
    /// ([`pivot_paillier::fixtures`]) — the same trusted-dealer setup the
    /// original implementation gets from libhcs.
    pub fn setup(ep: &'a Endpoint, view: VerticalView, params: PivotParams) -> Self {
        let _phase = pivot_trace::phase_span(ep.counters(), "setup");
        // Callers validate outside input before spawning parties
        // (`pivot-cli`'s `runner::prepare`), so a failure here is a broken
        // invariant of this process.
        params.assert_valid_for(
            view.num_samples(),
            ep.parties(),
            LabelSource::of_task(view.task),
        );
        let m = ep.parties();
        let keys = fixtures::threshold_keys(m, params.keysize);
        let key_share = keys.shares[ep.id()].clone();

        // Discover the super client (whoever holds labels announces it).
        let flags = ep.exchange_all(&view.is_super_client());
        let supers: Vec<usize> = flags
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect();
        assert_eq!(supers.len(), 1, "exactly one client must hold the labels");
        let super_client = supers[0];

        // Publish the feature-ownership schema (indices only, no values).
        let all_indices = ep.exchange_all(&view.feature_indices.clone());
        let total_features: usize = all_indices.iter().map(|v| v.len()).sum();
        let mut feature_owners = vec![usize::MAX; total_features];
        for (client, indices) in all_indices.iter().enumerate() {
            for &j in indices {
                feature_owners[j] = client;
            }
        }
        assert!(
            feature_owners.iter().all(|&o| o != usize::MAX),
            "feature ownership must cover every column"
        );

        let engine = MpcEngine::new(ep, params.dealer_seed, FixedConfig::default());
        let rng =
            StdRng::seed_from_u64(params.dealer_seed ^ 0xACE0_FBA5E ^ ((ep.id() as u64 + 1) << 32));
        // Dedicated per-party nonce stream; its powers are computed when
        // they are drawn.
        let nonce_seed =
            params.dealer_seed ^ 0x0FF1_CE_9A11 ^ ((ep.id() as u64 + 1).rotate_left(40));
        let nonces = NoncePool::new(keys.pk.clone(), nonce_seed, 0);
        // Verification needs the encryption nonces as proof witnesses:
        // turn on retention before the first protocol encryption.
        let verify = params.verification.is_on().then(|| {
            nonces.retain_witnesses(true);
            crate::verify::VerifyPlane::new(&params, ep.id())
        });
        PartyContext {
            ep,
            pk: keys.pk,
            combiner: keys.combiner,
            key_share,
            view,
            super_client,
            feature_owners,
            engine,
            params,
            counters: Arc::clone(ep.counters()),
            rng,
            nonces,
            task_override: None,
            verify,
            checkpoint: None,
            checkpoint_ordinal: 0,
        }
    }

    /// Fire the barrier hook at the end of a tree level. Called by the
    /// trainer once the next frontier is settled; a no-op without a
    /// [`crate::checkpoint::CheckpointSink`] installed.
    pub fn level_barrier(&mut self, level: u64) {
        self.fire_barrier(level);
    }

    /// Fire the barrier hook at the end of an ensemble round — the one
    /// frontier of a random forest, or the trees of one boosting round.
    /// The "level" reported is the running barrier ordinal, since a round
    /// has no level of its own.
    pub fn tree_barrier(&mut self) {
        self.fire_barrier(self.checkpoint_ordinal + 1);
    }

    fn fire_barrier(&mut self, level: u64) {
        let Some(sink) = self.checkpoint.as_mut() else {
            return;
        };
        let _phase = pivot_trace::phase_span(&self.counters, "checkpoint");
        let c = &self.counters;
        let cursors = crate::checkpoint::StateCursors {
            mpc_rounds: c.get(Counter::Rounds),
            secure_mults: c.get(Counter::SecureMults),
            secure_comparisons: c.get(Counter::SecureComparisons),
            nonces_drawn: self.nonces.drawn(),
            dealer_rows: self.engine.dealer_mut().rows_drawn(),
            bytes_sent: c.get(Counter::BytesSent),
        };
        self.checkpoint_ordinal += 1;
        let meta = crate::checkpoint::BarrierMeta {
            ordinal: self.checkpoint_ordinal,
            level,
            cursors,
        };
        sink.at_barrier(&meta, &self.counters);
    }

    /// Worker threads available to this party's batched crypto operations.
    pub fn crypto_threads(&self) -> usize {
        self.params.crypto_threads.max(1)
    }

    /// The task the *current* (sub)protocol trains for.
    pub fn current_task(&self) -> pivot_data::Task {
        self.task_override.unwrap_or(self.view.task)
    }

    /// This client's id.
    pub fn id(&self) -> usize {
        self.ep.id()
    }

    /// Number of clients `m`.
    pub fn parties(&self) -> usize {
        self.ep.parties()
    }

    /// Whether this client holds the labels.
    pub fn is_super_client(&self) -> bool {
        self.id() == self.super_client
    }

    /// Number of training samples `n` (public).
    pub fn num_samples(&self) -> usize {
        self.view.num_samples()
    }
}
