//! Level-barrier checkpoint hooks: the protocol side of crash recovery.
//!
//! Training already has natural barriers — the end of every tree level
//! (where the nonce pool refills) and the end of every ensemble
//! round (a random forest is one round: its trees share one frontier; the
//! trees of a boosting round share theirs). At each one the context
//! snapshots its deterministic progress cursors and hands them to an
//! optional [`CheckpointSink`]; the sink (the CLI layer, in practice)
//! serializes the party's durable state and tells the transport the
//! barrier is persisted so retransmit retention may roll forward.
//!
//! The protocol itself never branches on the sink: a run with no sink is
//! bit-identical to one that checkpoints at every level, because the
//! cursors are read-only snapshots and the sink writes only to disk and the
//! transport's retention plane (acks/marks are uncounted control frames).

use pivot_transport::Endpoint;

/// Deterministic progress counters snapshotted at a barrier. On resume the
/// re-executed run must reproduce these exactly at the same ordinal — any
/// mismatch means the scenario or code diverged from the checkpointed run,
/// so replaying the recorded transcript would desynchronize the protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateCursors {
    /// MPC communication rounds completed.
    pub mpc_rounds: u64,
    /// Secure multiplications performed.
    pub secure_mults: u64,
    /// Secure comparisons performed.
    pub secure_comparisons: u64,
    /// Paillier nonces drawn from the party's nonce stream (hits + misses
    /// — precomputation never changes the count, only who computed it).
    pub nonces_drawn: u64,
    /// Beaver triples plus masked-bit rows drawn from the dealer's derived
    /// streams.
    pub dealer_rows: u64,
    /// Bytes this party has put on the wire.
    pub bytes_sent: u64,
}

/// Identity of one barrier: a monotonically increasing ordinal (the
/// protocol-wide barrier count, identical on every party), the tree level
/// or ensemble round it closed, and the progress cursors at that instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierMeta {
    /// 1-based barrier count since setup; the checkpoint's version key.
    pub ordinal: u64,
    /// The tree level (level barriers) or ensemble round (tree barriers)
    /// that just completed.
    pub level: u64,
    /// Progress cursors at the barrier.
    pub cursors: StateCursors,
}

/// Receiver of barrier notifications. Implementations decide cadence (e.g.
/// `every_levels = N`) and persistence format; the protocol only promises
/// to call [`CheckpointSink::at_barrier`] at every barrier, in the same
/// order on every party.
pub trait CheckpointSink: Send {
    /// Called at each barrier with the endpoint (for transcript snapshots
    /// and retention marks) and the barrier's identity.
    fn at_barrier(&mut self, ep: &Endpoint, meta: &BarrierMeta);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_default_to_zero() {
        let c = StateCursors::default();
        assert_eq!(c.mpc_rounds, 0);
        assert_eq!(c.bytes_sent, 0);
    }
}
