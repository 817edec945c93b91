//! Property tests for the durable checkpoint codec: hostile bytes —
//! truncated, bit-flipped, version-skewed — must surface a typed
//! [`CheckpointError`], never a panic; and every well-formed
//! `CheckpointFile` round-trips bit for bit. A deterministic tail pins
//! the same round-trip on *real* checkpoint files written by all three
//! trainers (basic, enhanced-PP, and the GBDT ensemble).

use pivot_cli::algo::Algo;
use pivot_cli::checkpoint::{
    decode_checkpoint, encode_checkpoint, fnv1a64, CheckpointError, CheckpointFile, CKPT_VERSION,
};
use pivot_cli::runner::execute;
use pivot_cli::scenario::Scenario;
use pivot_core::checkpoint::StateCursors;
use proptest::prelude::*;

/// Assemble a checkpoint file from independently generated parts (the
/// offline proptest shim has no tuple strategies).
fn build_file(
    party: u64,
    ordinal: u64,
    level: u64,
    fingerprint: u64,
    cursors: [u64; 6],
    peer_frames: Vec<Vec<Vec<u8>>>,
) -> CheckpointFile {
    let [mpc_rounds, secure_mults, secure_comparisons, nonces_drawn, dealer_rows, bytes_sent] =
        cursors;
    CheckpointFile {
        party,
        parties: peer_frames.len() as u64 + 1,
        ordinal,
        level,
        fingerprint,
        cursors: StateCursors {
            mpc_rounds,
            secure_mults,
            secure_comparisons,
            nonces_drawn,
            dealer_rows,
            bytes_sent,
        },
        peers: peer_frames
            .into_iter()
            .enumerate()
            .map(|(i, frames)| (i as u64, frames))
            .collect(),
    }
}

fn arb_cursors() -> impl Strategy<Value = [u64; 6]> {
    proptest::collection::vec(any::<u64>(), 6..7).prop_map(|v| {
        let mut a = [0u64; 6];
        a.copy_from_slice(&v);
        a
    })
}

fn arb_peer_frames() -> impl Strategy<Value = Vec<Vec<Vec<u8>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..6),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every well-formed checkpoint file round-trips bit for bit: the
    /// decoded struct re-encodes to the identical byte string.
    #[test]
    fn checkpoint_files_round_trip(
        party in 0u64..4,
        ordinal in 1u64..64,
        level in 0u64..16,
        fingerprint in any::<u64>(),
        cursors in arb_cursors(),
        peer_frames in arb_peer_frames(),
    ) {
        let file = build_file(party, ordinal, level, fingerprint, cursors, peer_frames);
        let bytes = encode_checkpoint(&file);
        let back = decode_checkpoint(&bytes).expect("valid file decodes");
        prop_assert_eq!(&back, &file);
        prop_assert_eq!(encode_checkpoint(&back), bytes);
    }

    /// The decoder is total: any byte string either decodes or returns a
    /// typed [`CheckpointError`] — it never panics.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_checkpoint(&bytes);
    }

    /// Strictly truncating a valid checkpoint always yields a typed
    /// error — a torn write can never silently decode as an older or
    /// shorter checkpoint.
    #[test]
    fn truncated_checkpoints_are_rejected(
        cursors in arb_cursors(),
        peer_frames in arb_peer_frames(),
        cut in any::<u16>(),
    ) {
        let file = build_file(1, 3, 2, 77, cursors, peer_frames);
        let bytes = encode_checkpoint(&file);
        let cut = cut as usize % bytes.len();
        prop_assert!(decode_checkpoint(&bytes[..cut]).is_err());
    }

    /// Flipping any bit anywhere in a valid checkpoint is caught: the
    /// whole-file checksum covers magic, version, and body, and the
    /// checksum field itself cannot be flipped consistently.
    #[test]
    fn corrupted_checkpoints_are_rejected(
        cursors in arb_cursors(),
        peer_frames in arb_peer_frames(),
        flip_at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let file = build_file(0, 5, 1, 123, cursors, peer_frames);
        let mut bytes = encode_checkpoint(&file);
        let i = flip_at as usize % bytes.len();
        bytes[i] ^= xor;
        prop_assert!(decode_checkpoint(&bytes).is_err());
    }

    /// A checkpoint from a different format version is rejected as
    /// [`CheckpointError::VersionSkew`] even when its checksum is
    /// internally consistent — skew is diagnosed, not mistaken for
    /// corruption.
    #[test]
    fn version_skew_is_typed(
        cursors in arb_cursors(),
        peer_frames in arb_peer_frames(),
        skew in 1u32..1000,
    ) {
        let file = build_file(2, 9, 4, 55, cursors, peer_frames);
        let mut bytes = encode_checkpoint(&file);
        let found = CKPT_VERSION.wrapping_add(skew);
        bytes[4..8].copy_from_slice(&found.to_le_bytes());
        // Recompute the trailing checksum so only the version disagrees.
        let body_end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        match decode_checkpoint(&bytes) {
            Err(CheckpointError::VersionSkew { found: f, expected }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(expected, CKPT_VERSION);
            }
            other => prop_assert!(false, "expected VersionSkew, got {:?}", other),
        }
    }
}

/// Real checkpoint files from all three trainers round-trip bit for bit
/// through the codec and carry non-trivial state cursors.
#[test]
fn trainer_checkpoints_round_trip() {
    let trainers: [(&str, Algo, &str); 3] = [
        (
            "basic",
            Algo::PivotBasic,
            "[data]\nkind = \"synthetic-classification\"\nsamples = 32\n\
             features_per_party = 2\nclasses = 2\ntest_fraction = 0.25\n",
        ),
        (
            "enhanced",
            Algo::PivotEnhancedPp,
            "[data]\nkind = \"synthetic-classification\"\nsamples = 32\n\
             features_per_party = 2\nclasses = 2\ntest_fraction = 0.25\n",
        ),
        (
            "gbdt",
            Algo::PivotEnhancedPp,
            "[data]\nkind = \"synthetic-regression\"\nsamples = 32\n\
             features_per_party = 2\ntest_fraction = 0.25\n\
             [model]\nkind = \"gbdt\"\nrounds = 2\n",
        ),
    ];
    for (tag, algo, body) in trainers {
        let dir =
            std::env::temp_dir().join(format!("pivot-ckpt-prop-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let toml = format!(
            "name = \"ckpt round-trip {tag}\"\nseed = 99\nparties = 2\n{body}\
             [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n\
             [checkpoint]\nevery_levels = 1\ndir = \"{}\"\n",
            dir.display()
        );
        let path =
            std::env::temp_dir().join(format!("pivot-ckpt-prop-{}-{tag}.toml", std::process::id()));
        std::fs::write(&path, &toml).unwrap();
        let scenario = Scenario::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        execute(&scenario, algo, true).unwrap_or_else(|e| panic!("{tag} run failed: {e}"));

        let mut saw = 0;
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{tag} dir: {e}")) {
            let p = entry.unwrap().path();
            let bytes = std::fs::read(&p).unwrap();
            let file = decode_checkpoint(&bytes)
                .unwrap_or_else(|e| panic!("{tag} {} undecodable: {e}", p.display()));
            assert_eq!(encode_checkpoint(&file), bytes, "{tag} round-trip");
            assert!(file.cursors.mpc_rounds > 0, "{tag} cursors are live");
            assert!(
                file.peers.iter().any(|(_, frames)| !frames.is_empty()),
                "{tag} transcript captured"
            );
            saw += 1;
        }
        assert!(saw >= 2, "{tag} wrote checkpoints for both parties: {saw}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
