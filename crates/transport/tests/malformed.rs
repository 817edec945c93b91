//! Property tests for hostile bytes: truncated, corrupted, and
//! oversized frames must surface typed errors (`WireError` at the codec,
//! `TransportErrorKind::Malformed` at the recv path) — never a panic.

use pivot_transport::wire::{decode_envelope, encode_envelope};
use pivot_transport::{
    catch_failures, ChannelLink, Endpoint, Link, NetConfig, RunFailure, TransportErrorKind,
};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The envelope decoder is total: any byte string either decodes or
    /// returns a `WireError`.
    #[test]
    fn arbitrary_bytes_never_panic_the_envelope_codec(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_envelope(&bytes);
    }

    /// Strictly truncating a valid envelope always yields an error — a
    /// partial frame can never silently decode as a shorter one.
    #[test]
    fn truncated_envelopes_are_rejected(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32),
            0..5,
        ),
        cut in any::<u16>(),
    ) {
        let frame = encode_envelope(&msgs);
        let cut = cut as usize % frame.len();
        prop_assert!(decode_envelope(&frame[..cut]).is_err());
    }

    /// Flipping bits anywhere in a valid envelope never panics the
    /// decoder: it either rejects the frame or decodes *some* envelope
    /// (e.g. a payload-byte flip), but it must not read out of bounds.
    #[test]
    fn corrupted_envelopes_never_panic(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32),
            0..5,
        ),
        flip_at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let mut frame = encode_envelope(&msgs);
        let i = flip_at as usize % frame.len();
        frame[i] ^= xor;
        let _ = decode_envelope(&frame);
    }

    /// A member-length field larger than the frame (up to absurd sizes)
    /// is rejected without attempting the allocation.
    #[test]
    fn oversized_member_lengths_are_rejected(
        count in 1u64..4,
        len in (1u64 << 32)..(1u64 << 40),
    ) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        prop_assert!(decode_envelope(&frame).is_err());
    }

    /// An implausible envelope count is rejected before reserving space.
    #[test]
    fn implausible_counts_are_rejected(
        count in (1u64 << 32)..u64::MAX,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&tail);
        prop_assert!(decode_envelope(&frame).is_err());
    }

    /// Hostile bytes pushed straight into a link never panic the
    /// endpoint's recv path: every outcome is a value or a typed
    /// `TransportError` (malformed frame, empty envelope, or a timeout
    /// when the garbage happens to decode to an envelope addressed
    /// elsewhere — with 0–64 random bytes a valid `u64` message is
    /// astronomically unlikely but tolerated).
    #[test]
    fn recv_path_surfaces_typed_errors_for_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (at_victim, at_attacker) = ChannelLink::pair(0, 1);
        let net = NetConfig {
            recv_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        };
        let ep = Endpoint::from_links(0, vec![None, Some(Box::new(at_victim))], net);
        at_attacker.send_bytes(garbage).unwrap();
        match catch_failures(|| ep.recv::<u64>(1)) {
            Ok(_) => {}
            Err(RunFailure::Protocol(err)) => prop_assert!(false, "unexpected {err}"),
            Err(RunFailure::Transport(err)) => {
                prop_assert!(
                    matches!(
                        err.kind,
                        TransportErrorKind::Malformed | TransportErrorKind::Timeout
                    ),
                    "unexpected kind {:?}",
                    err.kind
                );
                prop_assert_eq!(err.party, 0);
            }
        }
    }
}
