//! Minimal binary wire codec.
//!
//! Deliberately simple: little-endian fixed-width integers, `u64`
//! length-prefixed sequences. Every protocol message implements [`Wire`];
//! the encoded length is what the endpoint counts as network traffic.

use bytes::{Buf, BufMut};
use pivot_bignum::BigUint;
use std::fmt;

/// Decoding error (truncated or malformed buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Binary serialization used for all inter-party messages.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode from a complete buffer, requiring full consumption.
    fn from_wire(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError("trailing bytes after message"));
        }
        Ok(v)
    }
}

fn need(buf: &[u8], n: usize) -> Result<(), WireError> {
    if buf.len() < n {
        Err(WireError("buffer underrun"))
    } else {
        Ok(())
    }
}

macro_rules! wire_int {
    ($ty:ty, $put:ident, $get:ident, $bytes:expr) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                need(buf, $bytes)?;
                Ok(buf.$get())
            }
        }
    };
}

wire_int!(u8, put_u8, get_u8, 1);
wire_int!(u16, put_u16_le, get_u16_le, 2);
wire_int!(u32, put_u32_le, get_u32_le, 4);
wire_int!(u64, put_u64_le, get_u64_le, 8);
wire_int!(u128, put_u128_le, get_u128_le, 16);
wire_int!(i64, put_i64_le, get_i64_le, 8);
wire_int!(i128, put_i128_le, get_i128_le, 16);
wire_int!(f64, put_f64_le, get_f64_le, 8);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError("invalid bool")),
        }
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 8)?;
        Ok(buf.get_u64_le() as usize)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_bytes().to_vec().encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(buf)?;
        String::from_utf8(bytes).map_err(|_| WireError("invalid utf8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 8)?;
        let len = buf.get_u64_le() as usize;
        // Guard against hostile lengths before allocating.
        if len > buf.len().saturating_mul(8).max(1 << 20) {
            return Err(WireError("implausible sequence length"));
        }
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError("invalid option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for BigUint {
    fn encode(&self, buf: &mut Vec<u8>) {
        let bytes = self.to_bytes_be();
        buf.put_u64_le(bytes.len() as u64);
        buf.put_slice(&bytes);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 8)?;
        let len = buf.get_u64_le() as usize;
        need(buf, len)?;
        let v = BigUint::from_bytes_be(&buf[..len]);
        buf.advance(len);
        Ok(v)
    }
}

/// Coalesced-frame envelope: `[u64 count][u64 len, payload]…`.
///
/// Envelopes are the endpoint's only framing: every link frame is one
/// envelope holding the independent protocol messages staged for that
/// peer since the last flush. Each member is one message's [`Wire`]
/// encoding, so the endpoint counts members and envelope overhead
/// separately and the per-message byte totals do not depend on
/// how messages were batched.
pub fn encode_envelope(msgs: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        envelope_overhead(msgs.len()) + msgs.iter().map(Vec::len).sum::<usize>(),
    );
    buf.put_u64_le(msgs.len() as u64);
    for msg in msgs {
        buf.put_u64_le(msg.len() as u64);
        buf.put_slice(msg);
    }
    buf
}

/// Split an envelope back into its member payloads. The whole frame must
/// be consumed — trailing bytes mean a desynced stream, same contract as
/// [`Wire::from_wire`].
pub fn decode_envelope(frame: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut buf = frame;
    need(buf, 8)?;
    let count = buf.get_u64_le() as usize;
    if count > buf.len() / 8 + 1 {
        return Err(WireError("implausible envelope count"));
    }
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        need(buf, 8)?;
        let len = buf.get_u64_le() as usize;
        need(buf, len)?;
        msgs.push(buf[..len].to_vec());
        buf.advance(len);
    }
    if !buf.is_empty() {
        return Err(WireError("trailing bytes after envelope"));
    }
    Ok(msgs)
}

/// Framing bytes an envelope adds on top of its member payloads.
pub fn envelope_overhead(count: usize) -> usize {
    8 * (count + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let encoded = v.to_wire();
        assert_eq!(T::from_wire(&encoded).unwrap(), v);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(42u8);
        round_trip(0xdeadu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX - 5);
        round_trip(-42i64);
        round_trip(-42i128);
        round_trip(3.5f64);
        round_trip(true);
        round_trip(false);
        round_trip(123usize);
        round_trip(());
    }

    #[test]
    fn composite_round_trips() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(5u64));
        round_trip(Option::<u64>::None);
        round_trip((1u64, true));
        round_trip((1u64, 2u64, vec![3u64]));
        round_trip("hello pivot".to_string());
        round_trip(vec![vec![1u8, 2], vec![]]);
    }

    #[test]
    fn biguint_round_trips() {
        round_trip(BigUint::zero());
        round_trip(BigUint::from_u64(7));
        round_trip(BigUint::from_hex("deadbeefcafebabe0123456789abcdef00").unwrap());
    }

    #[test]
    fn truncated_buffer_errors() {
        let encoded = 12345u64.to_wire();
        assert!(u64::from_wire(&encoded[..4]).is_err());
        let vec_enc = vec![1u64, 2].to_wire();
        assert!(Vec::<u64>::from_wire(&vec_enc[..10]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = 1u64.to_wire();
        encoded.push(0);
        assert!(u64::from_wire(&encoded).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(bool::from_wire(&[7]).is_err());
    }

    #[test]
    fn envelope_round_trips() {
        let msgs = vec![vec![1u8, 2, 3], vec![], vec![9u8; 100]];
        let frame = encode_envelope(&msgs);
        assert_eq!(
            frame.len(),
            envelope_overhead(3) + msgs.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(decode_envelope(&frame).unwrap(), msgs);
        assert_eq!(
            decode_envelope(&encode_envelope(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn envelope_rejects_trailing_and_truncated() {
        let mut frame = encode_envelope(&[vec![1u8, 2]]);
        frame.push(0);
        assert!(decode_envelope(&frame).is_err());
        let frame = encode_envelope(&[vec![1u8, 2]]);
        assert!(decode_envelope(&frame[..frame.len() - 1]).is_err());
        assert!(decode_envelope(&[]).is_err());
    }
}
