//! Canonical, deterministic binary encoding for Fabric protocol messages.
//!
//! Hyperledger Fabric hashes and signs protobuf-encoded messages. This crate
//! provides the equivalent substrate for the simulator: a small, canonical
//! wire format with a single valid encoding per value, so block hash chains,
//! endorsement signatures and private-data hashes are stable across runs and
//! platforms.
//!
//! The format is length-prefixed and self-delimiting:
//! * unsigned integers: LEB128 varint
//! * signed integers: zigzag + varint
//! * `bool`: one byte, `0` or `1` (any other value is a decode error)
//! * byte strings / UTF-8 strings: varint length + raw bytes
//! * `Vec<T>`: varint length + elements
//! * `Option<T>`: tag byte (`0`/`1`) + payload
//! * maps: varint length + sorted key/value pairs (sorted by key encoding —
//!   enforced on decode, making the encoding canonical)
//!
//! # Examples
//!
//! ```
//! use fabric_wire::{Encode, Decode};
//!
//! # fn main() -> Result<(), fabric_wire::WireError> {
//! let v: Vec<String> = vec!["endorse".into(), "commit".into()];
//! let bytes = v.to_wire();
//! let back = Vec::<String>::from_wire(&bytes)?;
//! assert_eq!(v, back);
//! # Ok(())
//! # }
//! ```

mod error;
mod idmap;
mod primitives;
mod reader;

pub use error::WireError;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use primitives::{read_varint, write_varint};
pub use reader::{Reader, WireBytes};

/// Types that can be encoded into the canonical wire format.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Returns the canonical encoding of `self` as a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can be decoded from the canonical wire format.
pub trait Decode: Sized {
    /// Reads one value from the reader, advancing its position.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the input is truncated, malformed, or not in
    /// canonical form.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes a value that must occupy the entire input.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if input remains after the value,
    /// in addition to the errors of [`Decode::decode`].
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        decode_entire(Reader::new(bytes))
    }

    /// [`Decode::from_wire`] through a [`Reader::shared`] reader, so the
    /// encoded ranges a decoder keeps point into `bytes`.
    ///
    /// # Errors
    ///
    /// As [`Decode::from_wire`].
    fn from_shared_wire(bytes: &std::sync::Arc<[u8]>) -> Result<Self, WireError> {
        decode_entire(Reader::shared(bytes))
    }
}

fn decode_entire<T: Decode>(mut r: Reader<'_>) -> Result<T, WireError> {
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn roundtrip_unsigned_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn roundtrip_signed_edges() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            roundtrip(v);
        }
    }

    #[test]
    fn slice_encodes_identically_to_vec() {
        // Hot paths encode borrowed slices to avoid cloning into a `Vec`;
        // the bytes must be indistinguishable from the owned encoding.
        let v = vec![String::from("a"), String::from(""), String::from("bc")];
        assert_eq!(v.to_wire(), v.as_slice().to_wire());
        assert_eq!(v.to_wire(), v[..].to_wire());
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.to_wire(), empty.as_slice().to_wire());
    }

    #[test]
    fn roundtrip_compound() {
        roundtrip(Some(vec![String::from("a"), String::from("")]));
        roundtrip(Option::<u64>::None);
        roundtrip((1u64, String::from("x"), true));
        let mut m = BTreeMap::new();
        m.insert("k1".to_string(), 7u64);
        m.insert("k2".to_string(), 9u64);
        roundtrip(m);
    }

    #[test]
    fn varint_is_minimal() {
        // 0x80 0x00 is a non-canonical encoding of 0.
        assert!(matches!(
            u64::from_wire(&[0x80, 0x00]),
            Err(WireError::NonCanonical(_))
        ));
    }

    #[test]
    fn bool_rejects_other_bytes() {
        assert!(matches!(
            bool::from_wire(&[2]),
            Err(WireError::InvalidBool(2))
        ));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = String::from("hello").to_wire();
        assert!(matches!(
            String::from_wire(&bytes[..3]),
            Err(WireError::LengthOverflow { .. } | WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn a_declared_count_reserves_no_more_than_the_input_can_fill() {
        // 20 M items of 4 KiB declared over 20 MB of input: reserving the
        // count up front asked for 81.92 GB and aborted the process.
        const DECLARED: usize = 20_000_000;
        let mut bytes = Vec::with_capacity(DECLARED + 4);
        write_varint(&mut bytes, DECLARED as u64);
        bytes.resize(bytes.len() + DECLARED, 0);
        assert!(matches!(
            Vec::<[u8; 4096]>::from_wire(&bytes),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 5u64.to_wire();
        bytes.push(0);
        assert!(matches!(
            u64::from_wire(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn map_key_order_enforced() {
        // Hand-craft a map with keys out of order: {b:1, a:2}
        let mut buf = Vec::new();
        2u64.encode(&mut buf);
        String::from("b").encode(&mut buf);
        1u64.encode(&mut buf);
        String::from("a").encode(&mut buf);
        2u64.encode(&mut buf);
        assert!(matches!(
            BTreeMap::<String, u64>::from_wire(&buf),
            Err(WireError::NonCanonical(_))
        ));
    }
}
