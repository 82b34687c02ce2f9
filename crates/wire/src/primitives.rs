//! `Encode`/`Decode` implementations for primitives and std containers.

use crate::{Decode, Encode, Reader, WireError};
use std::collections::BTreeMap;

/// Appends the LEB128 varint encoding of `v` to `buf`.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a canonical LEB128 varint.
///
/// # Errors
///
/// Fails on truncation, on varints longer than 10 bytes, and on
/// non-minimal encodings (a trailing `0x00` continuation byte).
pub fn read_varint(r: &mut Reader<'_>) -> Result<u64, WireError> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = r.read_byte()?;
        if shift == 63 && byte > 1 {
            return Err(WireError::VarintTooLong);
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return Err(WireError::NonCanonical("varint has redundant zero byte"));
            }
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintTooLong);
        }
    }
}

/// Zigzag-encodes a signed integer for varint transport.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(buf, u64::from(*self));
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let v = read_varint(r)?;
                <$t>::try_from(v).map_err(|_| WireError::NonCanonical("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u16, u32);

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_byte()
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        read_varint(r)
    }
}

impl Encode for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, zigzag(*self));
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(unzigzag(read_varint(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_bytes().encode(buf);
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_bytes().encode(buf);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(r)?;
        String::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }
}

/// Decodes what `str` encodes straight into the shared allocation, with
/// no intermediate `String`.
impl Decode for std::sync::Arc<str> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_str().map(Into::into)
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Fixed width: no length prefix needed.
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let s = r.read_exact(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}

/// The most a `Vec<T>` decode reserves before its items have decoded.
/// `check_len` bounds the declared count by input bytes, which says
/// nothing of `size_of::<T>()`, so past this the vector grows as items
/// arrive.
const MAX_PREALLOC_BYTES: usize = 1 << 20;

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = read_varint(r)?;
        let len = r.check_len(len, 1)?;
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC_BYTES / size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::InvalidTag {
                ty: "Option",
                tag: u64::from(b),
            }),
        }
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl<K: Decode + Ord + Encode, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = read_varint(r)?;
        let len = r.check_len(len, 2)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if let Some((last, _)) = out.last_key_value() {
                if *last >= k {
                    return Err(WireError::NonCanonical("map keys not strictly ascending"));
                }
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( self.$idx.encode(buf); )+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($( $name::decode(r)?, )+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
}

impl<T: Encode + ?Sized> Encode for std::sync::Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
}

impl<T: Decode> Decode for std::sync::Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
}

impl<T: Decode> Decode for std::sync::Arc<[T]> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

#[cfg(test)]
mod proptests {
    use crate::{Decode, Encode};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("roundtrip decode");
        assert_eq!(*v, back);
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) { rt(&v); }

        #[test]
        fn prop_i64_roundtrip(v: i64) { rt(&v); }

        #[test]
        fn prop_bytes_roundtrip(v: Vec<u8>) { rt(&v); }

        #[test]
        fn prop_string_roundtrip(v: String) { rt(&v); }

        #[test]
        fn prop_vec_string_roundtrip(v: Vec<String>) { rt(&v); }

        #[test]
        fn prop_map_roundtrip(v: BTreeMap<String, Vec<u8>>) { rt(&v); }

        #[test]
        fn prop_option_tuple_roundtrip(v: Option<(u64, String, bool)>) { rt(&v); }

        #[test]
        fn prop_arc_slice_encodes_identically_to_vec(v: Vec<String>) {
            // Arc-shared storage is a representation choice, not a wire
            // one: the bytes must match the owned encoding exactly.
            let arc: std::sync::Arc<[String]> = v.clone().into();
            prop_assert_eq!(arc.to_wire(), v.to_wire());
            let back = std::sync::Arc::<[String]>::from_wire(&arc.to_wire()).expect("roundtrip");
            prop_assert_eq!(&*back, v.as_slice());
        }

        #[test]
        fn prop_arc_scalar_roundtrip(v: u64) {
            rt(&std::sync::Arc::new(v));
        }

        #[test]
        fn prop_encoding_is_injective(a: Vec<String>, b: Vec<String>) {
            // Canonical encodings must be equal iff values are equal.
            prop_assert_eq!(a == b, a.to_wire() == b.to_wire());
        }

        #[test]
        fn prop_decode_never_panics(bytes: Vec<u8>) {
            // Hostile input must produce errors, never panics.
            let _ = Vec::<String>::from_wire(&bytes);
            let _ = BTreeMap::<String, u64>::from_wire(&bytes);
            let _ = Option::<Vec<u8>>::from_wire(&bytes);
        }
    }
}
