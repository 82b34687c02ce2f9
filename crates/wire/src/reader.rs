use crate::{read_varint, WireError};
use std::ops::Deref;
use std::sync::Arc;

/// How many distinct names one [`Reader`] shares; see [`Reader::read_name`].
const NAME_SLOTS: usize = 16;

/// A cursor over an input buffer being decoded.
///
/// Tracks position and exposes bounded reads; all higher-level decoding is
/// built on [`Reader::read_byte`] and [`Reader::read_exact`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared allocation behind `buf`, when there is one.
    shared: Option<&'a Arc<[u8]>>,
    /// Names read so far, at most [`NAME_SLOTS`], in first-seen order.
    names: Vec<Arc<str>>,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            shared: None,
            names: Vec::new(),
        }
    }

    /// Creates a reader over shared bytes: what [`Reader::wire_since`]
    /// hands out then points into `buf` instead of copying out of it.
    pub fn shared(buf: &'a Arc<[u8]>) -> Self {
        Reader {
            shared: Some(buf),
            ..Reader::new(buf)
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed from offset `start` up to the current position.
    ///
    /// # Panics
    ///
    /// If `start` is past the current position.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// [`Reader::consumed_since`] as bytes that outlive the reader: a
    /// range of the shared buffer for a [`Reader::shared`] reader, an
    /// owned copy otherwise.
    ///
    /// # Panics
    ///
    /// If `start` is past the current position.
    pub fn wire_since(&self, start: usize) -> WireBytes {
        match self.shared {
            Some(buf) => {
                assert!(start <= self.pos, "range starts past the position");
                WireBytes(Repr::Shared {
                    buf: Arc::clone(buf),
                    start,
                    end: self.pos,
                })
            }
            None => self.consumed_since(start).to_vec().into(),
        }
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if the input is exhausted.
    pub fn read_byte(&mut self) -> Result<u8, WireError> {
        if self.pos >= self.buf.len() {
            return Err(WireError::UnexpectedEof { needed: 1 });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` bytes, returning a slice borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn read_exact(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub(crate) fn read_str(&mut self) -> Result<&'a str, WireError> {
        let len = read_varint(self)?;
        let len = self.check_len(len, 1)?;
        std::str::from_utf8(self.read_exact(len)?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads what `Arc<str>` decodes, sharing one allocation among equal
    /// names this reader reads.
    ///
    /// The first 16 distinct names are kept and later reads are compared
    /// with them byte for byte; a name past those is allocated as
    /// `Arc<str>` decodes it. No hasher is involved, so what shares an
    /// allocation depends on the input alone. Meant for names a decoded
    /// batch repeats (channel, chaincode, organization, collection), not
    /// for identifiers unique per item.
    ///
    /// # Errors
    ///
    /// As `Arc<str>` decoding: truncated input or invalid UTF-8.
    pub fn read_name(&mut self) -> Result<Arc<str>, WireError> {
        let s = self.read_str()?;
        if let Some(name) = self.names.iter().find(|name| ***name == *s) {
            return Ok(Arc::clone(name));
        }
        let name: Arc<str> = Arc::from(s);
        if self.names.len() < NAME_SLOTS {
            self.names.push(Arc::clone(&name));
        }
        Ok(name)
    }

    /// Checks that a declared count of items, each at least `min_item_size`
    /// bytes, can possibly fit in the remaining input.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] when the declared length is impossible,
    /// which guards decoders against allocation bombs.
    pub fn check_len(&self, declared: u64, min_item_size: usize) -> Result<usize, WireError> {
        let declared_usize = usize::try_from(declared).map_err(|_| WireError::LengthOverflow {
            declared,
            remaining: self.remaining(),
        })?;
        let need = declared_usize.checked_mul(min_item_size.max(1));
        match need {
            Some(n) if n <= self.remaining() => Ok(declared_usize),
            _ => Err(WireError::LengthOverflow {
                declared,
                remaining: self.remaining(),
            }),
        }
    }
}

/// Encoded bytes handed out by [`Reader::wire_since`]: a range of a
/// shared buffer, or bytes of their own. Either way they read as one
/// `[u8]`.
#[derive(Debug)]
pub struct WireBytes(Repr);

#[derive(Debug)]
enum Repr {
    Owned(Vec<u8>),
    /// `buf[start..end]`, with `start <= end <= buf.len()`.
    Shared {
        buf: Arc<[u8]>,
        start: usize,
        end: usize,
    },
}

impl From<Vec<u8>> for WireBytes {
    fn from(bytes: Vec<u8>) -> Self {
        WireBytes(Repr::Owned(bytes))
    }
}

impl Deref for WireBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(bytes) => bytes,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_tracks_position() {
        let data = [1u8, 2, 3];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_byte().unwrap(), 1);
        assert_eq!(r.position(), 1);
        assert_eq!(r.read_exact(2).unwrap(), &[2, 3]);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_byte().is_err());
    }

    #[test]
    fn check_len_rejects_bombs() {
        let data = [0u8; 4];
        let r = Reader::new(&data);
        assert!(r.check_len(u64::MAX, 1).is_err());
        assert!(r.check_len(5, 1).is_err());
        assert_eq!(r.check_len(4, 1).unwrap(), 4);
    }

    #[test]
    fn consumed_ranges_point_into_shared_bytes_and_copy_borrowed_ones() {
        let data: Arc<[u8]> = Arc::from(&[1u8, 2, 3, 4][..]);
        let mut shared = Reader::shared(&data);
        let mut borrowed = Reader::new(&data);
        for r in [&mut shared, &mut borrowed] {
            r.read_byte().unwrap();
            r.read_exact(2).unwrap();
            assert_eq!(r.consumed_since(1), &[2, 3]);
            assert_eq!(&*r.wire_since(1), &[2, 3]);
            assert_eq!(&*r.wire_since(3), &[] as &[u8]);
        }
        let range = shared.wire_since(0);
        assert_eq!(range.as_ptr(), data.as_ptr(), "a range, not a copy");
        assert_eq!(Arc::strong_count(&data), 2);
        assert_ne!(borrowed.wire_since(0).as_ptr(), data.as_ptr());
    }

    #[test]
    fn names_share_an_allocation_up_to_the_bound() {
        use crate::Encode;
        let names: Vec<String> = (0..NAME_SLOTS + 2).map(|i| format!("Org{i}MSP")).collect();
        let mut wire = Vec::new();
        for name in names.iter().chain(&names) {
            name.encode(&mut wire);
        }
        let mut r = Reader::new(&wire);
        let first: Vec<Arc<str>> = names.iter().map(|_| r.read_name().unwrap()).collect();
        let again: Vec<Arc<str>> = names.iter().map(|_| r.read_name().unwrap()).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!((&*first[i], &*again[i]), (name.as_str(), name.as_str()));
            assert_eq!(Arc::ptr_eq(&first[i], &again[i]), i < NAME_SLOTS, "{name}");
        }
        assert!(matches!(
            Reader::new(&[1, 0xff]).read_name(),
            Err(WireError::InvalidUtf8)
        ));
    }
}
