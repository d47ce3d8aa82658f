//! The one little-endian cursor for bytes that came from outside the
//! process: store frames, control and query payloads, WAL records,
//! checkpoints.
//!
//! Every decoder in the tree takes its fields through [`Reader`], whose
//! [`take`](Reader::take) holds the only comparison of a length against
//! untrusted input: `n` against the bytes that are *left*, never `pos + n`,
//! so a length field near `usize::MAX` cannot wrap past it. A read that
//! does not fit is `None`, which each codec maps to its own error type and
//! label (`r.u32().ok_or(Malformed("fanout"))?`). Vectors are checked
//! against the remainder before anything is allocated and then read in one
//! pass ([`read_le`]), so no count field can reserve more than the input
//! holds. [`finish`](Reader::finish) is the exact-length rule: a decoder
//! that ends with it accepts no trailing byte.
//!
//! The encode side is two functions over a `Vec<u8>`: [`put_le`] appends a
//! vector's image in one pass, [`put_count`] a length as the `u32` field
//! the formats use, refusing one that does not fit instead of narrowing
//! with `as`.

use crate::half::{read_le, write_le, LeScalar};

/// A cursor over untrusted bytes. Methods return `None` once the input is
/// too short for what they were asked for; nothing is consumed by a read
/// that fails.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

macro_rules! scalar_reads {
    ($($t:ident),*) => {$(
        #[inline]
        pub fn $t(&mut self) -> Option<$t> {
            let raw = self.take(std::mem::size_of::<$t>())?;
            Some($t::from_le_bytes(raw.try_into().expect("take returned the size asked for")))
        }
    )*};
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// The next `n` bytes, or `None` when fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.bytes.len() {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    scalar_reads!(u8, u32, u64, i64, f32);

    /// The next `n` scalars. `n × T::BYTES` is checked (without overflow)
    /// against what is left before the vector is allocated.
    #[inline]
    pub fn vec<T: LeScalar>(&mut self, n: usize) -> Option<Vec<T>> {
        read_le(self.take(n.checked_mul(T::BYTES)?)?)
    }

    /// `Some` only when every byte has been read.
    #[inline]
    pub fn finish(&self) -> Option<()> {
        self.bytes.is_empty().then_some(())
    }
}

/// Append `src` to `out` as consecutive little-endian images, in one pass.
#[inline]
pub fn put_le<T: LeScalar>(out: &mut Vec<u8>, src: &[T]) {
    let at = out.len();
    out.resize(at + src.len() * T::BYTES, 0);
    write_le(src, &mut out[at..]);
}

/// Append `len` as a `u32` count field; `None` (and nothing written) when
/// it does not fit.
#[inline]
pub fn put_count(out: &mut Vec<u8>, len: usize) -> Option<()> {
    out.extend_from_slice(&u32::try_from(len).ok()?.to_le_bytes());
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_come_back_in_order_and_finish_is_exact() {
        let mut out = vec![7u8];
        out.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        out.extend_from_slice(&(-5i64).to_le_bytes());
        out.extend_from_slice(&1.5f32.to_le_bytes());
        put_count(&mut out, 3).unwrap();
        put_le(&mut out, &[1u32, 2, 3]);
        put_le(&mut out, &[u64::MAX, 9]);

        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.i64(), Some(-5));
        assert_eq!(r.f32(), Some(1.5));
        let n = r.u32().unwrap() as usize;
        assert_eq!(r.vec::<u32>(n), Some(vec![1, 2, 3]));
        assert_eq!(r.finish(), None, "sixteen bytes are still unread");
        assert_eq!(r.vec::<u64>(2), Some(vec![u64::MAX, 9]));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn a_short_read_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.vec::<u16>(2), None);
        assert_eq!(r.take(3), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn a_count_that_does_not_fit_u32_is_refused_not_narrowed() {
        let mut out = vec![0xAA];
        assert_eq!(put_count(&mut out, u32::MAX as usize), Some(()));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(put_count(&mut out, u32::MAX as usize + 1), None);
        assert_eq!(out, [0xAA, 0xFF, 0xFF, 0xFF, 0xFF]);
    }
}
