//! Offline stand-in for `bytes` 1.x: `Bytes` (cheaply cloneable, sliceable,
//! reference-counted), `BytesMut` (a growable buffer that freezes without
//! copying) and the little-endian `Buf`/`BufMut` accessors bgl-rs uses.
//! Like the published crate, a `get_*` past the end panics.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` sharing this buffer (no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of 0..{}", self.len());
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to {at} past {}", self.len());
        let head = Bytes { data: self.data.clone(), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    /// Keep the first `at` bytes in `self`; return the rest.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off {at} past {}", self.len());
        let tail = Bytes { data: self.data.clone(), start: self.start + at, end: self.end };
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional)
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s)
    }

    pub fn resize(&mut self, len: usize, value: u8) {
        self.buf.resize(len, value)
    }

    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len)
    }

    pub fn clear(&mut self) {
        self.buf.clear()
    }

    /// Hand the buffer over as immutable `Bytes` without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Take the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut { buf: std::mem::take(&mut self.buf) }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.buf.split_off(at);
        BytesMut { buf: std::mem::replace(&mut self.buf, tail) }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut { buf: s.to_vec() }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter)
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", &self.buf)
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_le:ident -> $t:ty;)*) => {$(
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }

        fn $name_le(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a contiguous byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "buffer underflow");
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get! {
        get_u16, get_u16_le -> u16;
        get_u32, get_u32_le -> u32;
        get_u64, get_u64_le -> u64;
        get_i16, get_i16_le -> i16;
        get_i32, get_i32_le -> i32;
        get_i64, get_i64_le -> i64;
        get_f32, get_f32_le -> f32;
        get_f64, get_f64_le -> f64;
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} past {}", self.len());
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_le:ident <- $t:ty;)*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }

        fn $name_le(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }

    buf_put! {
        put_u16, put_u16_le <- u16;
        put_u32, put_u32_le <- u32;
        put_u64, put_u64_le <- u64;
        put_i16, put_i16_le <- i16;
        put_i32, put_i32_le <- i32;
        put_i64, put_i64_le <- i64;
        put_f32, put_f32_le <- f32;
        put_f64, put_f64_le <- f64;
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_slices_share_storage() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_f32_le(1.5);
        w.put_u64_le(u64::MAX - 1);
        w.put_slice(b"xyz");
        let mut r = w.freeze();
        assert_eq!(r.len(), 1 + 4 + 4 + 8 + 3);
        let tail = r.slice(17..);
        assert_eq!(&tail[..], b"xyz");
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r, tail);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn reading_past_the_end_panics() {
        Bytes::from(vec![1u8, 2]).get_u32_le();
    }
}
