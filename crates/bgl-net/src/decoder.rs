//! Incremental frame decoder.
//!
//! TCP delivers a byte stream, not frames: a single `read()` may return
//! half a length prefix, three frames and a header, or one byte. The
//! [`FrameDecoder`] buffers whatever arrives and yields complete frames
//! as they materialize, regardless of how the stream was split.
//!
//! Defensive properties (exercised by the streaming tests):
//! * a frame length beyond `max_frame` is rejected *from the prefix
//!   alone* — the decoder never allocates for a frame it won't accept,
//!   so a hostile 4 GiB length can't balloon memory;
//! * a length shorter than the frame header is rejected;
//! * an unknown kind byte is rejected;
//! * after any error the decoder is poisoned — framing is lost, so the
//!   connection must be closed, and further calls repeat the error.

use crate::proto::{Frame, FrameKind, HEADER_LEN, LEN_PREFIX};
use crate::NetError;
use bytes::{Buf, Bytes};

/// Reassembles frames from arbitrarily-chunked stream reads.
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_frame: usize,
    poisoned: Option<NetError>,
}

impl FrameDecoder {
    /// A decoder accepting frames up to `max_frame` bytes (header +
    /// payload, length prefix excluded).
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder { buf: Vec::new(), max_frame, poisoned: None }
    }

    /// Append bytes read from the stream.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    /// Any `Err` is terminal for this connection: framing is lost.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buf.len() < LEN_PREFIX {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..LEN_PREFIX].try_into().unwrap()) as usize;
        if len < HEADER_LEN {
            return Err(self.poison(NetError::Malformed("frame shorter than its header")));
        }
        if len > self.max_frame {
            return Err(self.poison(NetError::Oversized { len, max: self.max_frame }));
        }
        if self.buf.len() < LEN_PREFIX + len {
            // The accepted length is known: grow to exactly it, once,
            // instead of doubling through the reads that deliver it.
            self.buf.reserve_exact(LEN_PREFIX + len - self.buf.len());
            return Ok(None);
        }
        let corr_id = u64::from_le_bytes(self.buf[4..12].try_into().unwrap());
        let kind = match FrameKind::from_u8(self.buf[12]) {
            Some(k) => k,
            None => return Err(self.poison(NetError::Malformed("unknown frame kind"))),
        };
        let flags = self.buf[13];
        // Split the frame off and hand its buffer over as the payload, so
        // the bytes are not copied again; what follows the frame (usually
        // nothing) starts the next buffer. Shrinking is a no-op for a
        // buffer grown to its frame and otherwise keeps a small payload
        // from pinning a read-sized allocation while it sits in a queue.
        let rest = self.buf.split_off(LEN_PREFIX + len);
        let mut frame = std::mem::replace(&mut self.buf, rest);
        frame.shrink_to_fit();
        let mut payload = Bytes::from(frame);
        payload.advance(LEN_PREFIX + HEADER_LEN);
        Ok(Some(Frame { corr_id, kind, flags, payload }))
    }

    fn poison(&mut self, e: NetError) -> NetError {
        self.poisoned = Some(e.clone());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DEFAULT_MAX_FRAME;

    fn frame(corr: u64, payload: &[u8]) -> Frame {
        Frame::new(corr, FrameKind::Req, Bytes::from(payload.to_vec()))
    }

    #[test]
    fn whole_frame_in_one_feed() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let f = frame(7, b"abc");
        d.feed(&f.encode());
        assert_eq!(d.next_frame().unwrap(), Some(f));
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn one_byte_at_a_time() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let f = frame(1, b"payload bytes");
        let wire = f.encode();
        for (i, b) in wire.iter().enumerate() {
            assert_eq!(d.next_frame().unwrap(), None, "no frame before byte {}", i);
            d.feed(&[*b]);
        }
        assert_eq!(d.next_frame().unwrap(), Some(f));
    }

    #[test]
    fn many_frames_in_one_feed() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let frames: Vec<Frame> = (0..5).map(|i| frame(i, &[i as u8; 9])).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        d.feed(&wire);
        for f in &frames {
            assert_eq!(d.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected_from_prefix_alone() {
        let mut d = FrameDecoder::new(1 << 10);
        // Announce a 1 GiB frame but deliver only the prefix: the decoder
        // must reject without waiting for (or allocating) the body.
        d.feed(&(1u32 << 30).to_le_bytes());
        assert_eq!(
            d.next_frame().unwrap_err(),
            NetError::Oversized { len: 1 << 30, max: 1 << 10 }
        );
        assert!(d.buffered() < 16, "decoder must not buffer the announced body");
        // Poisoned: the error repeats.
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn short_length_rejected() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        d.feed(&(HEADER_LEN as u32 - 1).to_le_bytes());
        assert_eq!(
            d.next_frame().unwrap_err(),
            NetError::Malformed("frame shorter than its header")
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut wire = frame(3, b"x").encode();
        wire[12] = 250;
        d.feed(&wire);
        assert_eq!(
            d.next_frame().unwrap_err(),
            NetError::Malformed("unknown frame kind")
        );
    }

    #[test]
    fn flags_byte_round_trips() {
        let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let f = Frame { corr_id: 9, kind: FrameKind::Resp, flags: 3, payload: Bytes::from(vec![1u8]) };
        d.feed(&f.encode());
        assert_eq!(d.next_frame().unwrap(), Some(f));
    }
}
