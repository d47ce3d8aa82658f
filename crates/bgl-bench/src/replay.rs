//! Layer costs that cannot be seen by wrapping a call: the wire codec, the
//! TCP framing and the GEMM kernels are replayed from captured inputs
//! through their public entry points and timed here.

use crate::report::{median, Outcome};
use crate::timed::TransportLog;
use bgl_net::proto::DEFAULT_MAX_FRAME;
use bgl_net::{Frame, FrameDecoder, FrameKind};
use bgl_sampler::MiniBatch;
use bgl_store::wire::Message;
use bgl_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Rows a feature message carries (0 for any other message).
fn feature_rows(m: &Message) -> usize {
    match m {
        Message::FeatureReq { nodes } | Message::FeatureReqF16 { nodes } => nodes.len(),
        Message::FeatureResp { dim, rows } => rows.len() / (*dim as usize).max(1),
        Message::FeatureRespF16 { dim, rows } => rows.len() / (*dim as usize).max(1),
        Message::FeatureUpdateReq { nodes, .. } => nodes.len(),
        _ => 0,
    }
}

/// Replay the captured request / response frames through
/// `wire::Message::{decode, encode}` and `bgl_net::{Frame::encode,
/// FrameDecoder}`. Per-row costs count feature rows only.
pub fn codec(out: &mut Outcome, log: &TransportLog) {
    let (mut enc_ns, mut dec_ns, mut rows) = (0u64, 0u64, 0u64);
    let (mut frame_enc, mut frame_dec) = (Vec::new(), Vec::new());
    for (req, resp) in &log.frames {
        for (raw, kind) in [(req, FrameKind::Req), (resp, FrameKind::Resp)] {
            let t = Instant::now();
            let Ok(msg) = Message::decode(black_box(raw.clone())) else {
                continue;
            };
            let d = t.elapsed().as_nanos() as u64;
            let n = feature_rows(&msg) as u64;
            let t = Instant::now();
            let again = black_box(msg.encode());
            let e = t.elapsed().as_nanos() as u64;
            debug_assert!(again.is_ok_and(|b| b == *raw));
            if n > 0 {
                dec_ns += d;
                enc_ns += e;
                rows += n;
            }

            let frame = Frame::new(1, kind, raw.clone());
            let t = Instant::now();
            let wire = black_box(frame.encode());
            frame_enc.push(t.elapsed().as_nanos() as f64);
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let t = Instant::now();
            decoder.feed(&wire);
            let got = black_box(decoder.next_frame());
            frame_dec.push(t.elapsed().as_nanos() as f64);
            debug_assert!(matches!(got, Ok(Some(_))));
        }
    }
    out.put_n(
        "store.codec.encode_ns_per_row",
        crate::report::ratio(enc_ns as f64, rows as f64),
        "ns",
        rows as usize,
    );
    out.put_n(
        "store.codec.decode_ns_per_row",
        crate::report::ratio(dec_ns as f64, rows as f64),
        "ns",
        rows as usize,
    );
    out.put_n(
        "net.frame.encode_ns",
        median(&frame_enc),
        "ns",
        frame_enc.len(),
    );
    out.put_n(
        "net.frame.decode_ns",
        median(&frame_dec),
        "ns",
        frame_dec.len(),
    );
}

/// Replay one train step's GEMM shapes (GraphSage: per layer one forward
/// product and the two backward products) through the public kernels.
/// Returns the median wall of `reps` replays, ms.
pub fn gemm(batch: &MiniBatch, dims: &[usize], reps: usize) -> f64 {
    let shapes: Vec<(usize, usize, usize)> = batch
        .blocks
        .iter()
        .enumerate()
        .map(|(l, b)| (b.num_dst(), 2 * dims[l], dims[l + 1]))
        .collect();
    let fill = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|i| (i % 13) as f32 * 0.01).collect())
    };
    let inputs: Vec<(Matrix, Matrix, Matrix)> = shapes
        .iter()
        .map(|&(d, k, n)| (fill(d, k), fill(k, n), fill(d, n)))
        .collect();
    let walls: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for (concat, w, dz) in &inputs {
                black_box(concat.matmul(w)); // forward: concat x W
                black_box(concat.matmul_tn(dz)); // backward: concat^T x dz
                black_box(dz.matmul_nt(w)); // backward: dz x W^T
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&walls)
}
