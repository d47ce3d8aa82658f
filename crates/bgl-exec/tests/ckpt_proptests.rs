//! Property-based tests for the checkpoint codec: for *arbitrary* model
//! shapes and training prefixes, encode/decode is the identity, and no
//! truncation, bit flip, header forgery, or hostile length field under a
//! re-sealed checksum survives decoding.

use bgl_exec::{AdamState, Checkpoint, CkptError};
use bgl_graph::hash::fnv1a_64;
use bgl_tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=4, 1usize..=5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn arb_moments() -> impl Strategy<Value = Vec<Option<(Matrix, Matrix)>>> {
    proptest::collection::vec(
        proptest::option::of((arb_matrix(), arb_matrix())),
        0..4,
    )
}

/// A well-formed checkpoint: cursor ≤ num_batches, the per-batch prefixes
/// exactly `cursor` long, train order the identity prefix — the shape the
/// executor always produces and `decode` insists on.
fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        any::<u64>(),
        proptest::collection::vec(1usize..=16, 0..5),
        any::<u64>(),
        0u64..32,
    )
        .prop_flat_map(|(seed, fanouts, fingerprint, cursor)| {
            (
                Just(seed),
                Just(fanouts),
                Just(fingerprint),
                Just(cursor),
                cursor..=cursor + 32,
                proptest::collection::vec(-1e6f32..1e6, 0..64),
                arb_moments(),
                (-1e3f32..1e3, 0.0f32..1.0, 0.0f32..1.0, 0i32..1000),
                proptest::collection::vec(-1e6f32..1e6, cursor as usize),
                proptest::collection::vec(any::<u64>(), cursor as usize),
            )
        })
        .prop_map(
            |(seed, fanouts, fingerprint, cursor, num_batches, params, moments, hp, losses, digests)| {
                let (lr, beta1, beta2, t) = hp;
                Checkpoint {
                    seed,
                    fanouts,
                    batches_fingerprint: fingerprint,
                    num_batches,
                    cursor,
                    params,
                    opt: AdamState { lr, beta1, beta2, eps: 1e-8, t, moments },
                    losses,
                    train_order: (0..cursor).collect(),
                    digests,
                }
            },
        )
}

/// Byte offsets in `c.encode()` of every u64 the decoder sizes a read or an
/// allocation by: the `params` prefix, each moment matrix's rows, cols and
/// data length, then the `losses`, `train_order` and `digests` prefixes.
fn length_field_offsets(c: &Checkpoint) -> Vec<usize> {
    const HEADER_LEN: usize = 8 + 4 + 8; // magic, version, payload length
    // seed, fanout count, fanouts, fingerprint, num_batches, cursor
    let mut at = HEADER_LEN + 8 + 8 + 8 * c.fanouts.len() + 3 * 8;
    let mut out = vec![at];
    // params, then lr/beta1/beta2/eps, t, slot count
    at += 8 + 4 * c.params.len() + 4 * 4 + 8 + 8;
    for slot in &c.opt.moments {
        at += 1;
        if let Some((m, v)) = slot {
            for mat in [m, v] {
                out.extend([at, at + 8, at + 16]);
                at += 3 * 8 + 4 * mat.raw().len();
            }
        }
    }
    out.push(at);
    at += 8 + 4 * c.losses.len();
    out.push(at);
    at += 8 + 8 * c.train_order.len();
    out.push(at);
    out
}

proptest! {
    /// decode(encode(c)) == c for arbitrary shapes — every field, every
    /// optimizer moment matrix, bitwise.
    #[test]
    fn roundtrip_is_identity(ckpt in arb_checkpoint()) {
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(&bytes).expect("well-formed checkpoint must decode");
        prop_assert_eq!(back, ckpt);
    }

    /// Truncation at EVERY byte offset is rejected — there is no prefix
    /// length at which a cut file silently decodes.
    #[test]
    fn truncation_at_every_offset_is_rejected(ckpt in arb_checkpoint()) {
        let bytes = ckpt.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    /// Flipping any single bit is caught (by the magic, version, framing,
    /// or — for payload bytes — the checksum).
    #[test]
    fn single_bit_flip_is_rejected(ckpt in arb_checkpoint(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = ckpt.encode();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        prop_assert!(Checkpoint::decode(&bytes).is_err(), "bit {bit} of byte {i} flipped");
    }

    /// Appending trailing garbage is rejected even though the framed
    /// prefix is intact.
    #[test]
    fn trailing_garbage_is_rejected(ckpt in arb_checkpoint(), extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = ckpt.encode();
        bytes.extend_from_slice(&extra);
        prop_assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CkptError::Mismatch(_))
        ));
    }

    /// FNV-1a is not a MAC, so the footer does not stop a crafted or
    /// mis-written file: overwrite each length field with values whose byte
    /// count overflows `usize`, fits it while `pos + bytes` does not
    /// (`MAX / 4`, `MAX / 8`), or is merely huge, re-seal the checksum, and
    /// decode. Never a panic; and no element count larger than the file can
    /// be satisfied, so every such value is a typed error — the decoder
    /// rejects it before sizing a `Vec` by it.
    #[test]
    fn hostile_length_fields_are_typed_errors(ckpt in arb_checkpoint(), arbitrary in any::<u64>()) {
        let good = ckpt.encode();
        let body_len = good.len() - 8;
        let offsets = length_field_offsets(&ckpt);
        let read = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
        prop_assert_eq!(read(offsets[0]), ckpt.params.len() as u64, "helper drifted from the layout");
        prop_assert_eq!(read(*offsets.last().unwrap()), ckpt.digests.len() as u64);
        for &at in &offsets {
            for value in [u64::MAX, u64::MAX / 4, u64::MAX / 8, 1 << 62, arbitrary] {
                let mut forged = good.clone();
                forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let sum = fnv1a_64(&forged[..body_len]);
                forged[body_len..].copy_from_slice(&sum.to_le_bytes());
                let got = Checkpoint::decode(&forged);
                if value > good.len() as u64 {
                    prop_assert!(
                        matches!(got, Err(CkptError::Truncated | CkptError::Mismatch(_))),
                        "length field at {at} forged to {value:#x}: {got:?}"
                    );
                }
            }
        }
    }

    /// A wrong magic is `BadMagic`, a wrong version is `BadVersion` —
    /// typed, before any payload is touched.
    #[test]
    fn magic_and_version_forgeries_are_typed(ckpt in arb_checkpoint(), v in 2u32..u32::MAX) {
        let good = ckpt.encode();

        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            Checkpoint::decode(&wrong_magic),
            Err(CkptError::BadMagic)
        ));

        // Patch the version and re-seal the checksum so only the version
        // check can object.
        let mut wrong_version = good.clone();
        wrong_version[8..12].copy_from_slice(&v.to_le_bytes());
        let body_len = wrong_version.len() - 8;
        let sum = fnv1a_64(&wrong_version[..body_len]);
        wrong_version[body_len..].copy_from_slice(&sum.to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::decode(&wrong_version),
            Err(CkptError::BadVersion { found }) if found == v
        ));
    }
}
