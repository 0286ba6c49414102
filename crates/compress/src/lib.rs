//! Compression substrate for the RSSD reproduction.
//!
//! RSSD compresses retained (stale) pages before encrypting and offloading
//! them over NVMe-over-Ethernet; the paper's Figure 2 middle series
//! ("LocalSSD+Compression") and RSSD's own network/remote footprint both
//! depend on the achievable compression ratio. This crate provides the
//! codecs used on that path, implemented from scratch:
//!
//! * [`rle`] — run-length coding, effective on zero-filled / freshly-trimmed
//!   pages.
//! * [`lz`] — an LZ77-style sliding-window codec, the workhorse for file data.
//! * [`entropy`] — a Shannon-entropy estimator, used both to pick a codec and
//!   by the ransomware detectors (`rssd-detect`): ciphertext is
//!   incompressible and near 8 bits/byte.
//!
//! # Examples
//!
//! ```
//! use rssd_compress::{compress, decompress, Codec};
//!
//! let page = vec![7u8; 4096];
//! let packed = compress(Codec::Lz77, &page);
//! assert!(packed.len() < page.len());
//! assert_eq!(decompress(&packed).unwrap(), page);
//! ```

pub mod entropy;
pub mod lz;
pub mod rle;

pub use entropy::shannon_entropy;

use serde::{Deserialize, Serialize};

/// Which codec to apply to a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// Store the payload verbatim (used when data is incompressible).
    Store,
    /// Run-length coding.
    Rle,
    /// LZ77 sliding-window coding.
    Lz77,
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::Store => 0,
            Codec::Rle => 1,
            Codec::Lz77 => 2,
        }
    }

    fn from_id(id: u8) -> Option<Codec> {
        match id {
            0 => Some(Codec::Store),
            1 => Some(Codec::Rle),
            2 => Some(Codec::Lz77),
            _ => None,
        }
    }
}

/// Error returned when a compressed frame cannot be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompressError {
    /// The frame is shorter than the fixed header.
    Truncated,
    /// Unknown codec id in the header.
    UnknownCodec(u8),
    /// The payload is malformed for the declared codec.
    Corrupt(&'static str),
    /// Decoded length does not match the header's original length.
    LengthMismatch {
        /// Length the header promised.
        expected: usize,
        /// Length actually decoded.
        actual: usize,
    },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed frame truncated"),
            DecompressError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            DecompressError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            DecompressError::LengthMismatch { expected, actual } => {
                write!(f, "decoded length {actual} != expected {expected}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

const FRAME_HEADER: usize = 5; // codec id (1) + original length (4, LE)

/// Compresses `data` with `codec`, producing a self-describing frame
/// (`[codec id][orig len][payload]`). Falls back to [`Codec::Store`] when the
/// codec would expand the data, so frames never grow more than the header.
pub fn compress(codec: Codec, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + data.len());
    compress_into(codec, data, &mut out);
    out
}

/// Like [`compress`], but appends the frame to `out` instead of allocating.
/// The codec encodes straight into the buffer; only when it would expand the
/// data is the attempt truncated away and the payload stored verbatim.
pub fn compress_into(codec: Codec, data: &[u8], out: &mut Vec<u8>) {
    let frame_start = out.len();
    out.push(codec.id());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    let payload_start = out.len();
    match codec {
        Codec::Store => {}
        Codec::Rle => rle::encode_into(data, out),
        Codec::Lz77 => lz::encode_into(data, out),
    }
    if codec == Codec::Store || out.len() - payload_start >= data.len() {
        out.truncate(payload_start);
        out.extend_from_slice(data);
        out[frame_start] = Codec::Store.id();
    }
}

// The adaptive gate samples at most this many bytes to classify a payload.
const GATE_SAMPLE_TARGET: usize = 4096;
// At or above this sampled entropy (bits/byte) the payload is treated as
// incompressible — ciphertext and random data land here — and stored
// verbatim without running either codec.
const GATE_STORE_ENTROPY_BITS: f64 = 7.0;
// RLE is only attempted when at least this fraction of sampled adjacent
// byte pairs are equal; below it RLE cannot beat LZ77 on this format.
const GATE_RLE_RUN_FRACTION: f64 = 0.75;

/// Sampled statistics of a payload: (entropy estimate in bits/byte,
/// fraction of sampled adjacent byte pairs that are equal).
///
/// Deterministic: a fixed stride over the buffer, no randomness. The stride
/// is odd: `len / 4096` is a power of two on page-aligned input, and an even
/// stride over data with a power-of-two period (16-byte records, say) would
/// only ever visit one phase of it.
fn sampled_stats(data: &[u8]) -> (f64, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let stride = (data.len() / GATE_SAMPLE_TARGET) | 1;
    let mut hist = [0u32; 256];
    let mut samples = 0u32;
    let mut pairs = 0u32;
    let mut equal_pairs = 0u32;
    let mut i = 0usize;
    while i < data.len() {
        hist[data[i] as usize] += 1;
        samples += 1;
        if i + 1 < data.len() {
            pairs += 1;
            if data[i + 1] == data[i] {
                equal_pairs += 1;
            }
        }
        i += stride;
    }
    let bits = entropy::entropy_of_counts(&hist, u64::from(samples));
    let run_fraction = if pairs == 0 {
        0.0
    } else {
        f64::from(equal_pairs) / f64::from(pairs)
    };
    (bits, run_fraction)
}

/// Compresses with the codec a sampled classification of the payload picks.
/// This is what RSSD's offload engine uses per segment.
///
/// High-entropy payloads (ciphertext, random data — exactly what ransomware
/// produces) are stored verbatim without running a codec at all: the old
/// run-everything-pick-smallest strategy burned the bulk of the offload
/// budget discovering that encrypted pages don't compress. RLE is attempted
/// only when the sample shows run-dominated data (zero/trim pages), where it
/// beats LZ77; otherwise LZ77 alone decides against its store fallback.
pub fn compress_adaptive(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + data.len());
    compress_adaptive_into(data, &mut out);
    out
}

/// Like [`compress_adaptive`], but appends the frame to `out`. The winning
/// codec's frame is built in place; the rare RLE-vs-LZ contest (run-dominated
/// pages, where both frames are tiny) uses a scratch frame for the loser.
pub fn compress_adaptive_into(data: &[u8], out: &mut Vec<u8>) {
    let (entropy_bits, run_fraction) = sampled_stats(data);
    if entropy_bits >= GATE_STORE_ENTROPY_BITS {
        compress_into(Codec::Store, data, out);
        return;
    }
    let frame_start = out.len();
    compress_into(Codec::Lz77, data, out);
    if run_fraction >= GATE_RLE_RUN_FRACTION {
        let rle_frame = compress(Codec::Rle, data);
        if rle_frame.len() < out.len() - frame_start {
            out.truncate(frame_start);
            out.extend_from_slice(&rle_frame);
        }
    }
}

/// Decompresses a frame produced by [`compress`] / [`compress_adaptive`].
///
/// # Errors
///
/// Returns a [`DecompressError`] if the frame is truncated, names an unknown
/// codec, fails to decode, or decodes to the wrong length.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    decompress_into(frame, &mut out)?;
    Ok(out)
}

/// Like [`decompress`], but appends the decoded bytes to `out` — several
/// frames decode back to back into one buffer. On error `out` is left as it
/// was passed in.
///
/// # Errors
///
/// As [`decompress`].
pub fn decompress_into(frame: &[u8], out: &mut Vec<u8>) -> Result<(), DecompressError> {
    if frame.len() < FRAME_HEADER {
        return Err(DecompressError::Truncated);
    }
    let codec = Codec::from_id(frame[0]).ok_or(DecompressError::UnknownCodec(frame[0]))?;
    let expected = u32::from_le_bytes(frame[1..5].try_into().expect("4 bytes")) as usize;
    let payload = &frame[FRAME_HEADER..];
    let start = out.len();
    let decoded = match codec {
        Codec::Store => {
            out.extend_from_slice(payload);
            Ok(())
        }
        Codec::Rle => rle::decode_into(payload, out),
        Codec::Lz77 => lz::decode_into(payload, expected, out),
    };
    let actual = out.len() - start;
    let checked = match decoded {
        Ok(()) if actual != expected => Err(DecompressError::LengthMismatch { expected, actual }),
        decoded => decoded,
    };
    if checked.is_err() {
        out.truncate(start);
    }
    checked
}

/// Compression ratio achieved by a frame: `original / compressed` (>= 1.0 is
/// a win; [`compress`]'s store fallback keeps this close to 1.0 at worst).
pub fn ratio(original_len: usize, frame_len: usize) -> f64 {
    if frame_len == 0 {
        return 1.0;
    }
    original_len as f64 / frame_len as f64
}

/// Test data shaped like the write path's pages — `kind % 4` picks zero,
/// text-like, small-integer records or uniform noise; `seed` perturbs it.
#[cfg(test)]
pub(crate) fn shaped_bytes(kind: u8, seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|i| match kind % 4 {
            0 => 0,
            1 => b"the quick brown fox jumps over the lazy dog\n"[(next() % 44) as usize],
            2 if i % 16 < 4 => next() as u8,
            2 => 0,
            _ => next() as u8,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_page_compresses_heavily() {
        let page = vec![0u8; 4096];
        let frame = compress_adaptive(&page);
        assert!(
            frame.len() < 64,
            "zero page frame was {} bytes",
            frame.len()
        );
        assert_eq!(decompress(&frame).unwrap(), page);
    }

    #[test]
    fn textual_data_compresses_with_lz() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let frame = compress(Codec::Lz77, &text);
        assert!(frame.len() < text.len() / 3);
        assert_eq!(decompress(&frame).unwrap(), text);
    }

    #[test]
    fn random_data_falls_back_to_store() {
        // A fixed pseudo-random page: LCG bytes are incompressible enough.
        let mut x = 0x12345678u64;
        let page: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let frame = compress_adaptive(&page);
        assert_eq!(frame[0], Codec::Store.id());
        assert_eq!(frame.len(), page.len() + FRAME_HEADER);
        assert_eq!(decompress(&frame).unwrap(), page);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = compress_adaptive(&[]);
        assert_eq!(decompress(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(decompress(&[2, 0, 0]), Err(DecompressError::Truncated));
    }

    #[test]
    fn unknown_codec_rejected() {
        let frame = [9u8, 0, 0, 0, 0];
        assert_eq!(decompress(&frame), Err(DecompressError::UnknownCodec(9)));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut frame = compress(Codec::Store, b"abcd");
        frame[1] = 99; // lie about original length
        assert!(matches!(
            decompress(&frame),
            Err(DecompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn hostile_length_header_is_a_mismatch_not_a_reservation() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(100);
        let mut frame = compress(Codec::Lz77, &text);
        assert_eq!(frame[0], Codec::Lz77.id());
        frame[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decompress(&frame),
            Err(DecompressError::LengthMismatch {
                expected: u32::MAX as usize,
                actual: text.len()
            })
        );
    }

    #[test]
    fn gate_stores_high_entropy_without_running_codecs() {
        // Ciphertext-like data must classify as incompressible from the
        // sample alone and come back as a store frame.
        let mut x = 0x9e3779b97f4a7c15u64;
        let page: Vec<u8> = (0..65536)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let (bits, _) = sampled_stats(&page);
        assert!(bits >= GATE_STORE_ENTROPY_BITS, "sampled {bits} bits/byte");
        let frame = compress_adaptive(&page);
        assert_eq!(frame[0], Codec::Store.id());
        assert_eq!(decompress(&frame).unwrap(), page);
    }

    #[test]
    fn gate_samples_every_phase_of_page_aligned_records() {
        // 32 pages of 16-byte records, 4 random bytes then 12 zeros: a
        // stride of len / 4096 = 32 would land on a random byte every time
        // and store a block that is three-quarters zeros.
        let block = shaped_bytes(2, 7, 32 * 4096);
        let (bits, _) = sampled_stats(&block);
        assert!(bits < GATE_STORE_ENTROPY_BITS, "sampled {bits} bits/byte");
        let frame = compress_adaptive(&block);
        assert_ne!(frame[0], Codec::Store.id());
        assert!(frame.len() < block.len() / 2, "frame {} bytes", frame.len());
        assert_eq!(decompress(&frame).unwrap(), block);
    }

    #[test]
    fn decompress_into_appends_and_restores_the_buffer_on_error() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(20);
        for codec in [Codec::Store, Codec::Rle, Codec::Lz77] {
            let frame = compress(codec, &text);
            let mut out = b"prefix".to_vec();
            decompress_into(&frame, &mut out).unwrap();
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(&out[6..], &text[..]);
            // Cut the frame short: whatever was decoded is rolled back.
            let mut out = b"prefix".to_vec();
            assert!(decompress_into(&frame[..frame.len() - 3], &mut out).is_err());
            assert_eq!(out, b"prefix");
        }
    }

    #[test]
    fn gate_still_picks_rle_for_run_dominated_pages() {
        let page = vec![0u8; 4096];
        let (bits, runs) = sampled_stats(&page);
        assert!(bits < 1.0);
        assert!(runs > GATE_RLE_RUN_FRACTION);
        let frame = compress_adaptive(&page);
        assert_eq!(frame[0], Codec::Rle.id());
    }

    #[test]
    fn gate_skips_rle_for_structured_data() {
        let text = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
        let frame = compress_adaptive(&text);
        assert_eq!(frame[0], Codec::Lz77.id());
        assert_eq!(decompress(&frame).unwrap(), text);
    }

    #[test]
    fn ratio_helper() {
        assert!((ratio(4096, 1024) - 4.0).abs() < 1e-9);
        assert_eq!(ratio(10, 0), 1.0);
    }

    proptest! {
        #[test]
        fn prop_adaptive_round_trip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let frame = compress_adaptive(&data);
            prop_assert_eq!(decompress(&frame).unwrap(), data);
        }

        #[test]
        fn prop_compress_into_appends_identical_frames(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            prefix in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut out = prefix.clone();
            compress_adaptive_into(&data, &mut out);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &compress_adaptive(&data)[..]);
            for codec in [Codec::Store, Codec::Rle, Codec::Lz77] {
                let mut out = prefix.clone();
                compress_into(codec, &data, &mut out);
                prop_assert_eq!(&out[prefix.len()..], &compress(codec, &data)[..]);
            }
        }

        #[test]
        fn prop_rle_round_trip(data in proptest::collection::vec(0u8..4, 0..4096)) {
            let frame = compress(Codec::Rle, &data);
            prop_assert_eq!(decompress(&frame).unwrap(), data);
        }

        #[test]
        fn prop_lz_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let frame = compress(Codec::Lz77, &data);
            prop_assert_eq!(decompress(&frame).unwrap(), data);
        }

        #[test]
        fn prop_frame_never_expands_beyond_header(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let frame = compress_adaptive(&data);
            prop_assert!(frame.len() <= data.len() + FRAME_HEADER);
        }
    }
}
