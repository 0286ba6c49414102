//! RFC 8439 ChaCha20 stream cipher.
//!
//! RSSD encrypts retained pages and log segments with the device offload key
//! before they cross the NVMe-over-Ethernet link; in the hardware prototype
//! this is an on-controller crypto engine, here it is a from-scratch ChaCha20.

/// ChaCha20 stream cipher keyed with a 256-bit key and a 96-bit nonce.
///
/// Encryption and decryption are the same operation (XOR keystream).
///
/// # Examples
///
/// ```
/// use rssd_crypto::chacha20::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut data = b"retained page payload".to_vec();
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_ne!(&data[..], b"retained page payload");
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_eq!(&data[..], b"retained page payload");
/// ```
#[derive(Clone, Debug)]
pub struct ChaCha20 {
    state: [u32; 16],
    keystream: [u8; 64],
    keystream_pos: usize,
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

impl ChaCha20 {
    /// Creates a cipher with block counter starting at 0.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        Self::with_counter(key, nonce, 0)
    }

    /// Creates a cipher with an explicit initial block counter (RFC 8439 §2.4
    /// uses counter 1 for AEAD payloads; RSSD seeks into segment keystreams by
    /// page index).
    pub fn with_counter(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] =
                u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        ChaCha20 {
            state,
            keystream: [0u8; 64],
            keystream_pos: 64,
        }
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    ///
    /// Whole 64-byte blocks are XORed word-wise straight from the block
    /// function without staging through the keystream buffer; partial blocks
    /// at either end go through the buffer so split applications see the
    /// identical stream (same keystream, same position), only the host cost
    /// changes.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let ptr = data.as_mut_ptr();
        // SAFETY: source and destination are the same `data.len()` bytes,
        // exclusively borrowed for the call.
        unsafe { self.xor_stream(ptr, ptr, data.len()) }
    }

    /// Appends `src` XOR keystream to `out`: the one-pass spelling of "copy,
    /// then [`apply_keystream`](Self::apply_keystream) the copy". Same
    /// stream, same position afterwards.
    pub fn apply_keystream_into(&mut self, src: &[u8], out: &mut Vec<u8>) {
        out.reserve(src.len());
        // SAFETY: the reserve leaves at least `src.len()` writable bytes past
        // `out.len()`; `src` cannot alias them (`out` is exclusively
        // borrowed); `xor_stream` writes every one of those bytes before the
        // length is advanced over them.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            self.xor_stream(src.as_ptr(), dst, src.len());
            out.set_len(out.len() + src.len());
        }
    }

    /// Writes `src[k] ^ keystream` to `dst[k]` for `k in 0..len`, advancing
    /// the stream by `len` bytes.
    ///
    /// # Safety
    ///
    /// `src` must be readable and `dst` writable for `len` bytes, and the two
    /// ranges must be either identical (in place) or disjoint.
    unsafe fn xor_stream(&mut self, src: *const u8, dst: *mut u8, len: usize) {
        /// `dst[k] = src[k] ^ keystream[k]` over a buffered partial block.
        ///
        /// # Safety
        ///
        /// `src`/`dst` valid for `keystream.len()` bytes (caller's contract).
        unsafe fn xor_bytes(src: *const u8, dst: *mut u8, keystream: &[u8]) {
            for (k, ks) in keystream.iter().enumerate() {
                *dst.add(k) = *src.add(k) ^ ks;
            }
        }

        let mut i = 0usize;
        // Drain a partially consumed buffered block first.
        if self.keystream_pos < 64 {
            let n = (64 - self.keystream_pos).min(len);
            // SAFETY: n <= len.
            xor_bytes(
                src,
                dst,
                &self.keystream[self.keystream_pos..self.keystream_pos + n],
            );
            self.keystream_pos += n;
            i = n;
        }
        // Eight blocks at a time on AVX2 hosts: the block functions for
        // counters c..c+7 are independent, so they run in parallel lanes.
        #[cfg(target_arch = "x86_64")]
        if len - i >= 512 && avx2::available() {
            while len - i >= 512 {
                // SAFETY: `available` confirmed avx2; i + 512 <= len.
                avx2::xor_eight_blocks(&self.state, src.add(i), dst.add(i));
                self.state[12] = self.state[12].wrapping_add(8);
                i += 512;
            }
        }
        // Whole blocks: XOR block-function words directly into the data.
        while len - i >= 64 {
            let words = self.next_block_words();
            for (k, w) in words.iter().enumerate() {
                // SAFETY: i + 4k + 4 <= i + 64 <= len; unaligned accesses.
                let x = u32::from_le(src.add(i + 4 * k).cast::<u32>().read_unaligned()) ^ w;
                dst.add(i + 4 * k).cast::<u32>().write_unaligned(x.to_le());
            }
            i += 64;
        }
        // Tail shorter than a block: buffer one block and consume part of it.
        if i < len {
            self.refill();
            let n = len - i;
            // SAFETY: i + n == len.
            xor_bytes(src.add(i), dst.add(i), &self.keystream[..n]);
            self.keystream_pos = n;
        }
    }

    /// Convenience: encrypt a buffer, returning a new vector (one allocation,
    /// ciphered as it is filled).
    pub fn encrypt(key: &[u8; 32], nonce: &[u8; 12], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len());
        ChaCha20::new(key, nonce).apply_keystream_into(plaintext, &mut out);
        out
    }

    /// Convenience: decrypt a buffer, returning a new vector.
    pub fn decrypt(key: &[u8; 32], nonce: &[u8; 12], ciphertext: &[u8]) -> Vec<u8> {
        // Symmetric: same keystream XOR.
        Self::encrypt(key, nonce, ciphertext)
    }

    fn refill(&mut self) {
        let words = self.next_block_words();
        for (i, w) in words.iter().enumerate() {
            self.keystream[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.keystream_pos = 0;
    }

    /// Runs the ChaCha20 block function on the current state, advances the
    /// block counter, and returns the 16 keystream words.
    ///
    /// The working state lives in named locals so the 20 rounds compile to
    /// register arithmetic instead of array loads and stores.
    #[inline]
    fn next_block_words(&mut self) -> [u32; 16] {
        macro_rules! qr {
            ($a:ident, $b:ident, $c:ident, $d:ident) => {
                $a = $a.wrapping_add($b);
                $d = ($d ^ $a).rotate_left(16);
                $c = $c.wrapping_add($d);
                $b = ($b ^ $c).rotate_left(12);
                $a = $a.wrapping_add($b);
                $d = ($d ^ $a).rotate_left(8);
                $c = $c.wrapping_add($d);
                $b = ($b ^ $c).rotate_left(7);
            };
        }
        let s = &self.state;
        let (mut x0, mut x1, mut x2, mut x3) = (s[0], s[1], s[2], s[3]);
        let (mut x4, mut x5, mut x6, mut x7) = (s[4], s[5], s[6], s[7]);
        let (mut x8, mut x9, mut x10, mut x11) = (s[8], s[9], s[10], s[11]);
        let (mut x12, mut x13, mut x14, mut x15) = (s[12], s[13], s[14], s[15]);
        for _ in 0..10 {
            // Column rounds.
            qr!(x0, x4, x8, x12);
            qr!(x1, x5, x9, x13);
            qr!(x2, x6, x10, x14);
            qr!(x3, x7, x11, x15);
            // Diagonal rounds.
            qr!(x0, x5, x10, x15);
            qr!(x1, x6, x11, x12);
            qr!(x2, x7, x8, x13);
            qr!(x3, x4, x9, x14);
        }
        let words = [
            x0.wrapping_add(s[0]),
            x1.wrapping_add(s[1]),
            x2.wrapping_add(s[2]),
            x3.wrapping_add(s[3]),
            x4.wrapping_add(s[4]),
            x5.wrapping_add(s[5]),
            x6.wrapping_add(s[6]),
            x7.wrapping_add(s[7]),
            x8.wrapping_add(s[8]),
            x9.wrapping_add(s[9]),
            x10.wrapping_add(s[10]),
            x11.wrapping_add(s[11]),
            x12.wrapping_add(s[12]),
            x13.wrapping_add(s[13]),
            x14.wrapping_add(s[14]),
            x15.wrapping_add(s[15]),
        ];
        self.state[12] = self.state[12].wrapping_add(1);
        words
    }
}

/// Eight-lane ChaCha20 block function on AVX2 registers.
///
/// Each of the sixteen state words is held in a 256-bit register whose eight
/// lanes belong to eight consecutive block counters; the twenty rounds are the
/// same arithmetic as the scalar path, and two 8x8 transposes at the end turn
/// the lane-major words back into the sequential keystream. Output is
/// bit-identical to eight scalar block invocations.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Whether the CPU supports this path (the feature-detection macro caches
    /// the CPUID lookup).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// Writes `src ^ keystream` for the eight blocks with counters
    /// `state[12]..state[12]+7` (wrapping) to `dst`.
    ///
    /// # Safety
    ///
    /// The caller must have checked [`available`]; `src` must be readable and
    /// `dst` writable for 512 bytes, the two ranges identical or disjoint.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_eight_blocks(state: &[u32; 16], src: *const u8, dst: *mut u8) {
        // Per-lane rotate-left by 16 and 8 as byte shuffles (the shuffle works
        // within each 128-bit half, so the 16-byte pattern is repeated).
        let rot16 = _mm256_broadcastsi128_si256(_mm_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
        ));
        let rot8 = _mm256_broadcastsi128_si256(_mm_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
        ));

        let mut init = [_mm256_setzero_si256(); 16];
        for (vec, word) in init.iter_mut().zip(state.iter()) {
            *vec = _mm256_set1_epi32(*word as i32);
        }
        init[12] = _mm256_add_epi32(init[12], _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        let mut v = init;

        macro_rules! qr {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                v[$a] = _mm256_add_epi32(v[$a], v[$b]);
                v[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[$d], v[$a]), rot16);
                v[$c] = _mm256_add_epi32(v[$c], v[$d]);
                let t = _mm256_xor_si256(v[$b], v[$c]);
                v[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 12), _mm256_srli_epi32(t, 20));
                v[$a] = _mm256_add_epi32(v[$a], v[$b]);
                v[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[$d], v[$a]), rot8);
                v[$c] = _mm256_add_epi32(v[$c], v[$d]);
                let t = _mm256_xor_si256(v[$b], v[$c]);
                v[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 7), _mm256_srli_epi32(t, 25));
            };
        }
        for _ in 0..10 {
            qr!(0, 4, 8, 12);
            qr!(1, 5, 9, 13);
            qr!(2, 6, 10, 14);
            qr!(3, 7, 11, 15);
            qr!(0, 5, 10, 15);
            qr!(1, 6, 11, 12);
            qr!(2, 7, 8, 13);
            qr!(3, 4, 9, 14);
        }
        for (vec, start) in v.iter_mut().zip(init.iter()) {
            *vec = _mm256_add_epi32(*vec, *start);
        }

        // Transpose word-major lanes back to block-major chunks: block j's
        // words 8h..8h+7 live in lane j of v[8h..8h+8].
        for h in 0..2 {
            let w = &v[8 * h..8 * h + 8];
            // 32-bit then 64-bit interleaves transpose each 4x4 quadrant
            // within the 128-bit halves…
            let t0 = _mm256_unpacklo_epi32(w[0], w[1]);
            let t1 = _mm256_unpackhi_epi32(w[0], w[1]);
            let t2 = _mm256_unpacklo_epi32(w[2], w[3]);
            let t3 = _mm256_unpackhi_epi32(w[2], w[3]);
            let t4 = _mm256_unpacklo_epi32(w[4], w[5]);
            let t5 = _mm256_unpackhi_epi32(w[4], w[5]);
            let t6 = _mm256_unpacklo_epi32(w[6], w[7]);
            let t7 = _mm256_unpackhi_epi32(w[6], w[7]);
            // u[q] = words 0..3 of blocks q | q+4, u[q + 4] = words 4..7.
            let u = [
                _mm256_unpacklo_epi64(t0, t2),
                _mm256_unpackhi_epi64(t0, t2),
                _mm256_unpacklo_epi64(t1, t3),
                _mm256_unpackhi_epi64(t1, t3),
                _mm256_unpacklo_epi64(t4, t6),
                _mm256_unpackhi_epi64(t4, t6),
                _mm256_unpacklo_epi64(t5, t7),
                _mm256_unpackhi_epi64(t5, t7),
            ];
            // …and a 128-bit permute pairs the halves into whole rows.
            for q in 0..4 {
                let rows = [
                    (q, _mm256_permute2x128_si256(u[q], u[q + 4], 0x20)),
                    (q + 4, _mm256_permute2x128_si256(u[q], u[q + 4], 0x31)),
                ];
                for (block, row) in rows {
                    // SAFETY: block < 8 and h < 2, so the 32 bytes at
                    // block * 64 + h * 32 end at or before byte 512.
                    let offset = block * 64 + h * 32;
                    let text = _mm256_loadu_si256(src.add(offset).cast());
                    _mm256_storeu_si256(dst.add(offset).cast(), _mm256_xor_si256(text, row));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(hex: &str) -> Vec<u8> {
        hex.as_bytes()
            .chunks(2)
            .map(|c| {
                let hi = (c[0] as char).to_digit(16).expect("hex");
                let lo = (c[1] as char).to_digit(16).expect("hex");
                ((hi << 4) | lo) as u8
            })
            .collect()
    }

    // RFC 8439 §2.4.2 test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce_bytes = hex_to_bytes("000000000000004a00000000");
        let nonce: [u8; 12] = nonce_bytes.as_slice().try_into().expect("12 bytes");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let mut data = plaintext.to_vec();
        ChaCha20::with_counter(&key, &nonce, 1).apply_keystream(&mut data);

        let expected = hex_to_bytes(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    // RFC 8439 §2.3.2: first keystream block with counter 1.
    #[test]
    fn rfc8439_block_function_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce_bytes = hex_to_bytes("000000090000004a00000000");
        let nonce: [u8; 12] = nonce_bytes.as_slice().try_into().expect("12 bytes");
        let mut zeros = vec![0u8; 64];
        ChaCha20::with_counter(&key, &nonce, 1).apply_keystream(&mut zeros);
        let expected = hex_to_bytes(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(zeros, expected);
    }

    #[test]
    fn round_trip_at_block_boundaries() {
        let key = [0xabu8; 32];
        let nonce = [0x01u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000, 4096] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = ChaCha20::encrypt(&key, &nonce, &plaintext);
            if len > 0 {
                assert_ne!(ct, plaintext, "len {len}");
            }
            assert_eq!(ChaCha20::decrypt(&key, &nonce, &ct), plaintext, "len {len}");
        }
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let key = [9u8; 32];
        let pt = vec![0u8; 128];
        let a = ChaCha20::encrypt(&key, &[0u8; 12], &pt);
        let b = ChaCha20::encrypt(&key, &[1u8; 12], &pt);
        assert_ne!(a, b);
    }

    #[test]
    fn wide_and_narrow_applications_match() {
        // A single wide application takes the eight-block SIMD path where the
        // host has it; 64-byte chunked applications always take the scalar
        // block path. Splitting at unaligned points makes the eight-block,
        // single-block, buffered-drain and tail paths all cross. The streams
        // must be identical.
        let key = [0x42u8; 32];
        let nonce = [7u8; 12];
        let data: Vec<u8> = (0..4097).map(|i| (i % 251) as u8).collect();

        let mut narrow = data.clone();
        let mut cipher = ChaCha20::new(&key, &nonce);
        for chunk in narrow.chunks_mut(64) {
            cipher.apply_keystream(chunk);
        }
        assert_ne!(narrow, data);

        let mut wide = data.clone();
        ChaCha20::new(&key, &nonce).apply_keystream(&mut wide);
        assert_eq!(wide, narrow);

        for split in [1usize, 63, 65, 511, 513, 1000, 2049, 3583, 4096] {
            let mut in_place = data.clone();
            let mut cipher = ChaCha20::new(&key, &nonce);
            let (a, b) = in_place.split_at_mut(split);
            cipher.apply_keystream(a);
            cipher.apply_keystream(b);
            assert_eq!(in_place, narrow, "in place, split at {split}");

            let mut appended = b"prefix".to_vec();
            let mut cipher = ChaCha20::new(&key, &nonce);
            cipher.apply_keystream_into(&data[..split], &mut appended);
            cipher.apply_keystream_into(&data[split..], &mut appended);
            assert_eq!(&appended[..6], b"prefix");
            assert_eq!(&appended[6..], &narrow[..], "appended, split at {split}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_blocks() {
        if !avx2::available() {
            return;
        }
        // The second counter wraps inside the eight lanes.
        for counter in [0u32, 1, u32::MAX - 3] {
            let mut cipher = ChaCha20::with_counter(&[0x5Au8; 32], &[9u8; 12], counter);
            let text: Vec<u8> = (0..512u32).map(|i| (i as u8).wrapping_mul(29)).collect();
            let mut simd = vec![0u8; 512];
            // SAFETY: availability checked above; both buffers are 512 bytes
            // and disjoint.
            unsafe { avx2::xor_eight_blocks(&cipher.state, text.as_ptr(), simd.as_mut_ptr()) };
            let mut scalar = Vec::with_capacity(512);
            for block in text.chunks_exact(64) {
                for (w, chunk) in cipher.next_block_words().iter().zip(block.chunks_exact(4)) {
                    let x = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) ^ w;
                    scalar.extend_from_slice(&x.to_le_bytes());
                }
            }
            assert_eq!(simd, scalar, "counter {counter}");
        }
    }

    #[test]
    fn split_application_matches_contiguous() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();

        let whole = ChaCha20::encrypt(&key, &nonce, &data);

        let mut cipher = ChaCha20::new(&key, &nonce);
        let mut split = data.clone();
        let (a, b) = split.split_at_mut(100);
        cipher.apply_keystream(a);
        cipher.apply_keystream(b);
        assert_eq!(split, whole);
    }
}
