//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! Used for page-content fingerprints in the hardware-assisted log and as the
//! compression function underneath [`crate::hmac`] and [`crate::hashchain`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 256-bit SHA-256 digest.
///
/// # Examples
///
/// ```
/// use rssd_crypto::sha256::{Digest, Sha256};
///
/// let d: Digest = Sha256::digest(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Digest consisting of all zero bytes, used as the genesis link of a
    /// [`crate::hashchain::HashChain`].
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Parses a digest from a lowercase hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if `hex` is not exactly 64 hex characters.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({self})")
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use rssd_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress_blocks(&block);
                self.buffer_len = 0;
            }
        }
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            self.compress_blocks(&input[..whole]);
            input = &input[whole..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Consumes the hasher and returns the final digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then 64-bit big-endian length — written
        // straight into the block buffer (`update` keeps `buffer_len < 64`).
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            // No room left for the length: it goes in a block of its own.
            self.compress_blocks(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_blocks(&block);
        state_digest(&self.state)
    }

    /// A hasher standing at chaining state `state` after `absorbed` bytes, a
    /// whole number of blocks: how a keyed HMAC resumes from a midstate.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: absorbed,
        }
    }

    /// The chaining state — a midstate only between whole blocks.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0);
        self.state
    }

    fn compress_blocks(&mut self, blocks: &[u8]) {
        compress_blocks(&mut self.state, blocks);
    }
}

/// The digest a final chaining state spells, word by word big-endian.
fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Compresses a whole number of 64-byte blocks into `state`.
///
/// Dispatches to the x86 SHA extensions when the CPU has them (the common
/// case for the machines this simulator profiles on) and to the portable
/// scalar rounds otherwise; both produce the same FIPS 180-4 digests.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` confirmed the sha/ssse3/sse4.1 features at
        // runtime, and the length is a multiple of the block size.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    scalar_blocks(state, blocks);
}

/// The portable rounds over a whole number of blocks.
fn scalar_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        scalar_rounds(state, block.try_into().expect("64 bytes"));
    }
}

fn scalar_rounds(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One FIPS 180-4 round with the working variables passed in rotated
    // roles: unrolling 8 at a time removes the per-round register shuffle
    // (h=g; g=f; ...) without changing the arithmetic.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ ((!$e) & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    let mut i = 0;
    while i < 64 {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
        i += 8;
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// SHA-256 message schedule and rounds on the x86 SHA extensions.
///
/// The state is kept in the two-register ABEF/CDGH layout the `sha256rnds2`
/// instruction expects; four 32-bit schedule words are produced per step with
/// `sha256msg1`/`sha256msg2`. Identical output to the scalar rounds — the
/// NIST vectors in this module's tests cover both paths on capable hosts.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Whether the CPU supports this path (the feature-detection macro caches
    /// the CPUID lookup).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// `$body` for each of the sixteen four-round groups, `$g` a literal:
    /// with every schedule index a constant, the schedule chunks live in
    /// registers instead of a stack array indexed at run time.
    macro_rules! unrolled {
        ($g:ident => $body:expr) => {
            unrolled!(@ $g => $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
        (@ $g:ident => $body:expr; $($group:literal)*) => {
            $({
                let $g: usize = $group;
                $body;
            })*
        };
    }

    // The helpers below are `unsafe` for their target features alone: each
    // requires that the caller has checked [`available`].

    /// `[a..d]`, `[e..h]` repacked into the ABEF/CDGH register layout.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_state(state: &[u32; 8]) -> [__m128i; 2] {
        let tmp = _mm_loadu_si128(state.as_ptr().cast());
        let hi = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32(tmp, 0xB1);
        let hi = _mm_shuffle_epi32(hi, 0x1B);
        [_mm_alignr_epi8(tmp, hi, 8), _mm_blend_epi16(hi, tmp, 0xF0)]
    }

    /// ABEF/CDGH unpacked back to `[a..d]`, `[e..h]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn store_state(state: &mut [u32; 8], [abef, cdgh]: [__m128i; 2]) {
        let tmp = _mm_shuffle_epi32(abef, 0x1B);
        let hi = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(tmp, hi, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(hi, tmp, 8),
        );
    }

    /// A block's sixteen message words, each turned big-endian: the first
    /// four schedule chunks `X_0..X_3`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_block(block: &[u8; 64]) -> [__m128i; 4] {
        let be_mask = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
        let at = block.as_ptr();
        [
            _mm_shuffle_epi8(_mm_loadu_si128(at.cast()), be_mask),
            _mm_shuffle_epi8(_mm_loadu_si128(at.add(16).cast()), be_mask),
            _mm_shuffle_epi8(_mm_loadu_si128(at.add(32).cast()), be_mask),
            _mm_shuffle_epi8(_mm_loadu_si128(at.add(48).cast()), be_mask),
        ]
    }

    /// Rounds `4g..4g+4` on `state`, then — while any are left — the next
    /// schedule chunk into the slot `m` just consumed. `m` holds the chunks
    /// `X_g..X_{g+3}`, rotating in place as the rounds consume them.
    ///
    /// Besides the features, `g` must be below 16: it indexes `K`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn four_rounds(state: &mut [__m128i; 2], m: &mut [__m128i; 4], g: usize) {
        debug_assert!(g < 16);
        let [abef, cdgh] = state;
        let wk = _mm_add_epi32(m[g & 3], _mm_loadu_si128(K.as_ptr().add(g * 4).cast()));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
        if g < 12 {
            // Next schedule chunk, per the FIPS 180-4 recurrence:
            // X_{g+4} = msg2(msg1(X_g, X_{g+1}) + (W[4g+9..4g+13]), X_{g+3})
            let x0 = m[g & 3];
            let x1 = m[(g + 1) & 3];
            let x2 = m[(g + 2) & 3];
            let x3 = m[(g + 3) & 3];
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(x0, x1), _mm_alignr_epi8(x3, x2, 4));
            m[g & 3] = _mm_sha256msg2_epu32(partial, x3);
        }
    }

    /// The block's rounds added onto the state they started from.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn feed_forward(state: &mut [__m128i; 2], saved: [__m128i; 2]) {
        state[0] = _mm_add_epi32(state[0], saved[0]);
        state[1] = _mm_add_epi32(state[1], saved[1]);
    }

    /// Compresses whole 64-byte blocks into `state`.
    ///
    /// # Safety
    ///
    /// The caller must have checked [`available`], and `blocks.len()` must be
    /// a multiple of 64.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let mut s = load_state(state);
        for block in blocks.chunks_exact(64) {
            let saved = s;
            let mut m = load_block(block.try_into().expect("64 bytes"));
            unrolled!(g => four_rounds(&mut s, &mut m, g));
            feed_forward(&mut s, saved);
        }
        store_state(state, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_string()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn finalize_pads_like_fips_180_4_at_every_buffer_fill() {
        // Reference: pad the message by hand and run the scalar rounds.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in 0..=data.len() {
            let mut padded = data[..len].to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut scalar = H0;
            scalar_blocks(&mut scalar, &padded);
            assert_eq!(
                Sha256::digest(&data[..len]),
                state_digest(&scalar),
                "length {len}"
            );
        }
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        let parsed = Digest::from_hex(&d.to_string()).expect("valid hex");
        assert_eq!(parsed, d);
    }

    #[test]
    fn digest_from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"zz".repeat(32)).is_none());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Digest::ZERO);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_rounds() {
        if !shani::available() {
            return;
        }
        let blocks: Vec<u8> = (0..640u32).map(|i| (i as u8).wrapping_mul(37)).collect();
        let mut scalar = H0;
        scalar_blocks(&mut scalar, &blocks);
        let mut state = H0;
        // SAFETY: availability checked above; length is 10 whole blocks.
        unsafe { shani::compress_blocks(&mut state, &blocks) };
        assert_eq!(state, scalar);
    }
}
