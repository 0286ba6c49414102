//! An LZ77-style sliding-window codec.
//!
//! Payload format: a stream of *sequences*, each a token byte whose high
//! nibble is the literal-run length and low nibble the match length minus
//! `MIN_MATCH` (nibble 15 extends with continuation bytes — 255 adds
//! another byte — exactly once for matches, whose lengths are capped at
//! `MAX_MATCH`). The token is followed by the literal bytes, then a 16-bit
//! little-endian back-distance (`1..=WINDOW`) and the optional match-length
//! extension. A payload may end after a sequence's literals, in which case
//! that final sequence carries no match.
//!
//! The byte-aligned sequence layout means literal runs move with bulk copies
//! on both sides instead of per-byte control-bit bookkeeping — on the
//! offload path the encoder is charged to the simulated device's host loop,
//! so its cost is the paper's "performance overhead" story, not a hidden
//! constant.
//!
//! The encoder is a greedy single-candidate matcher over a 4-byte hash
//! table — the trade-off a firmware compressor makes: bounded memory, a
//! single pass, no chain walks. Incompressible stretches are strided over
//! with LZ4-style skip acceleration so embedded ciphertext pages cost
//! `O(sqrt(n))` searches rather than one per byte.

use crate::DecompressError;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
// Skip acceleration: after 2^SKIP_SHIFT consecutive failed searches the
// encoder starts striding over the input, folding the skipped bytes into
// the pending literal run without searching them. Match-rich data resets
// the streak and never strides.
const SKIP_SHIFT: u32 = 6;
const MAX_STEP: usize = 32;
// Nibble value signalling an extended length.
const NIB_EXT: usize = 15;

/// Unaligned little-endian 32-bit read.
///
/// # Safety
///
/// `pos + 4 <= data.len()`.
#[inline]
unsafe fn read_u32(data: &[u8], pos: usize) -> u32 {
    debug_assert!(pos + 4 <= data.len());
    u32::from_le(std::ptr::read_unaligned(data.as_ptr().add(pos).cast()))
}

/// Unaligned little-endian 64-bit read.
///
/// # Safety
///
/// `pos + 8 <= data.len()`.
#[inline]
unsafe fn read_u64(data: &[u8], pos: usize) -> u64 {
    debug_assert!(pos + 8 <= data.len());
    u64::from_le(std::ptr::read_unaligned(data.as_ptr().add(pos).cast()))
}

#[inline]
fn hash_word(v: u32) -> usize {
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at `limit`.
///
/// Compares eight bytes per step (XOR + trailing-zero count) instead of one;
/// the result is exactly the byte-wise prefix length. Callers guarantee
/// `a < b` and `b + limit <= data.len()`.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= limit {
        // SAFETY: len + 8 <= limit and b + limit <= data.len(), a < b.
        let diff = unsafe { read_u64(data, a + len) ^ read_u64(data, b + len) };
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Copies `len` bytes in eight-byte steps, overstoring up to seven bytes
/// past `dst + len`.
///
/// # Safety
///
/// `src..src+len+7` must be readable and `dst..dst+len+7` writable, and the
/// regions must not overlap.
#[inline]
unsafe fn wild_copy(dst: *mut u8, src: *const u8, len: usize) {
    let mut i = 0usize;
    while i < len {
        std::ptr::copy_nonoverlapping(src.add(i), dst.add(i), 8);
        i += 8;
    }
}

/// Appends the payload-terminating literal-only sequence.
fn emit_terminal(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    let lit_nib = lit_len.min(NIB_EXT);
    out.push((lit_nib as u8) << 4);
    if lit_nib == NIB_EXT {
        let mut rem = lit_len - NIB_EXT;
        while rem >= 255 {
            out.push(255);
            rem -= 255;
        }
        out.push(rem as u8);
    }
    out.extend_from_slice(literals);
}

/// Writes one match-carrying sequence at `base + op` with an extended
/// literal run or an extended match length; returns the new write offset.
///
/// # Safety
///
/// The caller must have reserved capacity for the sequence at `base + op`
/// (see the worst-case bound in [`encode`]).
unsafe fn emit_long(
    base: *mut u8,
    mut op: usize,
    literals: &[u8],
    dist: usize,
    len: usize,
) -> usize {
    let lit_len = literals.len();
    let lit_nib = lit_len.min(NIB_EXT);
    let match_nib = (len - MIN_MATCH).min(NIB_EXT);
    *base.add(op) = ((lit_nib as u8) << 4) | match_nib as u8;
    op += 1;
    if lit_nib == NIB_EXT {
        let mut rem = lit_len - NIB_EXT;
        while rem >= 255 {
            *base.add(op) = 255;
            op += 1;
            rem -= 255;
        }
        *base.add(op) = rem as u8;
        op += 1;
    }
    std::ptr::copy_nonoverlapping(literals.as_ptr(), base.add(op), lit_len);
    op += lit_len;
    let d = (dist as u16).to_le_bytes();
    *base.add(op) = d[0];
    *base.add(op + 1) = d[1];
    op += 2;
    if match_nib == NIB_EXT {
        *base.add(op) = (len - MIN_MATCH - NIB_EXT) as u8;
        op += 1;
    }
    op
}

/// LZ77-encodes `data`.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(data, &mut out);
    out
}

/// LZ77-encodes `data`, appending the payload to `out`. Existing contents
/// are left untouched — this is how the offload engine compresses directly
/// into the envelope's wire buffer after the header.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    // Worst-case payload bound: a sequence's overhead beyond its literals is
    // token (1) + literal-length extension (1 + L/255, only when L >= 15) +
    // distance (2) + match-length extension (<= 1), while its match covers at
    // least MIN_MATCH = 4 input bytes. Per sequence the payload therefore
    // exceeds the input it covers by at most 1 + L/255 bytes, and sequences
    // with that excess carry >= 15 literals, so the total overshoot is under
    // n/16. The extra 64 covers the terminating sequence and wild-copy
    // overstores.
    let cap = data.len() + data.len() / 16 + 64;
    out.reserve(cap);
    // head[h]: most recent position whose 4-byte prefix hashed to h (+1,
    // 0 = none). A single candidate per bucket: any match of length >= 4
    // shares its first four bytes with the candidate, so one well-hashed
    // slot finds the recent repeats that matter without chain walks.
    let mut head = vec![0u32; HASH_SIZE];

    let mut pos = 0usize;
    let mut lit_start = 0usize;
    let mut miss_streak = 0usize;

    // The hot loop emits through a raw pointer: `out` never reallocates
    // (capacity is the worst-case bound above, reserved after any existing
    // contents), so `base` stays valid and `start + op` tracks the logical
    // length until the final set_len.
    // SAFETY: `start <= out.capacity()` after the reserve.
    let base = unsafe { out.as_mut_ptr().add(start) };
    let mut op = 0usize;

    while pos + MIN_MATCH <= data.len() {
        // SAFETY: the loop condition guarantees four readable bytes at `pos`;
        // `hash_word` output is below HASH_SIZE by construction; a stored
        // candidate is an earlier loop position, so it also has four
        // readable bytes.
        let (candidate, here) = unsafe {
            let here = read_u32(data, pos);
            let h = hash_word(here);
            let slot = head.get_unchecked_mut(h);
            let candidate = *slot as usize;
            *slot = (pos + 1) as u32;
            (candidate, here)
        };

        let mut matched = false;
        if candidate > 0 {
            let cand_pos = candidate - 1;
            let dist = pos - cand_pos;
            // SAFETY: cand_pos was a previous value of `pos`, so
            // cand_pos + 4 <= data.len().
            if dist <= WINDOW && unsafe { read_u32(data, cand_pos) } == here {
                let limit = (data.len() - pos).min(MAX_MATCH);
                let len = common_prefix(data, cand_pos, pos, limit);
                if len >= MIN_MATCH {
                    let lit_len = pos - lit_start;
                    // SAFETY: capacity was reserved for the worst case; the
                    // wild copy's 7-byte overstore stays inside the slack,
                    // and its source overread needs 8 readable bytes from
                    // `lit_start + lit_len - len.min(8)`… gated below on
                    // `pos + 8 <= data.len()` (literals end at `pos`).
                    unsafe {
                        if lit_len < NIB_EXT && len - MIN_MATCH < NIB_EXT && pos + 8 <= data.len() {
                            *base.add(op) = ((lit_len as u8) << 4) | (len - MIN_MATCH) as u8;
                            wild_copy(base.add(op + 1), data.as_ptr().add(lit_start), lit_len);
                            op += 1 + lit_len;
                            let d = (dist as u16).to_le_bytes();
                            *base.add(op) = d[0];
                            *base.add(op + 1) = d[1];
                            op += 2;
                        } else {
                            op = emit_long(base, op, &data[lit_start..pos], dist, len);
                        }
                    }
                    // Positions covered by the match are not inserted: the
                    // head slot for the match's own prefix was just updated,
                    // which is what the next occurrence will look up.
                    pos += len;
                    lit_start = pos;
                    miss_streak = 0;
                    matched = true;
                }
            }
        }
        if !matched {
            let step = (1 + (miss_streak >> SKIP_SHIFT)).min(MAX_STEP);
            miss_streak += 1;
            pos += step;
        }
    }
    // SAFETY: `op` counts bytes written within the reserved capacity.
    unsafe {
        out.set_len(start + op);
    }
    if lit_start < data.len() {
        emit_terminal(out, &data[lit_start..]);
    }
}

/// Most output bytes one payload byte can stand for: the densest sequence
/// is token + distance + length extension (4 bytes) expanding to
/// `MIN_MATCH + NIB_EXT + 255 = 274` bytes.
const MAX_EXPANSION: usize = 69;
/// Longest match a sequence can encode (see [`MAX_EXPANSION`]).
const MAX_DECODED_MATCH: usize = MIN_MATCH + NIB_EXT + 255;
const _: () = assert!(MAX_DECODED_MATCH <= 4 * MAX_EXPANSION);
/// Width of the decoder's block copies, and the slack it keeps reserved past
/// the bytes it has promised so a final block may overstore.
const WIDE: usize = 16;

/// Copies 16 bytes.
///
/// # Safety
///
/// `src..src+16` readable, `dst..dst+16` writable, not overlapping.
#[inline(always)]
unsafe fn copy16(src: *const u8, dst: *mut u8) {
    std::ptr::copy_nonoverlapping(src, dst, WIDE);
}

/// Appends `len` bytes to the output at `base + op`, copied from `dist`
/// bytes back — the LZ match copy, which must behave like a byte-by-byte
/// forward copy when the ranges overlap (`dist < len` repeats a pattern).
/// May overstore up to `WIDE - 1` bytes past `op + len`.
///
/// # Safety
///
/// `1 <= dist <= op`, every byte of `base..base+op` initialised, and
/// `base..base + op + len + WIDE` writable.
#[inline(always)]
unsafe fn copy_match(base: *mut u8, op: usize, dist: usize, len: usize) {
    let dst = base.add(op);
    let src = dst.sub(dist) as *const u8;
    if dist >= WIDE {
        // Each step reads 16 bytes that end at or before the byte it starts
        // writing (src + k + 16 <= dst + k), so a step never overlaps itself,
        // and taking the steps in order lets later ones read what earlier
        // ones wrote — exactly the forward byte copy.
        let mut k = 0usize;
        while k < len {
            copy16(src.add(k), dst.add(k));
            k += WIDE;
        }
    } else {
        for k in 0..len {
            *dst.add(k) = *src.add(k);
        }
    }
}

/// Decodes an LZ77 payload produced by [`encode`].
///
/// `size_hint` is the decoded length the caller expects (the frame header's
/// original length). It only sizes the output reservation — clamped to what
/// `payload` could possibly expand to, so a hostile header cannot force a
/// large allocation — and never changes what is decoded: a wrong hint costs
/// a reallocation, not an error.
///
/// # Errors
///
/// Returns [`DecompressError::Corrupt`] on truncated sequences, zero
/// distances, or back-references past the start of the output.
pub fn decode(payload: &[u8], size_hint: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    decode_into(payload, size_hint, &mut out)?;
    Ok(out)
}

/// Like [`decode`], but appends the decoded bytes to `out`; what `out`
/// already holds is neither read nor reachable by a back-reference. On
/// error `out` may hold a partial decode past its original length.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_into(
    payload: &[u8],
    size_hint: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecompressError> {
    // A short sequence (neither nibble extended) reads at most the token,
    // 14 literals and the distance, and writes at most 14 literals plus an
    // 18-byte match — with block copies, one block and then two more.
    const FAST_IN: usize = 1 + WIDE;
    const FAST_OUT: usize = 3 * WIDE;

    let reserve = size_hint.min(payload.len().saturating_mul(MAX_EXPANSION));
    out.reserve(reserve + WIDE);
    // The loop writes through `base` and tracks the logical length in `op`;
    // `out.len()` is only brought up to date when the buffer must grow and on
    // success. Invariant: `start <= op <= cap`, and `base..base+op` is
    // initialised. This frame's output begins at `start`: a match may reach
    // back `op - start` bytes and no further.
    let start = out.len();
    let mut base = out.as_mut_ptr();
    let mut cap = out.capacity();
    let mut op = start;
    // Makes room for `extra` more bytes at `op`, reallocating if needed.
    macro_rules! ensure {
        ($extra:expr) => {
            if cap - op < $extra {
                // SAFETY: the first `op` bytes are initialised and op <= cap.
                unsafe { out.set_len(op) };
                out.reserve($extra);
                base = out.as_mut_ptr();
                cap = out.capacity();
            }
        };
    }

    let n = payload.len();
    let ip = payload.as_ptr();
    let mut i = 0usize;
    while i < n {
        let token = payload[i];
        let lit_nib = (token >> 4) as usize;
        let match_nib = (token & 0x0F) as usize;
        if lit_nib != NIB_EXT && match_nib != NIB_EXT && n - i >= FAST_IN && cap - op >= FAST_OUT {
            // Short sequence with room to spare on both sides: no length
            // extensions to parse, and `FAST_IN` puts the end of the payload
            // past this sequence's distance, so a match must follow.
            // SAFETY: i + 17 <= n covers the 16-byte literal block read at
            // i + 1 and the distance at i + 1 + lit_nib (<= i + 15);
            // op + 48 <= cap covers the literal block written at op and the
            // two match blocks written from op + lit_nib (<= op + 14). The
            // match copy's `dist <= op - start` is checked just before it.
            unsafe {
                copy16(ip.add(i + 1), base.add(op));
                op += lit_nib;
                i += 1 + lit_nib;
                let dist = u16::from_le(ip.add(i).cast::<u16>().read_unaligned()) as usize;
                i += 2;
                if dist == 0 {
                    return Err(DecompressError::Corrupt("match distance of zero"));
                }
                if dist > op - start {
                    return Err(DecompressError::Corrupt("match distance before start"));
                }
                let len = match_nib + MIN_MATCH;
                copy_match(base, op, dist, len);
                op += len;
            }
            continue;
        }

        i += 1;
        let mut lit_len = lit_nib;
        if lit_len == NIB_EXT {
            loop {
                let b = *payload
                    .get(i)
                    .ok_or(DecompressError::Corrupt("truncated literal length"))?;
                i += 1;
                lit_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if lit_len > n - i {
            return Err(DecompressError::Corrupt("truncated literal run"));
        }
        ensure!(lit_len);
        // SAFETY: i + lit_len <= n was just checked; `ensure` made
        // op + lit_len <= cap; payload and output never alias.
        unsafe { std::ptr::copy_nonoverlapping(ip.add(i), base.add(op), lit_len) };
        op += lit_len;
        i += lit_len;
        if i == n {
            // Terminating sequence: literals only.
            break;
        }
        if n - i < 2 {
            return Err(DecompressError::Corrupt("truncated match token"));
        }
        let dist = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
        i += 2;
        let mut len = match_nib + MIN_MATCH;
        if match_nib == NIB_EXT {
            let b = *payload
                .get(i)
                .ok_or(DecompressError::Corrupt("truncated match length"))?;
            i += 1;
            len += b as usize;
        }
        if dist == 0 {
            return Err(DecompressError::Corrupt("match distance of zero"));
        }
        if dist > op - start {
            return Err(DecompressError::Corrupt("match distance before start"));
        }
        debug_assert!(len <= MAX_DECODED_MATCH);
        ensure!(len + WIDE);
        // SAFETY: 1 <= dist <= op - start checked above; `ensure` made
        // op + len + WIDE <= cap.
        unsafe { copy_match(base, op, dist, len) };
        op += len;
    }
    // SAFETY: the first `op` bytes are initialised and op <= cap.
    unsafe { out.set_len(op) };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes with an exact-or-absent size hint, as `decompress` would.
    fn decode(payload: &[u8]) -> Result<Vec<u8>, DecompressError> {
        super::decode(payload, usize::MAX)
    }

    /// The safe, index-checked decoder this module shipped before the
    /// wide-copy one: the differential oracle.
    fn decode_reference(payload: &[u8]) -> Result<Vec<u8>, DecompressError> {
        let mut out = Vec::with_capacity(payload.len() * 2);
        let mut i = 0usize;
        while i < payload.len() {
            let token = payload[i];
            i += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == NIB_EXT {
                loop {
                    let b = *payload
                        .get(i)
                        .ok_or(DecompressError::Corrupt("truncated literal length"))?;
                    i += 1;
                    lit_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            if i + lit_len > payload.len() {
                return Err(DecompressError::Corrupt("truncated literal run"));
            }
            out.extend_from_slice(&payload[i..i + lit_len]);
            i += lit_len;
            if i == payload.len() {
                // Terminating sequence: literals only.
                break;
            }
            if i + 2 > payload.len() {
                return Err(DecompressError::Corrupt("truncated match token"));
            }
            let dist = u16::from_le_bytes([payload[i], payload[i + 1]]) as usize;
            i += 2;
            let mut len = (token & 0x0F) as usize + MIN_MATCH;
            if token & 0x0F == NIB_EXT as u8 {
                let b = *payload
                    .get(i)
                    .ok_or(DecompressError::Corrupt("truncated match length"))?;
                i += 1;
                len += b as usize;
            }
            if dist == 0 {
                return Err(DecompressError::Corrupt("match distance of zero"));
            }
            if dist > out.len() {
                return Err(DecompressError::Corrupt("match distance before start"));
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping copies are the LZ idiom for runs: byte-wise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        Ok(out)
    }

    /// Mixtures of the shapes the encoder meets, so payloads hold every
    /// sequence kind.
    fn shaped_input(kinds: &[u8], seed: u64, chunk: usize) -> Vec<u8> {
        kinds
            .iter()
            .zip(seed..)
            .flat_map(|(&kind, seed)| crate::shaped_bytes(kind, seed, chunk))
            .collect()
    }

    proptest! {
        // The decoder writes through raw pointers: run more cases than the
        // default 64.
        #![proptest_config(ProptestConfig::with_cases(512))]

        // On honest payloads and on truncated, bit-flipped and byte-spliced
        // ones, the wide-copy decoder and the safe oracle agree exactly —
        // same bytes or same error — whatever the size hint says.
        #[test]
        fn wide_decoder_matches_the_safe_oracle_on_hostile_payloads(
            kinds in proptest::collection::vec(any::<u8>(), 1..6),
            seed in any::<u64>(),
            chunk in 1usize..1500,
            cut in any::<u32>(),
            flips in proptest::collection::vec(any::<u32>(), 1..4),
            splice_at in any::<u32>(),
            splice in proptest::collection::vec(any::<u8>(), 1..24),
            hint in prop_oneof![Just(0usize), Just(1usize), Just(u32::MAX as usize), 0usize..20_000],
        ) {
            let data = shaped_input(&kinds, seed, chunk);
            let payload = encode(&data);
            prop_assert_eq!(super::decode(&payload, data.len()).unwrap(), &data[..]);
            prop_assert_eq!(super::decode(&payload, hint).unwrap(), &data[..]);

            let mut mutants = vec![payload[..cut as usize % payload.len()].to_vec()];
            let mut flipped = payload.clone();
            for flip in &flips {
                let bit = *flip as usize % (payload.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            mutants.push(flipped);
            let at = splice_at as usize % (payload.len() + 1);
            let mut inserted = payload.clone();
            inserted.splice(at..at, splice.iter().copied());
            mutants.push(inserted);
            let mut overwritten = payload.clone();
            let end = (at + splice.len()).min(payload.len());
            overwritten[at..end].copy_from_slice(&splice[..end - at]);
            mutants.push(overwritten);

            for mutant in &mutants {
                let expected = decode_reference(mutant);
                prop_assert_eq!(&super::decode(mutant, data.len()), &expected);
                prop_assert_eq!(&super::decode(mutant, hint), &expected);
                // Appended behind other bytes: the same decode, and a
                // back-reference cannot reach the bytes already there.
                let mut appended = splice.clone();
                let result = decode_into(mutant, hint, &mut appended);
                prop_assert_eq!(&appended[..splice.len()], &splice[..]);
                match expected {
                    Ok(bytes) => {
                        prop_assert_eq!(result, Ok(()));
                        prop_assert_eq!(&appended[splice.len()..], &bytes[..]);
                    }
                    Err(e) => prop_assert_eq!(result, Err(e)),
                }
            }
        }

        #[test]
        fn wide_decoder_is_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            hint in 0usize..5000,
        ) {
            prop_assert_eq!(super::decode(&bytes, hint), decode_reference(&bytes));
        }
    }

    #[test]
    fn hostile_size_hint_reserves_no_more_than_the_payload_could_expand_to() {
        let data = b"abcdabcdabcdabcd some literals then abcdabcd".repeat(8);
        let payload = encode(&data);
        let decoded = super::decode(&payload, u32::MAX as usize).unwrap();
        assert_eq!(decoded, data);
        assert!(
            decoded.capacity() <= payload.len() * MAX_EXPANSION + WIDE,
            "reserved {} for a {}-byte payload",
            decoded.capacity(),
            payload.len()
        );
        // The bound is the format's: the densest sequence there is.
        // One literal, then token + distance + extension standing for 274.
        let run = [0x1Fu8, b'x', 1, 0, 255];
        assert_eq!(
            super::decode(&run, 0).unwrap(),
            vec![b'x'; 1 + MAX_DECODED_MATCH]
        );
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_literals_round_trip() {
        let data = b"abc";
        assert_eq!(decode(&encode(data)).unwrap(), data);
    }

    #[test]
    fn repetitive_round_trip_and_shrinks() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd".repeat(16);
        let enc = encode(&data);
        assert!(enc.len() < data.len() / 4, "encoded {} bytes", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." forces dist=1, len>1 overlapping copies.
        let data = vec![b'a'; 1000];
        let enc = encode(&data);
        assert!(enc.len() < 32);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn long_literal_run_round_trips() {
        // An incompressible stretch longer than a nibble plus several
        // continuation bytes exercises the extended literal length.
        let data: Vec<u8> = (0..2000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn long_input_crossing_window() {
        let unit: Vec<u8> = (0..97u8).collect();
        let data: Vec<u8> = unit.iter().cycle().take(100_000).copied().collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn structured_records_compress_well() {
        // The offload segments' dominant shape: small integers with long
        // zero runs (see PayloadKind::Binary). The single-candidate matcher
        // must still find the zero runs and the repeated structure.
        let mut data = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        while data.len() < 64 * 1024 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.extend_from_slice(&(x as u32).to_le_bytes());
            data.extend_from_slice(&[0u8; 12]);
        }
        let enc = encode(&data);
        assert!(
            enc.len() < data.len() / 2,
            "record-structured data must at least halve, got {} of {}",
            enc.len(),
            data.len()
        );
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn max_length_matches_round_trip() {
        // Long runs produce MAX_MATCH-length matches with the extension byte.
        let data = vec![0xAAu8; 5000];
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn decode_rejects_zero_distance() {
        // token: no literals, match len 4; distance 0.
        let payload = [0x00u8, 0, 0];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_distance_past_start() {
        let payload = [0x00u8, 5, 0];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn decode_rejects_truncated_match() {
        let payload = [0x00u8, 1];
        assert!(decode(&payload).is_err());
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let data = b"abcdabcdabcdabcd some literals then abcdabcd".repeat(8);
        let mut out = b"PREFIX".to_vec();
        encode_into(&data, &mut out);
        assert_eq!(&out[..6], b"PREFIX");
        assert_eq!(&out[6..], &encode(&data)[..]);
    }

    #[test]
    fn decode_rejects_truncated_literals() {
        // token promises 3 literals, payload has 1.
        let payload = [0x30u8, 7];
        assert!(decode(&payload).is_err());
    }
}
