//! Shannon-entropy estimation.
//!
//! Encrypted data is statistically indistinguishable from uniform random
//! bytes, so its byte entropy sits near 8 bits/byte while typical user file
//! data sits well below. RSSD's offloaded detectors and its offload engine's
//! codec chooser both use this estimator.

use std::sync::OnceLock;

/// Computes the Shannon entropy of `data` in bits per byte (`0.0..=8.0`).
///
/// Returns `0.0` for empty input.
///
/// # Examples
///
/// ```
/// use rssd_compress::shannon_entropy;
///
/// assert_eq!(shannon_entropy(&[0u8; 1024]), 0.0);
/// let uniform: Vec<u8> = (0..=255).collect();
/// assert!((shannon_entropy(&uniform) - 8.0).abs() < 1e-9);
/// ```
pub fn shannon_entropy(data: &[u8]) -> f64 {
    // Four interleaved histograms: a run of equal bytes (a zero page is one
    // 4 096-long run) would otherwise serialise every increment on one
    // counter's store-to-load dependency.
    let mut lanes = [[0u64; 256]; 4];
    let mut quads = data.chunks_exact(4);
    for quad in &mut quads {
        lanes[0][quad[0] as usize] += 1;
        lanes[1][quad[1] as usize] += 1;
        lanes[2][quad[2] as usize] += 1;
        lanes[3][quad[3] as usize] += 1;
    }
    for &b in quads.remainder() {
        lanes[0][b as usize] += 1;
    }
    let mut counts = [0u64; 256];
    for (b, count) in counts.iter_mut().enumerate() {
        *count = lanes[0][b] + lanes[1][b] + lanes[2][b] + lanes[3][b];
    }
    entropy_of_counts(&counts, data.len() as u64)
}

/// The sample size whose entropy terms are tabulated: one flash page, the
/// unit the write path scores on every host write.
const PAGE_SAMPLES: u64 = 4096;

/// `p * log2(p)` for `p = c / 4096`, `c` in `0..=4096` (entry 0 is `0.0`, the
/// limit, so absent byte values subtract nothing). Each entry is the very
/// expression [`entropy_of_counts`] evaluates when it has no table, so a
/// lookup is bit-identical to the formula.
fn page_terms() -> &'static [f64] {
    static TERMS: OnceLock<Vec<f64>> = OnceLock::new();
    TERMS.get_or_init(|| {
        let n = PAGE_SAMPLES as f64;
        (0..=PAGE_SAMPLES)
            .map(|c| if c == 0 { 0.0 } else { term(c as f64 / n) })
            .collect()
    })
}

#[inline]
fn term(p: f64) -> f64 {
    p * p.log2()
}

/// Shannon entropy (bits per sample) of a 256-bin histogram holding `total`
/// samples; `0.0` when empty. Terms are subtracted in byte-value order. A
/// page-sized histogram looks its terms up instead of calling `log2` 256
/// times, and any other computes each distinct count's term once — same
/// terms, same order, same bits.
pub(crate) fn entropy_of_counts<C: Copy + Into<u64>>(counts: &[C; 256], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut entropy = 0.0;
    if total == PAGE_SAMPLES {
        let terms = page_terms();
        for &c in counts {
            // A histogram of `total` samples has no bin above `total`; the
            // slice index checks that rather than trusting it.
            entropy -= terms[c.into() as usize];
        }
    } else {
        // Bins often share a count (ciphertext spreads its samples evenly):
        // a direct-mapped memo keyed by the count computes each distinct
        // count's term once, and a collision only recomputes it.
        let n = total as f64;
        let mut memo = [(0u64, 0.0f64); 256];
        for &c in counts {
            let c: u64 = c.into();
            if c > 0 {
                let slot = &mut memo[c as usize % 256];
                if slot.0 != c {
                    *slot = (c, term(c as f64 / n));
                }
                entropy -= slot.1;
            }
        }
    }
    entropy
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-table body of `shannon_entropy`, kept as the bit-exactness
    /// oracle: one histogram, 256 `log2` calls.
    fn shannon_entropy_reference(data: &[u8]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut counts = [0u64; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let n = data.len() as f64;
        let mut entropy = 0.0;
        for &c in &counts {
            if c > 0 {
                let p = c as f64 / n;
                entropy -= p * p.log2();
            }
        }
        entropy
    }

    #[test]
    fn every_table_term_is_the_formula_bit_for_bit() {
        let terms = page_terms();
        assert_eq!(terms.len(), 4097);
        assert_eq!(terms[0].to_bits(), 0.0f64.to_bits());
        for c in 1..=4096u64 {
            let p = c as f64 / 4096.0;
            assert_eq!(
                terms[c as usize].to_bits(),
                (p * p.log2()).to_bits(),
                "c = {c}"
            );
        }
    }

    proptest! {
        #[test]
        fn table_driven_entropy_is_bit_identical_to_the_reference(
            kind in any::<u8>(),
            seed in any::<u64>(),
            odd_len in 0usize..9000,
        ) {
            for len in [4096, odd_len] {
                let page = crate::shaped_bytes(kind, seed, len);
                prop_assert_eq!(
                    shannon_entropy(&page).to_bits(),
                    shannon_entropy_reference(&page).to_bits(),
                    "kind {} len {}", kind % 4, len
                );
            }
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
    }

    #[test]
    fn constant_is_zero() {
        assert_eq!(shannon_entropy(&[42u8; 4096]), 0.0);
    }

    #[test]
    fn uniform_is_eight_bits() {
        let data: Vec<u8> = (0..4096).map(|i| (i % 256) as u8).collect();
        assert!((shannon_entropy(&data) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn two_symbols_is_one_bit() {
        let data: Vec<u8> = (0..1024).map(|i| (i % 2) as u8).collect();
        assert!((shannon_entropy(&data) - 1.0).abs() < 1e-9);
    }
}
