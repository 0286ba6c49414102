//! I/O records and deterministic payload synthesis.

use serde::{Deserialize, Serialize};

/// The operation of one trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Read `pages` logical pages starting at `lpa`.
    Read,
    /// Write `pages` logical pages starting at `lpa`.
    Write,
    /// Trim `pages` logical pages starting at `lpa`.
    Trim,
}

/// What kind of content a write carries — this determines entropy and
/// compressibility, which both the Figure 2 compression series and the
/// entropy-based detectors depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PayloadKind {
    /// All-zero pages (sparse files, freshly formatted space).
    Zero,
    /// Text-like, highly compressible (~4:1 with LZ77).
    Text,
    /// Binary-like, moderately compressible (~1.7:1).
    Binary,
    /// Incompressible high-entropy data (media, or ciphertext).
    Random,
}

/// One logical I/O request in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRecord {
    /// Simulated arrival time.
    pub at_ns: u64,
    /// Operation.
    pub op: IoOp,
    /// First logical page touched.
    pub lpa: u64,
    /// Number of consecutive pages.
    pub pages: u32,
    /// Seed for deterministic payload synthesis (writes only).
    pub payload_seed: u64,
    /// Payload content class (writes only).
    pub payload: PayloadKind,
}

impl IoRecord {
    /// Convenience constructor for a single-page write.
    pub fn write(at_ns: u64, lpa: u64, payload: PayloadKind, seed: u64) -> Self {
        IoRecord {
            at_ns,
            op: IoOp::Write,
            lpa,
            pages: 1,
            payload_seed: seed,
            payload,
        }
    }

    /// Convenience constructor for a single-page read.
    pub fn read(at_ns: u64, lpa: u64) -> Self {
        IoRecord {
            at_ns,
            op: IoOp::Read,
            lpa,
            pages: 1,
            payload_seed: 0,
            payload: PayloadKind::Zero,
        }
    }

    /// Convenience constructor for a single-page trim.
    pub fn trim(at_ns: u64, lpa: u64) -> Self {
        IoRecord {
            at_ns,
            op: IoOp::Trim,
            lpa,
            pages: 1,
            payload_seed: 0,
            payload: PayloadKind::Zero,
        }
    }
}

/// The text kind's vocabulary, each word with its trailing space packed
/// little-endian into a `u64` beside its length (word plus space).
const TEXT_WORDS: [(u64, usize); 15] = [
    pack_word("storage"),
    pack_word("the"),
    pack_word("ransom"),
    pack_word("page"),
    pack_word("and"),
    pack_word("flash"),
    pack_word("data"),
    pack_word("of"),
    pack_word("block"),
    pack_word("request"),
    pack_word("to"),
    pack_word("file"),
    pack_word("system"),
    pack_word("with"),
    pack_word("log"),
];

/// Packs `word` and one space into the low bytes of a `u64` (first byte
/// lowest). A word plus its space must fit in eight bytes.
const fn pack_word(word: &str) -> (u64, usize) {
    let bytes = word.as_bytes();
    assert!(
        bytes.len() < 8,
        "a text word plus its space fits in 8 bytes"
    );
    let mut packed = (b' ' as u64) << (8 * bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        packed |= (bytes[i] as u64) << (8 * i);
        i += 1;
    }
    (packed, bytes.len() + 1)
}

/// Pre-mixes a page seed so adjacent seeds yield unrelated streams.
fn premix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministically synthesizes one page of content of the given kind.
///
/// The same `(kind, seed, page_size)` always yields identical bytes, so
/// recovery checks can re-derive expected contents without storing them.
pub fn synthesize_page(kind: PayloadKind, seed: u64, page_size: usize) -> Vec<u8> {
    let seed = premix(seed);
    match kind {
        PayloadKind::Zero => vec![0u8; page_size],
        PayloadKind::Text => {
            // Repeating word-like fragments with seed-dependent variation:
            // entropy ~2-4 bits/byte, compresses well. Each word goes in with
            // one 8-byte store of its packed bytes; the store's tail past the
            // word is overwritten by the next word or truncated away.
            let mut out = vec![0u8; page_size + 8];
            let mut len = 0usize;
            let mut x = seed | 1;
            while len < page_size {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (word, word_len) = TEXT_WORDS[(x >> 33) as usize % TEXT_WORDS.len()];
                out[len..len + 8].copy_from_slice(&word.to_le_bytes());
                len += word_len;
            }
            out.truncate(page_size);
            out
        }
        PayloadKind::Binary => {
            // Structured records: small integers with long zero runs,
            // moderate compressibility.
            let mut out = Vec::with_capacity(page_size);
            let mut x = seed | 1;
            while out.len() < page_size {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.extend_from_slice(&(x as u32).to_le_bytes());
                out.extend_from_slice(&[0u8; 12]);
            }
            out.truncate(page_size);
            out
        }
        PayloadKind::Random => {
            // SplitMix-style high-entropy stream: incompressible, entropy
            // ~8 bits/byte — statistically like ciphertext.
            let mut out = Vec::with_capacity(page_size);
            let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
            while out.len() < page_size {
                let mut z = x;
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                out.extend_from_slice(&z.to_le_bytes());
            }
            out.truncate(page_size);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The text kind's byte-at-a-time body before the packed-word writer,
    /// kept as its oracle. `seed` is the pre-mixed seed.
    fn text_page_reference(seed: u64, page_size: usize) -> Vec<u8> {
        const WORDS: &[&str] = &[
            "storage", "the", "ransom", "page", "and", "flash", "data", "of", "block", "request",
            "to", "file", "system", "with", "log",
        ];
        let mut out = Vec::with_capacity(page_size);
        let mut x = seed | 1;
        while out.len() < page_size {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = WORDS[(x >> 33) as usize % WORDS.len()];
            out.extend_from_slice(w.as_bytes());
            out.push(b' ');
        }
        out.truncate(page_size);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn packed_word_text_is_the_byte_at_a_time_text(
            seed in any::<u64>(),
            size in prop_oneof![0usize..64, 4080usize..4112, 0usize..20_000],
        ) {
            prop_assert_eq!(
                synthesize_page(PayloadKind::Text, seed, size),
                text_page_reference(premix(seed), size)
            );
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        for kind in [
            PayloadKind::Zero,
            PayloadKind::Text,
            PayloadKind::Binary,
            PayloadKind::Random,
        ] {
            assert_eq!(
                synthesize_page(kind, 7, 4096),
                synthesize_page(kind, 7, 4096),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn seeds_vary_content() {
        assert_ne!(
            synthesize_page(PayloadKind::Text, 1, 4096),
            synthesize_page(PayloadKind::Text, 2, 4096)
        );
        assert_ne!(
            synthesize_page(PayloadKind::Random, 1, 4096),
            synthesize_page(PayloadKind::Random, 2, 4096)
        );
    }

    #[test]
    fn exact_page_size() {
        for kind in [PayloadKind::Text, PayloadKind::Binary, PayloadKind::Random] {
            assert_eq!(synthesize_page(kind, 3, 4096).len(), 4096);
            assert_eq!(synthesize_page(kind, 3, 512).len(), 512);
        }
    }

    #[test]
    fn entropy_ordering_matches_kinds() {
        let page = |k| synthesize_page(k, 11, 4096);
        let h = |k| {
            let p = page(k);
            // Shannon entropy without depending on rssd-compress.
            let mut counts = [0u64; 256];
            for &b in &p {
                counts[b as usize] += 1;
            }
            let n = p.len() as f64;
            counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let pr = c as f64 / n;
                    -pr * pr.log2()
                })
                .sum::<f64>()
        };
        assert_eq!(h(PayloadKind::Zero), 0.0);
        assert!(h(PayloadKind::Text) < 5.0);
        assert!(h(PayloadKind::Random) > 7.5);
        assert!(h(PayloadKind::Binary) < h(PayloadKind::Random));
    }

    #[test]
    fn record_constructors() {
        let w = IoRecord::write(10, 5, PayloadKind::Text, 1);
        assert_eq!(w.op, IoOp::Write);
        assert_eq!(w.pages, 1);
        let r = IoRecord::read(10, 5);
        assert_eq!(r.op, IoOp::Read);
        let t = IoRecord::trim(10, 5);
        assert_eq!(t.op, IoOp::Trim);
    }
}
