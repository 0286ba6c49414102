//! Pins `synthesize_page` byte for byte.
//!
//! Every recovery check re-derives expected page contents from
//! `(kind, seed, page_size)`, and every sealed byte in the reproduction
//! starts as a synthesized page, so the synthesizer's output is a format.
//! `golden/synthesized_pages.txt` holds one SHA-256 per kind × seed × size,
//! captured from the byte-at-a-time synthesizer before the text kind got
//! its word-at-a-time writer; sizes straddle the word and page edges.

use rssd_crypto::Sha256;
use rssd_trace::{synthesize_page, PayloadKind};

const KINDS: [PayloadKind; 4] = [
    PayloadKind::Zero,
    PayloadKind::Text,
    PayloadKind::Binary,
    PayloadKind::Random,
];
const SEEDS: [u64; 3] = [0, 11, u64::MAX];
const SIZES: [usize; 7] = [0, 1, 7, 9, 4095, 4096, 4097];

#[test]
fn synthesized_pages_match_their_golden_digests() {
    let mut image = String::new();
    for kind in KINDS {
        for seed in SEEDS {
            for size in SIZES {
                let page = synthesize_page(kind, seed, size);
                assert_eq!(page.len(), size, "{kind:?} seed {seed} size {size}");
                image += &format!("{kind:?} {seed} {size} {}\n", Sha256::digest(&page));
            }
        }
    }
    assert_eq!(image, include_str!("golden/synthesized_pages.txt"));
}
