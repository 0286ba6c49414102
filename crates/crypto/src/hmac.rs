//! RFC 2104 / FIPS 198-1 HMAC-SHA-256.
//!
//! HMAC tags authenticate offloaded log segments and form the heads of the
//! [`crate::hashchain::HashChain`] evidence chain.

use crate::sha256::{Digest, Sha256};

const BLOCK_SIZE: usize = 64;

/// Incremental HMAC-SHA-256.
///
/// Keying runs the two pad-block compressions once; a keyed context that has
/// absorbed no message yet can be cloned to MAC many messages under one key
/// without repeating them. The evidence chain keeps only the two resulting
/// midstates and resumes a context from them for each run it MACs.
///
/// # Examples
///
/// ```
/// use rssd_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    /// Hash state after the `key ^ ipad` block, absorbing the message.
    inner: Sha256,
    /// Hash state after the `key ^ opad` block, awaiting the inner digest.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length; keys longer than
    /// the block size are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_SIZE];
        let mut opad = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// A keyed context resumed from its [`Midstates`].
    pub(crate) fn from_midstates(keyed: &Midstates) -> Self {
        HmacSha256 {
            inner: Sha256::resume(keyed.inner, BLOCK_SIZE as u64),
            outer: Sha256::resume(keyed.outer, BLOCK_SIZE as u64),
        }
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalizes and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// One-shot MAC over `message` with `key`.
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Constant-time verification of `tag` over `message` with `key`.
    pub fn verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
        let expected = Self::mac(key, message);
        // Constant-time compare: accumulate XOR differences.
        let mut diff = 0u8;
        for (a, b) in expected.as_bytes().iter().zip(tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keyed hash states are key-equivalent: never print them.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

/// The chaining states after the `key ^ ipad` and `key ^ opad` blocks: all
/// an HMAC needs of its key, so as secret as the key. Deliberately not
/// `Debug`.
#[derive(Clone, Copy)]
pub(crate) struct Midstates {
    /// Where every message's inner hash starts.
    pub(crate) inner: [u32; 8],
    /// Where every inner digest's outer hash starts.
    pub(crate) outer: [u32; 8],
}

impl Midstates {
    /// `key`'s midstates: the two pad-block compressions, run once.
    pub(crate) fn new(key: &[u8]) -> Self {
        let keyed = HmacSha256::new(key);
        Midstates {
            inner: keyed.inner.midstate(),
            outer: keyed.outer.midstate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Digest;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            tag.to_string(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_string(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &msg);
        assert_eq!(
            tag.to_string(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25u8).collect();
        let msg = [0xcdu8; 50];
        let tag = HmacSha256::mac(&key, &msg);
        assert_eq!(
            tag.to_string(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_string(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = HmacSha256::mac(&key, msg);
        assert_eq!(
            tag.to_string(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"key");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(b"key", b"part one part two"));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = HmacSha256::mac(b"key-a", b"msg");
        assert!(!HmacSha256::verify(b"key-b", b"msg", &tag));
    }

    #[test]
    fn verify_rejects_zero_tag() {
        assert!(!HmacSha256::verify(b"key", b"msg", &Digest::ZERO));
    }
}
