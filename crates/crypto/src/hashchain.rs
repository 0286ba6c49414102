//! The trusted evidence chain primitive.
//!
//! RSSD's post-attack analysis depends on a *trusted evidence chain*: every
//! storage operation the device receives is appended, in arrival order, to a
//! chain of HMAC tags computed inside the (hardware-isolated) controller:
//!
//! ```text
//! tag_0 = HMAC(k, ZERO       || record_0)
//! tag_i = HMAC(k, tag_{i-1}  || record_i)
//! ```
//!
//! A verifier holding `k` and the ordered records can recompute the chain and
//! detect any insertion, deletion, reordering, or mutation — which is what
//! makes the reconstructed I/O history admissible for forensics.

use crate::hmac::HmacSha256;
use crate::sha256::Digest;
use serde::{Deserialize, Serialize};

/// One link of the evidence chain: a sequence number plus the chained tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainLink {
    /// Zero-based position of the record in the chain.
    pub seq: u64,
    /// `HMAC(k, prev_tag || record)`.
    pub tag: Digest,
}

/// Errors from [`HashChain::verify_sequence`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainVerifyError {
    /// The record at `seq` does not reproduce the recorded tag — it was
    /// mutated, or an earlier record was inserted/removed/reordered.
    TagMismatch {
        /// Sequence number of the first non-verifying link.
        seq: u64,
    },
    /// The number of supplied records does not match the number of links.
    LengthMismatch {
        /// Links expected.
        expected: usize,
        /// Records supplied.
        actual: usize,
    },
}

impl std::fmt::Display for ChainVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainVerifyError::TagMismatch { seq } => {
                write!(f, "evidence chain tag mismatch at sequence {seq}")
            }
            ChainVerifyError::LengthMismatch { expected, actual } => write!(
                f,
                "evidence chain length mismatch: {expected} links but {actual} records"
            ),
        }
    }
}

impl std::error::Error for ChainVerifyError {}

/// An appendable chained-HMAC evidence chain.
///
/// # Examples
///
/// ```
/// use rssd_crypto::hashchain::HashChain;
///
/// let mut chain = HashChain::new(b"device-evidence-key");
/// let l0 = chain.append(b"write lba=4 len=8");
/// let l1 = chain.append(b"trim  lba=4 len=8");
/// assert_eq!(l0.seq, 0);
/// assert_eq!(l1.seq, 1);
///
/// let records: Vec<&[u8]> = vec![b"write lba=4 len=8", b"trim  lba=4 len=8"];
/// HashChain::verify_sequence(b"device-evidence-key", &records, &[l0, l1]).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct HashChain {
    /// HMAC context keyed once at construction and cloned per link, so a
    /// link costs the message and digest compressions only — not the two
    /// key-pad blocks again.
    mac: HmacSha256,
    head: Digest,
    next_seq: u64,
}

impl HashChain {
    /// Creates an empty chain keyed with `key`, with the all-zero genesis tag.
    pub fn new(key: &[u8]) -> Self {
        Self::resume(key, Digest::ZERO, 0)
    }

    /// Resumes a chain from a known head (used when the local log wraps and
    /// earlier links have been offloaded remotely).
    pub fn resume(key: &[u8], head: Digest, next_seq: u64) -> Self {
        HashChain {
            mac: HmacSha256::new(key),
            head,
            next_seq,
        }
    }

    /// Appends a record, returning the new link.
    pub fn append(&mut self, record: &[u8]) -> ChainLink {
        let tag = Self::keyed_link_tag(&self.mac, &self.head, record);
        let link = ChainLink {
            seq: self.next_seq,
            tag,
        };
        self.head = tag;
        self.next_seq += 1;
        link
    }

    /// Current chain head (tag of the most recent record, or `ZERO` if empty).
    pub fn head(&self) -> Digest {
        self.head
    }

    /// Sequence number the next appended record will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of records appended so far (equals [`Self::next_seq`] for chains
    /// started with [`Self::new`]).
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// Returns `true` if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Computes a single link tag.
    pub fn link_tag(key: &[u8], prev: &Digest, record: &[u8]) -> Digest {
        Self::keyed_link_tag(&HmacSha256::new(key), prev, record)
    }

    /// One link under an already keyed (message-free) HMAC context.
    fn keyed_link_tag(keyed: &HmacSha256, prev: &Digest, record: &[u8]) -> Digest {
        let mut mac = keyed.clone();
        mac.update(prev.as_bytes());
        mac.update(record);
        mac.finalize()
    }

    /// Verifies that `records`, starting from the zero genesis tag, reproduce
    /// `links` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ChainVerifyError::LengthMismatch`] when counts differ, or
    /// [`ChainVerifyError::TagMismatch`] identifying the first bad link.
    pub fn verify_sequence<R: AsRef<[u8]>>(
        key: &[u8],
        records: &[R],
        links: &[ChainLink],
    ) -> Result<(), ChainVerifyError> {
        Self::verify_from(key, Digest::ZERO, records, links)
    }

    /// Verifies a chain continuation starting from an arbitrary prior head
    /// (used for verifying one offloaded segment against the previous
    /// segment's final tag).
    ///
    /// # Errors
    ///
    /// Same as [`Self::verify_sequence`].
    pub fn verify_from<R: AsRef<[u8]>>(
        key: &[u8],
        mut head: Digest,
        records: &[R],
        links: &[ChainLink],
    ) -> Result<(), ChainVerifyError> {
        if records.len() != links.len() {
            return Err(ChainVerifyError::LengthMismatch {
                expected: links.len(),
                actual: records.len(),
            });
        }
        let keyed = HmacSha256::new(key);
        for (record, link) in records.iter().zip(links) {
            let expected = Self::keyed_link_tag(&keyed, &head, record.as_ref());
            if expected != link.tag {
                return Err(ChainVerifyError::TagMismatch { seq: link.seq });
            }
            head = expected;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(records: &[&[u8]]) -> (HashChain, Vec<ChainLink>) {
        let mut chain = HashChain::new(b"k");
        let links = records.iter().map(|r| chain.append(r)).collect();
        (chain, links)
    }

    #[test]
    fn empty_chain_has_zero_head() {
        let chain = HashChain::new(b"k");
        assert_eq!(chain.head(), Digest::ZERO);
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
    }

    #[test]
    fn append_advances_seq_and_head() {
        let (chain, links) = build(&[b"a", b"b", b"c"]);
        assert_eq!(links[0].seq, 0);
        assert_eq!(links[2].seq, 2);
        assert_eq!(chain.next_seq(), 3);
        assert_eq!(chain.head(), links[2].tag);
        assert_ne!(links[0].tag, links[1].tag);
    }

    #[test]
    fn verify_accepts_honest_sequence() {
        let (_, links) = build(&[b"a", b"b", b"c"]);
        let records: Vec<&[u8]> = vec![b"a", b"b", b"c"];
        assert!(HashChain::verify_sequence(b"k", &records, &links).is_ok());
    }

    #[test]
    fn verify_detects_mutation() {
        let (_, links) = build(&[b"a", b"b", b"c"]);
        let records: Vec<&[u8]> = vec![b"a", b"X", b"c"];
        assert_eq!(
            HashChain::verify_sequence(b"k", &records, &links),
            Err(ChainVerifyError::TagMismatch { seq: 1 })
        );
    }

    #[test]
    fn verify_detects_reordering() {
        let (_, mut links) = build(&[b"a", b"b", b"c"]);
        links.swap(0, 1);
        let records: Vec<&[u8]> = vec![b"b", b"a", b"c"];
        assert!(HashChain::verify_sequence(b"k", &records, &links).is_err());
    }

    #[test]
    fn verify_detects_deletion() {
        let (_, links) = build(&[b"a", b"b", b"c"]);
        let records: Vec<&[u8]> = vec![b"a", b"c"];
        assert_eq!(
            HashChain::verify_sequence(b"k", &records, &links[..2]),
            Err(ChainVerifyError::TagMismatch { seq: 1 })
        );
    }

    #[test]
    fn verify_detects_length_mismatch() {
        let (_, links) = build(&[b"a", b"b"]);
        let records: Vec<&[u8]> = vec![b"a"];
        assert_eq!(
            HashChain::verify_sequence(b"k", &records, &links),
            Err(ChainVerifyError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn wrong_key_fails_verification() {
        let (_, links) = build(&[b"a"]);
        let records: Vec<&[u8]> = vec![b"a"];
        assert!(HashChain::verify_sequence(b"other", &records, &links).is_err());
    }

    #[test]
    fn resume_continues_chain() {
        let mut chain = HashChain::new(b"k");
        let l0 = chain.append(b"a");
        let l1_expected_head = chain.head();

        let mut resumed = HashChain::resume(b"k", l1_expected_head, chain.next_seq());
        let l1 = resumed.append(b"b");
        assert_eq!(l1.seq, 1);

        // Segment verification from the prior head.
        let records: Vec<&[u8]> = vec![b"b"];
        assert!(HashChain::verify_from(b"k", l0.tag, &records, &[l1]).is_ok());
    }

    #[test]
    fn chain_error_display() {
        let e = ChainVerifyError::TagMismatch { seq: 7 };
        assert!(e.to_string().contains("sequence 7"));
    }

    proptest! {
        // The keyed-midstate links are plain RFC 2104 HMACs over
        // `prev || record`, link by link, on both the append and the
        // verify side.
        #[test]
        fn midstate_links_equal_one_shot_hmac(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..150),
                1..12,
            ),
            resume_at in 0usize..12,
        ) {
            let mut chain = HashChain::new(&key);
            let mut prev = Digest::ZERO;
            let mut links = Vec::new();
            for record in &records {
                let mut message = prev.as_bytes().to_vec();
                message.extend_from_slice(record);
                let link = chain.append(record);
                prop_assert_eq!(link.tag, HmacSha256::mac(&key, &message));
                prop_assert_eq!(link.tag, HashChain::link_tag(&key, &prev, record));
                prev = link.tag;
                links.push(link);
            }
            prop_assert!(HashChain::verify_sequence(&key, &records, &links).is_ok());
            let at = resume_at % records.len();
            let head = if at == 0 { Digest::ZERO } else { links[at - 1].tag };
            prop_assert!(HashChain::verify_from(&key, head, &records[at..], &links[at..]).is_ok());
            let mut bad = links.clone();
            bad[at].tag = Digest::ZERO;
            prop_assert_eq!(
                HashChain::verify_sequence(&key, &records, &bad),
                Err(ChainVerifyError::TagMismatch { seq: at as u64 })
            );
        }
    }
}
