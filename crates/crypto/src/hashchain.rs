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

use crate::hmac::{HmacSha256, Midstates};
use crate::sha256::{compress_blocks, compress_pair, state_digest, Digest};
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
#[derive(Clone)]
pub struct HashChain {
    /// The key's HMAC midstates, computed once at construction: a link costs
    /// the message and digest compressions only — not the two key-pad
    /// blocks again.
    keyed: Midstates,
    head: Digest,
    next_seq: u64,
}

impl std::fmt::Debug for HashChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key-equivalent: only the public position prints.
        f.debug_struct("HashChain")
            .field("head", &self.head)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
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
            keyed: Midstates::new(key),
            head,
            next_seq,
        }
    }

    /// Appends a record, returning the new link.
    pub fn append(&mut self, record: &[u8]) -> ChainLink {
        let tag = link(&self.keyed, &self.head, record);
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
        link(&Midstates::new(key), prev, record)
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

    /// [`Self::verify_sequence`] from an arbitrary prior head. (A reader of
    /// sealed segments holds no links to compare: it recomputes the run
    /// with [`ChainKey`] and compares the head it reaches.)
    ///
    /// Links are recomputed two at a time: link `i + 1` is computed from
    /// link `i`'s *stored* tag, so the two are independent and share the
    /// SHA unit. Whenever link `i` verifies, that stored tag is the head
    /// the one-at-a-time walk would have reached; when it does not, link
    /// `i` is the one reported. Either way the answer is the serial walk's.
    ///
    /// # Errors
    ///
    /// Same as [`Self::verify_sequence`].
    fn verify_from<R: AsRef<[u8]>>(
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
        let keyed = Midstates::new(key);
        let check = |link: &ChainLink, tag: Digest| {
            if tag == link.tag {
                Ok(())
            } else {
                Err(ChainVerifyError::TagMismatch { seq: link.seq })
            }
        };
        let (record_pairs, link_pairs) = (records.chunks_exact(2), links.chunks_exact(2));
        let odd = record_pairs
            .remainder()
            .first()
            .zip(link_pairs.remainder().first());
        for (records, links) in record_pairs.zip(link_pairs) {
            let (first, second) = link_pair(
                &keyed,
                (&head, records[0].as_ref()),
                (&links[0].tag, records[1].as_ref()),
            );
            check(&links[0], first)?;
            check(&links[1], second)?;
            head = second;
        }
        if let Some((record, last)) = odd {
            check(last, link(&keyed, &head, record.as_ref()))?;
        }
        Ok(())
    }
}

/// The chain key as a verifier holds it: ready to recompute a run of links
/// from the head before it and say which head the run reaches. Nothing
/// between two stored heads needs storing — a verifier compares what the
/// run reaches with the head stored after it, and a reordered, dropped,
/// inserted or edited record reaches another head.
///
/// # Examples
///
/// ```
/// use rssd_crypto::{ChainKey, Digest, HashChain};
///
/// let mut chain = HashChain::new(b"device-evidence-key");
/// chain.append(b"write lba=4 len=8");
/// let after_first = chain.head();
/// chain.append(b"trim  lba=4 len=8");
///
/// let key = ChainKey::new(b"device-evidence-key");
/// let rest: [&[u8]; 1] = [b"trim  lba=4 len=8"];
/// assert_eq!(key.head_after(after_first, &rest), chain.head());
/// assert_ne!(key.head_after(Digest::ZERO, &rest), chain.head());
/// ```
#[derive(Clone)]
pub struct ChainKey {
    /// The key's HMAC midstates (key-equivalent).
    keyed: Midstates,
}

impl std::fmt::Debug for ChainKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChainKey(<sealed>)")
    }
}

impl ChainKey {
    /// The verifier of the chain keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        ChainKey {
            keyed: Midstates::new(key),
        }
    }

    /// The head the chain reaches from `head` over `records`, in order —
    /// what [`HashChain::append`] leaves after appending them to a chain at
    /// `head`.
    pub fn head_after<R: AsRef<[u8]>>(&self, head: Digest, records: &[R]) -> Digest {
        records.iter().fold(head, |head, record| {
            link(&self.keyed, &head, record.as_ref())
        })
    }

    /// [`Self::head_after`] of two independent runs, their links computed
    /// side by side — one link of each at a time, on interleaved
    /// compressions — while both last; the longer one finishes alone.
    pub fn heads_after<R: AsRef<[u8]>, S: AsRef<[u8]>>(
        &self,
        (mut a, a_records): (Digest, &[R]),
        (mut b, b_records): (Digest, &[S]),
    ) -> (Digest, Digest) {
        let both = a_records.len().min(b_records.len());
        for (a_record, b_record) in a_records.iter().zip(b_records) {
            (a, b) = link_pair(
                &self.keyed,
                (&a, a_record.as_ref()),
                (&b, b_record.as_ref()),
            );
        }
        (
            self.head_after(a, &a_records[both..]),
            self.head_after(b, &b_records[both..]),
        )
    }
}

/// The inner hash's message after the key block, `prev ‖ record`, already
/// padded: the buffer and how many of its blocks it fills — one or two
/// (the 36-byte chain image takes two). `None` when the record does not fit
/// in two.
fn padded_message(prev: &Digest, record: &[u8]) -> Option<([u8; 128], usize)> {
    let len = prev.as_bytes().len() + record.len();
    // The 0x80 marker and the 64-bit length follow the message.
    let blocks = (len + 9).div_ceil(64);
    if blocks > 2 {
        return None;
    }
    let mut message = [0u8; 128];
    message[..32].copy_from_slice(prev.as_bytes());
    message[32..len].copy_from_slice(record);
    message[len] = 0x80;
    // The key block ahead of the message counts toward its length.
    let bits = (64 + len as u64) * 8;
    message[blocks * 64 - 8..blocks * 64].copy_from_slice(&bits.to_be_bytes());
    Some((message, blocks))
}

/// The outer hash's one block after the key block: the inner digest spelled
/// by the final inner state, padded.
fn outer_block(inner: &[u32; 8]) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(state_digest(inner).as_bytes());
    block[32] = 0x80;
    block[56..].copy_from_slice(&((64 + 32) as u64 * 8).to_be_bytes());
    block
}

/// One link, `HMAC(k, prev ‖ record)`, from the key's midstates: the
/// message blocks on the stack and one outer block — three compressions
/// for a chain image. A longer record takes the incremental HMAC.
fn link(keyed: &Midstates, prev: &Digest, record: &[u8]) -> Digest {
    let Some((message, blocks)) = padded_message(prev, record) else {
        let mut mac = HmacSha256::from_midstates(keyed);
        mac.update(prev.as_bytes());
        mac.update(record);
        return mac.finalize();
    };
    let mut inner = keyed.inner;
    compress_blocks(&mut inner, &message[..blocks * 64]);
    let mut outer = keyed.outer;
    compress_blocks(&mut outer, &outer_block(&inner));
    state_digest(&outer)
}

/// Two independent links, each [`link`]'s tag, on interleaved compressions
/// when their messages fill the same number of blocks.
fn link_pair(keyed: &Midstates, a: (&Digest, &[u8]), b: (&Digest, &[u8])) -> (Digest, Digest) {
    match (padded_message(a.0, a.1), padded_message(b.0, b.1)) {
        (Some((message_a, blocks)), Some((message_b, blocks_b))) if blocks == blocks_b => {
            let (mut inner_a, mut inner_b) = (keyed.inner, keyed.inner);
            let run = blocks * 64;
            compress_pair(
                &mut inner_a,
                &message_a[..run],
                &mut inner_b,
                &message_b[..run],
            );
            let (mut outer_a, mut outer_b) = (keyed.outer, keyed.outer);
            compress_pair(
                &mut outer_a,
                &outer_block(&inner_a),
                &mut outer_b,
                &outer_block(&inner_b),
            );
            (state_digest(&outer_a), state_digest(&outer_b))
        }
        _ => (link(keyed, a.0, a.1), link(keyed, b.0, b.1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-link-at-a-time loop `verify_from` ran before links were
    /// paired, over a keyed HMAC context cloned per link: the oracle.
    fn verify_from_reference<R: AsRef<[u8]>>(
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
            let mut mac = keyed.clone();
            mac.update(head.as_bytes());
            mac.update(record.as_ref());
            let expected = mac.finalize();
            if expected != link.tag {
                return Err(ChainVerifyError::TagMismatch { seq: link.seq });
            }
            head = expected;
        }
        Ok(())
    }

    /// Record lengths on both sides of each layout boundary: one message
    /// block (≤ 23 bytes after the 32-byte head), two (24‥87), and the
    /// incremental fallback (≥ 88).
    const RECORD_LENS: [usize; 7] = [0, 23, 24, 36, 87, 88, 150];

    fn flipped(tag: Digest) -> Digest {
        let mut bytes = *tag.as_bytes();
        bytes[0] ^= 1;
        Digest::from_bytes(bytes)
    }

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
        // Two runs recomputed side by side reach each its own head — the one
        // `append` left — whatever their lengths and record layouts; a
        // damaged run reaches another.
        #[test]
        fn paired_runs_reach_the_heads_append_leaves(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            runs in proptest::collection::vec(
                (
                    any::<u8>(),
                    proptest::collection::vec((0..RECORD_LENS.len(), any::<u8>()), 0..9),
                ),
                2..3,
            ),
            damage_at in any::<usize>(),
        ) {
            let verifier = ChainKey::new(&key);
            let runs: Vec<(Digest, Vec<Vec<u8>>, Digest)> = runs
                .iter()
                .map(|(start, drawn)| {
                    let start = Digest::from_bytes([*start; 32]);
                    let records: Vec<Vec<u8>> = drawn
                        .iter()
                        .map(|&(len, fill)| (0..RECORD_LENS[len]).map(|i| fill ^ i as u8).collect())
                        .collect();
                    let mut chain = HashChain::resume(&key, start, 0);
                    for record in &records {
                        chain.append(record);
                    }
                    (start, records, chain.head())
                })
                .collect();
            let [(a, a_records, a_end), (b, b_records, b_end)] = &runs[..] else {
                unreachable!("two runs drawn")
            };
            prop_assert_eq!(verifier.head_after(*a, a_records), *a_end);
            prop_assert_eq!(verifier.head_after(*b, b_records), *b_end);
            prop_assert_eq!(verifier.heads_after((*a, a_records), (*b, b_records)), (*a_end, *b_end));
            prop_assert_eq!(verifier.heads_after((*b, b_records), (*a, a_records)), (*b_end, *a_end));
            if !a_records.is_empty() {
                let at = damage_at % a_records.len();
                let mut edited = a_records.clone();
                match edited[at].first_mut() {
                    Some(byte) => *byte ^= 1,
                    None => edited[at].push(0),
                }
                let (mut dropped, mut swapped) = (a_records.clone(), a_records.clone());
                dropped.remove(at);
                swapped.swap(at, (at + 1) % a_records.len());
                let mut damaged = vec![edited, dropped];
                if swapped != *a_records {
                    damaged.push(swapped);
                }
                for records in &damaged {
                    let (reached, other) = verifier.heads_after((*a, records), (*b, b_records));
                    prop_assert_ne!(reached, *a_end);
                    prop_assert_eq!(other, *b_end);
                }
            }
        }

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

        // Every damage at every position of chains that mix the one-block,
        // two-block and fallback layouts inside one pair: the paired
        // verifier returns exactly the serial oracle's `Result`.
        #[test]
        fn pair_verifier_answers_as_the_serial_oracle(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            start in proptest::option::of(any::<u8>()),
            drawn in proptest::collection::vec((0..RECORD_LENS.len(), any::<u8>()), 0..10),
        ) {
            let start = start.map_or(Digest::ZERO, |fill| Digest::from_bytes([fill; 32]));
            let records: Vec<Vec<u8>> = drawn
                .iter()
                .map(|&(len, fill)| (0..RECORD_LENS[len]).map(|i| fill ^ i as u8).collect())
                .collect();
            let first_seq = 100;
            let mut chain = HashChain::resume(&key, start, first_seq);
            let links: Vec<ChainLink> = records.iter().map(|r| chain.append(r)).collect();
            let n = records.len();

            let mut cases = vec![
                ("honest".to_string(), start, records.clone(), links.clone()),
                ("wrong start".to_string(), flipped(start), records.clone(), links.clone()),
            ];
            for at in 0..n {
                let mut mutated = records.clone();
                match mutated[at].first_mut() {
                    Some(byte) => *byte ^= 1,
                    None => mutated[at].push(0),
                }
                cases.push((format!("record {at} flipped"), start, mutated, links.clone()));
                let mut forged = links.clone();
                forged[at].tag = flipped(forged[at].tag);
                cases.push((format!("tag {at} flipped"), start, records.clone(), forged));
                let (mut fewer_records, mut fewer_links) = (records.clone(), links.clone());
                fewer_records.remove(at);
                fewer_links.remove(at);
                cases.push((format!("link {at} dropped"), start, fewer_records, fewer_links.clone()));
                cases.push((format!("links short at {at}"), start, records.clone(), fewer_links));
                if at + 1 < n {
                    let (mut swapped_records, mut swapped_links) = (records.clone(), links.clone());
                    swapped_records.swap(at, at + 1);
                    swapped_links.swap(at, at + 1);
                    cases.push((format!("links {at}, {} swapped", at + 1), start, swapped_records, swapped_links));
                    let mut both = links.clone();
                    both[at].tag = flipped(both[at].tag);
                    both[at + 1].tag = flipped(both[at + 1].tag);
                    cases.push((format!("tags {at}, {} flipped", at + 1), start, records.clone(), both));
                }
            }
            for (case, head, records, links) in &cases {
                prop_assert_eq!(
                    HashChain::verify_from(&key, *head, records, links),
                    verify_from_reference(&key, *head, records, links),
                    "{}", case
                );
            }
            prop_assert!(HashChain::verify_from(&key, start, &records, &links).is_ok());

            // A lone bad tag is named wherever it sits in its pair, and of
            // two bad tags the lower: the first of a pair, when both are.
            for at in 0..n {
                let seq = first_seq + at as u64;
                let mut forged = links.clone();
                forged[at].tag = flipped(forged[at].tag);
                prop_assert_eq!(
                    HashChain::verify_from(&key, start, &records, &forged),
                    Err(ChainVerifyError::TagMismatch { seq })
                );
                if at + 1 < n {
                    forged[at + 1].tag = flipped(forged[at + 1].tag);
                    prop_assert_eq!(
                        HashChain::verify_from(&key, start, &records, &forged),
                        Err(ChainVerifyError::TagMismatch { seq })
                    );
                }
            }
        }
    }
}
