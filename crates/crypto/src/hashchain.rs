//! The trusted evidence chain primitive.
//!
//! RSSD's post-attack analysis depends on a *trusted evidence chain*: every
//! storage operation the device receives is absorbed, in arrival order, into
//! a chain of HMAC heads computed inside the (hardware-isolated) controller.
//! The device seals its log in runs (a sealed segment is one), and a run's
//! head is one HMAC over the head before it and the run's records:
//!
//! ```text
//! head_0 = ZERO
//! head_s = HMAC(k, head_{s-1} || record_1 || ... || record_n)    (n ≥ 1)
//! ```
//!
//! A run of no records leaves the head where it was. Every record of a chain
//! has one length (the device's are 36-byte chain images), so the message
//! splits into `head_{s-1}` and records one way only; HMAC is a PRF, so
//! without `k` no other record list reaches the same head. A verifier
//! holding `k`, the head before a run and the run's records recomputes the
//! head after it and detects any insertion, deletion, reordering, or mutation
//! — which is what makes the reconstructed I/O history admissible for
//! forensics. What the chain gives up is a head per record: a failure names
//! the run, not the record in it.

use crate::hmac::{HmacSha256, Midstates};
use crate::sha256::Digest;
use std::borrow::Borrow;

/// One record's place in a chain that is never sealed: a sequence number
/// plus the head the run reaches with that record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Zero-based position of the record in the chain.
    pub seq: u64,
    /// `HMAC(k, head_before_run || record_1 || ... || record)`.
    pub tag: Digest,
}

/// Errors from [`HashChain::verify_sequence`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainVerifyError {
    /// The records up to `seq` do not reach the recorded head — that record
    /// was mutated, or an earlier record was inserted/removed/reordered.
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

/// An appendable evidence chain: the open run's MAC, which every record is
/// absorbed into (a 36-byte image costs about half a SHA-256 compression),
/// finalized only when a head is asked for.
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
    key: ChainKey,
    /// The head the open run started from: the last one sealed.
    sealed: Digest,
    /// The open run's MAC, `sealed` and every record absorbed since; `None`
    /// while the run has no record, and the head is `sealed`.
    run: Option<HmacSha256>,
    /// The length every record of the chain has: its first record's.
    record_len: Option<usize>,
    next_seq: u64,
}

impl std::fmt::Debug for HashChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key and the run's MAC state are key-equivalent: only the
        // public position prints.
        f.debug_struct("HashChain")
            .field("sealed", &self.sealed)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl HashChain {
    /// Creates an empty chain keyed with `key`, with the all-zero genesis head.
    pub fn new(key: &[u8]) -> Self {
        Self::resume(key, Digest::ZERO, 0)
    }

    /// Resumes a chain at a known head, with an empty run (used when the
    /// device recovers at the durable head).
    pub fn resume(key: &[u8], head: Digest, next_seq: u64) -> Self {
        HashChain {
            key: ChainKey::new(key),
            sealed: head,
            run: None,
            record_len: None,
            next_seq,
        }
    }

    /// Absorbs a record into the open run: the write path's append, which
    /// computes no head.
    ///
    /// # Panics
    ///
    /// When `record` is not as long as the chain's first record: the head
    /// MACs the records back to back, which split one way only when all
    /// have one length.
    pub fn absorb(&mut self, record: &[u8]) {
        let len = *self.record_len.get_or_insert(record.len());
        assert_eq!(record.len(), len, "every record of a chain has one length");
        self.run
            .get_or_insert_with(|| self.key.run_from(&self.sealed))
            .update(record);
        self.next_seq += 1;
    }

    /// [`Self::absorb`], returning the record's link: its sequence and the
    /// head the run reaches with it.
    ///
    /// # Panics
    ///
    /// As [`Self::absorb`].
    pub fn append(&mut self, record: &[u8]) -> ChainLink {
        let seq = self.next_seq;
        self.absorb(record);
        ChainLink {
            seq,
            tag: self.head(),
        }
    }

    /// Current chain head: the open run's MAC finalized, or the sealed head
    /// while the run has no record.
    pub fn head(&self) -> Digest {
        self.run.clone().map_or(self.sealed, HmacSha256::finalize)
    }

    /// Ends the open run: returns the head it reached ([`Self::head`]) and
    /// starts the next run from it.
    pub fn seal(&mut self) -> Digest {
        if let Some(run) = self.run.take() {
            self.sealed = run.finalize();
        }
        self.sealed
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

    /// Verifies that `records`, appended one run long to a chain at the
    /// zero genesis head, reproduce `links` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ChainVerifyError::LengthMismatch`] when counts differ, or
    /// [`ChainVerifyError::TagMismatch`] identifying the first bad link — a
    /// record of another length than the first is one.
    pub fn verify_sequence<R: AsRef<[u8]>>(
        key: &[u8],
        records: &[R],
        links: &[ChainLink],
    ) -> Result<(), ChainVerifyError> {
        if records.len() != links.len() {
            return Err(ChainVerifyError::LengthMismatch {
                expected: links.len(),
                actual: records.len(),
            });
        }
        let mut chain = HashChain::new(key);
        for (record, link) in records.iter().zip(links) {
            let record = record.as_ref();
            let fits = chain.record_len.map_or(true, |len| len == record.len());
            if !fits || chain.append(record).tag != link.tag {
                return Err(ChainVerifyError::TagMismatch { seq: link.seq });
            }
        }
        Ok(())
    }
}

/// The chain key as a verifier holds it: ready to MAC a run of records from
/// the head before it and say which head the run reaches. Nothing between
/// two stored heads needs storing — a verifier compares what the run
/// reaches with the head stored after it, and a reordered, dropped,
/// inserted or edited record reaches another head.
///
/// # Examples
///
/// ```
/// use rssd_crypto::{ChainKey, Digest, HashChain};
///
/// let mut chain = HashChain::new(b"device-evidence-key");
/// chain.append(b"write lba=4 len=8");
/// let after_first = chain.seal();
/// chain.append(b"trim  lba=4 len=8");
///
/// let key = ChainKey::new(b"device-evidence-key");
/// assert_eq!(key.head_after(after_first, [b"trim  lba=4 len=8"]), chain.head());
/// assert_ne!(key.head_after(Digest::ZERO, [b"trim  lba=4 len=8"]), chain.head());
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

    /// The head a run of `images`, in order, reaches from `head`: one HMAC
    /// over `head` and the images back to back, or `head` itself for no
    /// image — what [`HashChain::seal`] returns after they are absorbed
    /// into a chain at `head`. The images have one length, `N`.
    pub fn head_after<const N: usize, I>(&self, head: Digest, images: I) -> Digest
    where
        I: IntoIterator,
        I::Item: Borrow<[u8; N]>,
    {
        let mut run = None;
        for image in images {
            run.get_or_insert_with(|| self.run_from(&head))
                .update(image.borrow());
        }
        run.map_or(head, HmacSha256::finalize)
    }

    /// A run's MAC before its first record: resumed from the key's
    /// midstates, `head` absorbed.
    fn run_from(&self, head: &Digest) -> HmacSha256 {
        let mut mac = HmacSha256::from_midstates(&self.keyed);
        mac.update(head.as_bytes());
        mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What a verifier that holds `links` checks, link by link, as one-shot
    /// HMACs over the zero head and every record up to the link: the oracle.
    fn verify_sequence_reference<R: AsRef<[u8]>>(
        key: &[u8],
        records: &[R],
        links: &[ChainLink],
    ) -> Result<(), ChainVerifyError> {
        if records.len() != links.len() {
            return Err(ChainVerifyError::LengthMismatch {
                expected: links.len(),
                actual: records.len(),
            });
        }
        let mut message = Digest::ZERO.as_bytes().to_vec();
        for (record, link) in records.iter().zip(links) {
            let record = record.as_ref();
            message.extend_from_slice(record);
            let one_length = record.len() == records[0].as_ref().len();
            if !one_length || HmacSha256::mac(key, &message) != link.tag {
                return Err(ChainVerifyError::TagMismatch { seq: link.seq });
            }
        }
        Ok(())
    }

    fn build(records: &[&[u8]]) -> (HashChain, Vec<ChainLink>) {
        let mut chain = HashChain::new(b"k");
        let links = records.iter().map(|r| chain.append(r)).collect();
        (chain, links)
    }

    /// `images` from `start` under `key`, by hand: one HMAC over the head
    /// and the images back to back — or the head, for no image.
    fn oracle(key: &[u8], start: Digest, images: &[[u8; 36]]) -> Digest {
        if images.is_empty() {
            return start;
        }
        let mut message = start.as_bytes().to_vec();
        message.extend(images.iter().flatten());
        HmacSha256::mac(key, &message)
    }

    /// `N` bytes.
    fn arb_bytes<const N: usize>() -> impl Strategy<Value = [u8; N]> {
        let bytes = proptest::collection::vec(any::<u8>(), N..N + 1);
        bytes.prop_map(|bytes| bytes.try_into().expect("N bytes"))
    }

    fn arb_images() -> impl Strategy<Value = Vec<[u8; 36]>> {
        proptest::collection::vec(arb_bytes::<36>(), 0..12)
    }

    #[test]
    fn empty_chain_has_zero_head() {
        let mut chain = HashChain::new(b"k");
        assert_eq!(chain.head(), Digest::ZERO);
        assert_eq!(chain.seal(), Digest::ZERO);
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

    /// A chain resumed at a sealed head runs on exactly as the sealing
    /// chain does, and a verifier reaches both from that head.
    #[test]
    fn resume_continues_chain() {
        let mut chain = HashChain::new(b"k");
        chain.append(b"a");
        let sealed = chain.seal();

        let mut resumed = HashChain::resume(b"k", sealed, chain.next_seq());
        let l1 = resumed.append(b"b");
        assert_eq!(l1.seq, 1);
        assert_eq!(l1, chain.append(b"b"));
        assert_eq!(ChainKey::new(b"k").head_after(sealed, [b"b"]), l1.tag);
    }

    #[test]
    fn chain_error_display() {
        let e = ChainVerifyError::TagMismatch { seq: 7 };
        assert!(e.to_string().contains("sequence 7"));
    }

    /// The head MACs records back to back, so a record of another length
    /// would let two record lists meet: a verifier names it as a bad link
    /// ...
    #[test]
    fn a_record_of_another_length_is_refused() {
        let (_, links) = build(&[b"ab", b"cd"]);
        let split: Vec<&[u8]> = vec![b"abc", b"d"];
        assert_eq!(
            HashChain::verify_sequence(b"k", &split, &links),
            Err(ChainVerifyError::TagMismatch { seq: 0 })
        );
        let shifted: Vec<&[u8]> = vec![b"ab", b"c"];
        assert_eq!(
            HashChain::verify_sequence(b"k", &shifted, &links),
            Err(ChainVerifyError::TagMismatch { seq: 1 })
        );
    }

    /// ... and a chain refuses to absorb it.
    #[test]
    #[should_panic(expected = "every record of a chain has one length")]
    fn absorbing_a_record_of_another_length_panics() {
        build(&[b"ab", b"c"]);
    }

    proptest! {
        // A run's head is one HMAC over the head before it and its images
        // back to back, whether a verifier computes it (`head_after`) or a
        // chain that absorbed the images seals it; a run of none leaves
        // the head. Runs sealed one after another chain head to head.
        #[test]
        fn midstate_links_equal_one_shot_hmac(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            start in arb_bytes::<32>(),
            runs in proptest::collection::vec(arb_images(), 1..4),
        ) {
            let verifier = ChainKey::new(&key);
            let mut head = Digest::from_bytes(start);
            let mut chain = HashChain::resume(&key, head, 0);
            for images in &runs {
                let expected = oracle(&key, head, images);
                prop_assert_eq!(verifier.head_after(head, images), expected);
                for image in images {
                    chain.absorb(image);
                }
                prop_assert_eq!(chain.head(), expected);
                prop_assert_eq!(chain.seal(), expected);
                head = expected;
            }
        }

        // Swapping two images, dropping one, inserting one or flipping any
        // bit of one: every damaged run reaches another head.
        #[test]
        fn a_run_reaches_the_head_append_leaves_and_no_damaged_run_does(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            start in arb_bytes::<32>(),
            images in arb_images(),
            at in any::<usize>(),
            other in any::<usize>(),
            bit in 0usize..36 * 8,
            inserted in arb_bytes::<36>(),
        ) {
            let (verifier, start) = (ChainKey::new(&key), Digest::from_bytes(start));
            let mut chain = HashChain::resume(&key, start, 0);
            let links: Vec<ChainLink> = images.iter().map(|image| chain.append(image)).collect();
            let end = verifier.head_after(start, &images);
            prop_assert_eq!(links.last().map_or(start, |link| link.tag), end);

            let mut damaged = Vec::new();
            let mut with_insert = images.clone();
            with_insert.insert(at % (images.len() + 1), inserted);
            damaged.push(with_insert);
            if !images.is_empty() {
                let (at, other) = (at % images.len(), other % images.len());
                let mut flipped = images.clone();
                flipped[at][bit / 8] ^= 1 << (bit % 8);
                damaged.push(flipped);
                let mut dropped = images.clone();
                dropped.remove(at);
                damaged.push(dropped);
                let mut swapped = images.clone();
                swapped.swap(at, other);
                if swapped != images {
                    damaged.push(swapped);
                }
            }
            for run in &damaged {
                prop_assert_ne!(verifier.head_after(start, run), end);
            }
        }

        // Every damage at every position: `verify_sequence` returns exactly
        // the one-shot oracle's `Result`, and names the lowest bad link.
        #[test]
        fn verify_sequence_answers_as_the_one_shot_oracle(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            records in proptest::collection::vec(arb_bytes::<5>(), 0..10),
        ) {
            let mut chain = HashChain::new(&key);
            let links: Vec<ChainLink> = records.iter().map(|r| chain.append(r)).collect();
            let n = records.len();
            let flipped = |tag: Digest| {
                let mut bytes = *tag.as_bytes();
                bytes[0] ^= 1;
                Digest::from_bytes(bytes)
            };

            let mut cases = vec![("honest".to_string(), records.clone(), links.clone())];
            for at in 0..n {
                let mut mutated = records.clone();
                mutated[at][0] ^= 1;
                cases.push((format!("record {at} flipped"), mutated, links.clone()));
                let mut forged = links.clone();
                forged[at].tag = flipped(forged[at].tag);
                cases.push((format!("tag {at} flipped"), records.clone(), forged.clone()));
                if at + 1 < n {
                    forged[at + 1].tag = flipped(forged[at + 1].tag);
                    cases.push((format!("tags {at}, {} flipped", at + 1), records.clone(), forged));
                    let (mut swapped_records, mut swapped_links) = (records.clone(), links.clone());
                    swapped_records.swap(at, at + 1);
                    swapped_links.swap(at, at + 1);
                    cases.push((format!("links {at}, {} swapped", at + 1), swapped_records, swapped_links));
                }
                let (mut fewer_records, mut fewer_links) = (records.clone(), links.clone());
                fewer_records.remove(at);
                fewer_links.remove(at);
                cases.push((format!("link {at} dropped"), fewer_records, fewer_links.clone()));
                cases.push((format!("links short at {at}"), records.clone(), fewer_links));
            }
            for (case, records, links) in &cases {
                prop_assert_eq!(
                    HashChain::verify_sequence(&key, records, links),
                    verify_sequence_reference(&key, records, links),
                    "{}", case
                );
            }
            prop_assert!(HashChain::verify_sequence(&key, &records, &links).is_ok());
            for at in 0..n {
                let mut forged = links.clone();
                forged[at].tag = flipped(forged[at].tag);
                prop_assert_eq!(
                    HashChain::verify_sequence(&key, &records, &forged),
                    Err(ChainVerifyError::TagMismatch { seq: at as u64 })
                );
            }
        }
    }
}
