//! Property tests for the NVMe-oE protocol layers: decoders are total
//! (never panic on arbitrary bytes), round trips are exact, and reliable
//! transfer survives every deterministic loss pattern.

use bytes::Bytes;
use proptest::prelude::*;
use rssd_crypto::DeviceKeys;
use rssd_net::{Capsule, CapsuleKind, LinkConfig, NvmeOeEndpoint, SecureSession};

proptest! {
    #[test]
    fn capsule_round_trip(
        seq in any::<u64>(),
        segment_seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        for kind in [
            CapsuleKind::SegmentWrite,
            CapsuleKind::SegmentRead,
            CapsuleKind::ReadResponse,
            CapsuleKind::Ack,
        ] {
            let c = Capsule { kind, seq, segment_seq, payload: Bytes::from(payload.clone()) };
            prop_assert_eq!(Capsule::from_wire(&c.to_wire().unwrap()).unwrap(), c);
        }
    }

    #[test]
    fn capsule_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Must never panic, whatever the input.
        let _ = Capsule::from_wire(&Bytes::from(bytes));
    }

    #[test]
    fn session_round_trip_and_tamper_rejection(
        seed in any::<u64>(),
        segment_seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        flip in any::<u16>(),
    ) {
        let session = SecureSession::new(&DeviceKeys::for_simulation(seed), 0);
        let sealed = session.seal(segment_seq, &payload);
        prop_assert_eq!(session.open(segment_seq, &sealed).unwrap(), payload);

        let mut tampered = sealed.clone();
        let idx = (flip as usize) % tampered.len().max(1);
        if !tampered.is_empty() {
            tampered[idx] ^= 1;
            prop_assert!(session.open(segment_seq, &tampered).is_err());
        }
    }

    #[test]
    fn session_open_answers_hostile_bytes_with_typed_errors(
        seed in any::<u64>(),
        segment_seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..3000),
        cut in any::<u16>(),
        flip in any::<u32>(),
        splice_at in any::<u16>(),
        splice in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        use rssd_net::session::TAG_LEN;
        use rssd_net::SessionError;
        let session = SecureSession::new(&DeviceKeys::for_simulation(seed), 0);
        let sealed = session.seal(segment_seq, &payload);

        // Truncated: shorter than a tag is `Truncated`, anything longer
        // fails authentication — never a panic, never plaintext.
        let cut = cut as usize % sealed.len();
        let expected = if cut < TAG_LEN { SessionError::Truncated } else { SessionError::BadTag };
        prop_assert_eq!(session.open(segment_seq, &sealed[..cut]), Err(expected));

        // One flipped bit anywhere (ciphertext or tag).
        let mut flipped = sealed.clone();
        let bit = flip as usize % (sealed.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(session.open(segment_seq, &flipped), Err(SessionError::BadTag));

        // Foreign bytes spliced in: inserted, and overwritten in place.
        let at = splice_at as usize % (sealed.len() + 1);
        let mut inserted = sealed.clone();
        inserted.splice(at..at, splice.iter().copied());
        prop_assert_eq!(session.open(segment_seq, &inserted), Err(SessionError::BadTag));
        let mut overwritten = sealed.clone();
        let end = (at + splice.len()).min(sealed.len());
        overwritten[at..end].copy_from_slice(&splice[..end - at]);
        if overwritten != sealed {
            prop_assert_eq!(session.open(segment_seq, &overwritten), Err(SessionError::BadTag));
        }

        // The mutations left the session itself unharmed.
        prop_assert_eq!(session.open(segment_seq, &sealed).unwrap(), payload);
    }

    #[test]
    fn transfer_survives_any_loss_period(
        loss_period in 2u64..10,
        len in 1usize..200_000,
    ) {
        let mut fabric = NvmeOeEndpoint::new(LinkConfig::lossy(loss_period));
        let payload = Bytes::from((0..len).map(|i| (i * 131) as u8).collect::<Vec<u8>>());
        let (done, delivered) = fabric.transfer_segment(1, payload.clone(), 0);
        prop_assert_eq!(delivered, payload);
        prop_assert!(done > 0);
    }
}
