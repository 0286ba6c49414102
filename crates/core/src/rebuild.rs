//! Remote-assisted rebuild of a lost device.
//!
//! The paper's codesign splits the defense across two failure domains: the
//! SSD (local flash, pending log, pinned pages) and the hardware-isolated
//! remote retention store. When the local half is lost entirely — a died
//! shard in an array, a stolen machine, firmware bricked by the attacker —
//! the remote half still holds every offloaded segment, chained and sealed.
//!
//! [`RebuildImage::harvest`] walks that surviving evidence chain with the
//! escrowed device keys, verifies it end to end (a non-verifying chain is
//! itself forensic signal and aborts the harvest), indexes every retained
//! page version by LPA and keeps each verified segment's sealed wire image.
//! A segment's pre-images are deciphered and decompressed on the first
//! lookup that lands in it, not before. The image then answers the two
//! questions a rebuild needs:
//!
//! * [`newest`](RebuildImage::newest) — the most recent retained pre-image
//!   of a page (degraded-mode reads while a replacement is being built), and
//! * [`version_before`](RebuildImage::version_before) — the version valid
//!   just before a cut-off time (point-in-time rebuild to pre-attack state).
//!
//! What the image *cannot* contain is honest by construction: a page whose
//! only version was written fresh and never overwritten has no retained
//! pre-image in the log, and records still pending on the device at the
//! moment of loss died with it. The zero-data-loss guarantee covers what
//! ransomware destroys — destruction creates retained versions, and
//! retention offloads them — not data that existed nowhere but the lost
//! flash.

use crate::evidence::EvidenceReader;
use crate::pool;
use crate::remote_target::RemoteTarget;
use crate::segment::{LazyPreimages, SegmentEnvelope};
use crate::versions::{Located, VersionIndex};
use rssd_crypto::DeviceKeys;
use rssd_net::SecureSession;
use std::collections::HashMap;

/// Counters describing one harvest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct HarvestReport {
    /// Offloaded segments walked and chain-verified.
    pub segments: u64,
    /// Log records examined.
    pub records: u64,
    /// Retained page versions indexed.
    pub versions: u64,
    /// Distinct logical pages with at least one retained version.
    pub lpas_covered: u64,
}

/// The rebuildable state of a lost device, reconstructed entirely from its
/// remote retention store: the device's own version index and point-in-time
/// rule (the private `versions` module), over a harvested store instead of a
/// live one.
#[derive(Clone, Debug, Default)]
pub struct RebuildImage {
    index: VersionIndex,
    /// Every segment walked, by segment sequence: its verified wire image,
    /// opened to its pre-images by the first lookup that lands in it.
    segments: HashMap<u64, LazyPreimages>,
    /// What opens them (`None` only in the empty image, which has none).
    session: Option<SecureSession>,
    report: HarvestReport,
}

impl RebuildImage {
    /// An image retaining nothing — the degraded state a shard falls back
    /// to when its remote store fails verification (a tampered chain must
    /// not launder data into recovery).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Walks every segment stored on `remote`, verifies the evidence chain
    /// end to end with the escrowed `keys`, and indexes all retained page
    /// versions. Each segment's sealed bytes are kept as the store handed
    /// them over — the image never fetches again — and opened to their
    /// pre-images on the first lookup that needs them.
    ///
    /// # Errors
    ///
    /// Returns a description of the first verification failure — a chain
    /// that does not verify means remote tampering, and rebuilding from it
    /// would launder the tamper into "recovered" data.
    pub fn harvest<R: RemoteTarget>(keys: &DeviceKeys, remote: &mut R) -> Result<Self, String> {
        Self::harvest_on(pool::machine_workers(), keys, remote)
    }

    /// [`Self::harvest`], walking the store on `workers` — which the image
    /// does not depend on.
    pub(crate) fn harvest_on<R: RemoteTarget>(
        workers: usize,
        keys: &DeviceKeys,
        remote: &mut R,
    ) -> Result<Self, String> {
        let mut segments = HashMap::new();
        let keep = |seq, envelope: &SegmentEnvelope| {
            segments.insert(seq, LazyPreimages::new(envelope.clone()));
        };
        let reader = EvidenceReader::new(keys);
        let (_, records, index) = reader.walk_store(workers, remote, keep)?;
        let report = HarvestReport {
            segments: segments.len() as u64,
            records,
            versions: index.version_count(),
            lpas_covered: index.lpas().len() as u64,
        };
        Ok(RebuildImage {
            index,
            segments,
            session: Some(reader.session),
            report,
        })
    }

    /// Harvest counters.
    pub fn report(&self) -> HarvestReport {
        self.report
    }

    /// Logical pages with at least one retained version, ascending.
    pub fn lpas(&self) -> Vec<u64> {
        self.index.lpas()
    }

    /// `true` when `lpa` has at least one retained version.
    pub fn covers(&self, lpa: u64) -> bool {
        self.index.covers(lpa)
    }

    /// The newest retained version of `lpa` (the content the most recent
    /// logged overwrite/trim destroyed), if any. `None` too when the
    /// segment holding it authenticated but its pre-images do not decode —
    /// the answer a live device's restore gives over the same store.
    pub fn newest(&self, lpa: u64) -> Option<&[u8]> {
        self.version(lpa, None)
    }

    /// The version of `lpa` that was valid at `before_ns`, by the rule a
    /// live device answers
    /// [`recover_page_before`](crate::RssdDevice::recover_page_before)
    /// with: invalidated at or after it, and written at or before it. `None`
    /// when the page held no content at that time — never written yet, or
    /// sitting trimmed — so a point-in-time rebuild cannot resurrect content
    /// created *after* the cut-off (a page born mid-attack must come back
    /// empty, not holding mid-attack data).
    pub fn version_before(&self, lpa: u64, before_ns: u64) -> Option<&[u8]> {
        self.version(lpa, Some(before_ns))
    }

    fn version(&self, lpa: u64, at_ns: Option<u64>) -> Option<&[u8]> {
        // No device, no pending tail: every version the index knows is sealed.
        let Located::Sealed {
            segment_seq,
            record_seq,
        } = self.index.locate(lpa, at_ns, &[])?
        else {
            return None;
        };
        let session = self.session.as_ref()?;
        self.segments.get(&segment_seq)?.get(session, record_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RssdConfig;
    use crate::device::RssdDevice;
    use crate::remote_target::LoopbackTarget;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::BlockDevice;

    fn device(clock: SimClock) -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock,
            RssdConfig {
                segment_pages: 4,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        )
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn harvest_rebuilds_overwritten_state_without_the_device() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        for lpa in 0..8u64 {
            d.write_page(lpa, page(lpa as u8)).unwrap();
        }
        clock.advance(1_000_000);
        let attack_start = clock.now_ns();
        for lpa in 0..8u64 {
            d.write_page(lpa, page(0xEE)).unwrap(); // "ciphertext"
        }
        d.flush_log().unwrap();

        // The device dies; only keys + remote survive.
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();

        assert_eq!(image.report().lpas_covered, 8);
        assert!(image.report().segments > 0);
        for lpa in 0..8u64 {
            assert!(image.covers(lpa));
            assert_eq!(image.newest(lpa).unwrap(), page(lpa as u8).as_slice());
            assert_eq!(
                image.version_before(lpa, attack_start).unwrap(),
                page(lpa as u8).as_slice()
            );
        }
        assert_eq!(image.lpas(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn version_before_selects_point_in_time() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        d.write_page(3, page(1)).unwrap();
        clock.advance(1_000_000);
        let t1 = clock.now_ns();
        d.write_page(3, page(2)).unwrap();
        clock.advance(1_000_000);
        let t2 = clock.now_ns();
        d.write_page(3, page(3)).unwrap();
        d.flush_log().unwrap();

        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
        assert_eq!(image.version_before(3, t1).unwrap(), page(1).as_slice());
        assert_eq!(image.version_before(3, t2).unwrap(), page(2).as_slice());
        assert_eq!(image.newest(3).unwrap(), page(2).as_slice());
    }

    #[test]
    fn version_before_does_not_resurrect_pages_born_after_the_cutoff() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        clock.advance(1_000);
        let cutoff = clock.now_ns();
        clock.advance(1_000);
        // Page first written after the cutoff, then overwritten (so a
        // retained version exists — created mid-"attack").
        d.write_page(4, page(0xAB)).unwrap();
        clock.advance(1_000);
        d.write_page(4, page(0xCD)).unwrap();
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
        assert_eq!(image.newest(4).unwrap(), page(0xAB).as_slice());
        assert_eq!(
            image.version_before(4, cutoff),
            None,
            "the page held nothing at the cutoff; restoring 0xAB would \
             resurrect post-cutoff content"
        );
    }

    #[test]
    fn version_before_respects_trim_gaps() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        d.write_page(2, page(1)).unwrap();
        clock.advance(1_000);
        d.trim_page(2).unwrap();
        clock.advance(1_000);
        let mid_gap = clock.now_ns();
        clock.advance(1_000);
        d.write_page(2, page(3)).unwrap();
        clock.advance(1_000);
        d.write_page(2, page(4)).unwrap();
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
        // At mid_gap the page sat trimmed: nothing to restore.
        assert_eq!(image.version_before(2, mid_gap), None);
        // Before the trim, version 1 was live.
        assert_eq!(image.version_before(2, 500).unwrap(), page(1).as_slice());
        // Newest retained is the post-gap content the last write destroyed.
        assert_eq!(image.newest(2).unwrap(), page(3).as_slice());
    }

    #[test]
    fn fresh_never_overwritten_pages_are_honestly_absent() {
        let mut d = device(SimClock::new());
        d.write_page(5, page(9)).unwrap();
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
        assert!(!image.covers(5), "fresh write has no retained pre-image");
        assert_eq!(image.newest(5), None);
    }

    #[test]
    fn pending_unoffloaded_records_die_with_the_device() {
        let mut d = device(SimClock::new());
        d.write_page(0, page(1)).unwrap();
        d.write_page(0, page(2)).unwrap();
        // No flush_log: the retained pre-image is pinned locally only.
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        let image = RebuildImage::harvest(&keys, &mut remote).unwrap();
        assert!(!image.covers(0));
    }

    #[test]
    fn tampered_remote_fails_harvest() {
        let mut d = device(SimClock::new());
        for lpa in 0..4u64 {
            d.write_page(lpa, page(1)).unwrap();
            d.write_page(lpa, page(2)).unwrap();
        }
        d.flush_log().unwrap();
        let keys = d.escrow_keys();
        let mut remote = d.into_remote();
        // Corrupt one stored payload byte.
        let seq = remote.stored_segments()[0];
        let clean = remote.fetch_segment(seq).unwrap();
        // The envelope shares its wire image by refcount, so tampering
        // means rebuilding it around a flipped payload copy.
        let mut payload = clean.sealed_payload().to_vec();
        payload[0] ^= 0xFF;
        let envelope = SegmentEnvelope::new(
            clean.device_id(),
            clean.segment_seq(),
            clean.prev_chain_head(),
            clean.chain_head(),
            clean.record_count(),
            &payload,
        );
        // Rebuild the store with the tampered envelope (LoopbackTarget has
        // no in-place mutation; store into a fresh one, chain check off by
        // replaying in order with matching heads).
        let mut tampered = LoopbackTarget::new();
        for s in remote.stored_segments() {
            let e = if s == seq {
                envelope.clone()
            } else {
                remote.fetch_segment(s).unwrap()
            };
            tampered.store_segment(e, 0).unwrap();
        }
        let err = RebuildImage::harvest(&keys, &mut tampered).unwrap_err();
        assert!(err.contains("open segment"), "{err}");
    }
}
