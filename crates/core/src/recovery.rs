//! Zero-data-loss recovery.
//!
//! Drives the restore after an attack: given the analyzer's victim list (or
//! an explicit LPA set) and a cut-off time, rolls every victim page back to
//! its newest pre-attack version and writes it back through the normal
//! write path (so recovery itself is logged in the evidence chain).

use crate::device::RssdDevice;
use crate::remote_target::RemoteTarget;
use rssd_ssd::BlockDevice;
use serde::{Deserialize, Serialize};

/// Result of a recovery run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct RecoveryReport {
    /// Pages successfully restored.
    pub pages_restored: u64,
    /// Pages for which no retained version existed (must be zero for RSSD —
    /// that is the zero-data-loss claim), or whose restore write the device
    /// refused.
    pub pages_unrecoverable: u64,
    /// Bytes restored.
    pub bytes_restored: u64,
    /// Simulated time the recovery took.
    pub duration_ns: u64,
}

impl RecoveryReport {
    /// Fraction of requested pages recovered.
    pub fn recovery_rate(&self) -> f64 {
        let total = self.pages_restored + self.pages_unrecoverable;
        if total == 0 {
            return 1.0;
        }
        self.pages_restored as f64 / total as f64
    }
}

/// Restores victim pages on an [`RssdDevice`].
#[derive(Debug, Default)]
pub struct RecoveryEngine;

impl RecoveryEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        RecoveryEngine
    }

    /// Restores each page in `victim_lpas` to the newest version that was
    /// valid strictly before `attack_start_ns`, writing the recovered
    /// content back through the device.
    pub fn restore_before<R: RemoteTarget>(
        &self,
        device: &mut RssdDevice<R>,
        victim_lpas: &[u64],
        attack_start_ns: u64,
    ) -> RecoveryReport {
        Self::restore(device, victim_lpas, |device, lpa| {
            device.recover_page_before(lpa, attack_start_ns)
        })
    }

    /// Restores each victim page to its newest retained pre-image (used when
    /// the attack overwrote each page exactly once).
    pub fn restore_newest<R: RemoteTarget>(
        &self,
        device: &mut RssdDevice<R>,
        victim_lpas: &[u64],
    ) -> RecoveryReport {
        Self::restore(device, victim_lpas, RssdDevice::recover_newest)
    }

    fn restore<R: RemoteTarget>(
        device: &mut RssdDevice<R>,
        victim_lpas: &[u64],
        lookup: impl Fn(&mut RssdDevice<R>, u64) -> Option<Vec<u8>>,
    ) -> RecoveryReport {
        let start = device.clock().now_ns();
        let mut report = RecoveryReport::default();
        for &lpa in victim_lpas {
            // A restore write the device refuses — stalled on its own
            // offload backlog mid-outage, or down after a power cut — leaves
            // the page as unrecovered as one with no retained version.
            let restored = lookup(device, lpa).and_then(|data| {
                let len = data.len() as u64;
                device.write_page(lpa, data).ok().map(|()| len)
            });
            match restored {
                Some(len) => {
                    report.bytes_restored += len;
                    report.pages_restored += 1;
                }
                None => report.pages_unrecoverable += 1,
            }
        }
        report.duration_ns = device.clock().now_ns().saturating_sub(start);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RssdConfig;
    use crate::remote_target::LoopbackTarget;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};

    fn device(clock: SimClock) -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock,
            RssdConfig {
                segment_pages: 8,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        )
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn full_restore_after_encryption() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        for lpa in 0..20u64 {
            d.write_page(lpa, page(lpa as u8)).unwrap();
        }
        clock.advance(1_000_000);
        let attack_start = clock.now_ns();
        for lpa in 0..20u64 {
            d.write_page(lpa, page(0xEE)).unwrap(); // "ciphertext"
        }
        let victims: Vec<u64> = (0..20).collect();
        let report = RecoveryEngine::new().restore_before(&mut d, &victims, attack_start);
        assert_eq!(report.pages_restored, 20);
        assert_eq!(report.pages_unrecoverable, 0);
        assert_eq!(report.recovery_rate(), 1.0);
        for lpa in 0..20u64 {
            assert_eq!(d.read_page(lpa).unwrap(), page(lpa as u8));
        }
    }

    #[test]
    fn restore_after_offload_pulls_from_remote() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        for lpa in 0..10u64 {
            d.write_page(lpa, page(lpa as u8)).unwrap();
        }
        clock.advance(1_000);
        let attack_start = clock.now_ns();
        for lpa in 0..10u64 {
            d.write_page(lpa, page(0xEE)).unwrap();
        }
        d.flush_log().unwrap();
        let victims: Vec<u64> = (0..10).collect();
        let report = RecoveryEngine::new().restore_before(&mut d, &victims, attack_start);
        assert_eq!(report.pages_restored, 10);
        for lpa in 0..10u64 {
            assert_eq!(d.read_page(lpa).unwrap(), page(lpa as u8));
        }
    }

    #[test]
    fn restore_after_trim_attack() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        for lpa in 0..10u64 {
            d.write_page(lpa, page(7)).unwrap();
        }
        clock.advance(1_000);
        let attack_start = clock.now_ns();
        for lpa in 0..10u64 {
            d.trim_page(lpa).unwrap();
        }
        let victims: Vec<u64> = (0..10).collect();
        let report = RecoveryEngine::new().restore_before(&mut d, &victims, attack_start);
        assert_eq!(report.pages_restored, 10);
        assert_eq!(d.read_page(3).unwrap(), page(7));
    }

    #[test]
    fn unrecoverable_counted_for_never_written_pages() {
        let clock = SimClock::new();
        let mut d = device(clock);
        let report = RecoveryEngine::new().restore_newest(&mut d, &[99]);
        assert_eq!(report.pages_unrecoverable, 1);
        assert_eq!(report.pages_restored, 0);
        assert_eq!(report.recovery_rate(), 0.0);
    }

    #[test]
    fn a_refused_restore_write_is_counted_not_a_panic() {
        // Stalled: the uplink dies with the device one segment short of the
        // refusal, every victim's pre-image still pinned on flash.
        let clock = SimClock::new();
        let mut d = RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock.clone(),
            RssdConfig {
                segment_pages: 1,
                ..RssdConfig::default()
            },
            LoopbackTarget::new(),
        );
        d.write_page(0, page(0)).unwrap();
        clock.advance(1_000);
        let attack_start = clock.now_ns();
        d.remote_mut().set_reachable(false);
        let mut i = 0u8;
        while d.write_page(0, page(i)).is_ok() {
            i += 1;
        }
        assert_eq!(d.offload_health(), crate::OffloadHealth::Stalled);
        let report = RecoveryEngine::new().restore_before(&mut d, &[0, 1], attack_start);
        assert_eq!(report.pages_restored, 0);
        assert_eq!(
            report.pages_unrecoverable, 2,
            "one refused, one never written"
        );
        assert_eq!(report.bytes_restored, 0);
        // The uplink heals: the same restore goes through.
        d.remote_mut().set_reachable(true);
        let report = RecoveryEngine::new().restore_before(&mut d, &[0], attack_start);
        assert_eq!((report.pages_restored, report.pages_unrecoverable), (1, 0));
        assert_eq!(d.read_page(0).unwrap(), page(0));

        // Power lost: the version index went with the controller RAM, so
        // until `recover()` the lookup already comes back empty — and a
        // write would be refused with `PowerLoss` if it got that far.
        let mut d = device(clock.clone());
        d.write_page(3, page(1)).unwrap();
        d.write_page(3, page(2)).unwrap();
        d.flush_log().unwrap();
        let _ = d.crash();
        let report = RecoveryEngine::new().restore_newest(&mut d, &[3]);
        assert_eq!((report.pages_restored, report.pages_unrecoverable), (0, 1));
        assert_eq!(report.bytes_restored, 0);
    }

    #[test]
    fn empty_victim_list_is_perfect() {
        let clock = SimClock::new();
        let mut d = device(clock);
        let report = RecoveryEngine::new().restore_newest(&mut d, &[]);
        assert_eq!(report.recovery_rate(), 1.0);
    }

    #[test]
    fn recovery_is_itself_logged() {
        let clock = SimClock::new();
        let mut d = device(clock.clone());
        d.write_page(0, page(1)).unwrap();
        clock.advance(1_000);
        let attack_start = clock.now_ns();
        d.write_page(0, page(2)).unwrap();
        let before = d.chain_len();
        let _ = RecoveryEngine::new().restore_before(&mut d, &[0], attack_start);
        assert!(d.chain_len() > before, "restore writes are chained too");
    }
}
