//! A FlashGuard-style defense (Huang et al., CCS'17), reproduced as the
//! hardware baseline for Table 1 and the attack-validation experiment (E7):
//! [`RetentionMode::ReadThenOverwrite`](crate::RetentionMode) of
//! [`RetentionSsd`](crate::RetentionSsd). This module is the mode's home —
//! its admission predicate and its two numbers.
//!
//! FlashGuard leverages the same intrinsic flash property as RSSD — stale
//! pages physically persist — but retains *selectively*: a stale page is
//! kept only when its overwrite looks like encryption ransomware, i.e. the
//! logical page was **read shortly before being overwritten**
//! (read-modify-write is how encryptors consume plaintext). That selectivity
//! is its undoing against Ransomware 2.0:
//!
//! * **GC attack** — defended: flood writes are *new* data (never read
//!   before), so they are not retained and GC reclaims them; the pinned
//!   suspect pages survive capacity pressure.
//! * **Timing attack** — defeated: spacing the read and the overwrite
//!   beyond the correlation window makes the overwrite look benign.
//! * **Trimming attack** — defeated: trimmed pages are not overwrites at
//!   all, so nothing is retained and the trim physically releases the data.

use rssd_ftl::InvalidateCause;

/// An overwrite within this window after a read of the same LPA is flagged
/// as a suspected encryption and retained. 10 simulated minutes: generous
/// for a foreground encryptor.
pub const SUSPECT_WINDOW_NS: u64 = 600 * 1_000_000_000;
/// Suspects older than this are released (FlashGuard's bounded retention,
/// ~20 days in the paper's configuration).
pub const MAX_RETENTION_NS: u64 = 20 * 86_400 * 1_000_000_000;

/// The admission predicate: is a page invalidated by `cause` at `now_ns`,
/// whose LPA the host last read at `last_read_ns`, a suspected encryption?
/// Trims and GC migrations never are — the trimming attack walks straight
/// through that gap, the timing attack through the window.
pub(crate) fn suspects(cause: InvalidateCause, last_read_ns: Option<&u64>, now_ns: u64) -> bool {
    cause == InvalidateCause::Overwrite
        && last_read_ns.is_some_and(|&read_ns| now_ns.saturating_sub(read_ns) <= SUSPECT_WINDOW_NS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDevice, DeviceError, RetentionMode, RetentionSsd};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};

    fn ssd_on(clock: SimClock) -> RetentionSsd {
        RetentionSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock,
            RetentionMode::ReadThenOverwrite,
        )
    }

    fn ssd() -> RetentionSsd {
        ssd_on(SimClock::new())
    }

    #[test]
    fn read_then_overwrite_is_retained() {
        let mut d = ssd();
        d.write_page(3, vec![1; 4096]).unwrap();
        d.read_page(3).unwrap(); // ransomware reads plaintext
        d.write_page(3, vec![2; 4096]).unwrap(); // writes ciphertext
        assert_eq!(d.report().retained_pages, 1);
        assert_eq!(d.recover_page(3).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn blind_overwrite_is_not_retained() {
        let mut d = ssd();
        d.write_page(3, vec![1; 4096]).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap(); // no preceding read
        assert_eq!(d.report().retained_pages, 0);
        assert_eq!(d.recover_page(3), None);
    }

    #[test]
    fn timing_attack_evades_retention() {
        let clock = SimClock::new();
        let mut d = ssd_on(clock.clone());
        d.write_page(3, vec![1; 4096]).unwrap();
        d.read_page(3).unwrap();
        // Attacker waits past the correlation window before writing back.
        clock.advance(SUSPECT_WINDOW_NS + 1);
        d.write_page(3, vec![2; 4096]).unwrap();
        assert_eq!(
            d.report().retained_pages,
            0,
            "timing attack must evade FlashGuard"
        );
        assert_eq!(d.recover_page(3), None);
    }

    #[test]
    fn trimming_attack_evades_retention() {
        let mut d = ssd();
        d.write_page(3, vec![1; 4096]).unwrap();
        d.read_page(3).unwrap();
        d.trim_page(3).unwrap(); // trim instead of overwrite
        assert_eq!(d.report().retained_pages, 0, "trim must evade FlashGuard");
        assert_eq!(d.recover_page(3), None);
    }

    #[test]
    fn suspects_survive_gc_flood() {
        let mut d = ssd();
        // Victim data becomes a suspect.
        d.write_page(0, vec![1; 4096]).unwrap();
        d.read_page(0).unwrap();
        d.write_page(0, vec![2; 4096]).unwrap();
        assert_eq!(d.report().retained_pages, 1);
        // GC attack: flood the device with fresh data to force collection.
        let logical = d.logical_pages();
        for round in 0..4u8 {
            for lpa in 1..logical {
                match d.write_page(lpa, vec![round; 4096]) {
                    Ok(()) | Err(DeviceError::Stalled) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        assert_eq!(
            d.report().retained_pages,
            1,
            "suspect must survive the flood"
        );
        assert_eq!(d.recover_page(0).unwrap(), vec![1; 4096]);
    }

    #[test]
    fn suspects_age_out() {
        let clock = SimClock::new();
        let mut d = ssd_on(clock.clone());
        d.write_page(3, vec![1; 4096]).unwrap();
        d.read_page(3).unwrap();
        d.write_page(3, vec![2; 4096]).unwrap();
        assert_eq!(d.report().retained_pages, 1);
        clock.advance(MAX_RETENTION_NS + 1);
        // Any subsequent operation triggers expiry.
        d.write_page(4, vec![0; 4096]).unwrap();
        assert_eq!(d.report().retained_pages, 0);
        assert_eq!(d.report().evicted_pages, 1);
    }

    #[test]
    fn model_name() {
        assert_eq!(ssd().model_name(), "FlashGuard");
    }
}
