//! Long-horizon profiling that catches the timing attack.
//!
//! Window-based scores normalize by recent activity, so an attacker who
//! encrypts a few pages an hour hides inside the noise. The timing profile
//! instead reads the [`VictimSet`]: the *distinct* logical pages an
//! encrypting overwrite holds, against every page the device was seen to
//! write or trim. However slowly the attacker proceeds, that coverage ratio
//! climbs monotonically. This is only practical on the remote side — it
//! needs unbounded history, which is exactly what RSSD's offloaded log
//! provides.

use crate::victims::VictimSet;

/// Coverage fraction at which the score saturates to 1.0.
const SATURATION: f64 = 0.10;
/// Minimum distinct encrypted pages before scoring (noise floor).
const MIN_ENCRYPTED: usize = 64;

/// The timing profile's score: encrypted coverage of the seen pages,
/// saturating at 10 %, silent below 64 encrypted pages.
pub(crate) fn score(victims: &VictimSet) -> f64 {
    let encrypted = victims.encrypted();
    if encrypted < MIN_ENCRYPTED {
        return 0.0;
    }
    let coverage = encrypted as f64 / victims.seen() as f64;
    (coverage / SATURATION).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WriteObservation;

    #[test]
    fn slow_encryption_still_accumulates() {
        let mut d = VictimSet::default();
        // Background: 10k distinct benign pages.
        for i in 0..10_000u64 {
            d.observe(&WriteObservation::fresh_write(i, i, 4.0));
        }
        // Attacker encrypts 10 pages per simulated hour for 100 hours.
        let hour = 3_600_000_000_000u64;
        for h in 0..100u64 {
            for k in 0..10u64 {
                let lpa = h * 10 + k;
                d.observe(&WriteObservation::overwrite(h * hour, lpa, 7.9, false));
            }
        }
        assert!(
            score(&d) >= 1.0 - 1e-9,
            "1000/10000 coverage saturates: {}",
            score(&d)
        );
        assert_eq!(d.encrypted(), 1000);
    }

    #[test]
    fn benign_churn_stays_quiet() {
        let mut d = VictimSet::default();
        for i in 0..10_000u64 {
            d.observe(&WriteObservation::fresh_write(i, i % 1000, 4.0));
        }
        // Occasional high-entropy writes (media files) under the floor.
        for i in 0..30u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, false));
        }
        assert_eq!(score(&d), 0.0);
    }

    #[test]
    fn benign_rewrite_clears_page() {
        let mut d = VictimSet::default();
        let encrypted = MIN_ENCRYPTED as u64;
        for i in 0..1_000u64 {
            d.observe(&WriteObservation::fresh_write(i, i, 4.0));
        }
        for i in 0..encrypted {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, false));
        }
        assert!(score(&d) > 0.0);
        // User restores files (low-entropy rewrites).
        for i in 0..encrypted {
            d.observe(&WriteObservation::overwrite(i, i, 3.0, false));
        }
        assert_eq!(d.encrypted(), 0);
        assert_eq!(score(&d), 0.0);
    }

    #[test]
    fn empty_profiler_scores_zero() {
        assert_eq!(score(&VictimSet::default()), 0.0);
    }
}
