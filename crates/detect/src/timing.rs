//! Long-horizon profiling that catches the timing attack.
//!
//! Window-based detectors normalize by recent activity, so an attacker who
//! encrypts a few pages an hour hides inside the noise. The profiler instead
//! accumulates the set of *distinct* logical pages that have ever been
//! overwritten with near-ciphertext entropy, and compares it to the device's
//! seen working set: however slowly the attacker proceeds, that coverage
//! ratio climbs monotonically. This is only practical on the remote side —
//! it needs unbounded history, which is exactly what RSSD's offloaded log
//! provides.

use crate::observation::WriteObservation;
use crate::victims::VictimSet;
use crate::Detector;
use std::collections::HashSet;

/// Cumulative encrypted-coverage profiler.
#[derive(Clone, Debug, Default)]
pub struct TimingProfiler {
    /// The victim set; the profiler reads its encrypted view.
    pub(crate) victims: VictimSet,
    /// Distinct LPAs ever written or trimmed.
    seen_lpas: HashSet<u64>,
}

impl TimingProfiler {
    /// Coverage fraction at which the score saturates to 1.0.
    const SATURATION: f64 = 0.10;
    /// Minimum distinct encrypted pages before scoring (noise floor).
    const MIN_ENCRYPTED: usize = 64;

    /// Saturates at 10 % coverage, 64-page noise floor, a page counted
    /// encrypted per [`WriteObservation::is_encrypting_overwrite`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct pages an encrypting overwrite holds now.
    pub fn encrypted_pages(&self) -> usize {
        self.victims.encrypted()
    }
}

impl Detector for TimingProfiler {
    fn name(&self) -> &'static str {
        "timing-profile"
    }

    fn observe(&mut self, obs: &WriteObservation) {
        self.seen_lpas.insert(obs.lpa);
        self.victims.observe(obs);
    }

    fn score(&self) -> f64 {
        let encrypted = self.victims.encrypted();
        if encrypted < Self::MIN_ENCRYPTED || self.seen_lpas.is_empty() {
            return 0.0;
        }
        let coverage = encrypted as f64 / self.seen_lpas.len() as f64;
        (coverage / Self::SATURATION).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_encryption_still_accumulates() {
        let mut d = TimingProfiler::new();
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
            d.score() >= 1.0 - 1e-9,
            "1000/10000 coverage saturates: {}",
            d.score()
        );
        assert_eq!(d.encrypted_pages(), 1000);
    }

    #[test]
    fn benign_churn_stays_quiet() {
        let mut d = TimingProfiler::new();
        for i in 0..10_000u64 {
            d.observe(&WriteObservation::fresh_write(i, i % 1000, 4.0));
        }
        // Occasional high-entropy writes (media files) under the floor.
        for i in 0..30u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, false));
        }
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn benign_rewrite_clears_page() {
        let mut d = TimingProfiler::new();
        let encrypted = TimingProfiler::MIN_ENCRYPTED as u64;
        for i in 0..1_000u64 {
            d.observe(&WriteObservation::fresh_write(i, i, 4.0));
        }
        for i in 0..encrypted {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, false));
        }
        assert!(d.score() > 0.0);
        // User restores files (low-entropy rewrites).
        for i in 0..encrypted {
            d.observe(&WriteObservation::overwrite(i, i, 3.0, false));
        }
        assert_eq!(d.encrypted_pages(), 0);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn empty_profiler_scores_zero() {
        assert_eq!(TimingProfiler::new().score(), 0.0);
    }
}
