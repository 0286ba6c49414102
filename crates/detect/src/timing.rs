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
use crate::Detector;
use std::collections::HashSet;

/// Cumulative encrypted-coverage profiler.
#[derive(Clone, Debug)]
pub struct TimingProfiler {
    threshold_bits: f64,
    /// Distinct LPAs ever overwritten with high-entropy data.
    encrypted_lpas: HashSet<u64>,
    /// Distinct LPAs ever seen valid (written at all).
    seen_lpas: HashSet<u64>,
    /// Coverage fraction at which the score saturates to 1.0.
    saturation: f64,
    /// Minimum distinct encrypted pages before scoring (noise floor).
    min_encrypted: usize,
}

impl TimingProfiler {
    /// Saturates at 10 % coverage, 64-page noise floor.
    pub fn new() -> Self {
        Self::with_params(0.10, 64, crate::CIPHERTEXT_BITS)
    }

    /// Explicit saturation coverage, noise floor, and entropy threshold.
    pub fn with_params(saturation: f64, min_encrypted: usize, threshold_bits: f64) -> Self {
        TimingProfiler {
            threshold_bits,
            encrypted_lpas: HashSet::new(),
            seen_lpas: HashSet::new(),
            saturation: saturation.max(1e-6),
            min_encrypted: min_encrypted.max(1),
        }
    }

    /// Distinct pages flagged as encrypted so far.
    pub fn encrypted_pages(&self) -> usize {
        self.encrypted_lpas.len()
    }
}

impl Default for TimingProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for TimingProfiler {
    fn name(&self) -> &'static str {
        "timing-profile"
    }

    fn observe(&mut self, obs: &WriteObservation) {
        self.seen_lpas.insert(obs.lpa);
        if obs.is_trim {
            return;
        }
        if obs.overwrote_valid && obs.entropy_bits >= self.threshold_bits {
            self.encrypted_lpas.insert(obs.lpa);
        } else {
            // Page rewritten with benign data: no longer held hostage.
            self.encrypted_lpas.remove(&obs.lpa);
        }
    }

    fn score(&self) -> f64 {
        if self.encrypted_lpas.len() < self.min_encrypted || self.seen_lpas.is_empty() {
            return 0.0;
        }
        let coverage = self.encrypted_lpas.len() as f64 / self.seen_lpas.len() as f64;
        (coverage / self.saturation).min(1.0)
    }

    fn reset(&mut self) {
        self.encrypted_lpas.clear();
        self.seen_lpas.clear();
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
        let mut d = TimingProfiler::with_params(0.10, 1, 7.2);
        for i in 0..100u64 {
            d.observe(&WriteObservation::fresh_write(i, i, 4.0));
        }
        for i in 0..50u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, false));
        }
        assert!(d.score() > 0.0);
        // User restores files (low-entropy rewrites).
        for i in 0..50u64 {
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
