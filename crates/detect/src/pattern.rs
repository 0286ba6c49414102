//! I/O-pattern detectors: read-encrypt-writeback correlation and trim
//! surges.

use crate::observation::WriteObservation;
use crate::Detector;
use std::collections::VecDeque;

/// Flags when recent overwrites are dominated by the read-then-overwrite
/// pattern (the encryptor must read plaintext before writing ciphertext).
#[derive(Clone, Debug)]
pub struct OverwriteCorrelator {
    recent: VecDeque<bool>,
    correlated: usize,
}

impl OverwriteCorrelator {
    /// Overwrites in the sliding window.
    const WINDOW: usize = 256;
    /// Overwrites seen before the correlator will score.
    const MIN_SAMPLES: usize = 32;

    /// Window of 256 overwrites, 32-sample warm-up.
    pub fn new() -> Self {
        OverwriteCorrelator {
            recent: VecDeque::new(),
            correlated: 0,
        }
    }
}

impl Default for OverwriteCorrelator {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for OverwriteCorrelator {
    fn name(&self) -> &'static str {
        "overwrite-correlation"
    }

    fn observe(&mut self, obs: &WriteObservation) {
        if obs.is_trim || !obs.overwrote_valid {
            return;
        }
        self.recent.push_back(obs.read_before_overwrite);
        if obs.read_before_overwrite {
            self.correlated += 1;
        }
        if self.recent.len() > Self::WINDOW && self.recent.pop_front() == Some(true) {
            self.correlated -= 1;
        }
    }

    fn score(&self) -> f64 {
        if self.recent.len() < Self::MIN_SAMPLES {
            return 0.0;
        }
        self.correlated as f64 / self.recent.len() as f64
    }
}

/// Flags a surge of trims of valid data: the trimming attack's second phase
/// (encrypt to new locations, then trim the originals — or trim directly).
#[derive(Clone, Debug)]
pub struct TrimSurgeDetector {
    trim_times: VecDeque<u64>,
}

impl TrimSurgeDetector {
    /// Simulated time a trim stays in the window.
    const WINDOW_NS: u64 = 60_000_000_000;
    /// Trims in the window at which the score saturates.
    const SURGE_THRESHOLD: usize = 128;

    /// 60-simulated-second window, 128-trim surge threshold.
    pub fn new() -> Self {
        TrimSurgeDetector {
            trim_times: VecDeque::new(),
        }
    }
}

impl Default for TrimSurgeDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl Detector for TrimSurgeDetector {
    fn name(&self) -> &'static str {
        "trim-surge"
    }

    fn observe(&mut self, obs: &WriteObservation) {
        if !obs.is_trim {
            return;
        }
        self.trim_times.push_back(obs.at_ns);
        while let Some(&front) = self.trim_times.front() {
            if obs.at_ns.saturating_sub(front) > Self::WINDOW_NS {
                self.trim_times.pop_front();
            } else {
                break;
            }
        }
    }

    fn score(&self) -> f64 {
        (self.trim_times.len() as f64 / Self::SURGE_THRESHOLD as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlator_flags_read_encrypt_writeback() {
        let mut d = OverwriteCorrelator::new();
        for i in 0..100u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, true));
        }
        assert!(d.score() > 0.9);
    }

    #[test]
    fn correlator_ignores_blind_overwrites() {
        let mut d = OverwriteCorrelator::new();
        for i in 0..100u64 {
            d.observe(&WriteObservation::overwrite(i, i, 4.0, false));
        }
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn correlator_warm_up() {
        let mut d = OverwriteCorrelator::new();
        for i in 0..10u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, true));
        }
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn trim_surge_fires_on_burst() {
        let mut d = TrimSurgeDetector::new();
        for i in 0..200u64 {
            d.observe(&WriteObservation::trim(i * 1_000, i));
        }
        assert!((d.score() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trim_surge_quiet_on_sparse_trims() {
        let mut d = TrimSurgeDetector::new();
        // One trim every 10 simulated minutes.
        for i in 0..50u64 {
            d.observe(&WriteObservation::trim(i * 600_000_000_000, i));
        }
        assert!(d.score() < 0.05, "score {}", d.score());
    }

    #[test]
    fn trim_surge_ignores_writes() {
        let mut d = TrimSurgeDetector::new();
        for i in 0..500u64 {
            d.observe(&WriteObservation::overwrite(i, i, 8.0, true));
        }
        assert_eq!(d.score(), 0.0);
    }
}
