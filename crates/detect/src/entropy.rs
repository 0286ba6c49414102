//! Entropy-based detection: ciphertext is incompressible.

use crate::observation::WriteObservation;
use crate::Detector;
use std::collections::VecDeque;

/// Flags when a large fraction of recent overwrites carry near-ciphertext
/// entropy. Fast against classic ransomware; evadable by rate-limiting
/// (which dilutes the window) — that gap is the timing attack.
#[derive(Clone, Debug, Default)]
pub struct EntropyDetector {
    recent: VecDeque<bool>,
    high_count: usize,
}

impl EntropyDetector {
    /// Overwrites in the sliding window.
    const WINDOW: usize = 256;
    /// Overwrites seen before the detector will score.
    const MIN_SAMPLES: usize = 32;

    /// Sliding window of 256 overwrites, each counted high when it is
    /// [`WriteObservation::is_encrypting_overwrite`]; silent below 32
    /// samples.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Detector for EntropyDetector {
    fn name(&self) -> &'static str {
        "entropy"
    }

    fn observe(&mut self, obs: &WriteObservation) {
        if obs.is_trim || !obs.overwrote_valid {
            return;
        }
        let high = obs.is_encrypting_overwrite();
        self.recent.push_back(high);
        if high {
            self.high_count += 1;
        }
        if self.recent.len() > Self::WINDOW && self.recent.pop_front() == Some(true) {
            self.high_count -= 1;
        }
    }

    fn score(&self) -> f64 {
        if self.recent.len() < Self::MIN_SAMPLES {
            return 0.0;
        }
        self.high_count as f64 / self.recent.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut EntropyDetector, n: usize, entropy: f64) {
        for i in 0..n {
            det.observe(&WriteObservation::overwrite(
                i as u64, i as u64, entropy, false,
            ));
        }
    }

    #[test]
    fn silent_before_min_samples() {
        let mut d = EntropyDetector::new();
        feed(&mut d, 10, 8.0);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn flags_ciphertext_overwrites() {
        let mut d = EntropyDetector::new();
        feed(&mut d, 100, 7.9);
        assert!(d.score() > 0.9);
    }

    #[test]
    fn ignores_low_entropy_writes() {
        let mut d = EntropyDetector::new();
        feed(&mut d, 100, 4.0);
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn fresh_writes_do_not_count() {
        let mut d = EntropyDetector::new();
        for i in 0..100 {
            d.observe(&WriteObservation::fresh_write(i, i, 8.0));
        }
        assert_eq!(
            d.score(),
            0.0,
            "high-entropy *new* data is not encryption of user data"
        );
    }

    #[test]
    fn window_slides() {
        let mut d = EntropyDetector::new();
        feed(&mut d, EntropyDetector::WINDOW, 7.9); // fill with hot
        assert!(d.score() > 0.9, "score {}", d.score());
        feed(&mut d, EntropyDetector::WINDOW, 1.0); // then cold pushes hot out
        assert_eq!(d.score(), 0.0);
    }
}
