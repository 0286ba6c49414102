//! Entropy-based detection: ciphertext is incompressible.

use crate::observation::WriteObservation;
use crate::Detector;
use std::collections::VecDeque;

/// Entropy (bits/byte) at or above which an overwrite is treated as
/// ciphertext: the one threshold the detectors' verdict and the post-attack
/// analyzer's victim list both use.
pub const CIPHERTEXT_BITS: f64 = 7.2;

/// Flags when a large fraction of recent overwrites carry near-ciphertext
/// entropy. Fast against classic ransomware; evadable by rate-limiting
/// (which dilutes the window) — that gap is the timing attack.
#[derive(Clone, Debug)]
pub struct EntropyDetector {
    window: usize,
    threshold_bits: f64,
    recent: VecDeque<bool>,
    high_count: usize,
    min_samples: usize,
}

impl EntropyDetector {
    /// Sliding window of 256 overwrites, threshold [`CIPHERTEXT_BITS`].
    pub fn new() -> Self {
        Self::with_params(256, CIPHERTEXT_BITS, 32)
    }

    /// Explicit window length, entropy threshold, and minimum samples before
    /// the detector will score.
    pub fn with_params(window: usize, threshold_bits: f64, min_samples: usize) -> Self {
        EntropyDetector {
            window: window.max(1),
            threshold_bits,
            recent: VecDeque::new(),
            high_count: 0,
            min_samples: min_samples.max(1),
        }
    }
}

impl Default for EntropyDetector {
    fn default() -> Self {
        Self::new()
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
        let high = obs.entropy_bits >= self.threshold_bits;
        self.recent.push_back(high);
        if high {
            self.high_count += 1;
        }
        if self.recent.len() > self.window && self.recent.pop_front() == Some(true) {
            self.high_count -= 1;
        }
    }

    fn score(&self) -> f64 {
        if self.recent.len() < self.min_samples {
            return 0.0;
        }
        self.high_count as f64 / self.recent.len() as f64
    }

    fn reset(&mut self) {
        self.recent.clear();
        self.high_count = 0;
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
        let mut d = EntropyDetector::with_params(50, 7.2, 10);
        feed(&mut d, 50, 7.9); // fill with hot
        feed(&mut d, 50, 1.0); // then cold pushes hot out
        assert!(d.score() < 0.1, "score {}", d.score());
    }

    #[test]
    fn reset_clears() {
        let mut d = EntropyDetector::new();
        feed(&mut d, 100, 8.0);
        d.reset();
        assert_eq!(d.score(), 0.0);
    }
}
