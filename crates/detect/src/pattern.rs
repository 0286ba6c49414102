//! The ensemble's two sliding windows: recent overwrites (their entropy and
//! read-encrypt-writeback correlation) and recent trims.

use crate::observation::WriteObservation;
use std::collections::VecDeque;

/// The last 256 overwrites of valid pages, each as two flags: is it an
/// encrypting overwrite ([`WriteObservation::is_encrypting_overwrite`] —
/// ciphertext is incompressible), and was the page read just before (the
/// encryptor must read plaintext before writing ciphertext)? Each flag's
/// score is its share of the window, silent below 32 samples. Rate-limiting
/// dilutes the window; that gap is the timing attack.
#[derive(Clone, Debug, Default)]
pub(crate) struct OverwriteWindow {
    /// `(encrypting, read_before)` per overwrite, oldest first.
    recent: VecDeque<(bool, bool)>,
    encrypting: usize,
    read_before: usize,
}

impl OverwriteWindow {
    /// Overwrites in the sliding window.
    const WINDOW: usize = 256;
    /// Overwrites seen before the window will score.
    const MIN_SAMPLES: usize = 32;

    /// Feeds one observation; trims and fresh writes pass the window by.
    pub(crate) fn observe(&mut self, obs: &WriteObservation) {
        if obs.is_trim || !obs.overwrote_valid {
            return;
        }
        let (encrypting, read_before) = (obs.is_encrypting_overwrite(), obs.read_before_overwrite);
        self.recent.push_back((encrypting, read_before));
        self.encrypting += usize::from(encrypting);
        self.read_before += usize::from(read_before);
        if self.recent.len() > Self::WINDOW {
            let (encrypting, read_before) = self.recent.pop_front().expect("window is full");
            self.encrypting -= usize::from(encrypting);
            self.read_before -= usize::from(read_before);
        }
    }

    /// `count`'s share of the window, once it holds [`Self::MIN_SAMPLES`].
    fn share(&self, count: usize) -> f64 {
        if self.recent.len() < Self::MIN_SAMPLES {
            return 0.0;
        }
        count as f64 / self.recent.len() as f64
    }

    /// The `entropy` score: the share of encrypting overwrites.
    pub(crate) fn entropy(&self) -> f64 {
        self.share(self.encrypting)
    }

    /// The `overwrite-correlation` score: the share read just before.
    pub(crate) fn correlation(&self) -> f64 {
        self.share(self.read_before)
    }
}

/// Trims of the last 60 simulated seconds. A surge of them is the trimming
/// attack's second phase (encrypt to new locations, then trim the
/// originals — or trim directly).
#[derive(Clone, Debug, Default)]
pub(crate) struct TrimWindow {
    trim_times: VecDeque<u64>,
}

impl TrimWindow {
    /// Simulated time a trim stays in the window.
    const WINDOW_NS: u64 = 60_000_000_000;
    /// Trims in the window at which the score saturates.
    const SURGE_THRESHOLD: usize = 128;

    /// Feeds one observation; writes pass the window by.
    pub(crate) fn observe(&mut self, obs: &WriteObservation) {
        if !obs.is_trim {
            return;
        }
        self.trim_times.push_back(obs.at_ns);
        let expired = |&front: &u64| obs.at_ns.saturating_sub(front) > Self::WINDOW_NS;
        while self.trim_times.front().is_some_and(expired) {
            self.trim_times.pop_front();
        }
    }

    /// The `trim-surge` score: trims in the window over the threshold.
    pub(crate) fn score(&self) -> f64 {
        (self.trim_times.len() as f64 / Self::SURGE_THRESHOLD as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut OverwriteWindow, n: usize, entropy: f64) {
        for i in 0..n {
            det.observe(&WriteObservation::overwrite(
                i as u64, i as u64, entropy, false,
            ));
        }
    }

    #[test]
    fn silent_before_min_samples() {
        let mut d = OverwriteWindow::default();
        feed(&mut d, 10, 8.0);
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    fn flags_ciphertext_overwrites() {
        let mut d = OverwriteWindow::default();
        feed(&mut d, 100, 7.9);
        assert!(d.entropy() > 0.9);
    }

    #[test]
    fn ignores_low_entropy_writes() {
        let mut d = OverwriteWindow::default();
        feed(&mut d, 100, 4.0);
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    fn fresh_writes_do_not_count() {
        let mut d = OverwriteWindow::default();
        for i in 0..100 {
            d.observe(&WriteObservation::fresh_write(i, i, 8.0));
        }
        assert_eq!(
            d.entropy(),
            0.0,
            "high-entropy *new* data is not encryption of user data"
        );
    }

    #[test]
    fn window_slides() {
        let mut d = OverwriteWindow::default();
        feed(&mut d, OverwriteWindow::WINDOW, 7.9); // fill with hot
        assert!(d.entropy() > 0.9, "score {}", d.entropy());
        feed(&mut d, OverwriteWindow::WINDOW, 1.0); // then cold pushes hot out
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    fn correlator_flags_read_encrypt_writeback() {
        let mut d = OverwriteWindow::default();
        for i in 0..100u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, true));
        }
        assert!(d.correlation() > 0.9);
    }

    #[test]
    fn correlator_ignores_blind_overwrites() {
        let mut d = OverwriteWindow::default();
        for i in 0..100u64 {
            d.observe(&WriteObservation::overwrite(i, i, 4.0, false));
        }
        assert_eq!(d.correlation(), 0.0);
    }

    #[test]
    fn correlator_warm_up() {
        let mut d = OverwriteWindow::default();
        for i in 0..10u64 {
            d.observe(&WriteObservation::overwrite(i, i, 7.9, true));
        }
        assert_eq!(d.correlation(), 0.0);
    }

    #[test]
    fn trim_surge_fires_on_burst() {
        let mut d = TrimWindow::default();
        for i in 0..200u64 {
            d.observe(&WriteObservation::trim(i * 1_000, i));
        }
        assert!((d.score() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trim_surge_quiet_on_sparse_trims() {
        let mut d = TrimWindow::default();
        // One trim every 10 simulated minutes.
        for i in 0..50u64 {
            d.observe(&WriteObservation::trim(i * 600_000_000_000, i));
        }
        assert!(d.score() < 0.05, "score {}", d.score());
    }

    #[test]
    fn trim_surge_ignores_writes() {
        let mut d = TrimWindow::default();
        for i in 0..500u64 {
            d.observe(&WriteObservation::overwrite(i, i, 8.0, true));
        }
        assert_eq!(d.score(), 0.0);
    }
}
