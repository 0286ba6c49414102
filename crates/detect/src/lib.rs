//! Ransomware detection algorithms.
//!
//! RSSD offloads detection to the remote side: because the hardware-assisted
//! log preserves every operation in time order, detectors can run on the
//! remote server's ample compute, over arbitrarily long horizons, and with
//! algorithms that can be upgraded without touching device firmware.
//!
//! Detectors consume [`WriteObservation`]s — one per logged write/trim —
//! and an [`Ensemble`] combines their votes:
//!
//! * [`EntropyDetector`] — encrypted payloads are high-entropy and
//!   incompressible.
//! * [`OverwriteCorrelator`] — read-then-overwrite within a window is the
//!   signature of in-place encryption.
//! * [`TrimSurgeDetector`] — a burst of trims following overwrites marks the
//!   trimming attack's cleanup phase.
//! * [`TimingProfiler`] — cumulative long-horizon coverage tracking that
//!   catches rate-limited ("timing attack") encryption which per-window
//!   detectors miss.

pub mod ensemble;
pub mod entropy;
pub mod observation;
pub mod pattern;
pub mod timing;

pub use ensemble::{Ensemble, Verdict};
pub use entropy::{EntropyDetector, CIPHERTEXT_BITS};
pub use observation::{merge_time_ordered, WriteObservation};
pub use pattern::{OverwriteCorrelator, TrimSurgeDetector};
pub use timing::TimingProfiler;

/// A detector consumes observations and exposes a suspicion score in
/// `[0.0, 1.0]`.
pub trait Detector {
    /// Human-readable detector name.
    fn name(&self) -> &'static str;

    /// Feeds one observation.
    fn observe(&mut self, obs: &WriteObservation);

    /// Current suspicion score in `[0.0, 1.0]`.
    fn score(&self) -> f64;
}
