//! Ransomware detection algorithms.
//!
//! RSSD offloads detection to the remote side: because the hardware-assisted
//! log preserves every operation in time order, detection can run on the
//! remote server's ample compute, over arbitrarily long horizons, and with
//! algorithms that can be upgraded without touching device firmware.
//!
//! One [`Ensemble`] consumes [`WriteObservation`]s — one per logged
//! write/trim — and gives four scores and the verdict they add up to:
//!
//! * `entropy` — encrypted payloads are high-entropy and incompressible;
//! * `overwrite-correlation` — read-then-overwrite is the signature of
//!   in-place encryption;
//! * `trim-surge` — a burst of trims marks the trimming attack's cleanup
//!   phase;
//! * `timing-profile` — cumulative long-horizon coverage, which catches
//!   rate-limited ("timing attack") encryption that per-window scores miss.
//!
//! The first two are shares of one window of recent overwrites, the third
//! counts a window of recent trims, and the fourth reads the one per-page
//! table, the [`VictimSet`].
//!
//! One rule says which pages an attack holds:
//! [`WriteObservation::is_encrypting_overwrite`] is the one place
//! [`CIPHERTEXT_BITS`] is compared, and the ensemble's [`VictimSet`]
//! (exposed as [`Ensemble::victims`]) is the post-attack analyzer's victim
//! list too.

pub mod ensemble;
pub mod observation;
mod pattern;
mod timing;
pub mod victims;

pub use ensemble::{Ensemble, Verdict};
pub use observation::{
    merge_time_ordered, time_ordered, TimeOrdered, WriteObservation, CIPHERTEXT_BITS,
};
pub use victims::VictimSet;
