//! The simulated clock.
//!
//! All components of the reproduction — flash timing, FTL, NVMe queues, the
//! Ethernet link, attack actors — share one logical clock in nanoseconds, so
//! every experiment is exactly reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, monotically advancing simulation clock (nanoseconds).
///
/// Cloning a `SimClock` yields a handle onto the same underlying time.
///
/// # Examples
///
/// ```
/// use rssd_flash::SimClock;
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(1_000);
/// assert_eq!(view.now_ns(), 1_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

/// Nanoseconds per simulated second.
pub const NS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per simulated day (used by the retention experiments).
pub const NS_PER_DAY: u64 = 86_400 * NS_PER_SEC;

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            now_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a clock starting at `start_ns`.
    pub fn starting_at(start_ns: u64) -> Self {
        SimClock {
            now_ns: Arc::new(AtomicU64::new(start_ns)),
        }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advances time by `delta_ns`, returning the new time.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns, Ordering::Relaxed) + delta_ns
    }

    /// Moves time forward to `target_ns` if it is in the future; a no-op
    /// otherwise (time never goes backwards). Returns the resulting time.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        self.now_ns.fetch_max(target_ns, Ordering::Relaxed);
        self.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now_ns(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_ns(), 12);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now_ns(), 100);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::starting_at(1_000);
        c.advance_to(500);
        assert_eq!(c.now_ns(), 1_000);
        c.advance_to(2_000);
        assert_eq!(c.now_ns(), 2_000);
    }
}
