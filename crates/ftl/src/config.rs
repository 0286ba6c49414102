//! FTL configuration.

/// Garbage-collection victim-selection policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GcPolicy {
    /// Pick the eligible block with the fewest valid pages.
    #[default]
    Greedy,
    /// Cost-benefit: maximize `age * (1 - u) / (2u)` where `u` is block
    /// utilization — prefers cold, mostly-invalid blocks.
    CostBenefit,
}

/// Fraction of raw capacity reserved as over-provisioning (not exposed as
/// logical capacity). Commodity SSDs use 7–28 %.
pub(crate) const OVER_PROVISIONING: f64 = 0.20;
/// Background GC starts when free blocks drop below this fraction of all
/// blocks...
pub(crate) const GC_LOW_WATERMARK: f64 = 0.08;
/// ...and stops once they recover above this one.
pub(crate) const GC_HIGH_WATERMARK: f64 = 0.16;
/// Reserved blocks GC may always draw on for migrations (so GC can make
/// progress even when the host-visible pool is exhausted).
pub(crate) const GC_RESERVED_BLOCKS: u32 = 2;

/// FTL tuning knobs.
///
/// Built with struct-update syntax from [`FtlConfig::default`]:
///
/// ```
/// use rssd_ftl::{FtlConfig, GcPolicy};
///
/// let config = FtlConfig {
///     gc_policy: GcPolicy::CostBenefit,
///     ..FtlConfig::default()
/// };
/// assert_eq!(config.spill_blocks, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FtlConfig {
    /// Victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Blocks reserved (from the top of the block range) as a durable
    /// evidence-spill region. They never enter the allocator's free pool,
    /// are never GC victims, and hold sealed segment images staged while
    /// the remote is unreachable. Zero disables the region.
    pub spill_blocks: u32,
}
