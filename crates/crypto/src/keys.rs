//! Device key hierarchy.
//!
//! In the RSSD prototype the keys live inside the SSD controller and are never
//! visible to the host: the threat model trusts the firmware but not the OS.
//! This module models that hierarchy — a root device key from which
//! purpose-specific subkeys are derived with HMAC-based derivation, so that
//! compromise of one purpose key (e.g. a remote server learning the offload
//! encryption key) does not reveal the evidence-chain key.

use crate::hmac::HmacSha256;

/// What a derived key is used for. Each purpose yields an independent subkey.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyPurpose {
    /// Encrypting retained pages / log segments on the offload path.
    OffloadEncryption,
    /// Authenticating offloaded segments toward the remote server.
    SegmentAuthentication,
    /// The evidence-chain HMAC key.
    EvidenceChain,
    /// Per-session NVMe-oE transport key.
    Transport,
}

impl KeyPurpose {
    fn label(self) -> &'static [u8] {
        match self {
            KeyPurpose::OffloadEncryption => b"rssd/offload-encryption/v1",
            KeyPurpose::SegmentAuthentication => b"rssd/segment-auth/v1",
            KeyPurpose::EvidenceChain => b"rssd/evidence-chain/v1",
            KeyPurpose::Transport => b"rssd/transport/v1",
        }
    }
}

/// The device key hierarchy rooted in a 256-bit provisioning secret.
///
/// # Examples
///
/// ```
/// use rssd_crypto::keys::{DeviceKeys, KeyPurpose};
///
/// let keys = DeviceKeys::from_root([0x42; 32]);
/// let k1 = keys.derive(KeyPurpose::EvidenceChain, 0);
/// let k2 = keys.derive(KeyPurpose::OffloadEncryption, 0);
/// assert_ne!(k1, k2);
/// ```
#[derive(Clone)]
pub struct DeviceKeys {
    root: [u8; 32],
}

impl std::fmt::Debug for DeviceKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the root secret.
        f.debug_struct("DeviceKeys")
            .field("root", &"<sealed>")
            .finish()
    }
}

impl DeviceKeys {
    /// Builds the hierarchy from the provisioning root secret.
    pub fn from_root(root: [u8; 32]) -> Self {
        DeviceKeys { root }
    }

    /// Derives a deterministic test hierarchy from a small seed. Intended for
    /// simulations and tests; a real device provisions the root in the
    /// factory.
    pub fn for_simulation(seed: u64) -> Self {
        let digest = HmacSha256::mac(b"rssd/sim-root/v1", &seed.to_le_bytes());
        DeviceKeys::from_root(*digest.as_bytes())
    }

    /// Derives the 256-bit subkey for `purpose` at `epoch`.
    pub fn derive(&self, purpose: KeyPurpose, epoch: u32) -> [u8; 32] {
        let mut mac = HmacSha256::new(&self.root);
        mac.update(purpose.label());
        mac.update(&epoch.to_le_bytes());
        *mac.finalize().as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purposes_yield_independent_keys() {
        let keys = DeviceKeys::from_root([1u8; 32]);
        let purposes = [
            KeyPurpose::OffloadEncryption,
            KeyPurpose::SegmentAuthentication,
            KeyPurpose::EvidenceChain,
            KeyPurpose::Transport,
        ];
        for (i, a) in purposes.iter().enumerate() {
            for b in &purposes[i + 1..] {
                assert_ne!(keys.derive(*a, 0), keys.derive(*b, 0), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn epochs_rotate_keys() {
        let keys = DeviceKeys::from_root([1u8; 32]);
        assert_ne!(
            keys.derive(KeyPurpose::Transport, 0),
            keys.derive(KeyPurpose::Transport, 1)
        );
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = DeviceKeys::from_root([7u8; 32]);
        let b = DeviceKeys::from_root([7u8; 32]);
        assert_eq!(
            a.derive(KeyPurpose::EvidenceChain, 3),
            b.derive(KeyPurpose::EvidenceChain, 3)
        );
    }

    #[test]
    fn different_roots_different_keys() {
        let a = DeviceKeys::from_root([7u8; 32]);
        let b = DeviceKeys::from_root([8u8; 32]);
        assert_ne!(
            a.derive(KeyPurpose::EvidenceChain, 0),
            b.derive(KeyPurpose::EvidenceChain, 0)
        );
    }

    #[test]
    fn debug_never_leaks_root() {
        let keys = DeviceKeys::from_root([0xAA; 32]);
        let s = format!("{keys:?}");
        assert!(s.contains("sealed"));
        assert!(!s.contains("170")); // 0xAA
    }

    #[test]
    fn simulation_seed_is_deterministic() {
        assert_eq!(
            DeviceKeys::for_simulation(9).derive(KeyPurpose::Transport, 0),
            DeviceKeys::for_simulation(9).derive(KeyPurpose::Transport, 0)
        );
    }
}
