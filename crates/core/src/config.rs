//! RSSD device configuration.

use serde::{Deserialize, Serialize};

/// Tuning knobs for [`crate::RssdDevice`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RssdConfig {
    /// Device identity carried in every offloaded segment envelope.
    pub device_id: u64,
    /// Seed for the device key hierarchy (factory provisioning stand-in).
    pub key_seed: u64,
    /// Build and offload a segment once this many retained pages are
    /// buffered.
    pub segment_pages: usize,
    /// NAND blocks reserved as a durable evidence-spill region: sealed
    /// segments stage here while the remote is unreachable, so evidence
    /// survives a power cut mid-outage. Zero (the default) disables the
    /// region — staged segments then live in controller RAM only.
    pub spill_blocks: u32,
}

impl Default for RssdConfig {
    fn default() -> Self {
        RssdConfig {
            device_id: 1,
            key_seed: 0x5553_5344, // "USSD"
            segment_pages: 64,
            spill_blocks: 0,
        }
    }
}

impl RssdConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_pages == 0 {
            return Err("segment_pages must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RssdConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_segment() {
        let c = RssdConfig {
            segment_pages: 0,
            ..RssdConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
