//! The detector input record.

use serde::{Deserialize, Serialize};

/// Entropy (bits/byte) at or above which an overwrite's payload reads as
/// ciphertext. It is compared in one place,
/// [`WriteObservation::is_encrypting_overwrite`].
pub const CIPHERTEXT_BITS: f64 = 7.2;

/// One observed write or trim, as reconstructed from the hardware-assisted
/// log (or observed inline by an in-device detector baseline).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WriteObservation {
    /// When the operation was issued.
    pub at_ns: u64,
    /// Logical page touched.
    pub lpa: u64,
    /// Shannon entropy of the written payload in bits/byte (0 for trims).
    pub entropy_bits: f64,
    /// Did this write overwrite a previously valid page?
    pub overwrote_valid: bool,
    /// Was the overwritten page read within the correlation window before
    /// this write (read-encrypt-writeback signature)?
    pub read_before_overwrite: bool,
    /// Is this a trim rather than a write?
    pub is_trim: bool,
}

impl WriteObservation {
    /// A benign-looking fresh write.
    pub fn fresh_write(at_ns: u64, lpa: u64, entropy_bits: f64) -> Self {
        WriteObservation {
            at_ns,
            lpa,
            entropy_bits,
            overwrote_valid: false,
            read_before_overwrite: false,
            is_trim: false,
        }
    }

    /// An overwrite of existing data.
    pub fn overwrite(at_ns: u64, lpa: u64, entropy_bits: f64, read_before: bool) -> Self {
        WriteObservation {
            at_ns,
            lpa,
            entropy_bits,
            overwrote_valid: true,
            read_before_overwrite: read_before,
            is_trim: false,
        }
    }

    /// Is this a write (not a trim) over a valid page whose payload reads as
    /// ciphertext? The one victim predicate every detector path asks.
    pub fn is_encrypting_overwrite(&self) -> bool {
        self.overwrote_valid && !self.is_trim && self.entropy_bits >= CIPHERTEXT_BITS
    }

    /// A trim of a valid page.
    pub fn trim(at_ns: u64, lpa: u64) -> Self {
        WriteObservation {
            at_ns,
            lpa,
            entropy_bits: 0.0,
            overwrote_valid: true,
            read_before_overwrite: false,
            is_trim: true,
        }
    }
}

/// Merges per-device observation streams into one fleet-wide stream in
/// global time order.
///
/// Each input stream must itself be time-ordered (they are: each comes from
/// one device's evidence chain, which logs in arrival order). Ties on
/// `at_ns` are broken by stream index, and within a stream the original
/// order is preserved, so the merge is deterministic.
///
/// This is the input side of fleet-level detection: a campaign that spreads
/// its writes across N members shows each member's detector only 1/N of the
/// signal, while the merged stream carries all of it. `rssd-fleet` feeds an
/// [`Ensemble`](crate::Ensemble) this merge of its members' audited logs.
pub fn merge_time_ordered(streams: &[Vec<WriteObservation>]) -> Vec<WriteObservation> {
    let total = streams.iter().map(Vec::len).sum();
    let mut tagged: Vec<(u64, usize, usize)> = Vec::with_capacity(total);
    for (stream_idx, stream) in streams.iter().enumerate() {
        for (pos, obs) in stream.iter().enumerate() {
            tagged.push((obs.at_ns, stream_idx, pos));
        }
    }
    tagged.sort_unstable();
    tagged
        .into_iter()
        .map(|(_, stream_idx, pos)| streams[stream_idx][pos])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let w = WriteObservation::fresh_write(1, 2, 3.0);
        assert!(!w.overwrote_valid && !w.is_trim);
        let o = WriteObservation::overwrite(1, 2, 7.9, true);
        assert!(o.overwrote_valid && o.read_before_overwrite);
        let t = WriteObservation::trim(1, 2);
        assert!(t.is_trim && t.overwrote_valid);
        assert_eq!(t.entropy_bits, 0.0);
    }

    #[test]
    fn merge_orders_globally_and_breaks_ties_by_stream() {
        let a = vec![
            WriteObservation::fresh_write(10, 1, 1.0),
            WriteObservation::fresh_write(30, 2, 1.0),
        ];
        let b = vec![
            WriteObservation::fresh_write(10, 3, 2.0),
            WriteObservation::fresh_write(20, 4, 2.0),
        ];
        let merged = merge_time_ordered(&[a, b]);
        let order: Vec<u64> = merged.iter().map(|o| o.lpa).collect();
        // t=10 tie: stream 0 first; then t=20 from stream 1, t=30 from 0.
        assert_eq!(order, vec![1, 3, 4, 2]);
    }

    #[test]
    fn merge_of_empty_and_singleton_streams() {
        assert!(merge_time_ordered(&[]).is_empty());
        let only = vec![WriteObservation::trim(5, 9)];
        let merged = merge_time_ordered(&[Vec::new(), only.clone()]);
        assert_eq!(merged, only);
    }

    #[test]
    fn merge_preserves_within_stream_order_at_equal_times() {
        // Two same-timestamp observations in one stream must not swap.
        let s = vec![
            WriteObservation::overwrite(7, 1, 7.9, false),
            WriteObservation::overwrite(7, 2, 7.9, false),
        ];
        let merged = merge_time_ordered(&[s]);
        assert_eq!(merged[0].lpa, 1);
        assert_eq!(merged[1].lpa, 2);
    }
}
