//! The one per-page table: every page seen, and the pages an attack holds.

use crate::observation::WriteObservation;
use std::collections::HashMap;

/// What the table knows of one page. Ordered so that a trim lifts a page to
/// at least [`Page::Trimmed`] and never lowers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Page {
    /// Written or trimmed, and held by no attack.
    Seen,
    /// Trimmed since its last write, which was no encrypting overwrite.
    Trimmed,
    /// Last written by an encrypting overwrite.
    Encrypted,
}

/// Every page written or trimmed, and which of them an attack holds: the
/// pages whose last write was an encrypting overwrite
/// ([`WriteObservation::is_encrypting_overwrite`]; any other write releases
/// a page), in two views that differ only in trims. The analyzer's
/// ([`VictimSet::sorted`]) also holds each page trimmed since its last
/// write; the timing profile's ([`VictimSet::encrypted`], read against
/// [`VictimSet::seen`]) ignores trims.
#[derive(Clone, Debug, Default)]
pub struct VictimSet {
    pages: HashMap<u64, Page>,
    /// Pages in [`Page::Encrypted`].
    encrypted: usize,
}

impl VictimSet {
    /// Feeds one observation.
    pub fn observe(&mut self, obs: &WriteObservation) {
        let page = self.pages.entry(obs.lpa).or_insert(Page::Seen);
        let was = *page;
        *page = if obs.is_trim {
            was.max(Page::Trimmed)
        } else if obs.is_encrypting_overwrite() {
            Page::Encrypted
        } else {
            Page::Seen
        };
        self.encrypted += usize::from(*page == Page::Encrypted);
        self.encrypted -= usize::from(was == Page::Encrypted);
    }

    /// Distinct pages ever written or trimmed.
    pub fn seen(&self) -> usize {
        self.pages.len()
    }

    /// Pages held by an encrypting overwrite (the timing profile's view).
    pub fn encrypted(&self) -> usize {
        self.encrypted
    }

    /// The analyzer's view in ascending page order — the recovery work list.
    pub fn sorted(&self) -> Vec<u64> {
        let mut lpas: Vec<u64> = self
            .pages
            .iter()
            .filter_map(|(&lpa, &page)| (page != Page::Seen).then_some(lpa))
            .collect();
        lpas.sort_unstable();
        lpas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CIPHERTEXT_BITS;
    use std::collections::{BTreeSet, HashSet};

    /// The post-attack analyzer's rule before the set was shared, verbatim
    /// but for reading its record's fields through the observation
    /// (`old_page_index.is_some()` is `overwrote_valid`): a trim inserts.
    fn analyzer_rule(set: &mut BTreeSet<u64>, obs: &WriteObservation) {
        if obs.is_trim {
            set.insert(obs.lpa);
            return;
        }
        if obs.overwrote_valid && obs.entropy_bits >= CIPHERTEXT_BITS {
            set.insert(obs.lpa);
        } else {
            set.remove(&obs.lpa);
        }
    }

    /// The timing profiler's rule before the set was shared, verbatim: a
    /// trim changes nothing.
    fn profiler_rule(set: &mut HashSet<u64>, obs: &WriteObservation) {
        if obs.is_trim {
            return;
        }
        if obs.overwrote_valid && obs.entropy_bits >= CIPHERTEXT_BITS {
            set.insert(obs.lpa);
        } else {
            set.remove(&obs.lpa);
        }
    }

    /// A seeded stream of writes, overwrites and trims over at most 16
    /// pages, with entropy on and around the threshold (splitmix64).
    fn stream(seed: u64, len: usize) -> Vec<WriteObservation> {
        const ENTROPY: [f64; 5] = [4.0, 7.199, 7.2, 7.201, 7.9];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len as u64)
            .map(|at| {
                let r = next();
                let (lpa, bits) = (r % 16, ENTROPY[(r >> 8) as usize % ENTROPY.len()]);
                match (r >> 16) % 3 {
                    0 => WriteObservation::fresh_write(at, lpa, bits),
                    1 => WriteObservation::overwrite(at, lpa, bits, (r >> 20) & 1 == 1),
                    _ => WriteObservation::trim(at, lpa),
                }
            })
            .collect()
    }

    #[test]
    fn one_set_gives_both_rules_at_every_prefix() {
        for seed in 0..500 {
            let mut set = VictimSet::default();
            let mut analyzer = BTreeSet::new();
            let mut profiler = HashSet::new();
            let mut seen = HashSet::new();
            for obs in stream(seed, 1 + seed as usize % 200) {
                set.observe(&obs);
                analyzer_rule(&mut analyzer, &obs);
                profiler_rule(&mut profiler, &obs);
                seen.insert(obs.lpa);
                assert_eq!(set.sorted(), analyzer.iter().copied().collect::<Vec<_>>());
                let held: HashSet<u64> = set
                    .pages
                    .iter()
                    .filter_map(|(&lpa, &page)| (page == Page::Encrypted).then_some(lpa))
                    .collect();
                assert_eq!(held, profiler, "seed {seed}, after {obs:?}");
                assert_eq!(set.encrypted(), profiler.len());
                assert_eq!(set.seen(), seen.len());
            }
        }
    }

    #[test]
    fn a_trim_keeps_an_encrypted_page_encrypted() {
        let mut set = VictimSet::default();
        set.observe(&WriteObservation::overwrite(0, 3, 7.9, true));
        set.observe(&WriteObservation::trim(1, 3));
        set.observe(&WriteObservation::trim(2, 4));
        assert_eq!((set.encrypted(), set.sorted()), (1, vec![3, 4]));
        set.observe(&WriteObservation::fresh_write(3, 4, 7.9));
        set.observe(&WriteObservation::overwrite(4, 3, 4.0, false));
        assert_eq!((set.encrypted(), set.sorted()), (0, vec![]));
        assert_eq!(set.seen(), 2);
    }
}
