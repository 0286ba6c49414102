//! Retained page versions — owned here and nowhere else: the **index**
//! ([`VersionIndex`]: one fold over log records in chain order, whoever
//! feeds it — the device at seal time, crash recovery's metadata walk, a
//! harvest's full walk) and the **rule** ([`valid_at`]: the one function in
//! the workspace that compares a cut-off with version times). Where the
//! index points — a record of a sealed segment — the content comes out of
//! that segment's [`Preimages`](crate::segment::Preimages).

use crate::logrec::{LogOp, LogRecord};
use std::collections::HashMap;

/// One retained version of a page whose content lies in a sealed segment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Version {
    /// Clock time the content was written (0: the log does not say).
    written_at_ns: u64,
    /// Clock time it was invalidated — overwritten or trimmed.
    invalidated_at_ns: u64,
    /// Chain sequence of the invalidating record, which carries the content.
    record_seq: u64,
    /// The sealed segment that record is in.
    pub(crate) segment_seq: u64,
}

/// Where the content of a version the rule selected lies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Located {
    /// On flash, pinned by a pending record: the page's global index.
    Pinned(u64),
    /// Inside a sealed segment, carried by record `record_seq`.
    Sealed { segment_seq: u64, record_seq: u64 },
}

/// The fold's state, one value per page: when its content was written —
/// `None` while it holds none — once `rec` has operated on it, given when it
/// was `before`. A trim leaves the page empty until it is rewritten.
fn written_after(rec: &LogRecord, before: Option<u64>) -> Option<u64> {
    match rec.op {
        LogOp::Write => Some(rec.at_ns),
        LogOp::Trim => None,
        LogOp::Read => before,
    }
}

/// The point-in-time rule. Of `versions` — `(written_at_ns,
/// invalidated_at_ns, locator)`, ascending by invalidation — the one valid
/// at `at_ns` (`None`: the newest): a version invalidated at t was valid
/// until t, so the first invalidated at or after `at_ns` — and only if its
/// content had been written by then: a page born later, or sitting trimmed,
/// held nothing and must not come back holding later data. Both ends are
/// inclusive: a cut-off in the nanosecond of a write ("as of the last good
/// write" is how a roll-back names its target) selects what that write
/// left, and where one version ends and the next begins in that nanosecond,
/// the older wins.
fn valid_at<T>(mut versions: impl Iterator<Item = (u64, u64, T)>, at_ns: Option<u64>) -> Option<T> {
    let version = match at_ns {
        None => versions.last(),
        Some(at_ns) => versions
            .find(|(_, invalidated_at_ns, _)| *invalidated_at_ns >= at_ns)
            .filter(|(written_at_ns, _, _)| *written_at_ns <= at_ns),
    };
    version.map(|(_, _, located)| located)
}

/// The retained versions of every page, as far as the records folded in say.
#[derive(Clone, Debug, Default)]
pub(crate) struct VersionIndex {
    /// Per page in fold order: chain order, so — the device clock never
    /// runs backwards — ascending by `(invalidated_at_ns, record_seq)`.
    versions: HashMap<u64, Vec<Version>>,
    /// Per page, when its current content was written ([`written_after`]).
    written_at: HashMap<u64, u64>,
}

impl VersionIndex {
    /// Folds in `rec`, the next record in chain order, sealed in segment
    /// `segment_seq`; `retained`: it carries a pre-image there.
    pub(crate) fn fold(&mut self, segment_seq: u64, rec: &LogRecord, retained: bool) {
        if rec.op == LogOp::Read {
            return; // retains nothing, writes nothing: not worth the lookups
        }
        let before = self.written_at.get(&rec.lpa).copied();
        if retained {
            let versions = self.versions.entry(rec.lpa).or_default();
            debug_assert!(versions
                .last()
                .map_or(true, |v| v.invalidated_at_ns <= rec.at_ns));
            versions.push(Version {
                written_at_ns: before.unwrap_or(0),
                invalidated_at_ns: rec.at_ns,
                record_seq: rec.seq,
                segment_seq,
            });
        }
        match written_after(rec, before) {
            Some(at_ns) => self.written_at.insert(rec.lpa, at_ns),
            None => self.written_at.remove(&rec.lpa),
        };
    }

    /// Where the version of `lpa` valid at `at_ns` (`None`: the newest)
    /// lies: in a sealed segment, or still pinned on flash by one of
    /// `pending`, the records not sealed yet, which continue the fold.
    pub(crate) fn locate(
        &self,
        lpa: u64,
        at_ns: Option<u64>,
        pending: &[LogRecord],
    ) -> Option<Located> {
        let sealed = self.versions.get(&lpa).into_iter().flatten().map(|v| {
            let located = Located::Sealed {
                segment_seq: v.segment_seq,
                record_seq: v.record_seq,
            };
            (v.written_at_ns, v.invalidated_at_ns, located)
        });
        let mut written_at = self.written_at.get(&lpa).copied();
        let pinned = pending.iter().filter(|rec| rec.lpa == lpa);
        let pinned = pinned.filter_map(|rec| {
            let before = written_at;
            written_at = written_after(rec, before);
            let located = Located::Pinned(rec.old_page_index?);
            Some((before.unwrap_or(0), rec.at_ns, located))
        });
        valid_at(sealed.chain(pinned), at_ns)
    }

    /// Pages with at least one retained version, ascending.
    pub(crate) fn lpas(&self) -> Vec<u64> {
        let mut lpas: Vec<u64> = self.versions.keys().copied().collect();
        lpas.sort_unstable();
        lpas
    }

    /// `true` when `lpa` has at least one retained version.
    pub(crate) fn covers(&self, lpa: u64) -> bool {
        self.versions.contains_key(&lpa)
    }

    /// Retained versions indexed, over all pages.
    pub(crate) fn version_count(&self) -> u64 {
        self.versions.values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::{Version, VersionIndex};
    use crate::{LoopbackTarget, RebuildImage, RssdConfig, RssdDevice};
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::BlockDevice;

    /// `index[&lpa]`, for the tests that look inside the device's index.
    impl std::ops::Index<&u64> for VersionIndex {
        type Output = [Version];

        fn index(&self, lpa: &u64) -> &[Version] {
            &self.versions[lpa]
        }
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    /// What the device — with the history's tail pending, then all of it
    /// sealed — and a harvest of its store say `lpa` held at `cut`, each as
    /// the page's fill byte.
    fn answers(d: &mut RssdDevice<LoopbackTarget>, lpa: u64, cut: u64) -> [Option<u8>; 3] {
        let pending = d.recover_page_before(lpa, cut);
        d.flush_log().unwrap();
        let sealed = d.recover_page_before(lpa, cut);
        let image = RebuildImage::harvest(&d.escrow_keys(), d.remote_mut()).unwrap();
        let image = image.version_before(lpa, cut).map(<[u8]>::to_vec);
        [pending, sealed, image].map(|found| {
            found.map(|data| {
                assert_eq!(data, page(data[0]));
                data[0]
            })
        })
    }

    fn device(clock: &SimClock) -> RssdDevice<LoopbackTarget> {
        RssdDevice::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            clock.clone(),
            RssdConfig::default(),
            LoopbackTarget::new(),
        )
    }

    #[test]
    fn a_page_born_after_the_cutoff_is_not_rolled_back_to_its_first_content() {
        let clock = SimClock::new();
        let mut d = device(&clock);
        clock.advance(1_000);
        let cut = clock.now_ns();
        clock.advance(1_000);
        d.write_page(4, page(0xAB)).unwrap();
        clock.advance(1_000);
        d.write_page(4, page(0xCD)).unwrap();
        assert_eq!(d.recover_newest(4), Some(page(0xAB)));
        // The page held nothing at the cut-off: 0xAB is post-cut-off data.
        assert_eq!(answers(&mut d, 4, cut), [None; 3]);
    }

    #[test]
    fn a_page_sitting_trimmed_at_the_cutoff_does_not_come_back_with_later_content() {
        let clock = SimClock::new();
        let mut d = device(&clock);
        d.write_page(2, page(1)).unwrap();
        clock.advance(1_000);
        d.trim_page(2).unwrap();
        clock.advance(1_000);
        let mid_gap = clock.now_ns();
        clock.advance(1_000);
        d.write_page(2, page(3)).unwrap();
        clock.advance(1_000);
        d.write_page(2, page(4)).unwrap();
        assert_eq!(answers(&mut d, 2, mid_gap), [None; 3]);
        // Before the trim the first content was live — up to and including
        // the nanosecond that trimmed it.
        assert_eq!(answers(&mut d, 2, 500), [Some(1); 3]);
        assert_eq!(answers(&mut d, 2, 1_000), [Some(1); 3]);
    }

    #[test]
    fn a_cutoff_in_the_nanosecond_of_a_write_selects_what_that_write_left() {
        // How a roll-back names its target: "as of the last good write".
        let clock = SimClock::new();
        let mut d = device(&clock);
        clock.advance(1_000);
        d.write_page(7, page(1)).unwrap();
        let cut = clock.now_ns();
        clock.advance(1_000);
        d.write_page(7, page(2)).unwrap();
        assert_eq!(answers(&mut d, 7, cut), [Some(1); 3]);
        assert_eq!(answers(&mut d, 7, cut - 1), [None; 3]);
    }
}
