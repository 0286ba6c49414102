//! The detector input record.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entropy (bits/byte) at or above which an overwrite's payload reads as
/// ciphertext. It is compared in one place,
/// [`WriteObservation::is_encrypting_overwrite`].
pub const CIPHERTEXT_BITS: f64 = 7.2;

/// One observed write or trim, as reconstructed from the hardware-assisted
/// log (or observed inline by an in-device detector baseline).
#[derive(Clone, Copy, Debug, PartialEq)]
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
/// global time order: [`time_ordered`], collected.
///
/// This is the input side of fleet-level detection: a campaign that spreads
/// its writes across N members shows each member's detector only 1/N of the
/// signal, while the merged stream carries all of it. `rssd-fleet` feeds an
/// [`Ensemble`](crate::Ensemble) the same order straight from
/// [`time_ordered`], without collecting it.
pub fn merge_time_ordered(streams: &[Vec<WriteObservation>]) -> Vec<WriteObservation> {
    time_ordered(streams).copied().collect()
}

/// The observations of every stream in global time order, by a k-way merge
/// that holds one head per stream.
///
/// The order is the one a sort by `(at_ns, stream, position)` gives: ties on
/// `at_ns` are broken by stream index, and within a stream the original
/// order is preserved, so the merge is deterministic. A stream is normally
/// time-ordered already (each comes from one device's evidence chain, which
/// logs in arrival order) and is read in place; one that is not is read
/// through a stable sort of its positions by `at_ns`.
pub fn time_ordered(streams: &[Vec<WriteObservation>]) -> TimeOrdered<'_> {
    let cursors: Vec<Cursor<'_>> = streams
        .iter()
        .map(|stream| Cursor {
            stream,
            order: (!stream.windows(2).all(|pair| pair[0].at_ns <= pair[1].at_ns)).then(|| {
                let mut order: Vec<usize> = (0..stream.len()).collect();
                order.sort_by_key(|&pos| stream[pos].at_ns);
                order
            }),
            next: 0,
        })
        .collect();
    let heads = cursors
        .iter()
        .enumerate()
        .filter_map(|(idx, cursor)| Some(Reverse((cursor.peek()?.at_ns, idx))))
        .collect();
    TimeOrdered {
        remaining: streams.iter().map(Vec::len).sum(),
        cursors,
        heads,
    }
}

/// The iterator [`time_ordered`] returns.
#[derive(Debug)]
pub struct TimeOrdered<'a> {
    cursors: Vec<Cursor<'a>>,
    /// `(at_ns, stream)` of every stream's next observation, least first.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    remaining: usize,
}

/// Where the merge stands in one stream.
#[derive(Debug)]
struct Cursor<'a> {
    stream: &'a [WriteObservation],
    /// The stream's positions in time order, when they are not in it
    /// already.
    order: Option<Vec<usize>>,
    /// How many of the stream's observations the merge has yielded.
    next: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a WriteObservation> {
        let pos = match &self.order {
            Some(order) => *order.get(self.next)?,
            None => self.next,
        };
        self.stream.get(pos)
    }
}

impl<'a> Iterator for TimeOrdered<'a> {
    type Item = &'a WriteObservation;

    fn next(&mut self) -> Option<&'a WriteObservation> {
        let Reverse((_, idx)) = self.heads.pop()?;
        let cursor = &mut self.cursors[idx];
        let obs = cursor.peek().expect("a queued stream has a head");
        cursor.next += 1;
        if let Some(head) = cursor.peek() {
            self.heads.push(Reverse((head.at_ns, idx)));
        }
        self.remaining -= 1;
        Some(obs)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TimeOrdered<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge as a sort of every observation by `(at_ns, stream,
    /// position)`: the order [`time_ordered`] must give.
    fn sorted_by_time(streams: &[Vec<WriteObservation>]) -> Vec<WriteObservation> {
        let mut by_time: Vec<(u64, usize, usize)> = streams
            .iter()
            .enumerate()
            .flat_map(|(idx, stream)| {
                let at = stream.iter().map(|obs| obs.at_ns);
                at.enumerate().map(move |(pos, at_ns)| (at_ns, idx, pos))
            })
            .collect();
        by_time.sort_unstable();
        by_time
            .into_iter()
            .map(|(_, idx, pos)| streams[idx][pos])
            .collect()
    }

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

    /// Streams of observations at times drawn from a few values, so ties
    /// within and across streams are common; each stream is left as drawn
    /// or sorted by time, as its flag says.
    fn streams() -> impl Strategy<Value = Vec<Vec<WriteObservation>>> {
        let stream = (proptest::collection::vec(0u64..6, 0..24), any::<bool>());
        proptest::collection::vec(stream, 0..6).prop_map(|drawn| {
            let mut lpa = 0;
            drawn
                .into_iter()
                .map(|(mut times, sorted)| {
                    if sorted {
                        times.sort_unstable();
                    }
                    times
                        .into_iter()
                        .map(|at_ns| {
                            lpa += 1;
                            WriteObservation::fresh_write(at_ns, lpa, 1.0)
                        })
                        .collect()
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn time_ordered_is_the_sort_by_time_stream_and_position(streams in streams()) {
            let merged: Vec<WriteObservation> = time_ordered(&streams).copied().collect();
            prop_assert_eq!(merged, sorted_by_time(&streams));
            prop_assert_eq!(time_ordered(&streams).len(), streams.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn an_unsorted_stream_keeps_its_order_among_equal_times() {
        let at = [5, 1, 5, 0, 1];
        let stream: Vec<_> = (0..at.len())
            .map(|i| WriteObservation::fresh_write(at[i], i as u64, 1.0))
            .collect();
        let other = vec![WriteObservation::fresh_write(1, 9, 1.0)];
        let merged = merge_time_ordered(&[stream, other]);
        let order: Vec<u64> = merged.iter().map(|o| o.lpa).collect();
        assert_eq!(order, vec![3, 1, 4, 9, 0, 2]);
    }
}
