//! The trace grammar: the rules a recorded run keeps beyond what
//! [`TraceEvent`]'s types and the Chrome export already guarantee.

use crate::trace::{TraceEvent, TraceEventKind};
use std::collections::{HashMap, HashSet};

/// A rule of the trace grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRule {
    /// Every event names a non-empty track.
    EmptyTrack,
    /// `sim_ns` never decreases on a track, in emission order.
    TimeRegressed,
    /// A `retransmission` consumes one earlier data `link_loss` of its fragment.
    RetransmissionWithoutLoss,
    /// No `segment_transfer` of a (track, `segment_seq`) still in flight.
    TransferInFlight,
    /// A `segment_ack` or `segment_ack_lost` closes one transfer in flight.
    AckWithoutTransfer,
    /// A `segment_ack` is stamped at or after its `acked_at_ns`.
    AckBeforeArrival,
}

/// The first event that breaks a rule: its index, its track, the rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceViolation {
    pub index: usize,
    pub track: String,
    pub rule: TraceRule,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TraceViolation { index, track, rule } = self;
        write!(f, "trace event {index} on track {track:?} breaks {rule:?}")
    }
}

impl std::error::Error for TraceViolation {}

/// The counts of a trace that keeps every rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub tracks: usize,
    pub spans: usize,
    pub instants: usize,
    pub retransmissions_matched: usize,
    pub transfers_closed: usize,
    pub in_flight_at_end: usize,
}

/// Checks `events` in emission order; the error is the first violation.
pub fn check(events: &[TraceEvent]) -> Result<TraceSummary, TraceViolation> {
    let mut last_ns = HashMap::new();
    let mut unmatched_losses: HashMap<_, i64> = HashMap::new();
    let mut in_flight = HashSet::new();
    let mut summary = TraceSummary::default();
    for (index, event) in events.iter().enumerate() {
        let (track, now) = (event.track.as_str(), event.sim_ns);
        let arg = |key: &str| event.args.iter().find(|a| a.0 == key).map(|a| a.1.as_str());
        let segment = (track, arg("segment_seq"));
        let fragment = (segment, arg("fragment"));
        let arrived =
            arg("acked_at_ns").is_some_and(|at| at.parse().is_ok_and(|at: u64| at <= now));
        let ack = matches!(event.name.as_str(), "segment_ack" | "segment_ack_lost");
        summary.spans += usize::from(matches!(event.kind, TraceEventKind::Span { .. }));
        // Arms run in rule order and their guards keep the books, so the
        // first arm that names a rule is the one the event breaks.
        let broken = match event.name.as_str() {
            _ if track.is_empty() => Some(TraceRule::EmptyTrack),
            _ if last_ns.insert(track, now) > Some(now) => Some(TraceRule::TimeRegressed),
            "link_loss" if arg("kind") == Some("data") => {
                *unmatched_losses.entry(fragment).or_default() += 1;
                None
            }
            "retransmission" => {
                let unmatched = unmatched_losses.entry(fragment).or_default();
                *unmatched -= 1;
                summary.retransmissions_matched += 1;
                (*unmatched < 0).then_some(TraceRule::RetransmissionWithoutLoss)
            }
            "segment_transfer" if !in_flight.insert(segment) => Some(TraceRule::TransferInFlight),
            _ if ack && !in_flight.remove(&segment) => Some(TraceRule::AckWithoutTransfer),
            "segment_ack" if !arrived => Some(TraceRule::AckBeforeArrival),
            _ => {
                summary.transfers_closed += usize::from(ack);
                None
            }
        };
        if let Some(rule) = broken {
            let track = track.to_string();
            return Err(TraceViolation { index, track, rule });
        }
    }
    summary.tracks = last_ns.len();
    summary.instants = events.len() - summary.spans;
    summary.in_flight_at_end = in_flight.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(track: &str, name: &str, sim_ns: u64, args: &[(&str, &str)]) -> TraceEvent {
        TraceEvent {
            track: track.to_string(),
            name: name.to_string(),
            kind: TraceEventKind::Instant,
            sim_ns,
            host_ns: 0,
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        }
    }

    fn loss(seq: &str, fragment: &str, at: u64) -> TraceEvent {
        let args = [
            ("kind", "data"),
            ("segment_seq", seq),
            ("fragment", fragment),
        ];
        event("wire/uplink", "link_loss", at, &args)
    }

    fn retransmission(seq: &str, fragment: &str, at: u64) -> TraceEvent {
        let args = [("segment_seq", seq), ("fragment", fragment), ("round", "1")];
        event("wire/uplink", "retransmission", at, &args)
    }

    fn transfer(seq: &str, at: u64, acked_at: u64) -> TraceEvent {
        TraceEvent {
            kind: TraceEventKind::Span {
                dur_ns: acked_at - at,
            },
            ..event("offload", "segment_transfer", at, &[("segment_seq", seq)])
        }
    }

    fn ack(name: &str, seq: &str, at: u64, acked_at: &str) -> TraceEvent {
        let args = [("segment_seq", seq), ("acked_at_ns", acked_at)];
        event("offload", name, at, &args)
    }

    /// The (event index, rule) `check` refuses `events` with.
    fn refused(events: &[TraceEvent]) -> (usize, TraceRule) {
        let violation = check(events).expect_err("the trace breaks a rule");
        (violation.index, violation.rule)
    }

    #[test]
    fn an_honest_trace_passes_and_is_summarised() {
        let events = [
            event("nand/ch0/pl0", "program", 0, &[]),
            transfer("1", 10, 50),
            loss("1", "0", 10),
            // An ack loss licenses nothing and needs no partner.
            event(
                "wire/uplink",
                "link_loss",
                12,
                &[("kind", "ack"), ("segment_seq", "1")],
            ),
            // Another track may sit behind this one's clock.
            event("nand/ch0/pl0", "read", 5, &[]),
            retransmission("1", "0", 30),
            ack("segment_ack", "1", 50, "50"),
            // Once closed, a segment may be shipped again, and a power cut
            // may lose an ack before it arrives.
            transfer("1", 60, 90),
            ack("segment_ack_lost", "1", 70, "90"),
            transfer("2", 80, 120),
        ];
        assert_eq!(
            check(&events),
            Ok(TraceSummary {
                tracks: 3,
                spans: 3,
                instants: 7,
                retransmissions_matched: 1,
                transfers_closed: 2,
                in_flight_at_end: 1,
            })
        );
    }

    #[test]
    fn time_that_steps_back_on_one_track_is_refused() {
        let events = [
            event("nand/ch0/pl0", "program", 50, &[]),
            event("wire/uplink", "link_loss", 10, &[]),
            event("nand/ch0/pl0", "read", 49, &[]),
        ];
        assert_eq!(refused(&events), (2, TraceRule::TimeRegressed));
    }

    #[test]
    fn an_event_without_a_track_is_refused() {
        let events = [
            event("host/rounds", "round", 0, &[]),
            event("", "round", 1, &[]),
        ];
        assert_eq!(refused(&events), (1, TraceRule::EmptyTrack));
    }

    #[test]
    fn a_retransmission_without_its_data_loss_is_refused() {
        let rule = TraceRule::RetransmissionWithoutLoss;
        // Another fragment's loss.
        assert_eq!(
            refused(&[loss("1", "0", 0), retransmission("1", "1", 5)]),
            (1, rule)
        );
        // One loss licenses one retransmission.
        let twice = [
            loss("1", "0", 0),
            retransmission("1", "0", 5),
            retransmission("1", "0", 9),
        ];
        assert_eq!(refused(&twice), (2, rule));
        // A lost ack is not a lost data frame.
        let ack_loss = event(
            "wire/uplink",
            "link_loss",
            0,
            &[("kind", "ack"), ("segment_seq", "1")],
        );
        assert_eq!(refused(&[ack_loss, retransmission("1", "0", 5)]), (1, rule));
    }

    #[test]
    fn an_ack_without_a_transfer_is_refused() {
        let rule = TraceRule::AckWithoutTransfer;
        assert_eq!(refused(&[ack("segment_ack", "1", 5, "5")]), (0, rule));
        // The transfer was of another segment, and the lost ack closes none.
        let events = [transfer("1", 0, 10), ack("segment_ack_lost", "2", 5, "10")];
        assert_eq!(refused(&events), (1, rule));
    }

    #[test]
    fn a_second_transfer_in_flight_is_refused() {
        let events = [
            transfer("1", 0, 10),
            transfer("2", 2, 12),
            transfer("1", 5, 20),
        ];
        assert_eq!(refused(&events), (2, TraceRule::TransferInFlight));
    }

    #[test]
    fn an_ack_before_its_arrival_is_refused() {
        let rule = TraceRule::AckBeforeArrival;
        let early = [transfer("1", 0, 50), ack("segment_ack", "1", 40, "50")];
        assert_eq!(refused(&early), (1, rule));
        let unstamped = [transfer("1", 0, 50), ack("segment_ack", "1", 60, "soon")];
        assert_eq!(refused(&unstamped), (1, rule));
    }
}
