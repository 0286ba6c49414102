//! Dual-timeline structured trace events and the explicit sink handle.
//!
//! Every event carries two timestamps: `sim_ns`, the simulated-device time
//! from the component's `SimClock` (the primary timeline — it is what the
//! Chrome export renders, so a Perfetto view shows the *device's* schedule,
//! pipelined NAND overlap and all), and `host_ns`, host wall-time relative
//! to the sink's creation (carried in the event args, for correlating
//! simulated work with where the simulator itself spends real time).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What shape of event this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A complete span: `sim_ns .. sim_ns + dur_ns` on its track.
    Span {
        /// Span duration in simulated nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
}

/// One recorded event. Plain data (`Send`), so a fleet worker can extract
/// a member's events and ship them across the thread boundary even though
/// the [`SinkHandle`] itself is thread-local.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Track the event renders on, e.g. `"nand/ch0/pl1"`, `"link/uplink"`,
    /// `"host/rounds"`, `"member/3"`. One track per channel/plane/link/
    /// member is the export contract.
    pub track: String,
    /// Event name, e.g. `"program"`, `"gc_pass"`, `"retransmission"`.
    pub name: String,
    /// Span or instant.
    pub kind: TraceEventKind,
    /// Simulated time of the event (span start), in nanoseconds.
    pub sim_ns: u64,
    /// Host wall-time at emission, in nanoseconds since the sink was
    /// created. Non-deterministic by nature; it never feeds back into any
    /// simulated result.
    pub host_ns: u64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

/// The recording buffer behind an enabled sink.
#[derive(Debug)]
struct TraceBuffer {
    origin: Instant,
    events: Vec<TraceEvent>,
}

/// An explicit, clonable handle to a trace sink.
///
/// The default handle is **disabled** (the `NullSink`): every emission
/// method is a no-op behind one `Option` check, and nothing is allocated.
/// [`SinkHandle::recording`] creates an enabled sink; clones share the same
/// buffer, which is how one sink is threaded through a whole device stack
/// (device → FTL → NAND, plus the wire and the fault injector).
///
/// Deliberately `!Send`: sinks live and die inside one thread, matching
/// the fleet's share-nothing worker model. Extract events with
/// [`SinkHandle::take_events`] before crossing threads.
#[derive(Clone, Default)]
pub struct SinkHandle {
    buffer: Option<Rc<RefCell<TraceBuffer>>>,
    /// Prepended to every emitted track name. This is how several
    /// instrumented stacks share one buffer without their tracks colliding:
    /// an array hands shard *i* a `shard{i}/`-prefixed clone, a fleet hands
    /// member *m* an `m{m}/`-prefixed one.
    prefix: Option<Rc<str>>,
}

impl SinkHandle {
    /// The disabled sink (alias for `Default`): all emissions are no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        SinkHandle::default()
    }

    /// A fresh recording sink.
    #[must_use]
    pub fn recording() -> Self {
        SinkHandle {
            buffer: Some(Rc::new(RefCell::new(TraceBuffer {
                origin: Instant::now(),
                events: Vec::new(),
            }))),
            prefix: None,
        }
    }

    /// A handle onto the same buffer whose emitted track names gain
    /// `prefix` in front (composing with any prefix this handle already
    /// has). Disabled handles stay disabled.
    #[must_use]
    pub fn with_track_prefix(&self, prefix: &str) -> SinkHandle {
        let combined = match &self.prefix {
            Some(existing) => format!("{existing}{prefix}"),
            None => prefix.to_string(),
        };
        SinkHandle {
            buffer: self.buffer.clone(),
            prefix: Some(Rc::from(combined.as_str())),
        }
    }

    /// Is this sink recording?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.buffer.is_some()
    }

    fn prefixed(&self, track: &str) -> String {
        match &self.prefix {
            Some(p) => format!("{p}{track}"),
            None => track.to_string(),
        }
    }

    /// Records a complete span `[start_ns, end_ns]` of simulated time on
    /// `track`. A span whose end precedes its start is clamped to zero
    /// duration rather than dropped.
    pub fn span(
        &self,
        track: &str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, String)],
    ) {
        let Some(buffer) = &self.buffer else { return };
        let track = self.prefixed(track);
        let mut buffer = buffer.borrow_mut();
        let host_ns = buffer.origin.elapsed().as_nanos() as u64;
        buffer.events.push(TraceEvent {
            track,
            name: name.to_string(),
            kind: TraceEventKind::Span {
                dur_ns: end_ns.saturating_sub(start_ns),
            },
            sim_ns: start_ns,
            host_ns,
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    /// Records an instantaneous event at simulated time `sim_ns` on `track`.
    pub fn instant(&self, track: &str, name: &str, sim_ns: u64, args: &[(&str, String)]) {
        let Some(buffer) = &self.buffer else { return };
        let track = self.prefixed(track);
        let mut buffer = buffer.borrow_mut();
        let host_ns = buffer.origin.elapsed().as_nanos() as u64;
        buffer.events.push(TraceEvent {
            track,
            name: name.to_string(),
            kind: TraceEventKind::Instant,
            sim_ns,
            host_ns,
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
    }

    /// Number of events recorded so far (0 for a disabled sink).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffer.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    /// True when no events have been recorded (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the recorded events (empty for a disabled sink).
    /// The events are plain data and may cross threads.
    #[must_use]
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.buffer
            .as_ref()
            .map_or_else(Vec::new, |b| std::mem::take(&mut b.borrow_mut().events))
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.buffer {
            None => write!(f, "SinkHandle(disabled)"),
            Some(b) => write!(f, "SinkHandle({} events)", b.borrow().events.len()),
        }
    }
}

/// Sink identity is *not* simulation state: two device stacks that differ
/// only in whether a sink is attached are byte-identical as far as any
/// simulated result is concerned, so handles compare equal unconditionally.
/// This keeps `PartialEq`-derived determinism contracts (fleet reports,
/// scorecards) meaningful on types that carry a handle.
impl PartialEq for SinkHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for SinkHandle {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = SinkHandle::disabled();
        sink.span("t", "a", 0, 10, &[]);
        sink.instant("t", "b", 5, &[]);
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert!(sink.take_events().is_empty());
    }

    #[test]
    fn recording_sink_shares_its_buffer_across_clones() {
        let sink = SinkHandle::recording();
        let clone = sink.clone();
        sink.span("nand/ch0/pl0", "program", 100, 600, &[("lpa", "3".into())]);
        clone.instant("link/up", "link_loss", 700, &[]);
        assert_eq!(sink.len(), 2);
        let events = clone.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "program");
        assert_eq!(events[0].kind, TraceEventKind::Span { dur_ns: 500 });
        assert_eq!(events[1].kind, TraceEventKind::Instant);
        assert!(sink.is_empty(), "take_events drains the shared buffer");
    }

    #[test]
    fn inverted_span_clamps_to_zero_duration() {
        let sink = SinkHandle::recording();
        sink.span("t", "x", 50, 10, &[]);
        let events = sink.take_events();
        assert_eq!(events[0].kind, TraceEventKind::Span { dur_ns: 0 });
    }

    #[test]
    fn track_prefixes_compose_and_share_the_buffer() {
        let sink = SinkHandle::recording();
        let member = sink.with_track_prefix("m3/");
        let shard = member.with_track_prefix("shard1/");
        sink.instant("faults", "power_cut", 1, &[]);
        member.instant("faults", "power_cut", 2, &[]);
        shard.span("nand/ch0/pl0", "program", 3, 4, &[]);
        let events = sink.take_events();
        let tracks: Vec<&str> = events.iter().map(|e| e.track.as_str()).collect();
        assert_eq!(tracks, ["faults", "m3/faults", "m3/shard1/nand/ch0/pl0"]);
        assert!(!SinkHandle::disabled().with_track_prefix("x/").is_enabled());
    }

    #[test]
    fn handles_compare_equal_regardless_of_state() {
        let a = SinkHandle::recording();
        a.instant("t", "x", 0, &[]);
        assert_eq!(a, SinkHandle::disabled());
    }
}
