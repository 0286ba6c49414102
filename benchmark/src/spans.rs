//! Host-time spans recorded from the benchmark's own files, around the
//! calls into each layer.
//!
//! A [`Tracer`] is a clonable handle threaded through the driver and the
//! forwarding wrappers of [`crate::stack`]. Each span records its name,
//! start, end, the span that caused it (its parent) and the id of the
//! arbitration round its whole tree belongs to. A layer's self time is its
//! span minus the part its child spans cover, so the self times of one tree
//! sum to the root span exactly — by construction, not by calibration.
//!
//! Totals and a log-linear histogram per span name are kept for every span;
//! the spans themselves are kept in a ring (the newest [`RING_SPANS`]) and
//! written as one Chrome-trace JSON when the run ends. A disabled tracer
//! costs one `Option` check per call.

use rssd_obs::{Histogram, TraceEvent, TraceEventKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// Spans kept for the Chrome trace of one workload.
pub const RING_SPANS: usize = 200_000;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the tracer (1-based).
    pub id: u64,
    /// Identifier of the enclosing span (0 for a root).
    pub parent: u64,
    /// Arbitration round the span's tree belongs to.
    pub round: u64,
    /// Layer-qualified name, e.g. `"remote.store_segment"`.
    pub name: &'static str,
    /// Start, in host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same timeline.
    pub end_ns: u64,
}

/// Accumulated figures of every span with one name.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the children's.
    pub self_ns: u64,
    /// Distribution of durations.
    pub durations: Histogram,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
}

struct Inner {
    origin: Instant,
    open: Vec<Open>,
    ring: VecDeque<Span>,
    next_id: u64,
    round: u64,
    totals: BTreeMap<&'static str, SpanTotals>,
    /// Self time of every span whose root is named by `root_of_interest`.
    under_root_self_ns: u64,
    root_of_interest: &'static str,
}

/// Handle to a span recorder; clones share one recorder. Single-threaded,
/// like the stack it observes.
#[derive(Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer. Self times of spans under a root span named
    /// `root_of_interest` are additionally summed, so the caller can check
    /// that they add up to that root's total.
    pub fn recording(root_of_interest: &'static str) -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            origin: Instant::now(),
            open: Vec::new(),
            ring: VecDeque::with_capacity(RING_SPANS),
            next_id: 1,
            round: 0,
            totals: BTreeMap::new(),
            under_root_self_ns: 0,
            root_of_interest,
        }))))
    }

    /// Starts the next arbitration round: spans opened from now on carry
    /// its id.
    pub fn next_round(&self) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().round += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.0 else {
            return f();
        };
        {
            let mut inner = inner.borrow_mut();
            let id = inner.next_id;
            inner.next_id += 1;
            let start_ns = inner.origin.elapsed().as_nanos() as u64;
            inner.open.push(Open {
                id,
                name,
                start_ns,
                children_ns: 0,
            });
        }
        let out = f();
        let mut inner = inner.borrow_mut();
        let end_ns = inner.origin.elapsed().as_nanos() as u64;
        let open = inner.open.pop().expect("span opened above");
        let duration = end_ns - open.start_ns;
        let self_ns = duration.saturating_sub(open.children_ns);
        let parent = match inner.open.last_mut() {
            Some(parent) => {
                parent.children_ns += duration;
                parent.id
            }
            None => 0,
        };
        let root = inner.open.first().map_or(open.name, |root| root.name);
        if root == inner.root_of_interest {
            inner.under_root_self_ns += self_ns;
        }
        let totals = inner.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += self_ns;
        totals.durations.record(duration);
        if inner.ring.len() == RING_SPANS {
            inner.ring.pop_front();
        }
        let round = inner.round;
        inner.ring.push_back(Span {
            id: open.id,
            parent,
            round,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        out
    }

    /// Takes the per-name totals accumulated so far, leaving none — how a
    /// caller scopes totals to a phase. The ring keeps its spans.
    pub fn take_totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        self.0
            .as_ref()
            .map(|inner| std::mem::take(&mut inner.borrow_mut().totals))
            .unwrap_or_default()
    }

    /// Takes the summed self time of every span under a root of interest
    /// (see [`Tracer::recording`]), leaving zero.
    pub fn take_under_root_self_ns(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| {
            std::mem::take(&mut inner.borrow_mut().under_root_self_ns)
        })
    }

    /// Totals of the spans named `name` (zeroes when none closed).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.0
            .as_ref()
            .and_then(|inner| inner.borrow().totals.get(name).cloned())
            .unwrap_or_default()
    }

    /// The spans still in the ring, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|inner| inner.borrow().ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The ring as Chrome trace-event JSON (Perfetto-loadable): one track
    /// per layer (the part of the name before the first `.`), host time as
    /// the timeline, `id`/`parent`/`round` in each event's args.
    pub fn export_chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans()
            .iter()
            .map(|span| TraceEvent {
                track: span.name.split('.').next().unwrap_or(span.name).to_string(),
                name: span.name.to_string(),
                kind: TraceEventKind::Span {
                    dur_ns: span.end_ns - span.start_ns,
                },
                sim_ns: span.start_ns,
                host_ns: span.start_ns,
                args: vec![
                    ("id".to_string(), span.id.to_string()),
                    ("parent".to_string(), span.parent.to_string()),
                    ("round".to_string(), span.round.to_string()),
                ],
            })
            .collect();
        rssd_obs::export_chrome_trace(&events)
    }
}
