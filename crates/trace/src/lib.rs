//! Workload and trace substrate.
//!
//! The paper evaluates RSSD with MSR-Cambridge block traces (hm, src, ts,
//! wdev, rsrch, stg, usr) and FIU traces (home, mail, online, web, webusers),
//! replayed against the prototype. Those traces are not redistributable, so
//! this crate provides **synthetic trace models calibrated to the published
//! per-trace statistics** — daily write volume, read/write mix, working-set
//! skew, request sizes, and payload compressibility — which are the
//! aggregates that determine every retention/overhead result reproduced
//! here (see DESIGN.md §1 for the substitution argument).
//!
//! * [`record`] — I/O records and deterministic payload synthesis.
//! * [`zipf`] — a Zipf sampler for skewed access patterns.
//! * [`synth`] — the generic workload generator.
//! * [`profiles`] — the twelve named trace models of Figure 2.
//! * [`mod@replay`] — drives any [`rssd_ssd::BlockDevice`] from a record
//!   stream through the NVMe-style queue layer, on one or more queue pairs
//!   at their configured depth ([`replay_fanout`]), or scalar-compatibly
//!   ([`replay()`]).

pub mod profiles;
pub mod record;
pub mod replay;
pub mod synth;
pub mod zipf;

pub use profiles::TraceProfile;
pub use record::{synthesize_page, IoOp, IoRecord, PayloadKind};
pub use replay::{replay, replay_fanout, ReplayOutcome, ReplayStats};
pub use synth::{DiurnalLoad, Workload, WorkloadBuilder};
pub use zipf::Zipf;
