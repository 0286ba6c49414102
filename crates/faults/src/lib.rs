//! **rssd-faults** — deterministic fault injection and the scenario-matrix
//! harness.
//!
//! The repo's other crates prove RSSD's guarantees on the happy path: the
//! device, its remote store and the array all stay up, every batch
//! completes atomically. This crate breaks things **on purpose and
//! reproducibly**, and then checks that the guarantees hold anyway:
//!
//! * [`FaultSchedule`] ([`schedule`]) — seeded, op-indexed fault plans:
//!   power cuts (torn batches), remote partition windows
//!   (refused / queued-then-replayed / silently dropped offloads), and
//!   shard deaths — pure data, replayable bit-for-bit.
//! * [`FaultInjector`] ([`injector`]) — a [`BlockDevice`](rssd_ssd::BlockDevice)
//!   wrapper that executes a schedule, so faults compose under the NVMe
//!   controller, the replay harnesses, the attack actors and `RssdArray`
//!   unchanged.
//! * [`PartitionMode`] ([`remote`]) — what a partition window does to
//!   offloads. There is one offload pipeline: the NVMe-oE wire
//!   (`rssd_core::WireRemote`), on which every mode is a link condition,
//!   in front of the in-process store (`rssd_core::LoopbackTarget`).
//! * [`FaultTarget`] ([`target`]) — the fault surface of a device under
//!   test (crash/recover, partition/heal, kill/revive, chain audit),
//!   implemented for bare devices and arrays.
//! * [`cell`] — the staged runner under every cell and every fleet member:
//!   build → arm → ride → settle → audit, each stage written once.
//! * [`ScenarioMatrix`] ([`scenario`]) — composes workload profile ×
//!   attack actor × fault schedule × topology into named cells, runs each
//!   under a seed, and scores every cell ([`Scorecard`]): detection
//!   true/false positives, point-in-time recovery fraction, data-loss
//!   bytes, and the evidence-chain verdict.
//!
//! The invariants the matrix enforces (see DESIGN.md §6):
//!
//! 1. **Acked-durable or detectably lost** — every write acknowledged to
//!    the host is durable on flash across a crash; retention metadata that
//!    dies with controller RAM is bounded and visible (chain length vs.
//!    accounted records).
//! 2. **The evidence chain never forks** — a crash truncates the volatile
//!    tail and recovery resumes at the durable head; dropped offloads
//!    surface as verification failures, never as a silently shorter
//!    history.
//! 3. **Fault-free cells lose nothing** — with the `none` schedule, every
//!    cell recovers 100% of attacked data, and over an ideal link scores
//!    byte-identically to an injector-free device on a plain loopback.

pub mod cell;
pub mod injector;
pub mod remote;
pub mod scenario;
pub mod schedule;
pub mod target;

pub use injector::{FaultInjector, TornBatch};
pub use remote::PartitionMode;
pub use scenario::{
    corpus_pages, next_phase_ns, ActorKind, FaultPlan, MatrixSummary, Scenario, ScenarioMatrix,
    Scorecard, Topology,
};
pub use schedule::{FaultEvent, FaultSchedule};
pub use target::{
    restore_power_healing_link, scenario_member, FaultError, FaultRemote, FaultTarget,
    PowerRestoreReport,
};

// Re-exported so scorecard consumers can match verdicts, and fault-surface
// implementors can name the wire's counters, without another dep.
pub use rssd_core::RemoteFaultStats;
pub use rssd_detect::Verdict;
