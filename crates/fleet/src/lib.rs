//! Fleet-scale RSSD simulation: thousands of independent members, per-tenant
//! workloads, and wall-clock simulation throughput as a first-class,
//! benchmarked surface.
//!
//! The rest of the workspace simulates *one* ransomware-aware SSD (or one
//! small array) in depth. This crate turns that single-device simulator
//! into a fleet: N members — bare devices and small striped arrays — each
//! owning its simulated clock, its NVMe-oE uplink, its fault injector, and
//! its deterministic workload stream, executed share-nothing on a pool of
//! host worker threads and merged into one [`FleetReport`].
//!
//! # Model
//!
//! * **Members** are assigned a tenant by Zipf popularity (popular tenants
//!   own many devices) and the tenant runs one of the twelve calibrated
//!   [`TraceProfile`](rssd_trace::TraceProfile) models, phase-shifted by a
//!   per-tenant [`DiurnalLoad`](rssd_trace::DiurnalLoad) curve so the
//!   fleet's load breathes the way a datacenter's does.
//! * A seeded fraction of members is **compromised**: after writing a
//!   hostage corpus they run a classic read-encrypt-overwrite actor plus a
//!   trim sweep. A (separately seeded) fraction runs under a deterministic
//!   [`FaultSchedule`](rssd_faults::FaultSchedule).
//! * Each member is replayed through the NVMe queue layer, audited via its
//!   evidence chain, and scored ([`MemberScorecard`]); the fleet fuses all
//!   members' host-side detection streams time-ordered into one ensemble
//!   verdict and merges every stats surface
//!   ([`NandStats`](rssd_flash::NandStats), [`FtlStats`](rssd_ftl::FtlStats),
//!   [`OffloadStats`](rssd_core::OffloadStats),
//!   [`QueuePairStats`](rssd_ssd::QueuePairStats),
//!   [`LatencyStats`](rssd_ssd::LatencyStats),
//!   [`ReplayStats`](rssd_trace::ReplayStats)).
//!
//! # Determinism
//!
//! Member seeds derive from `(fleet seed, member id)` ([`member_seed`]);
//! members share no state; outcomes are merged in member-id order. The
//! worker count is pure wall-clock policy: an 8-worker run is
//! byte-identical to a 1-worker run, pinned by this crate's property
//! tests. Because of that, the *host-side* throughput of the fleet
//! (members simulated per second of wall clock) is a safe performance
//! surface to track — the fleet bench gates on it.
//!
//! ```
//! use rssd_fleet::{Fleet, FleetConfig};
//!
//! let report = Fleet::new(FleetConfig {
//!     members: 8,
//!     workers: 2,
//!     ops_per_member: 40,
//!     ..FleetConfig::default()
//! })
//! .run()
//! .expect("fleet run");
//! assert_eq!(report.scorecards.len(), 8);
//! assert!(report.simulated_iops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod member;
mod report;
mod run;

pub use config::{member_seed, FleetConfig};
pub use member::{
    run_member, run_member_instrumented, FleetError, MemberObs, MemberOutcome, MemberScorecard,
    ObsOptions,
};
pub use report::FleetReport;
pub use run::{Fleet, FleetObs};
