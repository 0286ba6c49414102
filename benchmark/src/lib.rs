//! The repo's benchmark: four long workloads on the whole stack, two clocks,
//! every layer timed from outside. See `README.md` in this directory for
//! the workloads, the metrics and how to run and compare.
//!
//! Everything here calls only public items of the workspace crates.

pub mod compare;
pub mod drills;
pub mod driver;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod workloads;
