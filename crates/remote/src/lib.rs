//! The remote half of the RSSD network-storage codesign.
//!
//! The paper offloads retained data and logs to "remote cloud/servers"
//! (Amazon S3 and local storage servers in the prototype) and pushes
//! ransomware *detection and analysis* to that remote compute. This crate
//! provides [`server`], the log server — a door in front of the core shelf
//! ([`rssd_core::LoopbackTarget`]) that checks chain continuity,
//! authenticates before it acks and runs the [`rssd_detect`] ensemble —
//! and [`object_store`], the S3-like store's cost model, which prices each
//! PUT. [`RemoteLogServer`] implements [`rssd_core::RemoteTarget`]; an
//! [`rssd_core::RssdDevice`] reaches it over [`rssd_core::WireRemote`],
//! the one network model.

pub mod object_store;
pub mod server;

pub use object_store::{ObjectStoreConfig, ObjectStoreStats};
pub use server::{RemoteLogServer, ServerReport};
