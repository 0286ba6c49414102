//! Cryptographic primitives for the RSSD reproduction.
//!
//! RSSD's offload path encrypts and authenticates retained pages and log
//! segments before they leave the SSD over NVMe-over-Ethernet, and its
//! post-attack analysis relies on a *trusted evidence chain*: a tamper-evident,
//! time-ordered chain of MACs over every storage operation the device saw.
//!
//! Everything in this crate is implemented from scratch (no external crypto
//! dependencies) and validated against published test vectors:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256.
//! * [`hmac`] — RFC 2104 / FIPS 198-1 HMAC-SHA-256.
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher.
//! * [`hashchain`] — the chained-HMAC evidence chain primitive.
//! * [`keys`] — the device key hierarchy sealed inside the SSD controller.
//!
//! # Examples
//!
//! ```
//! use rssd_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"hello rssd");
//! assert_eq!(digest.as_bytes().len(), 32);
//! ```

pub mod chacha20;
pub mod hashchain;
pub mod hmac;
pub mod keys;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use hashchain::{ChainLink, ChainVerifyError, HashChain};
pub use hmac::HmacSha256;
pub use keys::{DeviceKeys, KeyPurpose};
pub use sha256::{Digest, Sha256};
