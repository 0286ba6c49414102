//! An S3-like object store with a simple latency model.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Latency model for the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectStoreConfig {
    /// Fixed per-request latency (request processing, metadata).
    pub request_latency_ns: u64,
    /// Per-byte cost (storage backend bandwidth).
    pub per_byte_ns: u64,
}

impl ObjectStoreConfig {
    /// Cloud object storage: 10 ms per request, ~400 MB/s streaming.
    pub fn cloud() -> Self {
        ObjectStoreConfig {
            request_latency_ns: 10_000_000,
            per_byte_ns: 2,
        }
    }

    /// A local storage server: 200 µs per request, ~2 GB/s.
    pub fn local_server() -> Self {
        ObjectStoreConfig {
            request_latency_ns: 200_000,
            per_byte_ns: 0,
        }
    }
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        Self::local_server()
    }
}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct ObjectStoreStats {
    /// PUT requests served.
    pub puts: u64,
    /// GET requests served.
    pub gets: u64,
    /// Bytes currently stored.
    pub stored_bytes: u64,
}

/// A key→blob store with no delete: what the retention store holds, it
/// keeps (a second PUT of a key replaces its blob). Blobs are refcounted
/// [`Bytes`]: a PUT of an already-shared buffer (the offload wire image)
/// stores a reference, and GETs hand back views, so segments are never
/// deep-copied on the storage path.
#[derive(Clone, Debug, Default)]
pub struct ObjectStore {
    config: ObjectStoreConfig,
    objects: BTreeMap<String, Bytes>,
    stats: ObjectStoreStats,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new(config: ObjectStoreConfig) -> Self {
        ObjectStore {
            config,
            objects: BTreeMap::new(),
            stats: ObjectStoreStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> ObjectStoreStats {
        self.stats
    }

    /// Stores `data` under `key`, returning the simulated completion time.
    pub fn put(&mut self, key: &str, data: impl Into<Bytes>, now_ns: u64) -> u64 {
        let data = data.into();
        self.stats.puts += 1;
        let cost = self.config.request_latency_ns + self.config.per_byte_ns * data.len() as u64;
        if let Some(old) = self.objects.insert(key.to_string(), data) {
            self.stats.stored_bytes -= old.len() as u64;
        }
        self.stats.stored_bytes += self.objects[key].len() as u64;
        now_ns + cost
    }

    /// Fetches the object at `key`, with its simulated completion time.
    /// The returned blob is a refcounted view, not a copy.
    pub fn get(&mut self, key: &str, now_ns: u64) -> Option<(Bytes, u64)> {
        self.stats.gets += 1;
        let data = self.objects.get(key)?.clone();
        let cost = self.config.request_latency_ns + self.config.per_byte_ns * data.len() as u64;
        Some((data, now_ns + cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut s = ObjectStore::new(ObjectStoreConfig::local_server());
        let done = s.put("seg/000", vec![1, 2, 3], 0);
        assert!(done >= 200_000);
        let (data, _) = s.get("seg/000", done).unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(s.stats().puts, 1);
        assert_eq!(s.stats().gets, 1);
    }

    #[test]
    fn missing_get_is_none() {
        let mut s = ObjectStore::new(ObjectStoreConfig::default());
        assert!(s.get("nope", 0).is_none());
    }

    #[test]
    fn overwrite_accounts_bytes() {
        let mut s = ObjectStore::new(ObjectStoreConfig::default());
        s.put("k", vec![0; 100], 0);
        s.put("k", vec![0; 40], 0);
        assert_eq!(s.stats().stored_bytes, 40);
    }

    #[test]
    fn cloud_is_slower_than_local() {
        let mut cloud = ObjectStore::new(ObjectStoreConfig::cloud());
        let mut local = ObjectStore::new(ObjectStoreConfig::local_server());
        let a = cloud.put("k", vec![0; 1_000_000], 0);
        let b = local.put("k", vec![0; 1_000_000], 0);
        assert!(a > b);
    }
}
