//! The object store's cost model: what a PUT costs the remote, and the
//! counters of what was put and fetched. The segments themselves sit on
//! the core shelf, [`rssd_core::LoopbackTarget`], behind the log server.

/// Latency model for the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectStoreConfig {
    /// Fixed per-request latency (request processing, metadata).
    pub request_latency_ns: u64,
    /// Per-byte cost (storage backend bandwidth).
    pub per_byte_ns: u64,
}

impl ObjectStoreConfig {
    /// Cloud object storage: 10 ms per request, 2 ns/B (500 MB/s
    /// streaming).
    pub fn cloud() -> Self {
        ObjectStoreConfig {
            request_latency_ns: 10_000_000,
            per_byte_ns: 2,
        }
    }

    /// A local storage server: 200 µs per request; its bandwidth is not
    /// modelled (0 ns/B).
    pub fn local_server() -> Self {
        ObjectStoreConfig {
            request_latency_ns: 200_000,
            per_byte_ns: 0,
        }
    }

    /// Simulated time a PUT of `bytes` takes.
    pub(crate) fn put_ns(&self, bytes: u64) -> u64 {
        self.request_latency_ns + self.per_byte_ns * bytes
    }
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        Self::local_server()
    }
}

/// Operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct ObjectStoreStats {
    /// PUT requests served.
    pub puts: u64,
    /// GET requests served, a miss included.
    pub gets: u64,
    /// Bytes currently stored.
    pub stored_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{keys, sealed_segments};
    use crate::RemoteLogServer;
    use rssd_core::{RemoteError, RemoteTarget};

    /// A PUT is priced by the config and counted; the GET returns what was
    /// put and is counted too.
    #[test]
    fn put_get_round_trip() {
        let segment = sealed_segments().swap_remove(0);
        let seq = segment.segment_seq();
        let bytes = segment.wire().len() as u64;
        let mut s = RemoteLogServer::datacenter(&keys());
        let done = s.store_segment(segment.clone(), 0).unwrap().durable_at_ns;
        assert!(done >= 200_000);
        assert_eq!(done, ObjectStoreConfig::local_server().put_ns(bytes));
        assert_eq!(s.fetch_segment(seq).unwrap(), segment);
        assert_eq!(s.store_stats().puts, 1);
        assert_eq!(s.store_stats().gets, 1);
        assert_eq!(s.store_stats().stored_bytes, bytes);
    }

    /// A GET of what was never put finds nothing, and is still a GET.
    #[test]
    fn missing_get_is_none() {
        assert_eq!(
            ObjectStoreConfig::default(),
            ObjectStoreConfig::local_server()
        );
        let mut s = RemoteLogServer::datacenter(&keys());
        assert_eq!(s.fetch_segment(7), Err(RemoteError::NoSuchSegment(7)));
        assert_eq!(
            s.store_stats(),
            ObjectStoreStats {
                puts: 0,
                gets: 1,
                stored_bytes: 0,
            }
        );
    }
}
