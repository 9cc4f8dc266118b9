//! The simulated decentralized document web.
//!
//! §2: "The Semantic Web, being an aggregation of distributed metadata,
//! constitutes an inherently data-centric environment model. Messages are
//! exchanged by publishing or updating documents encoded in RDF … Hence,
//! communication becomes restricted to asynchronous message exchange."
//!
//! [`DocumentWeb`] is that environment: a concurrent URI → document map
//! where agents *publish* (create or update, bumping a version counter) and
//! crawlers *fetch*. There is no direct agent-to-agent channel — by design.
//!
//! Each web keeps its own traffic books, read with
//! [`DocumentWeb::metrics`]: a fetch that finds a document is a
//! `web.store.reads`, one that misses a `web.store.misses` (dangling links
//! are not real traffic), a publish or remove a `web.store.writes`.
//! [`DocumentWeb::fetch_count`] is reads plus misses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use semrec_obs::MetricsSnapshot;

/// A published document: body, media type and monotonically increasing
/// version (bumped on every re-publish).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Document {
    /// The document body (Turtle for homepages, HTML for weblogs).
    pub body: String,
    /// Media type, e.g. `text/turtle` or `text/html`.
    pub content_type: String,
    /// Version, starting at 1.
    pub version: u64,
}

/// A concurrent URI-addressed document store with publish/fetch semantics.
#[derive(Debug, Default)]
pub struct DocumentWeb {
    docs: RwLock<HashMap<String, Document>>,
    reads: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl DocumentWeb {
    /// Creates an empty web.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or updates) a document; returns its new version.
    pub fn publish(
        &self,
        uri: impl Into<String>,
        body: impl Into<String>,
        content_type: impl Into<String>,
    ) -> u64 {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut docs = self.docs.write().unwrap();
        let entry = docs.entry(uri.into());
        match entry {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let doc = slot.get_mut();
                doc.body = body.into();
                doc.content_type = content_type.into();
                doc.version += 1;
                doc.version
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Document {
                    body: body.into(),
                    content_type: content_type.into(),
                    version: 1,
                });
                1
            }
        }
    }

    /// Fetches a document (cloned, like a network response). Hits count as
    /// `web.store.reads`, misses as `web.store.misses`.
    pub fn fetch(&self, uri: &str) -> Option<Document> {
        let doc = self.docs.read().unwrap().get(uri).cloned();
        let book = if doc.is_some() { &self.reads } else { &self.misses };
        book.fetch_add(1, Ordering::Relaxed);
        doc
    }

    /// Removes a document; returns `true` if it existed.
    pub fn remove(&self, uri: &str) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.docs.write().unwrap().remove(uri).is_some()
    }

    /// Number of published documents.
    pub fn len(&self) -> usize {
        self.docs.read().unwrap().len()
    }

    /// True if nothing is published.
    pub fn is_empty(&self) -> bool {
        self.docs.read().unwrap().is_empty()
    }

    /// All published URIs (sorted, for deterministic iteration).
    pub fn uris(&self) -> Vec<String> {
        let mut uris: Vec<String> = self.docs.read().unwrap().keys().cloned().collect();
        uris.sort();
        uris
    }

    /// Total fetches served (crawler traffic accounting).
    pub fn fetch_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed) + self.misses.load(Ordering::Relaxed)
    }

    /// This web's traffic counters: `web.store.{reads,misses,writes}`.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_counters([
            ("web.store.reads", self.reads.load(Ordering::Relaxed)),
            ("web.store.misses", self.misses.load(Ordering::Relaxed)),
            ("web.store.writes", self.writes.load(Ordering::Relaxed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_fetch_roundtrip() {
        let web = DocumentWeb::new();
        assert!(web.is_empty());
        let v = web.publish("http://ex.org/a", "body", "text/turtle");
        assert_eq!(v, 1);
        let doc = web.fetch("http://ex.org/a").unwrap();
        assert_eq!(doc.body, "body");
        assert_eq!(doc.content_type, "text/turtle");
        assert_eq!(doc.version, 1);
        assert!(web.fetch("http://ex.org/missing").is_none());
    }

    #[test]
    fn republish_bumps_version() {
        let web = DocumentWeb::new();
        web.publish("http://ex.org/a", "v1", "text/turtle");
        let v = web.publish("http://ex.org/a", "v2", "text/turtle");
        assert_eq!(v, 2);
        assert_eq!(web.fetch("http://ex.org/a").unwrap().body, "v2");
        assert_eq!(web.len(), 1);
    }

    #[test]
    fn remove() {
        let web = DocumentWeb::new();
        web.publish("http://ex.org/a", "x", "text/html");
        assert!(web.remove("http://ex.org/a"));
        assert!(!web.remove("http://ex.org/a"));
        assert!(web.is_empty());
    }

    #[test]
    fn uris_are_sorted() {
        let web = DocumentWeb::new();
        web.publish("http://ex.org/b", "x", "text/turtle");
        web.publish("http://ex.org/a", "x", "text/turtle");
        assert_eq!(web.uris(), vec!["http://ex.org/a", "http://ex.org/b"]);
    }

    #[test]
    fn fetch_counting() {
        let web = DocumentWeb::new();
        web.publish("http://ex.org/a", "x", "text/turtle");
        web.fetch("http://ex.org/a");
        web.fetch("http://ex.org/missing");
        assert_eq!(web.fetch_count(), 2);
    }

    #[test]
    fn read_write_counters_track_traffic() {
        let web = DocumentWeb::new();
        web.publish("http://ex.org/a", "x", "text/turtle");
        web.fetch("http://ex.org/a");
        web.fetch("http://ex.org/missing");
        web.remove("http://ex.org/a");
        let counters = web.metrics().counters;
        assert_eq!(counters["web.store.reads"], 1);
        assert_eq!(counters["web.store.misses"], 1);
        assert_eq!(counters["web.store.writes"], 2);
        // A second web in the same process keeps its own books.
        assert!(DocumentWeb::new().metrics().counters.values().all(|&v| v == 0));
    }

    #[test]
    fn concurrent_publish_and_fetch() {
        let web = DocumentWeb::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let web = &web;
                s.spawn(move || {
                    for i in 0..50 {
                        web.publish(format!("http://ex.org/{t}/{i}"), "x", "text/turtle");
                        web.fetch(&format!("http://ex.org/{t}/{i}"));
                    }
                });
            }
        });
        assert_eq!(web.len(), 200);
        assert_eq!(web.fetch_count(), 200);
    }
}
