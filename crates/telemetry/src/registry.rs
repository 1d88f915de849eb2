//! Lock-free metrics registry: counters, gauges, and log2 histograms.
//!
//! Handles are `Arc`-backed atomics handed out once per name;
//! registration takes a short `RwLock` write, after which every update is
//! a single relaxed atomic operation — instrumented hot loops never block
//! on the registry. Snapshots read through the same lock and produce
//! plain maps for the exporters.

use nulpa_obs::{bucket_index, Hist, HIST_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if larger (high-water-mark tracking).
    #[inline]
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram state: the atomic recorder behind a [`Histogram`],
/// laid out like [`Hist`] (log2 buckets plus count/sum/max).
#[derive(Debug)]
pub struct HistState {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistState {
    fn default() -> Self {
        HistState {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistState {
    /// Copy out the current state.
    pub fn snapshot(&self) -> Hist {
        Hist {
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A log2 histogram of `u64` samples.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistState>);

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &*self.0;
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> Hist {
        self.0.snapshot()
    }
}

/// The registry: name → handle maps behind short registration locks.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    hists: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// New empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().expect("registry poisoned").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().expect("registry poisoned").get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.hists.read().expect("registry poisoned").get(name) {
            return h.clone();
        }
        self.hists
            .write()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Copy every metric out into plain maps.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            hists: self
                .hists
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`Registry`] at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, Hist>,
}

/// The process-global registry every [`crate::PhaseSpan`] records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.snapshot().counters["a"], 5);
    }

    #[test]
    fn same_name_same_handle() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
    }

    #[test]
    fn gauge_set_and_max() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(10);
        g.fetch_max(7);
        assert_eq!(g.get(), 10);
        g.fetch_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [0u64, 1, 1, 3, 8] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 13);
        assert_eq!(s.max, 8);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 2); // 1
        assert_eq!(s.buckets[2], 1); // 2..4
        assert_eq!(s.buckets[4], 1); // 8..16
        assert!((s.mean() - 2.6).abs() < 1e-12);
    }

    #[test]
    fn phase_durations_past_a_second_keep_resolution() {
        let r = Registry::new();
        let h = r.histogram("phase.iterate.ns");
        h.record(3_000_000_000); // 3 s
        h.record(40_000_000_000); // 40 s
        let s = h.snapshot();
        assert_eq!(s.buckets[bucket_index(3_000_000_000)], 1);
        assert_eq!(s.buckets[bucket_index(40_000_000_000)], 1);
        assert_ne!(bucket_index(3_000_000_000), bucket_index(40_000_000_000));
        assert_eq!(s.nonzero_buckets().count(), 2);
    }

    #[test]
    fn global_registry_is_singleton() {
        let name = "test.global.singleton";
        global().counter(name).add(1);
        assert!(global().snapshot().counters[name] >= 1);
    }
}
