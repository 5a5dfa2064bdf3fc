//! Deterministic streaming metric registry: the one serving-side latency
//! collector.
//!
//! Sliding-window latency histograms keyed by `(engine, op, shard,
//! tenant)`, updated **incrementally** as samples arrive, so a sensor
//! inside a running experiment (the adaptive re-planner, an SLO evaluator)
//! can read current values mid-flight, and end-of-run reports
//! ([`crate::serving::render`], [`crate::slo::render`]) read the same
//! windows afterwards.
//!
//! Everything here is plain deterministic bookkeeping: `BTreeMap` keying,
//! integer window arithmetic, [`LatencyHistogram`] bucketing. Feeding the
//! same sample stream always produces the same registry.

use simkit::stats::LatencyHistogram;
use simkit::SimTime;
use std::collections::BTreeMap;

/// Metric identity: which engine, which operation, which shard (if the
/// store is sharded), which tenant (if the workload is multi-tenant).
/// `None` dimensions collapse — a single-tenant run keys everything under
/// `tenant: None`. Labels are static strings, so building a key per
/// sample allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub engine: &'static str,
    pub op: &'static str,
    pub shard: Option<usize>,
    pub tenant: Option<u32>,
}

impl MetricKey {
    pub fn new(
        engine: &'static str,
        op: &'static str,
        shard: Option<usize>,
        tenant: Option<u32>,
    ) -> MetricKey {
        MetricKey {
            engine,
            op,
            shard,
            tenant,
        }
    }
}

/// A ring of per-window [`LatencyHistogram`]s over fixed windows of
/// `width` ns starting at `t0`, retaining the most recent `cap` windows.
/// Window `w` covers `[t0 + w*width, t0 + (w+1)*width)`.
///
/// Samples must arrive in non-decreasing `at` order (probe streams and op
/// observers are emitted from the deterministic event loop, so they do).
#[derive(Clone, Debug)]
pub struct SlidingWindows {
    t0: SimTime,
    width: SimTime,
    /// Ring slots; slot = window index % cap.
    ring: Vec<LatencyHistogram>,
    /// Highest absolute window index seen so far.
    hi: u64,
    /// Whether any sample has arrived (distinguishes "window 0 live" from
    /// "nothing yet").
    any: bool,
}

impl SlidingWindows {
    pub fn new(t0: SimTime, width: SimTime, cap: usize) -> SlidingWindows {
        assert!(width > 0 && cap > 0);
        SlidingWindows {
            t0,
            width,
            ring: (0..cap).map(|_| LatencyHistogram::new()).collect(),
            hi: 0,
            any: false,
        }
    }

    /// Highest window index with data so far (0 if nothing recorded).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Record one sample. Samples before `t0` are dropped; windows older
    /// than the retained `cap` are gone.
    pub fn record(&mut self, at: SimTime, v: SimTime) {
        if at < self.t0 {
            return;
        }
        let w = (at - self.t0) / self.width;
        if w > self.hi {
            // Advance the ring, clearing every slot the clock skipped.
            let first_new = self.hi + 1;
            let from = if w - first_new >= self.ring.len() as u64 {
                w + 1 - self.ring.len() as u64
            } else {
                first_new
            };
            for i in from..=w {
                let slot = (i % self.ring.len() as u64) as usize;
                self.ring[slot].clear();
            }
            self.hi = w;
        }
        self.any = true;
        let slot = (w % self.ring.len() as u64) as usize;
        self.ring[slot].record(v);
    }

    /// The histogram for absolute window `w`, if it is still retained
    /// (within `cap` of the most recent window) and not in the future.
    pub fn window(&self, w: u64) -> Option<&LatencyHistogram> {
        if !self.any || w > self.hi || w + self.ring.len() as u64 <= self.hi {
            return None;
        }
        Some(&self.ring[(w % self.ring.len() as u64) as usize])
    }

    /// Merge of the retained windows in `lo..=hi` (missing ones skipped).
    pub fn merged(&self, lo: u64, hi: u64) -> LatencyHistogram {
        let mut m = LatencyHistogram::new();
        for w in lo..=hi {
            if let Some(h) = self.window(w) {
                m.merge(h);
            }
        }
        m
    }
}

/// The streaming registry: sliding-window latency histograms keyed by
/// [`MetricKey`]. One registry per run; feed it from an op observer or a
/// probe and read it at any point.
pub struct MetricRegistry {
    t0: SimTime,
    width: SimTime,
    cap: usize,
    latencies: BTreeMap<MetricKey, SlidingWindows>,
}

impl MetricRegistry {
    /// Latency windows of `width` ns starting at `t0`, retaining `cap`
    /// windows per key.
    pub fn new(t0: SimTime, width: SimTime, cap: usize) -> MetricRegistry {
        assert!(width > 0 && cap > 0);
        MetricRegistry {
            t0,
            width,
            cap,
            latencies: BTreeMap::new(),
        }
    }

    pub fn window_width(&self) -> SimTime {
        self.width
    }

    /// Windows retained per key.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record one latency sample. Samples before `t0` (warm-up) are
    /// dropped before the key lookup, so they never create a key.
    pub fn observe(&mut self, key: MetricKey, at: SimTime, latency: SimTime) {
        if at < self.t0 {
            return;
        }
        let (t0, width, cap) = (self.t0, self.width, self.cap);
        self.latencies
            .entry(key)
            .or_insert_with(|| SlidingWindows::new(t0, width, cap))
            .record(at, latency);
    }

    pub fn latency(&self, key: &MetricKey) -> Option<&SlidingWindows> {
        self.latencies.get(key)
    }

    /// Iterate latency keys in sorted (deterministic) order.
    pub fn latency_keys(&self) -> impl Iterator<Item = &MetricKey> {
        self.latencies.keys()
    }

    /// Distinct `(engine, op)` pairs with latency data, sorted.
    pub fn ops(&self) -> Vec<(&'static str, &'static str)> {
        let mut v: Vec<_> = self.latencies.keys().map(|k| (k.engine, k.op)).collect();
        v.dedup();
        v
    }

    /// Tenants seen for `(engine, op)`, sorted; `None` excluded.
    pub fn tenants(&self, engine: &str, op: &str) -> Vec<u32> {
        let mut ts: Vec<u32> = self
            .latencies
            .keys()
            .filter(|k| k.engine == engine && k.op == op)
            .filter_map(|k| k.tenant)
            .collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Merge window `w` across shards and tenants of `(engine, op)` —
    /// exact, because histogram merge is bucket-wise integer addition.
    pub fn merged_window(&self, engine: &str, op: &str, w: u64) -> LatencyHistogram {
        let mut m = LatencyHistogram::new();
        for (k, s) in &self.latencies {
            if k.engine == engine && k.op == op {
                if let Some(h) = s.window(w) {
                    m.merge(h);
                }
            }
        }
        m
    }

    /// Merge window `w` across shards of one `(engine, op, tenant)` cell.
    pub fn tenant_window(
        &self,
        engine: &str,
        op: &str,
        tenant: Option<u32>,
        w: u64,
    ) -> LatencyHistogram {
        let mut m = LatencyHistogram::new();
        for (k, s) in &self.latencies {
            if k.engine == engine && k.op == op && k.tenant == tenant {
                if let Some(h) = s.window(w) {
                    m.merge(h);
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{millis, secs};

    #[test]
    fn sliding_windows_match_fixed_window_arithmetic() {
        let mut sw = SlidingWindows::new(secs(4.0), secs(1.0), 8);
        sw.record(secs(3.9), millis(1.0)); // before t0: dropped
        sw.record(secs(4.0), millis(1.0)); // window 0
        sw.record(secs(5.5), millis(2.0)); // window 1
        sw.record(secs(6.999), millis(3.0)); // window 2
        assert_eq!(sw.window(0).map(|h| h.count()), Some(1));
        assert_eq!(sw.window(1).map(|h| h.count()), Some(1));
        assert_eq!(sw.window(2).map(|h| h.count()), Some(1));
        assert_eq!(sw.hi(), 2);
        assert_eq!(sw.merged(0, 2).count(), 3);
    }

    #[test]
    fn old_windows_evict_as_the_clock_advances() {
        let mut sw = SlidingWindows::new(0, secs(1.0), 2);
        sw.record(secs(0.5), millis(1.0)); // window 0
        sw.record(secs(1.5), millis(2.0)); // window 1
        assert!(sw.window(0).is_some());
        sw.record(secs(2.5), millis(3.0)); // window 2 evicts window 0
        assert!(sw.window(0).is_none());
        assert_eq!(sw.window(1).map(|h| h.count()), Some(1));
        assert_eq!(sw.window(2).map(|h| h.count()), Some(1));
        // A long quiet gap clears every skipped slot: window 9 is still
        // retained (within cap of the newest) but empty, older ones are gone.
        sw.record(secs(10.2), millis(4.0)); // window 10
        assert!(sw.window(2).is_none());
        assert_eq!(sw.window(9).map(|h| h.count()), Some(0));
        assert_eq!(sw.window(10).map(|h| h.count()), Some(1));
    }

    #[test]
    fn registry_keys_are_sorted_and_warmup_creates_none() {
        let mut reg = MetricRegistry::new(secs(1.0), secs(1.0), 4);
        let k = |op, t| MetricKey::new("sqlcs", op, Some(0), Some(t));
        reg.observe(k("update", 1), secs(0.5), millis(5.0)); // warm-up
        reg.observe(k("read", 1), secs(1.5), millis(5.0));
        reg.observe(k("read", 0), secs(2.5), millis(5.0));
        assert_eq!(reg.tenants("sqlcs", "read"), vec![0, 1]);
        assert_eq!(reg.ops(), vec![("sqlcs", "read")]);
        assert!(reg.latency(&k("update", 1)).is_none());
        assert_eq!(reg.merged_window("sqlcs", "read", 0).count(), 1);
        assert_eq!(reg.tenant_window("sqlcs", "read", Some(0), 1).count(), 1);
    }
}
