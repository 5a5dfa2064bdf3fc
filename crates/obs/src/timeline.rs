//! The [`TimelineProbe`]: a [`Probe`] that folds the event stream into
//! fixed-width sim-time buckets.
//!
//! Per resource it keeps a *time-weighted* busy integral (how many servers
//! were in service, integrated over each bucket) and queue-depth integral
//! (how many requests were waiting). Time weighting makes the series robust
//! to zero-duration transients: a request that enqueues and starts in the
//! same instant contributes nothing. Spans and task lifecycle events are
//! kept exactly (not bucketed), so exporters can draw precise phase tracks.
//!
//! Bucket width adapts: when an event lands past `max_buckets`, the width
//! doubles and existing buckets merge pairwise, so memory stays bounded no
//! matter how long the run is while resolution degrades gracefully. The
//! whole process is deterministic — same event stream, same series.

use simkit::probe::{Probe, ProbeEvent};
use simkit::SimTime;

/// One fixed-width bucket of a resource's time series.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    /// Server-seconds of service in this bucket, in nanoseconds
    /// (`busy_ns / width` = mean number of busy servers).
    pub busy_ns: u64,
    /// Request-seconds of queue waiting in this bucket, in nanoseconds
    /// (`depth_ns / width` = mean queue depth).
    pub depth_ns: u64,
}

/// Per-resource time series, indexed by bucket.
#[derive(Clone, Debug)]
pub struct ResSeries {
    pub name: String,
    pub servers: u32,
    pub completions: u64,
    buckets: Vec<Bucket>,
    busy: u32,
    depth: usize,
    last: SimTime,
}

impl ResSeries {
    fn new(name: String, servers: u32) -> ResSeries {
        ResSeries {
            name,
            servers,
            completions: 0,
            buckets: Vec::new(),
            busy: 0,
            depth: 0,
            last: 0,
        }
    }

    /// Integrate the current (busy, depth) state forward to `to`.
    fn advance(&mut self, width: SimTime, to: SimTime) {
        if to <= self.last {
            return;
        }
        if self.busy == 0 && self.depth == 0 {
            self.last = to;
            return;
        }
        let mut t = self.last;
        while t < to {
            let b = (t / width) as usize;
            let bucket_end = (b as SimTime + 1) * width;
            let seg = bucket_end.min(to) - t;
            if self.buckets.len() <= b {
                self.buckets.resize(b + 1, Bucket::default());
            }
            self.buckets[b].busy_ns += seg * self.busy as u64;
            self.buckets[b].depth_ns += seg * self.depth as u64;
            t += seg;
        }
        self.last = to;
    }

    fn halve(&mut self) {
        let n = self.buckets.len().div_ceil(2);
        let mut merged = Vec::with_capacity(n);
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.busy_ns += second.busy_ns;
                b.depth_ns += second.depth_ns;
            }
            merged.push(b);
        }
        self.buckets = merged;
    }

    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Mean fraction of this resource's servers in service during bucket
    /// `i` (0.0 for buckets past the recorded range).
    pub fn busy_fraction(&self, i: usize, width: SimTime) -> f64 {
        match self.buckets.get(i) {
            Some(b) => b.busy_ns as f64 / (width as f64 * self.servers as f64),
            None => 0.0,
        }
    }

    /// Mean number of waiting requests during bucket `i`.
    pub fn mean_depth(&self, i: usize, width: SimTime) -> f64 {
        match self.buckets.get(i) {
            Some(b) => b.depth_ns as f64 / width as f64,
            None => 0.0,
        }
    }

    /// Whether any bucket saw service or queueing.
    pub fn active(&self) -> bool {
        self.buckets.iter().any(|b| b.busy_ns > 0 || b.depth_ns > 0)
    }

    /// Whether any bucket saw queueing.
    pub fn ever_queued(&self) -> bool {
        self.buckets.iter().any(|b| b.depth_ns > 0)
    }
}

/// An exactly-recorded phase interval.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub node: Option<usize>,
    pub start: SimTime,
    pub end: SimTime,
}

/// A [`Probe`] producing per-resource busy/queue-depth timelines, exact
/// span intervals, and a task-concurrency track. See the module docs.
#[derive(Clone, Debug)]
pub struct TimelineProbe {
    width: SimTime,
    max_buckets: usize,
    resources: Vec<ResSeries>,
    spans: Vec<SpanRec>,
    open: Vec<(String, Option<usize>, SimTime)>,
    /// `(at, running)` samples, one per task start/finish transition.
    task_samples: Vec<(SimTime, u32)>,
    running: u32,
    retries: u64,
    end: SimTime,
}

impl TimelineProbe {
    /// A probe with `width`-wide buckets (width doubles whenever the run
    /// outgrows the default cap of 2048 buckets).
    pub fn new(width: SimTime) -> TimelineProbe {
        assert!(width > 0, "bucket width must be positive");
        TimelineProbe {
            width,
            max_buckets: 2048,
            resources: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            task_samples: Vec::new(),
            running: 0,
            retries: 0,
            end: 0,
        }
    }

    /// Current bucket width in nanoseconds (may exceed the constructor
    /// width if the run was long enough to trigger rebucketing).
    pub fn bucket_width(&self) -> SimTime {
        self.width
    }

    /// Latest event timestamp seen.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Number of buckets needed to cover the run at the current width.
    ///
    /// Ceiling of `end / width`, never below 1. Integration is half-open
    /// (`[last, to)` in `ResSeries::advance`), so an event at exactly a
    /// bucket boundary — including `t == end` when `end` is a multiple of
    /// the width — belongs to the bucket *ending* there; the old
    /// `end / width + 1` formula advertised a phantom trailing bucket that
    /// no integral could ever fill.
    pub fn bucket_count(&self) -> usize {
        (self.end.div_ceil(self.width) as usize).max(1)
    }

    pub fn resources(&self) -> &[ResSeries] {
        &self.resources
    }

    /// Closed spans, in close order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Task-concurrency transitions: `(at, running)` after each change.
    pub fn task_samples(&self) -> &[(SimTime, u32)] {
        &self.task_samples
    }

    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn see(&mut self, at: SimTime) {
        self.end = self.end.max(at);
        while at / self.width >= self.max_buckets as SimTime {
            self.width *= 2;
            for r in &mut self.resources {
                r.halve();
            }
        }
    }

    fn series(&mut self, idx: usize) -> &mut ResSeries {
        // Registration events always precede use, so `idx` is in range;
        // tolerate gaps defensively (a probe must never panic the run).
        if self.resources.len() <= idx {
            self.resources
                .resize_with(idx + 1, || ResSeries::new(String::new(), 1));
        }
        &mut self.resources[idx]
    }
}

impl Probe for TimelineProbe {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        match *ev {
            ProbeEvent::ResourceRegistered { res, name, servers } => {
                let s = self.series(res.index());
                s.name = name.to_string();
                s.servers = servers;
            }
            ProbeEvent::Enqueued { at, res, .. } => {
                self.see(at);
                let w = self.width;
                let s = self.series(res.index());
                s.advance(w, at);
                s.depth += 1;
            }
            ProbeEvent::ServiceStarted { at, res, .. } => {
                self.see(at);
                let w = self.width;
                let s = self.series(res.index());
                s.advance(w, at);
                s.depth = s.depth.saturating_sub(1);
                s.busy += 1;
            }
            ProbeEvent::ServiceCompleted { at, res, .. } => {
                self.see(at);
                let w = self.width;
                let s = self.series(res.index());
                s.advance(w, at);
                s.busy = s.busy.saturating_sub(1);
                s.completions += 1;
            }
            ProbeEvent::SpanOpened { at, name, node, .. } => {
                self.see(at);
                self.open.push((name.to_string(), node, at));
            }
            ProbeEvent::SpanClosed { at, .. } => {
                self.see(at);
                if let Some((name, node, start)) = self.open.pop() {
                    self.spans.push(SpanRec {
                        name,
                        node,
                        start,
                        end: at,
                    });
                }
            }
            ProbeEvent::TaskStarted { at, .. } => {
                self.see(at);
                self.running += 1;
                self.task_samples.push((at, self.running));
            }
            ProbeEvent::TaskFinished { at, .. } => {
                self.see(at);
                self.running = self.running.saturating_sub(1);
                self.task_samples.push((at, self.running));
            }
            ProbeEvent::TaskRetried { at, .. } => {
                self.see(at);
                self.retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{secs, Sim};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn probed_sim(width: SimTime) -> (Sim<()>, Rc<RefCell<TimelineProbe>>) {
        let mut sim: Sim<()> = Sim::new();
        let probe = Rc::new(RefCell::new(TimelineProbe::new(width)));
        sim.set_probe(Some(probe.clone()));
        (sim, probe)
    }

    #[test]
    fn busy_fraction_integrates_service_time() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        let disk = sim.add_resource("disk", 1);
        // 1.5s of service starting at t=0: bucket 0 fully busy, bucket 1
        // half busy.
        sim.use_resource(disk, secs(1.5), |_, _| {});
        sim.run(&mut ());
        let p = probe.borrow();
        let s = &p.resources()[disk.index()];
        assert_eq!(s.name, "disk");
        assert!((s.busy_fraction(0, p.bucket_width()) - 1.0).abs() < 1e-9);
        assert!((s.busy_fraction(1, p.bucket_width()) - 0.5).abs() < 1e-9);
        assert_eq!(s.completions, 1);
    }

    #[test]
    fn queue_depth_is_time_weighted() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        let disk = sim.add_resource("disk", 1);
        // Three 1s requests at t=0: queue depth is 2 during [0,1), 1 during
        // [1,2), 0 during [2,3).
        for _ in 0..3 {
            sim.use_resource(disk, secs(1.0), |_, _| {});
        }
        sim.run(&mut ());
        let p = probe.borrow();
        let s = &p.resources()[disk.index()];
        assert!((s.mean_depth(0, p.bucket_width()) - 2.0).abs() < 1e-9);
        assert!((s.mean_depth(1, p.bucket_width()) - 1.0).abs() < 1e-9);
        assert!(s.mean_depth(2, p.bucket_width()).abs() < 1e-9);
        assert!(s.ever_queued());
    }

    #[test]
    fn instantaneous_transits_contribute_nothing() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        let disk = sim.add_resource("disk", 2);
        sim.use_resource(disk, secs(1.0), |_, _| {});
        sim.run(&mut ());
        let p = probe.borrow();
        let s = &p.resources()[disk.index()];
        // The request started immediately: zero queue-depth integral.
        assert_eq!(s.buckets()[0].depth_ns, 0);
        assert!((s.busy_fraction(0, p.bucket_width()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rebucketing_preserves_integrals() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        {
            probe.borrow_mut().max_buckets = 4;
        }
        let disk = sim.add_resource("disk", 1);
        sim.use_resource(disk, secs(2.0), |_, _| {});
        // Idle gap, then more work far past the 4-bucket horizon.
        sim.after(secs(14.0), move |s, _| {
            s.use_resource(disk, secs(2.0), |_, _| {});
        });
        sim.run(&mut ());
        let p = probe.borrow();
        // 17s at cap 4 → width doubled to 8s.
        assert_eq!(p.bucket_width(), secs(8.0));
        let s = &p.resources()[disk.index()];
        let total_busy: u64 = s.buckets().iter().map(|b| b.busy_ns).sum();
        assert_eq!(total_busy, secs(4.0));
    }

    #[test]
    fn bucket_count_has_no_phantom_boundary_bucket() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        let disk = sim.add_resource("disk", 1);
        // Run ends at exactly t = 3.0s — a bucket boundary. Half-open
        // integration fills buckets 0..3 and nothing can land in a fourth.
        for _ in 0..3 {
            sim.use_resource(disk, secs(1.0), |_, _| {});
        }
        sim.run(&mut ());
        let p = probe.borrow();
        assert_eq!(p.end(), secs(3.0));
        assert_eq!(p.bucket_count(), 3);
        let s = &p.resources()[disk.index()];
        assert!(s.buckets().len() <= p.bucket_count());
        // An end strictly inside a bucket still counts that bucket.
        let mut q = TimelineProbe::new(secs(1.0));
        Probe::on_event(
            &mut q,
            &ProbeEvent::SpanOpened {
                at: secs(2.5),
                name: "tail",
                node: None,
                id: 0,
            },
        );
        assert_eq!(q.bucket_count(), 3);
    }

    #[test]
    fn zero_duration_run_has_one_bucket_and_no_panic() {
        let (mut sim, probe) = probed_sim(secs(1.0));
        let disk = sim.add_resource("disk", 1);
        // Nothing ever scheduled: end stays 0.
        sim.run(&mut ());
        let p = probe.borrow();
        assert_eq!(p.end(), 0);
        assert_eq!(p.bucket_count(), 1);
        let s = &p.resources()[disk.index()];
        // Indexing within the advertised count is safe (empty-range reads).
        for i in 0..p.bucket_count() {
            assert_eq!(s.busy_fraction(i, p.bucket_width()), 0.0);
            assert_eq!(s.mean_depth(i, p.bucket_width()), 0.0);
        }
    }

    #[test]
    fn spans_and_tasks_are_recorded_exactly() {
        let mut p = TimelineProbe::new(secs(1.0));
        let mut ev = |e: ProbeEvent<'_>| Probe::on_event(&mut p, &e);
        ev(ProbeEvent::SpanOpened {
            at: secs(1.0),
            name: "map",
            node: None,
            id: 0,
        });
        ev(ProbeEvent::TaskStarted {
            at: secs(1.5),
            node: 0,
        });
        ev(ProbeEvent::TaskRetried {
            at: secs(2.0),
            node: 0,
        });
        ev(ProbeEvent::TaskFinished {
            at: secs(2.5),
            node: 0,
        });
        ev(ProbeEvent::SpanClosed {
            at: secs(3.0),
            name: "map",
            node: None,
            id: 0,
        });
        assert_eq!(p.spans().len(), 1);
        let s = &p.spans()[0];
        assert_eq!(
            (s.name.as_str(), s.start, s.end),
            ("map", secs(1.0), secs(3.0))
        );
        assert_eq!(p.task_samples(), &[(secs(1.5), 1), (secs(2.5), 0)]);
        assert_eq!(p.retries(), 1);
        assert_eq!(p.end(), secs(3.0));
    }
}
