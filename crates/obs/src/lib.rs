//! # obs — passive observability over the DES substrate
//!
//! Everything the engines report today is an *aggregate* (total busy time,
//! final percentiles); this crate adds the *time axis* and, on top of it,
//! the *analysis*. It builds on the [`simkit::probe`] bus in three layers:
//!
//! 1. **Passive stream folds** — attach a [`TimelineProbe`] to any
//!    `Sim`/`ClusterExec` and it folds the deterministic event stream into
//!    per-resource busy-fraction/queue-depth timelines, exact phase spans,
//!    and a task-concurrency track, exported as Chrome Trace Event JSON
//!    ([`chrome_trace`], loadable in Perfetto), stable JSONL ([`jsonl()`]),
//!    or an [`ascii_timeline`].
//! 2. **Streaming metrics** — [`metrics::MetricRegistry`] keeps
//!    sliding-window latency histograms keyed by
//!    `(engine, op, shard, tenant)`, updated incrementally as samples
//!    arrive. It is the one serving-side latency collector: the windowed
//!    percentile report ([`serving::render`]) and the SLO burn rates
//!    ([`slo`]) both read it.
//! 3. **Query-time analysis** — [`critpath::CritPathProbe`] reconstructs
//!    each span's blocking structure from the kernel's span↔resource
//!    linkage and partitions elapsed time into per-kind service, queue
//!    wait, and stall; [`slo`] evaluates per-tenant SLO targets as
//!    multi-window burn rates over the streaming histograms.
//!
//! **Passivity is the design invariant**: probes receive borrowed event
//! data and have no handle back into the simulation, so attaching one
//! changes no timing cell and no result byte (`tests/observability.rs`,
//! a CI artifact diff, and the `probe-passivity` lint enforce this).

#![forbid(unsafe_code)]

pub mod ascii;
pub mod chrome;
pub mod critpath;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod serving;
pub mod slo;
pub mod timeline;
pub mod validate;

pub use ascii::ascii_timeline;
pub use chrome::chrome_trace;
pub use critpath::{CritPathProbe, CritPathReport, Verdict};
pub use jsonl::jsonl;
pub use metrics::{MetricKey, MetricRegistry};
pub use slo::{SloPolicy, SloStatus};
pub use timeline::TimelineProbe;

use simkit::probe::{Probe, ProbeEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// Fan-out probe: forwards every event to each attached probe in order,
/// so one run can feed a [`TimelineProbe`] and a [`CritPathProbe`] (or any
/// other combination) simultaneously. Passive like everything else here —
/// it only relays borrowed event data.
#[derive(Default)]
pub struct Tee {
    sinks: Vec<Rc<RefCell<dyn Probe>>>,
}

impl Tee {
    pub fn new() -> Tee {
        Tee::default()
    }

    pub fn add(&mut self, sink: Rc<RefCell<dyn Probe>>) {
        self.sinks.push(sink);
    }

    /// Convenience constructor from a list of sinks.
    pub fn of(sinks: Vec<Rc<RefCell<dyn Probe>>>) -> Tee {
        Tee { sinks }
    }
}

impl Probe for Tee {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        for s in &self.sinks {
            s.borrow_mut().on_event(ev);
        }
    }
}
