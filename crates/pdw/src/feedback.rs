//! Measured-wait feedback for the optimizer's movement cost estimates.
//!
//! The closed-form `shuffle_t`/`replicate_t` estimates in
//! [`crate::exec`] assume an idle network: `bytes / share / bw`. Under a
//! concurrent workload mix that assumption breaks — DMS transfers queue
//! behind other jobs' traffic — and the paper's contention narratives
//! (Hive queueing behind 1 GbE shuffles, §3.3.4) are exactly about the gap
//! between nominal and *effective* rates. [`FeedbackCosts`] carries that
//! gap, measured from a prior (or concurrently profiled) run of the same
//! mix, back into the optimizer:
//!
//! * **Per-class inflation** — shuffles are many smallish transfers, so a
//!   fixed absolute wait inflates their effective cost proportionally more
//!   than a replicate's fewer, longer transfers. We therefore measure
//!   `(service + wait) / service` over the Net contributions of
//!   `shuffle:` and `replicate:` spans *separately*.
//! * **Per-movement wait** — a Little's-law style additive term: the mean
//!   windowed NIC queue depth (from `obs`'s timeline) times the mean NIC
//!   service time estimates the queueing an additional movement step will
//!   encounter. A shuffle-both step is two logical movements and pays it
//!   twice, which is what lets the feedback *reorder* strategies rather
//!   than just rescale them.
//!
//! [`FeedbackCosts::none`] is the exact identity (`×1.0 + 0.0`), so an
//! engine configured with it reproduces the closed-form decisions
//! bit-for-bit.

use simkit::resource::ResourceReport;
use simkit::trace::{ResKind, Trace};

/// Effective-rate corrections applied to the optimizer's closed-form
/// movement estimates. See the module docs for how each field is measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedbackCosts {
    /// Measured `(service + queue wait) / service` over the Net
    /// contributions of `shuffle:` spans (1.0 = uncontended).
    pub shuffle_inflation: f64,
    /// Same ratio over `replicate:` spans.
    pub replicate_inflation: f64,
    /// Additive seconds of expected queueing per logical data movement
    /// (mean windowed NIC queue depth × mean NIC service time).
    pub net_wait_per_move_secs: f64,
}

impl Default for FeedbackCosts {
    fn default() -> Self {
        FeedbackCosts::none()
    }
}

impl FeedbackCosts {
    /// The identity feedback: estimates pass through unchanged (bitwise),
    /// so decisions equal the closed-form optimizer's.
    pub fn none() -> FeedbackCosts {
        FeedbackCosts {
            shuffle_inflation: 1.0,
            replicate_inflation: 1.0,
            net_wait_per_move_secs: 0.0,
        }
    }

    /// Whether this is the identity (no measured contention).
    pub fn is_none(&self) -> bool {
        *self == FeedbackCosts::none()
    }

    /// Derive feedback from an observed run: `reports` are the run's
    /// end-of-run [`ResourceReport`]s, `trace` its span trace (span names
    /// containing `shuffle:` / `replicate:` classify the Net
    /// contributions), and `net_depth_windows` the per-window mean NIC
    /// queue depths from an `obs` timeline (the caller picks the windows —
    /// typically those where the mix was active).
    pub fn from_observation(
        reports: &[ResourceReport],
        trace: &Trace,
        net_depth_windows: &[f64],
    ) -> FeedbackCosts {
        let inflation = |marker: &str| {
            let (mut service, mut wait) = (0.0f64, 0.0f64);
            for span in &trace.spans {
                if !span.name.contains(marker) {
                    continue;
                }
                for c in &span.contribs {
                    if matches!(c.kind, ResKind::Net) {
                        service += c.service;
                        wait += c.queue_wait;
                    }
                }
            }
            if service > 0.0 {
                (service + wait) / service
            } else {
                1.0
            }
        };
        let (mut net_busy, mut net_completions) = (0.0f64, 0u64);
        for r in reports {
            // Classify by the structural kind declared at registration,
            // never by naming conventions: a network link is a network
            // link whatever a topology chose to call it.
            if matches!(r.kind, Some(ResKind::Net)) {
                net_busy += r.busy_secs;
                net_completions += r.completions;
            }
        }
        let mean_service = if net_completions > 0 {
            net_busy / net_completions as f64
        } else {
            0.0
        };
        // A left-to-right fold from +0.0 (`Sum for f64` starts at -0.0),
        // so the committed feedback figures keep their exact bits.
        let mean_depth = if net_depth_windows.is_empty() {
            0.0
        } else {
            net_depth_windows.iter().fold(0.0, |sum, d| sum + d) / net_depth_windows.len() as f64
        };
        FeedbackCosts {
            shuffle_inflation: inflation("shuffle:"),
            replicate_inflation: inflation("replicate:"),
            net_wait_per_move_secs: mean_depth * mean_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::trace::{Contrib, Span};

    fn span(name: &str, service: f64, wait: f64) -> Span {
        Span {
            name: name.into(),
            node: None,
            start: 0,
            end: 0,
            contribs: vec![Contrib {
                kind: ResKind::Net,
                node: None,
                service,
                queue_wait: wait,
            }],
        }
    }

    #[test]
    fn none_is_the_identity() {
        let fb = FeedbackCosts::none();
        assert!(fb.is_none());
        for est in [0.0f64, 1.5, 300.0] {
            let eff = est * fb.shuffle_inflation + fb.net_wait_per_move_secs;
            assert_eq!(eff.to_bits(), est.to_bits(), "must be bitwise identical");
        }
    }

    #[test]
    fn observation_separates_shuffle_and_replicate_inflation() {
        let mut trace = Trace::default();
        // Shuffles waited as long as they served (2×); replicates barely.
        trace.push(span("q/shuffle:orders", 10.0, 10.0));
        trace.push(span("q/replicate:nation", 20.0, 2.0));
        trace.push(span("q/scan:lineitem", 99.0, 99.0)); // ignored
        let reports = vec![ResourceReport {
            name: "node0.nic_send".into(),
            kind: Some(ResKind::Net),
            busy_secs: 30.0,
            completions: 10,
            mean_queue_wait_secs: 0.0,
            max_queue_depth: 4,
            queued_at_end: 0,
            pending_wait_secs: 0.0,
        }];
        let fb = FeedbackCosts::from_observation(&reports, &trace, &[2.0, 4.0]);
        assert!((fb.shuffle_inflation - 2.0).abs() < 1e-12);
        assert!((fb.replicate_inflation - 1.1).abs() < 1e-12);
        // mean depth 3.0 × mean service 3.0s.
        assert!((fb.net_wait_per_move_secs - 9.0).abs() < 1e-12);
    }

    #[test]
    fn network_links_classify_by_kind_not_by_name() {
        // Regression: classification used to substring-match "nic" in the
        // resource name, silently dropping network links a topology named
        // differently (and wrongly matching anything that happened to
        // contain "nic"). A Net-kind link named without "nic" must count;
        // a Disk-kind resource whose name contains "nic" must not.
        let mut trace = Trace::default();
        trace.push(span("q/shuffle:orders", 10.0, 10.0));
        let mk = |name: &str, kind, busy_secs, completions| ResourceReport {
            name: name.into(),
            kind,
            busy_secs,
            completions,
            mean_queue_wait_secs: 0.0,
            max_queue_depth: 0,
            queued_at_end: 0,
            pending_wait_secs: 0.0,
        };
        let reports = vec![
            mk("repl-channel-3", Some(ResKind::Net), 12.0, 4),
            mk("node0.scenic_disk", Some(ResKind::Disk), 1000.0, 1),
            mk("unclassified", None, 500.0, 2),
        ];
        let fb = FeedbackCosts::from_observation(&reports, &trace, &[1.0]);
        // Only the Net-kind link contributes: mean service 12/4 = 3s.
        assert!((fb.net_wait_per_move_secs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn observation_without_movement_spans_falls_back_to_identity_rates() {
        let fb = FeedbackCosts::from_observation(&[], &Trace::default(), &[]);
        assert!(fb.is_none());
    }
}
