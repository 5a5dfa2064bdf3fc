//! # pdw — a shared-nothing parallel data warehouse (SQL Server PDW stand-in)
//!
//! The SQL contender on the DSS side of the paper. The mechanisms the paper
//! credits for PDW's win are all here:
//!
//! * **hash-distributed / replicated tables** across 128 distributions
//!   (8 per node), per Table 1 ([`catalog`]),
//! * a **cost-based optimizer** ([`optimizer`]): joins are reordered by
//!   estimated cardinality (a measured-statistics oracle — idealizing the
//!   "robust and mature cost-based optimization" of §3.5), distribution
//!   strategies are chosen to minimize DMS traffic (colocated local join →
//!   shuffle one side → replicate the small side → shuffle both), and
//!   single-side predicate implications are extracted from complex OR
//!   predicates and pushed below the join (Q19's plan),
//! * the **DMS** data-movement cost model ([`exec`]): shuffle and
//!   replication steps bounded by per-node NIC bandwidth, matching e.g. the
//!   paper's "orders shuffle completes in ≈ 258 s" narrative for Q5,
//! * partial + global aggregation, gather-to-control for final ORDER BY.
//!
//! Execution is real: every step transforms actual rows with the shared
//! `relational::ops` kernels, per distribution, while step *time* comes
//! from the unified substrate — each step runs as a `cluster::exec::Phase`
//! on the traced DES (see ARCHITECTURE.md), and `StepReport` is a derived
//! view over the resulting span trace. PDW steps are sequential, so the
//! query time is the clock at the end of the last phase. The optimizer's
//! closed-form `shuffle_t`/`replicate_t` estimates are predictions checked
//! against that measured time, not the source of it.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod catalog;
pub mod exec;
pub mod feedback;
pub mod optimizer;

pub use adaptive::{live_costs, AdaptiveTail, BlameVerdict};
pub use catalog::{load_pdw, PdwCatalog, PdwLoadReport, PdwTable};
pub use exec::{JoinDecision, PdwEngine, PdwQueryRun, StepReport};
pub use feedback::FeedbackCosts;

/// Number of hash distributions = nodes × distributions/node (128 in the
/// paper's configuration).
pub fn total_distributions(p: &cluster::Params) -> usize {
    p.total_distributions() as usize
}
