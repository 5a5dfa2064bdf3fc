//! Distributed execution on the shared DES substrate.
//!
//! PDW runs a query as a sequence of steps (scans, DMS shuffles/replications,
//! local joins, partial/global aggregations, a final gather). Each step is
//! described to [`cluster::ClusterExec`] as per-node work volumes — bytes to
//! read, CPU lanes to burn, bytes to ship over each NIC direction — and its
//! makespan comes out of the `simkit` event loop, contending for the same
//! disks, cores, and NIC directions that the MapReduce engine charges.
//! Steps execute serially (a PDW DSQL plan is step-at-a-time), so the
//! query's simulated time is the final clock value; every step leaves a
//! [`simkit::trace::Span`] recording where its time went.

use crate::catalog::{PdwCatalog, PdwTable};
use crate::feedback::FeedbackCosts;
use crate::optimizer::{
    colblock_scan_charge, est_join_rows, implied_pred, ndv, pushdown_filters, JoinChain,
};
use cluster::{ClusterExec, Params, Phase};
use relational::expr::Expr;
use relational::scan::{col_after_project, ScanChain};
use relational::value::row_bytes;
use relational::{ops, AggCall, JoinKind, LogicalPlan, Row, SortKey, Value};
use simkit::probe::Probe;
use simkit::resource::ResourceReport;
use simkit::trace::Trace;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use storage::ScanStats;

/// One optimizer/DMS step with its simulated duration (the Q5/Q19 plan
/// narratives in §3.3.4.1 are reproduced from these). A derived view over
/// the run's [`Trace`]: one entry per span, in execution order.
#[derive(Clone, Debug)]
pub struct StepReport {
    pub name: String,
    pub secs: f64,
}

/// Result of one query.
#[derive(Clone, Debug)]
pub struct PdwQueryRun {
    pub rows: Vec<Row>,
    pub total_secs: f64,
    pub steps: Vec<StepReport>,
    /// Full span trace: per-step resource service vs. queue-wait breakdown.
    pub trace: Trace,
    /// End-of-run utilization of every cluster resource (disks, CPU pools,
    /// NIC directions, control ingest link).
    pub resources: Vec<ResourceReport>,
    /// One entry per join the optimizer costed, in execution order: every
    /// candidate movement with its closed-form and feedback-effective
    /// estimates, and which one each ranking would pick.
    pub decisions: Vec<JoinDecision>,
    /// Block-pruning totals over every colblock scan in the query (all
    /// zeros for the row-store engine).
    pub scan_stats: ScanStats,
    /// Kernel events the step executor processed for this query — the
    /// passivity yardstick: identical with and without a probe attached.
    pub events_executed: u64,
}

/// The optimizer's movement choice for one join, with every candidate's
/// closed-form estimate and its feedback-adjusted effective estimate.
/// With [`FeedbackCosts::none`] the two rankings coincide by construction.
#[derive(Clone, Debug)]
pub struct JoinDecision {
    /// `join#k` / `chain-join#k`: the span-name stem plus a per-query
    /// decision index.
    pub name: String,
    /// Bytes on each side when the decision was made.
    pub l_bytes: u64,
    pub r_bytes: u64,
    /// `(label, closed-form estimate secs, effective estimate secs)` for
    /// each legal movement, in the order the optimizer considered them.
    pub options: Vec<(String, f64, f64)>,
    /// The movement the closed-form ranking would pick.
    pub closed_form: String,
    /// The movement actually executed (argmin of effective estimates).
    pub chosen: String,
    /// For decisions revised mid-flight by an adaptive re-planner: the
    /// live-blame evidence that justified the revision (dominant-cause
    /// verdict, measured inflations). `None` for plan-time decisions.
    pub evidence: Option<String>,
}

impl JoinDecision {
    /// Did the measured-wait feedback change the plan?
    pub fn flipped(&self) -> bool {
        self.chosen != self.closed_form
    }
}

/// Build a DMS shuffle phase (`shuffle:{name}`): every node sends its
/// share and receives its share, both NIC directions busy concurrently at
/// the DMS rate. On a single node a "shuffle" is a local repartition — no
/// NIC traffic, just the step overhead. Shared by the step executor and
/// the adaptive re-planner so a swapped-in movement is charged exactly as
/// a planned one would have been.
pub(crate) fn shuffle_phase(p: &Params, name: &str, bytes: u64) -> Phase {
    let mut ph = Phase::new(format!("shuffle:{name}")).setup(p.pdw_step_overhead);
    if p.nodes == 1 {
        return ph;
    }
    let share = bytes as f64 / p.nodes as f64;
    for n in 0..p.nodes {
        ph.net_send(n, share, p.dms_bw_per_node);
        ph.net_recv(n, share, p.dms_bw_per_node);
    }
    ph
}

/// Build a DMS replicate phase (`replicate:{name}`): every node must
/// ingest the (n-1)/n of the data it doesn't already have, and ship its
/// own share to everyone else. Shared with the adaptive re-planner like
/// [`shuffle_phase`].
pub(crate) fn replicate_phase(p: &Params, name: &str, bytes: u64) -> Phase {
    let nodes = p.nodes as f64;
    let traffic = bytes as f64 * (nodes - 1.0) / nodes;
    let mut ph = Phase::new(format!("replicate:{name}")).setup(p.pdw_step_overhead);
    for n in 0..p.nodes {
        ph.net_send(n, traffic, p.dms_bw_per_node);
        ph.net_recv(n, traffic, p.dms_bw_per_node);
    }
    ph
}

/// Physical distribution of an intermediate result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dist {
    /// Hash-partitioned on the column at this output position.
    Hash(usize),
    /// One full copy everywhere.
    Replicated,
    /// Partitioned, but not on any useful key.
    Arbitrary,
}

impl Dist {
    /// The distribution after a projection to `exprs`: a hash key survives
    /// only as a bare column reference.
    fn after_project(self, exprs: &[(Expr, String)]) -> Dist {
        match self {
            Dist::Hash(c) => col_after_project(c, exprs).map_or(Dist::Arbitrary, Dist::Hash),
            d => d,
        }
    }
}

/// A partitioned intermediate. `Replicated` relations keep a single copy in
/// `parts[0]`.
#[derive(Clone)]
struct PRel {
    parts: Vec<Vec<Row>>,
    dist: Dist,
    width: usize,
}

impl PRel {
    fn n_rows(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    fn bytes(&self) -> u64 {
        self.parts
            .iter()
            .flat_map(|p| p.iter())
            .map(|r| row_bytes(r))
            .sum()
    }

    /// Every row, partition after partition, moved out of the relation.
    fn all_rows(self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.n_rows());
        for p in self.parts {
            out.extend(p);
        }
        out
    }

    /// The relation after a DMS shuffle on column `col`: every row moved to
    /// its hash distribution.
    fn shuffled(self, col: usize, distributions: usize) -> PRel {
        let width = self.width;
        PRel {
            parts: ops::hash_partition(self.all_rows(), &[col], distributions),
            dist: Dist::Hash(col),
            width,
        }
    }

    /// The relation after a DMS replicate: one full copy.
    fn replicated(self) -> PRel {
        let width = self.width;
        PRel {
            parts: vec![self.all_rows()],
            dist: Dist::Replicated,
            width,
        }
    }
}

/// The PDW engine.
pub struct PdwEngine {
    pub catalog: PdwCatalog,
    /// §3.3.2: the paper ran PDW *without* any indexes to keep the
    /// comparison fair to Hive 0.7, and left "PDW with indexes" as future
    /// work. Enabling this gives selective scans a secondary-index access
    /// path (see `Ctx::charge_scan_filtered`).
    pub use_indexes: bool,
    /// Measured-wait feedback for the movement cost estimates (see
    /// [`crate::feedback`]). `None` — the default — keeps the closed-form
    /// estimates untouched.
    pub feedback: Option<FeedbackCosts>,
    /// Scan base tables from their columnar shadow copies
    /// ([`PdwCatalog::build_colblock`]) with block-level min/max pruning
    /// and a vectorized filter/project pipeline, instead of the row store.
    pub colblock: bool,
}

impl PdwEngine {
    pub fn new(catalog: PdwCatalog) -> Self {
        PdwEngine {
            catalog,
            use_indexes: false,
            feedback: None,
            colblock: false,
        }
    }

    /// The future-work configuration: secondary indexes on the predicate
    /// columns, used when the optimizer estimates high selectivity.
    pub fn with_indexes(catalog: PdwCatalog) -> Self {
        PdwEngine {
            catalog,
            use_indexes: true,
            feedback: None,
            colblock: false,
        }
    }

    /// The modern-format configuration: columnar block storage on every
    /// base-table scan (the "2026 elephant" leg of the storage ablation).
    pub fn with_colblock(mut catalog: PdwCatalog) -> Self {
        catalog.build_colblock();
        PdwEngine {
            catalog,
            use_indexes: false,
            feedback: None,
            colblock: true,
        }
    }

    /// Rank join movements by feedback-adjusted effective estimates
    /// instead of the raw closed forms.
    pub fn with_feedback(mut self, feedback: FeedbackCosts) -> Self {
        self.feedback = Some(feedback);
        self
    }

    pub fn run_query(&self, plan: &LogicalPlan) -> PdwQueryRun {
        self.run_query_probed(plan, None)
    }

    /// Run a query with an optional passive probe attached to the step
    /// executor. The probe sees every resource event and step span but
    /// cannot feed back into the simulation: rows, step timings, and
    /// resource reports are byte-identical with and without one.
    pub fn run_query_probed(
        &self,
        plan: &LogicalPlan,
        probe: Option<Rc<RefCell<dyn Probe>>>,
    ) -> PdwQueryRun {
        self.run_query_inner(plan, probe, false).0
    }

    /// Run a query while recording every executed [`Phase`], so the exact
    /// resolved plan can be replayed inside a concurrent mix via
    /// [`ClusterExec::run_mix`].
    pub fn run_query_recorded(&self, plan: &LogicalPlan) -> (PdwQueryRun, Vec<Phase>) {
        self.run_query_inner(plan, None, true)
    }

    fn run_query_inner(
        &self,
        plan: &LogicalPlan,
        probe: Option<Rc<RefCell<dyn Probe>>>,
        record: bool,
    ) -> (PdwQueryRun, Vec<Phase>) {
        // Cost-based optimizer front end: predicate pushdown (Hive 0.7
        // lacks this for Q9's LIKE filter — PDW does not).
        let plan = pushdown_filters(plan);
        let mut exec = ClusterExec::new(self.catalog.params.clone());
        exec.set_probe(probe);
        if record {
            exec.record_phases();
        }
        let mut ctx = Ctx {
            cat: &self.catalog,
            exec,
            use_indexes: self.use_indexes,
            colblock: self.colblock,
            feedback: self.feedback.unwrap_or_else(FeedbackCosts::none),
            materialized: BTreeMap::new(),
            uses_left: count_uses(&plan),
            decisions: Vec::new(),
            scan_stats: ScanStats::default(),
        };
        let rel = ctx.exec(&plan);
        // Final answer returns through the control node.
        let rows = match rel.dist {
            Dist::Replicated => rel.parts.into_iter().next().unwrap_or_default(),
            _ => {
                ctx.charge_gather("final-gather", rel.bytes());
                rel.all_rows()
            }
        };
        let total_secs = ctx.exec.now_secs();
        let resources = ctx.exec.resource_reports();
        let events_executed = ctx.exec.events_executed();
        ctx.exec.set_probe(None);
        let phases = ctx.exec.take_recorded_phases();
        let trace = ctx.exec.take_trace();
        let steps = trace
            .spans
            .iter()
            .map(|s| StepReport {
                name: s.name.clone(),
                secs: s.secs(),
            })
            .collect();
        (
            PdwQueryRun {
                rows,
                total_secs,
                steps,
                trace,
                resources,
                decisions: ctx.decisions,
                scan_stats: ctx.scan_stats,
                events_executed,
            },
            phases,
        )
    }
}

struct Ctx<'a> {
    cat: &'a PdwCatalog,
    /// The cluster's event loop: phases charge work here and the clock is
    /// the query time.
    exec: ClusterExec,
    use_indexes: bool,
    /// Scan base tables from their colblock shadows (see [`PdwEngine`]).
    colblock: bool,
    /// Effective-rate corrections for movement estimates
    /// ([`FeedbackCosts::none`] = bitwise identity with closed forms).
    feedback: FeedbackCosts,
    /// Materialized (CREATE TABLE AS) subplans, computed once and reused.
    /// Held only while a later use remains; the last use takes the rows.
    materialized: BTreeMap<String, PRel>,
    /// Uses still to come of each materialized label (see [`count_uses`]).
    uses_left: BTreeMap<String, usize>,
    /// Movement decision log, one entry per costed join.
    decisions: Vec<JoinDecision>,
    /// Accumulated block-pruning totals over every colblock scan.
    scan_stats: ScanStats,
}

impl<'a> Ctx<'a> {
    fn p(&self) -> &'a Params {
        &self.cat.params
    }

    /// Parallel execution units per node (one per distribution, bounded by
    /// cores).
    fn units(&self) -> f64 {
        let p = self.p();
        p.pdw_distributions_per_node.min(p.cores_per_node) as f64
    }

    /// Fraction of base-table bytes resident in the cluster-wide buffer
    /// pool. At SF 250 the whole database fits in the 16 × 24 GB of buffer
    /// memory (the paper's "PDW can better exploit that most of the data
    /// fits in memory" at small scale factors); at SF 16000 almost nothing
    /// does.
    fn hot_fraction(&self) -> f64 {
        let p = self.p();
        let pool = p.bufpool_bytes() as f64 * p.nodes as f64;
        let data = self.cat.total_bytes();
        (pool / (data.max(1) as f64)).min(1.0)
    }

    /// Parallel CPU lanes per node, as a count.
    fn lanes(&self) -> usize {
        self.units() as usize
    }

    /// A step with no resource work: fixed latency only (plus the per-step
    /// control-node overhead every step pays).
    fn charge(&mut self, name: &str, secs: f64) {
        let overhead = self.p().pdw_step_overhead;
        self.exec.run(Phase::new(name).setup(secs + overhead));
    }

    /// Table scan: per node, the cold fraction of its slice of the table
    /// streams from all its disks while the row pipeline runs on one CPU
    /// lane per distribution. The DES makespan is max(io, cpu) + overhead —
    /// now an emergent property of the resource requests, not a formula.
    fn charge_scan(&mut self, name: &str, bytes: u64, rows: usize) {
        let p = self.p();
        let nodes = p.nodes as f64;
        let cold = 1.0 - self.hot_fraction();
        let node_bytes = bytes as f64 * cold / nodes;
        let lane_cpu = rows as f64 / nodes / (p.pdw_scan_rows_per_sec * self.units());
        let mut ph = Phase::new(format!("scan:{name}")).setup(p.pdw_step_overhead);
        for n in 0..p.nodes {
            ph.disk_seq(n, node_bytes, p.pdw_scan_bw_per_node);
            ph.cpu(n, lane_cpu, self.lanes());
        }
        self.exec.run(ph);
    }

    /// Scan with a known output cardinality. Without indexes this is a full
    /// scan; with indexes and a selective predicate (< 10 % survives) the
    /// optimizer picks an index path: only the matching pages are fetched,
    /// at a random-access penalty.
    fn charge_scan_filtered(&mut self, name: &str, bytes: u64, base_rows: usize, out_rows: usize) {
        const INDEX_SELECTIVITY: f64 = 0.10;
        const RANDOM_PENALTY: f64 = 3.0;
        let sel = out_rows as f64 / base_rows.max(1) as f64;
        if self.use_indexes && sel < INDEX_SELECTIVITY && base_rows > 0 {
            let p = self.p();
            let nodes = p.nodes as f64;
            let cold = 1.0 - self.hot_fraction();
            let node_bytes = bytes as f64 * sel * RANDOM_PENALTY * cold / nodes;
            let lane_cpu = out_rows as f64 / nodes / (p.pdw_scan_rows_per_sec * self.units());
            let mut ph = Phase::new(format!("index-scan:{name}")).setup(p.pdw_step_overhead);
            for n in 0..p.nodes {
                ph.disk_seq(n, node_bytes, p.pdw_scan_bw_per_node);
                ph.cpu(n, lane_cpu, self.lanes());
            }
            self.exec.run(ph);
        } else {
            self.charge_scan(name, bytes, base_rows);
        }
    }

    /// Columnar scan: only the surviving blocks' compressed bytes stream
    /// from disk; decode + row-pipeline CPU comes from the shared
    /// per-format cost table (see [`colblock_scan_charge`]).
    fn charge_scan_colblock(&mut self, name: &str, stats: &ScanStats, decoded_rows: usize) {
        let p = self.p();
        let (node_bytes, lane_cpu) =
            colblock_scan_charge(p, stats, decoded_rows, self.hot_fraction(), self.units());
        let mut ph = Phase::new(format!("colscan:{name}")).setup(p.pdw_step_overhead);
        for n in 0..p.nodes {
            ph.disk_seq(n, node_bytes, p.pdw_scan_bw_per_node);
            ph.cpu(n, lane_cpu, self.lanes());
        }
        self.exec.run(ph);
    }

    /// CPU-only step: `per_lane_secs` on every lane of every node.
    fn charge_cpu_step(&mut self, name: &str, per_lane_secs: f64) {
        let p = self.p();
        let mut ph = Phase::new(name).setup(p.pdw_step_overhead);
        for n in 0..p.nodes {
            ph.cpu(n, per_lane_secs, self.lanes());
        }
        self.exec.run(ph);
    }

    /// Hash-join CPU (probe + build rows).
    fn charge_join(&mut self, name: &str, rows: usize) {
        let p = self.p();
        let t = rows as f64 / p.nodes as f64 / (p.pdw_join_rows_per_sec * self.units());
        self.charge_cpu_step(name, t);
    }

    /// Aggregation CPU: `terms` expression folds per row.
    fn charge_agg(&mut self, name: &str, rows: usize, terms: usize) {
        let p = self.p();
        let t = (rows as f64 * terms.max(1) as f64)
            / p.nodes as f64
            / (p.pdw_agg_terms_per_sec * self.units());
        self.charge_cpu_step(name, t);
    }

    /// DMS shuffle: every node sends its share and receives its share, both
    /// NIC directions busy concurrently at the DMS rate.
    fn charge_shuffle(&mut self, name: &str, bytes: u64) {
        let ph = shuffle_phase(self.p(), name, bytes);
        self.exec.run(ph);
    }

    /// DMS replicate: every node must ingest the (n-1)/n of the data it
    /// doesn't already have, and ship its own share to everyone else.
    fn charge_replicate(&mut self, name: &str, bytes: u64) {
        let ph = replicate_phase(self.p(), name, bytes);
        self.exec.run(ph);
    }

    /// Gather to the control node: the compute nodes' sends run in
    /// parallel, but the control node's single ingest link serializes them
    /// — the queue there is what makes a gather cost `bytes / dms_bw`.
    fn charge_gather(&mut self, name: &str, bytes: u64) {
        let p = self.p();
        let share = bytes as f64 / p.nodes as f64;
        let mut ph = Phase::new(format!("gather:{name}")).setup(p.pdw_step_overhead);
        for n in 0..p.nodes {
            ph.net_send(n, share, p.dms_bw_per_node);
            ph.gather_recv(share, p.dms_bw_per_node);
        }
        self.exec.run(ph);
    }

    // ------------------------------------------------------------------

    fn exec(&mut self, plan: &LogicalPlan) -> PRel {
        if let Some(rel) = self.try_scan_chain(plan) {
            return rel;
        }
        match plan {
            LogicalPlan::Filter { input, pred } => {
                let mut rel = self.exec(input);
                for p in &mut rel.parts {
                    p.retain(|r| pred.matches(r));
                }
                rel
            }
            LogicalPlan::Project { input, exprs } => {
                let mut rel = self.exec(input);
                for p in &mut rel.parts {
                    *p = ops::project(p, exprs);
                }
                rel.dist = rel.dist.after_project(exprs);
                rel.width = exprs.len();
                rel
            }
            LogicalPlan::Join { .. } => self.exec_join(plan),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rel = self.exec(input);
                self.exec_aggregate(rel, group_by, aggs)
            }
            LogicalPlan::Sort { input, keys } => {
                let rel = self.exec(input);
                self.exec_sort(rel, keys, None)
            }
            LogicalPlan::Limit { input, n } => {
                if let LogicalPlan::Sort { input: si, keys } = input.as_ref() {
                    let rel = self.exec(si);
                    return self.exec_sort(rel, keys, Some(*n));
                }
                let mut rel = self.exec(input);
                let mut remaining = *n;
                for p in &mut rel.parts {
                    let take = remaining.min(p.len());
                    p.truncate(take);
                    remaining -= take;
                }
                rel
            }
            LogicalPlan::Materialize { input, label } => {
                // Uses of this label still to come after this one.
                let later = self.uses_left.get_mut(label).map_or(0, |n| {
                    *n = n.saturating_sub(1);
                    *n
                });
                let cached = if later == 0 {
                    self.materialized.remove(label)
                } else {
                    self.materialized.get(label).cloned()
                };
                if let Some(rel) = cached {
                    return rel;
                }
                let rel = self.exec(input);
                if later > 0 {
                    self.materialized.insert(label.clone(), rel.clone());
                }
                rel
            }
            LogicalPlan::Scan { .. } => unreachable!("handled by try_scan_chain"),
        }
    }

    // ---- scans -----------------------------------------------------------

    /// Fuse Filter/Project chains directly over a base scan. PDW's row
    /// store reads full rows from disk; filters and projections happen
    /// after the read. The colblock shadow instead decodes, per
    /// distribution, only the needed columns of the blocks whose min/max
    /// stats admit a match, and runs the chain vectorized.
    fn try_scan_chain(&mut self, plan: &LogicalPlan) -> Option<PRel> {
        let chain = ScanChain::match_plan(plan)?;
        let cat = self.cat;
        let t = cat.table(chain.table);
        let base_width = t.schema().len();
        let dist = match t {
            PdwTable::Hash { col, .. } => chain.col_out(*col).map_or(Dist::Arbitrary, Dist::Hash),
            PdwTable::Replicated { .. } => Dist::Replicated,
        };
        let col_files = cat.col_files.get(chain.table).filter(|_| self.colblock);
        let parts = if let Some(files) = col_files {
            let read = chain.column_read(base_width);
            let mut stats = ScanStats::default();
            let mut decoded_rows = 0usize;
            let parts = files
                .iter()
                .map(|f| {
                    let (b, s) = f.read_pruned(&read.cols, &read.bounds);
                    decoded_rows += b.len;
                    stats.merge(&s);
                    read.chain.run_batch(b).to_rows()
                })
                .collect();
            self.scan_stats.merge(&stats);
            self.charge_scan_colblock(chain.table, &stats, decoded_rows);
            parts
        } else {
            let parts: Vec<Vec<Row>> = match t {
                PdwTable::Hash { parts, .. } => parts
                    .iter()
                    .map(|p| chain.run_rows(p.iter().map(Cow::Borrowed)))
                    .collect(),
                PdwTable::Replicated { rows, .. } => {
                    vec![chain.run_rows(rows.iter().map(Cow::Borrowed))]
                }
            };
            let out_rows = parts.iter().map(Vec::len).sum();
            let base_bytes = cat.table_bytes(chain.table);
            self.charge_scan_filtered(chain.table, base_bytes, t.n_rows(), out_rows);
            parts
        };
        Some(PRel {
            parts,
            dist,
            width: chain.width(base_width),
        })
    }

    // ---- joins -----------------------------------------------------------

    fn exec_join(&mut self, plan: &LogicalPlan) -> PRel {
        let cat = self.cat;
        let mut width_of = |p: &LogicalPlan| p.schema(cat).len();
        if let Some(chain) = JoinChain::extract(plan, &mut width_of) {
            // Even a 2-leaf chain benefits: implied single-side predicates
            // (Q19) are pushed below the join before any replication.
            return self.exec_chain(chain);
        }
        // Single (or barrier) join.
        let LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
            ..
        } = plan
        else {
            unreachable!()
        };
        let l = self.exec(left);
        let r = self.exec(right);
        self.join_pair(l, r, on.clone(), *kind, residual.as_ref(), "join")
    }

    /// Greedy cost-based ordering of an inner-join chain, using measured
    /// statistics (sizes and exact NDVs).
    fn exec_chain(&mut self, chain: JoinChain) -> PRel {
        // Push implied single-side predicates into the leaves (Q19).
        let mut leaves: Vec<LogicalPlan> = chain.leaves.clone();
        for res in &chain.residuals {
            for (i, leaf) in leaves.iter_mut().enumerate() {
                let lo = chain.offset(i);
                if let Some(pred) = implied_pred(res, lo, chain.widths[i]) {
                    *leaf = leaf.clone().filter(pred);
                }
            }
        }
        let rels: Vec<PRel> = leaves.iter().map(|l| self.exec(l)).collect();
        // Leaves do not change until joined: count their bytes once.
        let leaf_bytes: Vec<u64> = rels.iter().map(PRel::bytes).collect();

        let n = rels.len();
        let mut remaining: BTreeSet<usize> = (0..n).collect();
        // Start with the smallest leaf participating in a predicate.
        let start = remaining
            .iter()
            .copied()
            .filter(|&i| chain.preds.iter().any(|p| p.left.0 == i || p.right.0 == i))
            .min_by_key(|&i| leaf_bytes[i])
            .unwrap_or(0);
        remaining.remove(&start);

        let mut rels: Vec<Option<PRel>> = rels.into_iter().map(Some).collect();
        let mut current = rels[start].take().expect("start leaf");
        // Current layout: which (leaf, col) sits at each position.
        let mut layout: Vec<(usize, usize)> =
            (0..chain.widths[start]).map(|c| (start, c)).collect();
        let mut residual_attached = vec![false; chain.residuals.len()];
        // NDVs by (leaf, column), counted once: a leaf does not change
        // until it is joined.
        let mut leaf_ndv: BTreeMap<(usize, usize), usize> = BTreeMap::new();

        while !remaining.is_empty() {
            // Candidates joined to the current result by some predicate.
            let joined_leaves: BTreeSet<usize> = layout.iter().map(|&(l, _)| l).collect();
            let mut best: Option<(usize, f64)> = None;
            let cur_bytes = current.bytes();
            // NDVs of `current`'s columns, counted once per iteration.
            let mut cur_ndv: BTreeMap<usize, usize> = BTreeMap::new();
            for &cand in &remaining {
                let connected = chain.preds.iter().any(|p| {
                    (p.left.0 == cand && joined_leaves.contains(&p.right.0))
                        || (p.right.0 == cand && joined_leaves.contains(&p.left.0))
                });
                if !connected {
                    continue;
                }
                let r = rels[cand].as_ref().expect("unjoined leaf");
                // Estimate output via the first connecting predicate.
                let pred = chain
                    .preds
                    .iter()
                    .find(|p| {
                        (p.left.0 == cand && joined_leaves.contains(&p.right.0))
                            || (p.right.0 == cand && joined_leaves.contains(&p.left.0))
                    })
                    .expect("connected");
                let (cand_col, cur_leafcol) = if pred.left.0 == cand {
                    (pred.left.1, pred.right)
                } else {
                    (pred.right.1, pred.left)
                };
                let cur_pos = layout
                    .iter()
                    .position(|&lc| lc == cur_leafcol)
                    .expect("joined col in layout");
                let ndv_cand = *leaf_ndv
                    .entry((cand, cand_col))
                    .or_insert_with(|| ndv(&r.parts, cand_col));
                let ndv_cur = *cur_ndv
                    .entry(cur_pos)
                    .or_insert_with(|| ndv(&current.parts, cur_pos));
                let est_rows = est_join_rows(current.n_rows(), r.n_rows(), ndv_cur, ndv_cand);
                let move_bytes = leaf_bytes[cand].min(cur_bytes) as f64;
                let avg_w = (row_avg(cur_bytes, &current) + row_avg(leaf_bytes[cand], r)) as f64;
                let score = move_bytes + est_rows * avg_w;
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((cand, score));
                }
            }
            let (next, _) = best.unwrap_or_else(|| {
                // Disconnected chain (shouldn't happen in TPC-H): take the
                // smallest remaining and cross join.
                let i = *remaining.iter().next().expect("non-empty");
                (i, 0.0)
            });
            remaining.remove(&next);
            let r = rels[next].take().expect("unjoined leaf");

            // All predicates binding `next` to already-joined leaves.
            let on: Vec<(usize, usize)> = chain
                .preds
                .iter()
                .filter_map(|p| {
                    if p.left.0 == next && joined_leaves.contains(&p.right.0) {
                        let cur = layout.iter().position(|&lc| lc == p.right)?;
                        Some((cur, p.left.1))
                    } else if p.right.0 == next && joined_leaves.contains(&p.left.0) {
                        let cur = layout.iter().position(|&lc| lc == p.left)?;
                        Some((cur, p.right.1))
                    } else {
                        None
                    }
                })
                .collect();
            current = self.join_pair(current, r, on, JoinKind::Inner, None, "chain-join");
            layout.extend((0..chain.widths[next]).map(|c| (next, c)));

            // Attach residuals whose columns are all available now.
            let have: BTreeSet<usize> = layout.iter().map(|&(l, _)| l).collect();
            for (ri, res) in chain.residuals.iter().enumerate() {
                if residual_attached[ri] {
                    continue;
                }
                let mut cols = BTreeSet::new();
                res.referenced_cols(&mut cols);
                let needed: BTreeSet<usize> = cols.iter().map(|&g| chain.locate(g).0).collect();
                if needed.is_subset(&have) {
                    let map: BTreeMap<usize, usize> = cols
                        .iter()
                        .map(|&g| {
                            let lc = chain.locate(g);
                            let pos = layout.iter().position(|&x| x == lc).expect("col in layout");
                            (g, pos)
                        })
                        .collect();
                    let pred = res.remap_cols(&map);
                    for p in &mut current.parts {
                        p.retain(|r| pred.matches(r));
                    }
                    residual_attached[ri] = true;
                }
            }
        }
        assert!(
            residual_attached.iter().all(|&b| b),
            "every residual must attach by the end of the chain"
        );

        // Restore the original column order: output column i is the
        // current column `perm[i]`. A permutation, so every value moves.
        let perm: Vec<usize> = (0..n)
            .flat_map(|leaf| (0..chain.widths[leaf]).map(move |c| (leaf, c)))
            .map(|lc| {
                layout
                    .iter()
                    .position(|&x| x == lc)
                    .expect("column present")
            })
            .collect();
        let dist = match current.dist {
            Dist::Hash(c) => perm
                .iter()
                .position(|&pos| pos == c)
                .map(Dist::Hash)
                .unwrap_or(Dist::Arbitrary),
            d => d,
        };
        for row in current.parts.iter_mut().flatten() {
            let mut old = std::mem::take(row);
            *row = perm
                .iter()
                .map(|&pos| std::mem::replace(&mut old[pos], Value::Null))
                .collect();
        }
        current.width = perm.len();
        current.dist = dist;
        current
    }

    /// Join two partitioned relations, choosing the cheapest valid data
    /// movement.
    fn join_pair(
        &mut self,
        mut l: PRel,
        mut r: PRel,
        on: Vec<(usize, usize)>,
        kind: JoinKind,
        residual: Option<&Expr>,
        name: &str,
    ) -> PRel {
        let p = self.p().clone();
        let d = self.cat.distributions;
        let nodes = p.nodes as f64;
        let (lb, rb) = (l.bytes(), r.bytes());

        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Move {
            None,
            ShuffleL(usize, usize), // (l col, matching r col)
            ShuffleR(usize, usize),
            ReplicateR,
            ReplicateL,
            ShuffleBoth(usize, usize),
        }

        let colocated = matches!((l.dist, r.dist), (Dist::Hash(lc), Dist::Hash(rc))
            if on.contains(&(lc, rc)));
        // Optimizer *cost estimates* for ranking movement strategies. These
        // stay closed-form on purpose: the optimizer predicts, the DES
        // phase layer (charge_shuffle / charge_replicate) measures.
        //
        // `nodes == 1` degenerates both closed forms: `replicate_t` is 0
        // for any size (so the last tied option — always a replicate —
        // would beat even a free colocated join under `min_by`'s
        // last-of-equal-minima rule), and `shuffle_t` bills the full bytes
        // to a network a one-node cluster never touches. Both movements
        // there cost a local-repartition proxy instead (step overhead plus
        // a same-node pass over the bytes), so `Move::None` wins whenever
        // it is legal and otherwise the smaller side moves.
        let one_node = p.nodes == 1;
        let local_t = |bytes: u64| p.pdw_step_overhead + bytes as f64 / p.dms_bw_per_node;
        let shuffle_t = |bytes: u64| {
            if one_node {
                local_t(bytes)
            } else {
                bytes as f64 / nodes / p.dms_bw_per_node
            }
        };
        let replicate_t = |bytes: u64| {
            if one_node {
                local_t(bytes)
            } else {
                bytes as f64 * (nodes - 1.0) / nodes / p.dms_bw_per_node
            }
        };
        // Feedback-effective estimate: closed form scaled by the measured
        // per-class inflation plus the per-movement expected queueing
        // (shuffle-both is two logical movements and pays it twice). With
        // `FeedbackCosts::none` this is `x * 1.0 + 0.0` — bitwise `x` —
        // so the ranking is exactly the closed-form one.
        let fb = self.feedback;
        let eff = |mv: &Move, closed: f64| match mv {
            Move::None => closed,
            Move::ShuffleL(..) | Move::ShuffleR(..) => {
                closed * fb.shuffle_inflation + fb.net_wait_per_move_secs
            }
            Move::ReplicateR | Move::ReplicateL => {
                closed * fb.replicate_inflation + fb.net_wait_per_move_secs
            }
            Move::ShuffleBoth(..) => {
                closed * fb.shuffle_inflation + 2.0 * fb.net_wait_per_move_secs
            }
        };

        let mut options: Vec<(Move, f64, f64)> = Vec::new();
        let mut push = |mv: Move, closed: f64| {
            let e = eff(&mv, closed);
            options.push((mv, closed, e));
        };
        if colocated || r.dist == Dist::Replicated {
            push(Move::None, 0.0);
        }
        if l.dist == Dist::Replicated && kind == JoinKind::Inner {
            push(Move::None, 0.0);
        }
        if let Dist::Hash(rc) = r.dist {
            if let Some(&(lc, _)) = on.iter().find(|&&(_, c)| c == rc) {
                push(Move::ShuffleL(lc, rc), shuffle_t(lb));
            }
        }
        if let Dist::Hash(lc) = l.dist {
            if let Some(&(_, rc)) = on.iter().find(|&&(c, _)| c == lc) {
                push(Move::ShuffleR(lc, rc), shuffle_t(rb));
            }
        }
        push(Move::ReplicateR, replicate_t(rb));
        if kind == JoinKind::Inner {
            push(Move::ReplicateL, replicate_t(lb));
        }
        if let Some(&(lc, rc)) = on.first() {
            push(Move::ShuffleBoth(lc, rc), shuffle_t(lb) + shuffle_t(rb));
        }

        let chosen_idx = options
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .2.total_cmp(&b.1 .2))
            .expect("at least replicate is always possible")
            .0;
        let closed_idx = options
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .expect("non-empty options")
            .0;
        let label = |mv: &Move| match mv {
            Move::None => "none",
            Move::ShuffleL(..) => "shuffle-left",
            Move::ShuffleR(..) => "shuffle-right",
            Move::ReplicateR => "replicate-right",
            Move::ReplicateL => "replicate-left",
            Move::ShuffleBoth(..) => "shuffle-both",
        };
        self.decisions.push(JoinDecision {
            name: format!("{name}#{}", self.decisions.len()),
            l_bytes: lb,
            r_bytes: rb,
            options: options
                .iter()
                .map(|(m, c, e)| (label(m).to_string(), *c, *e))
                .collect(),
            closed_form: label(&options[closed_idx].0).to_string(),
            chosen: label(&options[chosen_idx].0).to_string(),
            evidence: None,
        });
        let mv = options[chosen_idx].0;

        match mv {
            Move::None => {}
            Move::ShuffleL(lc, _) => {
                self.charge_shuffle(name, lb);
                l = l.shuffled(lc, d);
            }
            Move::ShuffleR(_, rc) => {
                self.charge_shuffle(name, rb);
                r = r.shuffled(rc, d);
            }
            Move::ReplicateR => {
                self.charge_replicate(name, rb);
                r = r.replicated();
            }
            Move::ReplicateL => {
                self.charge_replicate(name, lb);
                l = l.replicated();
            }
            Move::ShuffleBoth(lc, rc) => {
                self.charge_shuffle(name, lb + rb);
                l = l.shuffled(lc, d);
                r = r.shuffled(rc, d);
            }
        }

        // Local join per distribution. The partitions move into the join,
        // so the rows it charges are counted first.
        let rw = r.width;
        let in_rows = l.n_rows() + r.n_rows();
        let (out_parts, out_dist): (Vec<Vec<Row>>, Dist) = match (l.dist, r.dist) {
            (Dist::Replicated, Dist::Replicated) => {
                let out = ops::hash_join(&l.parts[0], &r.parts[0], &on, kind, residual, rw);
                (vec![out], Dist::Replicated)
            }
            (Dist::Replicated, rdist) => {
                debug_assert_eq!(kind, JoinKind::Inner, "left-replicated only for inner");
                let parts = r
                    .parts
                    .iter()
                    .map(|rp| ops::hash_join(&l.parts[0], rp, &on, kind, residual, rw))
                    .collect();
                let dist = match rdist {
                    Dist::Hash(rc) => Dist::Hash(l.width + rc),
                    _ => Dist::Arbitrary,
                };
                (parts, dist)
            }
            (ldist, Dist::Replicated) => {
                // One build of the replicated side serves every partition.
                let table = ops::JoinTable::build(&r.parts[0], &on);
                let parts = l
                    .parts
                    .into_iter()
                    .map(|lp| table.probe(lp.into_iter().map(Cow::Owned), kind, residual, rw))
                    .collect();
                (parts, ldist)
            }
            (ldist, _) => {
                let mut lparts = l.parts.into_iter();
                let mut rparts = r.parts.iter();
                let parts = (0..d)
                    .map(|_| {
                        let lp = lparts.next().unwrap_or_default();
                        let rp = rparts.next().map_or(&[][..], Vec::as_slice);
                        ops::JoinTable::build(rp, &on).probe(
                            lp.into_iter().map(Cow::Owned),
                            kind,
                            residual,
                            rw,
                        )
                    })
                    .collect();
                (parts, ldist)
            }
        };
        self.charge_join(&format!("local-join:{name}"), in_rows);
        let width = match kind {
            JoinKind::Inner | JoinKind::Left => l.width + rw,
            _ => l.width,
        };
        PRel {
            parts: out_parts,
            dist: out_dist,
            width,
        }
    }

    // ---- aggregation -------------------------------------------------------

    fn exec_aggregate(&mut self, rel: PRel, group_by: &[(Expr, String)], aggs: &[AggCall]) -> PRel {
        let d = self.cat.distributions;
        let width = group_by.len() + aggs.len();

        // Fully local when grouping on the distribution key.
        let local_ok = match rel.dist {
            Dist::Hash(c) => group_by
                .iter()
                .any(|(e, _)| matches!(e, Expr::Col(i) if *i == c)),
            Dist::Replicated => true,
            Dist::Arbitrary => false,
        };
        if local_ok && !group_by.is_empty() {
            self.charge_agg("local-agg", rel.n_rows(), group_by.len() + aggs.len());
            let dist = match rel.dist {
                Dist::Hash(c) => group_by
                    .iter()
                    .position(|(e, _)| matches!(e, Expr::Col(i) if *i == c))
                    .map(Dist::Hash)
                    .unwrap_or(Dist::Arbitrary),
                Dist::Replicated => Dist::Replicated,
                Dist::Arbitrary => Dist::Arbitrary,
            };
            let parts = rel
                .parts
                .iter()
                .map(|p| ops::hash_aggregate(p, group_by, aggs))
                .collect();
            return PRel { parts, dist, width };
        }

        // Partial per distribution, then merge.
        self.charge_agg("partial-agg", rel.n_rows(), group_by.len() + aggs.len());
        let mut merged = ops::GroupTable::new();
        let mut partial_bytes = 0u64;
        for p in &rel.parts {
            let t = ops::aggregate_partial(p, group_by, aggs);
            partial_bytes += t
                .iter()
                .map(|(k, s)| row_bytes(k) + s.iter().map(|x| x.approx_bytes()).sum::<u64>())
                .sum::<u64>();
            merged = ops::aggregate_merge(merged, t);
        }

        if group_by.is_empty() {
            // Global aggregate: one partial state per distribution flows to
            // the control node — a *fixed-size* transfer (independent of the
            // scale factor), so it costs a round trip, not bandwidth.
            let _ = partial_bytes;
            let t = self.p().net_latency * 2.0;
            self.charge("gather:global-agg", t);
            let rows = ops::aggregate_finish(merged);
            return PRel {
                parts: vec![rows],
                dist: Dist::Replicated,
                width,
            };
        }

        // Redistribute groups on the grouping key.
        self.charge_shuffle("agg-groups", partial_bytes);
        let key_cols: Vec<usize> = (0..group_by.len()).collect();
        let mut parts: Vec<Vec<Row>> = (0..d).map(|_| Vec::new()).collect();
        for row in ops::aggregate_finish(merged) {
            let b = ops::bucket_of(&row, &key_cols, d);
            parts[b].push(row);
        }
        let final_rows: usize = parts.iter().map(Vec::len).sum();
        self.charge_agg("final-agg", final_rows, group_by.len() + aggs.len());
        let dist = if group_by.len() == 1 {
            Dist::Hash(0)
        } else {
            Dist::Arbitrary
        };
        PRel { parts, dist, width }
    }

    // ---- sort / limit --------------------------------------------------------

    fn exec_sort(&mut self, rel: PRel, keys: &[SortKey], limit: Option<usize>) -> PRel {
        self.charge_gather("order-by", rel.bytes());
        let width = rel.width;
        let mut rows = ops::sort(rel.all_rows(), keys);
        if let Some(n) = limit {
            rows.truncate(n);
        }
        PRel {
            parts: vec![rows],
            dist: Dist::Replicated,
            width,
        }
    }
}

/// How often each materialized label occurs in the plan. Every plan node
/// runs at most once, so this bounds the label's uses from above: the
/// cache may keep a copy that is never asked for again, but never drops
/// one that is.
fn count_uses(plan: &LogicalPlan) -> BTreeMap<String, usize> {
    fn walk(plan: &LogicalPlan, out: &mut BTreeMap<String, usize>) {
        match plan {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Materialize { input, label } => {
                *out.entry(label.clone()).or_default() += 1;
                walk(input, out);
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => walk(input, out),
            LogicalPlan::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(plan, &mut out);
    out
}

/// Mean bytes per row of `r`, given its byte count.
fn row_avg(bytes: u64, r: &PRel) -> u64 {
    bytes / r.n_rows().max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::load_pdw;
    use relational::testing::assert_rows_match;
    use relational::{execute, Catalog};
    use tpch::{generate, GenConfig};

    fn setup(scale: f64, k: f64) -> (PdwEngine, Catalog) {
        let cat = generate(&GenConfig::new(scale));
        let params = Params::paper_dss().scaled(k);
        let (pdw, _) = load_pdw(&cat, &params);
        (PdwEngine::new(pdw), cat)
    }

    #[test]
    fn q1_matches_reference_and_is_fast() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(1);
        let run = engine.run_query(&plan);
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("pdw Q1", &run.rows, &want);
        // Paper: PDW Q1 ≈ 54 s at SF 250.
        assert!(
            run.total_secs > 10.0 && run.total_secs < 200.0,
            "PDW Q1@250GB ≈ 54s, got {}",
            run.total_secs
        );
    }

    #[test]
    fn q5_matches_reference_with_shuffle_steps() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(5);
        let run = engine.run_query(&plan);
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("pdw Q5", &run.rows, &want);
        // The plan narrative: PDW shuffles intermediates (never lineitem
        // wholesale) and replicates small tables.
        assert!(
            run.steps
                .iter()
                .any(|s| s.name.starts_with("shuffle:") || s.name.starts_with("replicate:")),
            "Q5 must move data: {:?}",
            run.steps.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_queries_match_reference() {
        let (engine, cat) = setup(0.01, 25_000.0);
        for n in 1..=tpch::QUERY_COUNT {
            let plan = tpch::query(n);
            let run = engine.run_query(&plan);
            let (_, want) = execute(&plan, &cat);
            assert_rows_match(&format!("pdw Q{n}"), &run.rows, &want);
        }
    }

    #[test]
    fn q19_pushes_implied_part_filter_before_replication() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(19);
        let run = engine.run_query(&plan);
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("pdw Q19", &run.rows, &want);
        // The replicate step must exist and be cheap (filtered part table),
        // per the paper's "replicates the part table ... after 51 seconds".
        let rep: Vec<_> = run
            .steps
            .iter()
            .filter(|s| s.name.starts_with("replicate:"))
            .collect();
        assert!(
            !rep.is_empty(),
            "Q19 should replicate the filtered part side"
        );
    }

    #[test]
    fn one_node_cluster_does_not_degenerate_to_replicate() {
        // Regression: with `nodes == 1` the closed-form `replicate_t` is 0
        // for any size, so the optimizer used to pick a replicate step even
        // when the join was colocated (min_by keeps the *last* of equal
        // minima). The guarded estimates must prefer `none` whenever it is
        // legal — and answers must still match the reference.
        let cat = generate(&GenConfig::new(0.01));
        let params = Params {
            nodes: 1,
            ..Params::paper_dss().scaled(25_000.0)
        };
        let (pdwcat, _) = load_pdw(&cat, &params);
        let engine = PdwEngine::new(pdwcat);
        for n in [3, 5, 12] {
            let plan = tpch::query(n);
            let run = engine.run_query(&plan);
            let (_, want) = execute(&plan, &cat);
            assert_rows_match(&format!("pdw 1-node Q{n}"), &run.rows, &want);
            for d in &run.decisions {
                if d.options.iter().any(|(l, _, _)| l == "none") {
                    assert_eq!(
                        d.chosen, "none",
                        "Q{n} {}: a free colocated/replicated join must not move data: {:?}",
                        d.name, d.options
                    );
                }
                let chosen = d.options.iter().find(|(l, _, _)| l == &d.chosen).unwrap();
                assert!(
                    d.chosen == "none" || chosen.1 > 0.0,
                    "Q{n} {}: movement estimates must not be 0 on one node",
                    d.name
                );
            }
        }
    }

    #[test]
    fn identity_feedback_reproduces_closed_form_run_exactly() {
        let (engine, _) = setup(0.01, 25_000.0);
        let (fb_engine, _) = setup(0.01, 25_000.0);
        let fb_engine = fb_engine.with_feedback(crate::FeedbackCosts::none());
        let plan = tpch::query(5);
        let base = engine.run_query(&plan);
        let with_fb = fb_engine.run_query(&plan);
        assert_eq!(base.total_secs.to_bits(), with_fb.total_secs.to_bits());
        for (a, b) in base.decisions.iter().zip(&with_fb.decisions) {
            assert_eq!(a.chosen, b.chosen);
            assert!(!b.flipped());
        }
    }

    #[test]
    fn contended_feedback_flips_at_least_one_join_strategy() {
        // Synthetic contention: shuffles observed at 12× their nominal cost
        // plus a hefty per-movement queueing term, replicates barely
        // inflated. Some join that the closed forms would shuffle must now
        // replicate (or vice versa) — and the rows must stay correct, since
        // every candidate movement is semantically valid.
        let fb = crate::FeedbackCosts {
            shuffle_inflation: 12.0,
            replicate_inflation: 1.05,
            net_wait_per_move_secs: 30.0,
        };
        let (engine, cat) = setup(0.01, 25_000.0);
        let fb_engine = engine.with_feedback(fb);
        let mut flipped = 0;
        for n in 1..=tpch::QUERY_COUNT {
            let plan = tpch::query(n);
            let run = fb_engine.run_query(&plan);
            let (_, want) = execute(&plan, &cat);
            assert_rows_match(&format!("pdw feedback Q{n}"), &run.rows, &want);
            flipped += run.decisions.iter().filter(|d| d.flipped()).count();
        }
        assert!(
            flipped > 0,
            "heavy shuffle contention must flip at least one join strategy"
        );
    }

    #[test]
    fn colblock_engine_matches_reference_and_prunes() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (pdwcat, _) = load_pdw(&cat, &params);
        let engine = PdwEngine::with_colblock(pdwcat);
        for n in [1, 6, 12, 19] {
            let plan = tpch::query(n);
            let run = engine.run_query(&plan);
            let (_, want) = execute(&plan, &cat);
            assert_rows_match(&format!("pdw colblock Q{n}"), &run.rows, &want);
            // Q6/Q12 carry scan-level date ranges; Q19's OR-of-ranges
            // implies p_size ∈ [1, 15], pushed below the join.
            if matches!(n, 6 | 12 | 19) {
                assert!(
                    run.scan_stats.blocks_pruned > 0,
                    "Q{n} should skip blocks: {:?}",
                    run.scan_stats
                );
            }
            assert!(run.steps.iter().any(|s| s.name.starts_with("colscan:")));
        }
    }

    #[test]
    fn pdw_beats_hive_shape() {
        // The headline result: PDW is faster than Hive for the same query
        // at the same scale.
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (pdwcat, _) = load_pdw(&cat, &params);
        let engine = PdwEngine::new(pdwcat);
        let t_pdw = engine.run_query(&tpch::query(6)).total_secs;
        assert!(t_pdw < 120.0, "PDW Q6 should take well under Hive's ~79s");
    }
}
