//! Syntax-directed lowering of logical plans into MapReduce jobs.
//!
//! Every stage both (a) **really computes** its result rows using the
//! shared `relational::ops` kernels and (b) emits a [`JobSpec`] describing
//! per-task volumes, which the `mapreduce` engine turns into simulated
//! time. Joins run in written order; map-side joins are chosen by size
//! heuristics (with the Q22-style runtime failure + common-join fallback);
//! intermediate results are never re-bucketed, so downstream joins lose the
//! bucketed-map-join opportunity — the paper's §3.3.4.3 point (3).

use crate::meta::{HiveFile, HiveWarehouse};
use cluster::exec::{ClusterExec, Phase};
use cluster::{Params, ScanFormat};
use mapreduce::{run_job_on, JobReport, JobSpec, MapTaskSpec, ReduceTaskSpec};
use relational::expr::Expr;
use relational::scan::{col_after_project, ScanChain};
use relational::value::row_bytes;
use relational::{ops, AggCall, JoinKind, LogicalPlan, Row, SortKey};
use std::borrow::Cow;
use std::collections::BTreeMap;
use storage::ScanStats;

/// Map outputs are LZO-compressed (§3.2.1): effective size factor.
const LZO_FACTOR: f64 = 0.5;
/// Java in-memory expansion of raw data bytes (hash tables of boxed
/// objects): drives map-join feasibility.
const JAVA_FACTOR: f64 = 4.0;
/// A join side below this fraction of the task heap is auto-converted to a
/// map-side join (dimension tables, scalar aggregates).
const MAPJOIN_AUTO_FRAC: f64 = 0.01;
/// Memory actually available to a map-join hash table (Hive bounds it well
/// below the full heap). Hinted map joins above this fail at runtime.
const MAPJOIN_MEM_FRAC: f64 = 0.15;
/// Upper bound on broadcast-side rows for *fixed-size* relations (those
/// derived only from nation/region and scalar aggregates — they do not
/// grow with the scale factor, so similitude scaling must not subject them
/// to the scaled memory thresholds).
const MAPJOIN_TINY_ROWS: usize = 1_000;
/// Reducers per job — the paper tuned every job to exactly the cluster's
/// reduce-slot count so one reduce round suffices.
const REDUCERS: usize = 128;
/// Intermediate job outputs land in HDFS as replicated SequenceFiles with
/// serialization overhead — the disk-space amplification that ran Q9 out
/// of space at 16 TB.
const INTERMEDIATE_STORE_FACTOR: f64 = 1.2;

/// One stored "file" of an intermediate or base relation.
#[derive(Clone)]
pub struct Seg {
    pub rows: Vec<Row>,
    /// Stored (compressed) bytes a map task must read.
    pub read_bytes: u64,
    pub node: usize,
    /// HDFS blocks (→ map tasks) backing this file.
    pub blocks: usize,
    /// Decode rate for this file's format (bytes/sec per task): RCFile's
    /// expensive decompress path vs plain text scanning.
    pub decode_bw: f64,
}

/// A lowered relation: physical segments + physical properties.
#[derive(Clone)]
pub struct Staged {
    pub segments: Vec<Seg>,
    pub width: usize,
    /// `Some((col, n))` when the data is physically bucketed on `col` into
    /// `n` files (survives scan-time filter/project; lost at job outputs).
    pub bucketing: Option<(usize, usize)>,
    /// Scratch-space reservation backing this intermediate (released when
    /// it is consumed by a downstream job). Cached/materialized temp tables
    /// carry no reservation here — their space stays held to query end.
    pub reservation: Vec<(usize, u64)>,
    /// True when this relation derives only from fixed-size sources
    /// (nation/region — the PDW-replicated tables — and global-aggregate
    /// scalars): its size is independent of the scale factor, so it is
    /// always broadcastable.
    pub fixed_size: bool,
}

impl Staged {
    pub fn n_rows(&self) -> usize {
        self.segments.iter().map(|s| s.rows.len()).sum()
    }

    pub fn all_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.n_rows());
        for s in &self.segments {
            out.extend(s.rows.iter().cloned());
        }
        out
    }

    /// Uncompressed data volume.
    pub fn data_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.rows.iter().map(|r| row_bytes(r)).sum::<u64>())
            .sum()
    }
}

/// Lowering error (disk exhaustion is the one the paper hits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HiveError {
    OutOfDisk {
        node: usize,
        job: String,
    },
    /// The running Hive release lacks the statement (0.7 has no INSERT
    /// INTO existing tables; no release here supports DELETE) — §3.3.1.
    Unsupported(String),
}

impl std::fmt::Display for HiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HiveError::OutOfDisk { node, job } => {
                write!(f, "job `{job}`: node {node} ran out of disk space")
            }
            HiveError::Unsupported(what) => write!(f, "unsupported in this Hive version: {what}"),
        }
    }
}
impl std::error::Error for HiveError {}

/// A completed job with its name.
#[derive(Clone, Debug)]
pub struct NamedJob {
    pub label: String,
    pub report: JobReport,
}

pub struct Lowering<'a> {
    pub w: &'a HiveWarehouse,
    pub jobs: Vec<NamedJob>,
    pub total_secs: f64,
    /// Propagated into every JobSpec (fault-injection ablation).
    pub map_failure_fraction: f64,
    /// One executor shared by the whole job DAG: every job (and every
    /// fixed charge) advances the same clock, so phase spans live on the
    /// query's time axis and an attached probe sees the full query.
    pub exec: ClusterExec,
    label_stack: Vec<String>,
    materialized: BTreeMap<String, Staged>,
    scratch_used: Vec<u64>,
    /// Cluster-wide peak scratch usage over the query (bytes).
    pub peak_scratch: u64,
    /// Block-pruning totals over every colblock scan in the query
    /// (zero for RCFile/text warehouses).
    pub scan_stats: ScanStats,
}

impl<'a> Lowering<'a> {
    pub fn new(w: &'a HiveWarehouse) -> Self {
        Lowering {
            w,
            jobs: Vec::new(),
            total_secs: 0.0,
            label_stack: vec!["main".to_string()],
            map_failure_fraction: 0.0,
            exec: ClusterExec::new(w.params.clone()),
            materialized: BTreeMap::new(),
            scratch_used: vec![0; w.params.nodes],
            peak_scratch: 0,
            scan_stats: ScanStats::default(),
        }
    }

    fn params(&self) -> &Params {
        &self.w.params
    }

    fn label(&self) -> String {
        self.label_stack.last().expect("label stack").clone()
    }

    fn run(&mut self, mut spec: JobSpec) {
        spec.map_failure_fraction = self.map_failure_fraction;
        let report = run_job_on(&mut self.exec, &spec);
        self.total_secs += report.total;
        self.jobs.push(NamedJob {
            label: spec.name.clone(),
            report,
        });
    }

    /// Account a fixed-duration step that has no task structure (metadata
    /// ops, client-side merges). Advances the shared executor clock too, so
    /// later jobs' spans stay aligned with the accumulated `total_secs`.
    fn charge_fixed(&mut self, name: &str, secs: f64) {
        self.total_secs += secs;
        let start_secs = self.exec.now_secs();
        self.exec.run(Phase::new(name).setup(secs));
        self.jobs.push(NamedJob {
            label: name.to_string(),
            report: JobReport {
                name: name.to_string(),
                start_secs,
                total: secs,
                ..JobReport::default()
            },
        });
    }

    /// Reserve scratch space for a job's intermediate output, spread across
    /// nodes; Q9 at 16 TB dies here.
    fn reserve(&mut self, bytes: u64, job: &str) -> Result<Vec<(usize, u64)>, HiveError> {
        let cap = self.w.dfs.config.capacity_per_node;
        let per_node = bytes / self.params().nodes as u64;
        let mut reservation = Vec::with_capacity(self.params().nodes);
        for node in 0..self.params().nodes {
            if let Some(cap) = cap {
                if self.w.dfs.used_bytes(node) + self.scratch_used[node] + per_node > cap {
                    return Err(HiveError::OutOfDisk {
                        node,
                        job: job.to_string(),
                    });
                }
            }
            self.scratch_used[node] += per_node;
            reservation.push((node, per_node));
        }
        self.peak_scratch = self.peak_scratch.max(self.scratch_used.iter().sum());
        Ok(reservation)
    }

    /// Release an intermediate's space once a downstream job has consumed
    /// it (Hive deletes consumed stage outputs as the DAG advances).
    fn release(&mut self, staged: &mut Staged) {
        for (node, b) in staged.reservation.drain(..) {
            self.scratch_used[node] = self.scratch_used[node].saturating_sub(b);
        }
    }

    // ---------------------------------------------------------------------

    /// Lower a plan, producing its staged result.
    pub fn lower(&mut self, plan: &LogicalPlan) -> Result<Staged, HiveError> {
        if let Some(stage) = ScanChain::match_plan(plan) {
            return Ok(self.lower_scan(stage));
        }
        match plan {
            LogicalPlan::Filter { input, pred } => {
                let mut s = self.lower(input)?;
                for seg in &mut s.segments {
                    seg.rows.retain(|r| pred.matches(r));
                }
                Ok(s)
            }
            LogicalPlan::Project { input, exprs } => {
                let mut s = self.lower(input)?;
                for seg in &mut s.segments {
                    seg.rows = ops::project(&seg.rows, exprs);
                }
                // Bucketing survives only if the bucket column is projected
                // as a bare column reference.
                s.bucketing = s
                    .bucketing
                    .and_then(|(c, n)| col_after_project(c, exprs).map(|pos| (pos, n)));
                s.width = exprs.len();
                Ok(s)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                residual,
                mapjoin_hint,
            } => {
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                let rw = r.width;
                self.lower_join(l, r, *kind, on, residual.as_ref(), rw, *mapjoin_hint)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let s = self.lower(input)?;
                self.lower_aggregate(s, group_by, aggs)
            }
            LogicalPlan::Sort { input, keys } => {
                let s = self.lower(input)?;
                self.lower_sort(s, keys, None)
            }
            LogicalPlan::Limit { input, n } => {
                if let LogicalPlan::Sort { input: si, keys } = input.as_ref() {
                    let s = self.lower(si)?;
                    return self.lower_sort(s, keys, Some(*n));
                }
                let mut s = self.lower(input)?;
                let mut remaining = *n;
                for seg in &mut s.segments {
                    let take = remaining.min(seg.rows.len());
                    seg.rows.truncate(take);
                    remaining -= take;
                }
                Ok(s)
            }
            LogicalPlan::Materialize { input, label } => {
                // Temp tables are computed once and reused (Q2's tmp1 and
                // Q22's sub1 feed two consumers).
                if let Some(cached) = self.materialized.get(label) {
                    return Ok(cached.clone());
                }
                self.label_stack.push(label.clone());
                let mut s = self.lower(input)?;
                // If the sub-plan was pure map-side work (no job emitted for
                // it), the INSERT OVERWRITE forces a map-only job now.
                if s.bucketing.is_some() || !self.last_job_is(label) {
                    s = self.materialize_job(s, label)?;
                }
                self.label_stack.pop();
                // Temp tables lose bucketing.
                s.bucketing = None;
                self.materialized.insert(label.clone(), s.clone());
                Ok(s)
            }
            LogicalPlan::Scan { .. } => unreachable!("handled by ScanChain"),
        }
    }

    fn last_job_is(&self, label: &str) -> bool {
        self.jobs
            .last()
            .map(|j| j.label.contains(label))
            .unwrap_or(false)
    }

    // ---- scan stage -------------------------------------------------------

    fn lower_scan(&mut self, chain: ScanChain<'_>) -> Staged {
        let w = self.w;
        let meta = w.table(chain.table);
        let base_schema = &meta.schema;
        let read = chain.column_read(base_schema.len());

        // Partition pruning from base-level equality filters.
        let keep_parts: Option<Vec<String>> = meta.layout.partition_col.and_then(|c| {
            let pcol = base_schema.col(c);
            chain.base_filters().find_map(|p| prune_values(p, pcol))
        });
        let files = w.pruned_files(chain.table, |part| {
            keep_parts
                .as_ref()
                .is_none_or(|keep| keep.iter().any(|v| v == part))
        });

        let mut segments = Vec::with_capacity(files.len());
        for path in &files {
            let dfs_meta = w.dfs.meta(path).expect("file registered");
            // Block count for the *projected* columns approximates how the
            // read is split; task count uses the stored file's block count.
            let blocks = dfs_meta.blocks.len().max(1);
            let node = dfs_meta.blocks[0].replicas[0];
            // Decode per stored format: colblock decodes only the surviving
            // blocks of the needed columns and runs the chain vectorized;
            // RCFile reads only the needed columns (but pays the decompress
            // CPU); text decodes whole rows at the cheap scan rate.
            let (rows, read_bytes, decode_bw) = match w.dfs.payload(path).expect("file registered")
            {
                HiveFile::Col(cb) => {
                    let (b, stats) = cb.read_pruned(&read.cols, &read.bounds);
                    self.scan_stats.merge(&stats);
                    (
                        read.chain.run_batch(b).to_rows(),
                        stats.bytes_read,
                        w.params.format_cost(ScanFormat::ColBlock).decode_bw,
                    )
                }
                HiveFile::Rc(rc) => (
                    read.chain
                        .run_rows(rc.read_columns(&read.cols).into_iter().map(Cow::Owned)),
                    rc.compressed_size_of(&read.cols),
                    w.params.rcfile_decode_bw,
                ),
                HiveFile::Text(bytes) => (
                    chain.run_rows(
                        storage::text::decode(bytes, base_schema)
                            .into_iter()
                            .map(Cow::Owned),
                    ),
                    bytes.len() as u64,
                    w.params.text_scan_bw,
                ),
            };
            segments.push(Seg {
                rows,
                read_bytes,
                node,
                blocks,
                decode_bw,
            });
        }
        let fixed_size = tpch::layout::paper_layouts()
            .iter()
            .any(|l| l.table == chain.table && l.pdw.distribution_col.is_none());
        Staged {
            segments,
            width: chain.width(base_schema.len()),
            // Bucketing survives the scan's filters, and its projections
            // when they keep the bucket column bare.
            bucketing: meta
                .layout
                .buckets
                .and_then(|(c, n)| chain.col_out(base_schema.col(c)).map(|pos| (pos, n))),
            reservation: Vec::new(),
            fixed_size,
        }
    }

    // ---- joins ------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn lower_join(
        &mut self,
        left: Staged,
        right: Staged,
        kind: JoinKind,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
        right_width: usize,
        hinted: bool,
    ) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let (lb, rb) = (left.data_bytes(), right.data_bytes());
        let small_bytes = lb.min(rb);
        let small_rows = left.n_rows().min(right.n_rows());
        if std::env::var("HIVE_JOIN_DEBUG").is_ok() {
            eprintln!(
                "join decision: l={} rows/{}B r={} rows/{}B small={}B mem_limit={}B",
                left.n_rows(),
                lb,
                right.n_rows(),
                rb,
                small_bytes,
                (self.params().task_mem as f64 * MAPJOIN_MEM_FRAC) as u64
            );
        }
        let mem_limit = p.task_mem as f64 * MAPJOIN_MEM_FRAC;
        let auto_limit = p.task_mem as f64 * MAPJOIN_AUTO_FRAC;

        // Cross joins only appear against scalar aggregates → broadcast.
        if on.is_empty() {
            return self.map_join(left, right, kind, on, residual, right_width, false);
        }

        // Fixed-size dimension tables and scalar subplans are broadcast.
        let small_is_fixed = if lb <= rb {
            left.fixed_size
        } else {
            right.fixed_size
        };
        if small_is_fixed && small_rows <= MAPJOIN_TINY_ROWS {
            return self.map_join(left, right, kind, on, residual, right_width, false);
        }

        // Auto map join for tiny sides (relative to task memory).
        if (small_bytes as f64) <= auto_limit {
            return self.map_join(left, right, kind, on, residual, right_width, false);
        }

        // Bucketed map join: both sides bucketed on the join columns with
        // compatible counts, and the small side's buckets fit in memory.
        if let (Some((lc, ln)), Some((rc, rn))) = (left.bucketing, right.bucketing) {
            let on_match = on.len() == 1 && on[0] == (lc, rc);
            let compatible = ln % rn == 0 || rn % ln == 0;
            let per_bucket = small_bytes as f64 / (ln.min(rn) as f64);
            if on_match && compatible && per_bucket * JAVA_FACTOR <= mem_limit {
                return self.map_join(left, right, kind, on, residual, right_width, true);
            }
        }

        // Small enough that the in-memory hash table genuinely fits.
        if (small_bytes as f64) * JAVA_FACTOR <= mem_limit {
            return self.map_join(left, right, kind, on, residual, right_width, false);
        }

        // A MAPJOIN hint makes Hive try anyway; the hash table overflows
        // the heap and the backup common-join task launches after the
        // failure timeout (Q22 sub-query 4, §3.3.4.2).
        if hinted {
            let label = format!("{}:mapjoin-failed", self.label());
            self.charge_fixed(&label, p.mapjoin_fail_time);
        }

        self.common_join(left, right, kind, on, residual, right_width)
    }

    /// Map-side (broadcast) join: map-only job over the big side.
    #[allow(clippy::too_many_arguments)]
    fn map_join(
        &mut self,
        left: Staged,
        right: Staged,
        kind: JoinKind,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
        right_width: usize,
        bucketed: bool,
    ) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let (lb, rb) = (left.data_bytes(), right.data_bytes());
        // Semantically we always build on `right` rows / probe with `left`
        // (ops::hash_join contract); the *streamed* side for costing is the
        // bigger one.
        let stream_left = lb >= rb;
        let small_bytes = lb.min(rb);

        let lrows = left.all_rows();
        let rrows = right.all_rows();
        let result = ops::hash_join(&lrows, &rrows, on, kind, residual, right_width);

        let streamed = if stream_left { &left } else { &right };
        let kind_name = if bucketed {
            "bucket-mapjoin"
        } else {
            "mapjoin"
        };
        let mut spec = JobSpec::new(format!("{}:{}", self.label(), kind_name));
        // Distributing the hash table via the distributed cache.
        if !bucketed {
            spec.setup_secs = small_bytes as f64 / p.nic_bw;
        }
        let small_is_fixed = if stream_left {
            right.fixed_size
        } else {
            left.fixed_size
        };
        let per_task_load = if small_is_fixed {
            // Fixed-size dimension tables are a few KB at *hardware* scale;
            // their load time is real-time negligible and must not be
            // charged against similitude-scaled bandwidth.
            0.0
        } else if bucketed {
            // Each task loads only its bucket of the small side.
            let buckets = streamed.segments.len().max(1);
            (small_bytes as f64 / buckets as f64) / p.mapjoin_load_bw
        } else {
            small_bytes as f64 / p.mapjoin_load_bw
        };
        let out_rows = result.len();
        let in_rows = streamed.n_rows().max(1);
        for seg in &streamed.segments {
            for b in 0..seg.blocks.max(1) {
                let _ = b;
                let rows = seg.rows.len() as f64 / seg.blocks.max(1) as f64;
                spec.maps.push(MapTaskSpec {
                    node: seg.node,
                    read_bytes: seg.read_bytes / seg.blocks.max(1) as u64,
                    cpu_secs: seg.read_bytes as f64 / seg.blocks.max(1) as f64 / seg.decode_bw
                        + rows / p.hive_rows_per_sec
                        + per_task_load
                        + (out_rows as f64 * rows / in_rows as f64) / p.hive_rows_per_sec,
                    output_bytes: 0,
                });
            }
        }
        self.run(spec);
        let n_files = streamed.segments.len().max(1);
        let fixed = left.fixed_size && right.fixed_size;
        {
            let mut l = left;
            let mut r = right;
            self.release(&mut l);
            self.release(&mut r);
        }
        let mut out = self.staged_from_rows(result, n_files);
        out.fixed_size = fixed;
        let store = (out.data_bytes() as f64 * INTERMEDIATE_STORE_FACTOR) as u64
            * self.params().hdfs_replication as u64;
        out.reservation = self.reserve(store, "mapjoin-output")?;
        Ok(out)
    }

    /// Common join: full MapReduce job, both sides shuffled on the key.
    fn common_join(
        &mut self,
        left: Staged,
        right: Staged,
        kind: JoinKind,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
        right_width: usize,
    ) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let lparts = ops::hash_partition(left.all_rows(), &lcols, REDUCERS);
        let rparts = ops::hash_partition(right.all_rows(), &rcols, REDUCERS);

        let shuffle_bytes = ((left.data_bytes() + right.data_bytes()) as f64 * LZO_FACTOR) as u64;
        let label = format!("{}:common-join", self.label());
        let spill = self.reserve(shuffle_bytes, &label)?;

        let mut spec = JobSpec::new(label);
        for staged in [&left, &right] {
            for seg in &staged.segments {
                let blocks = seg.blocks.max(1);
                let out =
                    (seg.rows.iter().map(|r| row_bytes(r)).sum::<u64>() as f64 * LZO_FACTOR) as u64;
                for _ in 0..blocks {
                    spec.maps.push(MapTaskSpec {
                        node: seg.node,
                        read_bytes: seg.read_bytes / blocks as u64,
                        cpu_secs: seg.read_bytes as f64 / blocks as f64 / seg.decode_bw
                            + (seg.rows.len() as f64 / blocks as f64) / p.hive_rows_per_sec,
                        output_bytes: out / blocks as u64,
                    });
                }
            }
        }

        let mut out_segments = Vec::with_capacity(REDUCERS);
        let mut out_total = 0u64;
        for r in 0..REDUCERS {
            let joined = ops::hash_join(&lparts[r], &rparts[r], on, kind, residual, right_width);
            let in_rows = lparts[r].len() + rparts[r].len();
            let in_bytes: u64 = lparts[r]
                .iter()
                .chain(rparts[r].iter())
                .map(|row| row_bytes(row))
                .sum();
            let out_bytes: u64 = joined.iter().map(|row| row_bytes(row)).sum();
            out_total += out_bytes;
            let stored = (out_bytes as f64 * p.rcfile_compression) as u64;
            spec.reduces.push(ReduceTaskSpec {
                node: r % p.nodes,
                shuffle_bytes: (in_bytes as f64 * LZO_FACTOR) as u64,
                cpu_secs: in_rows as f64 / p.hive_rows_per_sec
                    + joined.len() as f64 / p.hive_rows_per_sec,
                output_bytes: stored,
            });
            out_segments.push(Seg {
                rows: joined,
                read_bytes: stored,
                node: r % p.nodes,
                blocks: (stored / p.hdfs_block_size.max(1)).max(1) as usize,
                decode_bw: p.rcfile_decode_bw,
            });
        }
        // The materialized intermediate occupies HDFS until the query ends:
        // replicated, with SequenceFile overhead.
        let store =
            (out_total as f64 * INTERMEDIATE_STORE_FACTOR) as u64 * p.hdfs_replication as u64;
        let label2 = format!("{}:intermediate", self.label());
        self.run(spec);
        // The shuffle spill is cleaned up at job end; the inputs were
        // consumed by this job and their stage outputs get deleted.
        let mut spill_holder = Staged {
            segments: Vec::new(),
            width: 0,
            bucketing: None,
            reservation: spill,
            fixed_size: false,
        };
        self.release(&mut spill_holder);
        let left_width = left.width;
        {
            let mut l = left;
            let mut r = right;
            self.release(&mut l);
            self.release(&mut r);
        }
        let width = out_segments
            .iter()
            .find_map(|s| s.rows.first().map(|r| r.len()))
            .unwrap_or(
                left_width
                    + if matches!(kind, JoinKind::Inner | JoinKind::Left) {
                        right_width
                    } else {
                        0
                    },
            );
        let reservation = self.reserve(store, &label2)?;
        Ok(Staged {
            segments: out_segments,
            width,
            bucketing: None,
            reservation,
            fixed_size: false,
        })
    }

    // ---- aggregation -------------------------------------------------------

    fn lower_aggregate(
        &mut self,
        input: Staged,
        group_by: &[(Expr, String)],
        aggs: &[AggCall],
    ) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let reducers = if group_by.is_empty() { 1 } else { REDUCERS };
        let mut spec = JobSpec::new(format!("{}:group-by", self.label()));

        // Map side: partial aggregation per task (enabled per §3.2.1).
        let mut partials = Vec::new();
        for seg in &input.segments {
            let partial = ops::aggregate_partial(&seg.rows, group_by, aggs);
            let partial_bytes: u64 = partial
                .iter()
                .map(|(k, states)| {
                    row_bytes(k) + states.iter().map(|s| s.approx_bytes()).sum::<u64>()
                })
                .sum();
            let blocks = seg.blocks.max(1);
            for _ in 0..blocks {
                spec.maps.push(MapTaskSpec {
                    node: seg.node,
                    read_bytes: seg.read_bytes / blocks as u64,
                    cpu_secs: seg.read_bytes as f64 / blocks as f64 / seg.decode_bw
                        + (seg.rows.len() as f64 / blocks as f64) / p.hive_rows_per_sec,
                    output_bytes: ((partial_bytes as f64 * LZO_FACTOR) as u64) / blocks as u64,
                });
            }
            partials.push(partial);
        }

        // Input stage outputs are consumed by this job.
        {
            let mut i = input;
            self.release(&mut i);
        }
        // Merge globally (= what the reducers jointly compute).
        let merged = partials
            .into_iter()
            .fold(ops::GroupTable::new(), ops::aggregate_merge);
        // Distribute groups across reducers by key hash.
        let mut reducer_tables: Vec<ops::GroupTable> =
            (0..reducers).map(|_| ops::GroupTable::new()).collect();
        for (k, v) in merged {
            let r = if reducers == 1 {
                0
            } else {
                ops::bucket_of(&k, &(0..k.len()).collect::<Vec<_>>(), reducers)
            };
            reducer_tables[r].insert(k, v);
        }

        let mut out_segments = Vec::with_capacity(reducers);
        for (r, table) in reducer_tables.into_iter().enumerate() {
            let in_rows: usize = table.len();
            let rows = ops::aggregate_finish(table);
            let bytes: u64 = rows.iter().map(|row| row_bytes(row)).sum();
            let stored = (bytes as f64 * p.rcfile_compression) as u64;
            spec.reduces.push(ReduceTaskSpec {
                node: r % p.nodes,
                shuffle_bytes: (bytes as f64 * LZO_FACTOR) as u64,
                cpu_secs: in_rows as f64 / p.hive_rows_per_sec,
                output_bytes: stored,
            });
            out_segments.push(Seg {
                rows,
                read_bytes: stored,
                node: r % p.nodes,
                blocks: (stored / p.hdfs_block_size.max(1)).max(1) as usize,
                decode_bw: p.rcfile_decode_bw,
            });
        }
        self.run(spec);
        let out_bytes: u64 = out_segments
            .iter()
            .map(|seg| seg.rows.iter().map(|r| row_bytes(r)).sum::<u64>())
            .sum();
        let store = (out_bytes as f64 * INTERMEDIATE_STORE_FACTOR) as u64
            * self.params().hdfs_replication as u64;
        let reservation = self.reserve(store, "agg-output")?;
        Ok(Staged {
            width: group_by.len() + aggs.len(),
            segments: out_segments,
            bucketing: None,
            reservation,
            // A global aggregate is a single scalar row — always fixed.
            fixed_size: group_by.is_empty(),
        })
    }

    // ---- sort / limit -------------------------------------------------------

    fn lower_sort(
        &mut self,
        input: Staged,
        keys: &[SortKey],
        limit: Option<usize>,
    ) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let mut spec = JobSpec::new(format!("{}:order-by", self.label()));
        for seg in &input.segments {
            let blocks = seg.blocks.max(1);
            let out =
                (seg.rows.iter().map(|r| row_bytes(r)).sum::<u64>() as f64 * LZO_FACTOR) as u64;
            for _ in 0..blocks {
                spec.maps.push(MapTaskSpec {
                    node: seg.node,
                    read_bytes: seg.read_bytes / blocks as u64,
                    cpu_secs: seg.read_bytes as f64 / blocks as f64 / seg.decode_bw
                        + (seg.rows.len() as f64 / blocks as f64) / p.hive_rows_per_sec,
                    output_bytes: out / blocks as u64,
                });
            }
        }
        let mut rows = ops::sort(input.all_rows(), keys);
        if let Some(n) = limit {
            rows.truncate(n);
        }
        let bytes: u64 = rows.iter().map(|r| row_bytes(r)).sum();
        // Hive's total ORDER BY runs on a single reducer.
        spec.reduces.push(ReduceTaskSpec {
            node: 0,
            shuffle_bytes: (input.data_bytes() as f64 * LZO_FACTOR) as u64,
            cpu_secs: input.n_rows() as f64 / p.hive_rows_per_sec,
            output_bytes: (bytes as f64 * p.rcfile_compression) as u64,
        });
        self.run(spec);
        let width = rows.first().map(|r| r.len()).unwrap_or(input.width);
        Ok(Staged {
            segments: vec![Seg {
                read_bytes: (bytes as f64 * p.rcfile_compression) as u64,
                rows,
                node: 0,
                blocks: 1,
                decode_bw: p.rcfile_decode_bw,
            }],
            width,
            bucketing: None,
            reservation: Vec::new(),
            fixed_size: false,
        })
    }

    // ---- materialization ----------------------------------------------------

    /// INSERT OVERWRITE of map-side-only work: a map-only job, plus the
    /// paper's 50-second "filesystem job" merging many small output files
    /// (observed at SF ≤ 4 TB where ≤ 400 map tasks each wrote a sliver).
    fn materialize_job(&mut self, input: Staged, label: &str) -> Result<Staged, HiveError> {
        let p = self.params().clone();
        let mut spec = JobSpec::new(format!("{label}:insert"));
        let mut n_maps = 0;
        for seg in &input.segments {
            let blocks = seg.blocks.max(1);
            n_maps += blocks;
            let out = (seg.rows.iter().map(|r| row_bytes(r)).sum::<u64>() as f64
                * p.rcfile_compression) as u64;
            for _ in 0..blocks {
                spec.maps.push(MapTaskSpec {
                    node: seg.node,
                    read_bytes: seg.read_bytes / blocks as u64,
                    cpu_secs: seg.read_bytes as f64 / blocks as f64 / seg.decode_bw
                        + (seg.rows.len() as f64 / blocks as f64) / p.hive_rows_per_sec,
                    output_bytes: out / blocks as u64,
                });
            }
        }
        self.run(spec);
        if (64..=400).contains(&n_maps) {
            self.charge_fixed(&format!("{label}:fs-merge"), p.hive_fs_job);
        }
        let width = input.width;
        let rows = input.all_rows();
        Ok(self.staged_with_width(rows, n_maps.max(1), width))
    }

    fn staged_from_rows(&self, rows: Vec<Row>, n_files: usize) -> Staged {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        self.staged_with_width(rows, n_files, width)
    }

    fn staged_with_width(&self, rows: Vec<Row>, n_files: usize, width: usize) -> Staged {
        let p = self.params();
        let n_files = n_files.clamp(1, 512);
        let chunk = rows.len().div_ceil(n_files).max(1);
        let mut segments = Vec::new();
        for (i, rows) in rows.chunks(chunk).enumerate() {
            let bytes: u64 = rows.iter().map(|r| row_bytes(r)).sum();
            let stored = (bytes as f64 * p.rcfile_compression) as u64;
            segments.push(Seg {
                rows: rows.to_vec(),
                read_bytes: stored,
                node: i % p.nodes,
                blocks: (stored / p.hdfs_block_size.max(1)).max(1) as usize,
                decode_bw: p.rcfile_decode_bw,
            });
        }
        if segments.is_empty() {
            segments.push(Seg {
                rows: Vec::new(),
                read_bytes: 0,
                node: 0,
                blocks: 1,
                decode_bw: p.rcfile_decode_bw,
            });
        }
        Staged {
            segments,
            width,
            bucketing: None,
            reservation: Vec::new(),
            fixed_size: false,
        }
    }
}

// ---- partition pruning ------------------------------------------------------

/// If `pred` (possibly an AND) pins column `col` to specific values, return
/// their display forms.
fn prune_values(pred: &Expr, col: usize) -> Option<Vec<String>> {
    use relational::expr::CmpOp;
    match pred {
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(i), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(i)) if *i == col => {
                Some(vec![v.to_string()])
            }
            _ => None,
        },
        Expr::InList(e, vals) => match e.as_ref() {
            Expr::Col(i) if *i == col => Some(vals.iter().map(|v| v.to_string()).collect()),
            _ => None,
        },
        Expr::And(parts) => parts.iter().find_map(|p| prune_values(p, col)),
        _ => None,
    }
}
