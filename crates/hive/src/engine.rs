//! The query engine: lowers a plan, runs its jobs, returns result + timing.

use crate::lower::{Lowering, NamedJob, Staged};
use crate::meta::HiveWarehouse;
use relational::plan::SchemaProvider;
use relational::{LogicalPlan, Row, Schema};
use simkit::probe::Probe;
use simkit::trace::{Span, UtilSummary};
use std::cell::RefCell;
use std::rc::Rc;

pub use crate::lower::HiveError;

/// Outcome of one query execution.
#[derive(Clone, Debug)]
pub struct QueryRun {
    pub rows: Vec<Row>,
    /// Simulated wall-clock seconds (sum over the sequential job DAG).
    pub total_secs: f64,
    pub jobs: Vec<NamedJob>,
    /// Peak cluster-wide scratch usage (spills + live intermediates).
    pub scratch_bytes: u64,
    /// End-of-query utilization of every cluster resource, accumulated
    /// over the whole job DAG on the shared executor (busy time, queue
    /// waits, peak queue depth).
    pub resources: Vec<simkit::resource::ResourceReport>,
    /// Block-pruning totals over every colblock scan in the query (all
    /// zeros for RCFile/text warehouses).
    pub scan_stats: storage::ScanStats,
    /// Kernel events the shared executor processed for this query — the
    /// passivity yardstick: identical with and without a probe attached.
    pub events_executed: u64,
}

impl QueryRun {
    /// Total time of jobs whose label contains `needle` (Table 5's
    /// per-sub-query breakdown).
    pub fn secs_for(&self, needle: &str) -> f64 {
        self.jobs
            .iter()
            .filter(|j| j.label.contains(needle))
            .map(|j| j.report.total)
            .sum()
    }

    /// Every phase span in the job DAG, names qualified by job label
    /// (`"q5-join/map"`) — the same record type PDW steps emit.
    pub fn spans(&self) -> Vec<Span> {
        self.jobs
            .iter()
            .flat_map(|j| {
                j.report.spans.iter().map(|s| Span {
                    name: format!("{}/{}", j.label, s.name),
                    ..s.clone()
                })
            })
            .collect()
    }

    /// Aggregate disk/CPU/NIC service and queue-wait totals over the whole
    /// query (all jobs, all phases).
    pub fn util(&self) -> UtilSummary {
        let mut u = UtilSummary::default();
        for j in &self.jobs {
            for s in &j.report.spans {
                u.merge(&s.util());
            }
        }
        u
    }
}

/// The Hive engine over a loaded warehouse.
pub struct HiveEngine {
    pub warehouse: HiveWarehouse,
    /// Fault injection: fraction of map tasks that fail once and are
    /// retried (Hadoop's task-level fault tolerance; 0.0 = healthy
    /// cluster). See the `ablation_fault_tolerance` bench.
    pub map_failure_fraction: f64,
}

impl SchemaProvider for HiveWarehouse {
    fn table_schema(&self, name: &str) -> &Schema {
        &self.table(name).schema
    }
}

impl HiveEngine {
    pub fn new(warehouse: HiveWarehouse) -> Self {
        HiveEngine {
            warehouse,
            map_failure_fraction: 0.0,
        }
    }

    /// TPC-H RF1 — `INSERT INTO <table>`: supported from Hive 0.8 only
    /// (§3.3.1). Appends the rows as fresh bucket files via a map-only job
    /// and returns simulated seconds.
    pub fn refresh_insert(
        &mut self,
        table: &str,
        rows: Vec<relational::Row>,
    ) -> Result<f64, HiveError> {
        use crate::meta::{HiveVersion, StorageFormat};
        if self.warehouse.version == HiveVersion::V0_7 {
            return Err(HiveError::Unsupported(
                "INSERT INTO existing tables (needs Hive >= 0.8)".to_string(),
            ));
        }
        let p = self.warehouse.params.clone();
        let meta = self.warehouse.table(table);
        let schema = meta.schema.clone();
        let layout = meta.layout.clone();
        let n_buckets = layout.buckets.map(|(_, n)| n).unwrap_or(1);
        let bucket_col = layout.buckets.map(|(c, _)| schema.col(c));
        // Bucket the new rows and append one extra file per non-empty
        // bucket (INSERT INTO adds files; it does not rewrite).
        let mut buckets: Vec<Vec<relational::Row>> = (0..n_buckets).map(|_| Vec::new()).collect();
        for r in rows {
            let b = bucket_col
                .map(|c| crate::hive_bucket(&r[c], n_buckets))
                .unwrap_or(0);
            buckets[b].push(r);
        }
        let mut total_bytes = 0u64;
        let mut stamp = 0usize;
        let mut new_files = Vec::new();
        for (b, bucket_rows) in buckets.into_iter().enumerate() {
            if bucket_rows.is_empty() {
                continue;
            }
            let path = format!("/warehouse/{table}/all/insert-{b:05}-{stamp}");
            stamp += 1;
            total_bytes += self
                .warehouse
                .store_file(&path, table, &schema, bucket_rows)
                .map_err(|e| match e {
                    dfs::DfsError::OutOfSpace { node } => HiveError::OutOfDisk {
                        node,
                        job: "insert".to_string(),
                    },
                    other => HiveError::Unsupported(other.to_string()),
                })?;
            new_files.push(path);
        }
        let meta = self.warehouse.tables.get_mut(table).expect("table exists");
        meta.files.extend(new_files);
        // Map-only INSERT job: encode + replicated HDFS write.
        let encode_bw = match self.warehouse.format {
            StorageFormat::ColBlock => p.colblock_encode_bw,
            _ => p.rcfile_encode_bw,
        };
        let encode =
            total_bytes as f64 / (encode_bw * p.map_slots_per_node as f64 * p.nodes as f64);
        let write = total_bytes as f64 / (p.hdfs_write_bw_per_node * p.nodes as f64);
        Ok(p.job_overhead + p.task_startup + encode.max(write))
    }

    /// TPC-H RF2 — row-level DELETE: unsupported in every Hive release the
    /// paper considers.
    pub fn refresh_delete(&mut self, _table: &str) -> Result<f64, HiveError> {
        Err(HiveError::Unsupported(
            "DELETE from existing tables/partitions".to_string(),
        ))
    }

    /// Execute a query plan end to end.
    pub fn run_query(&self, plan: &LogicalPlan) -> Result<QueryRun, HiveError> {
        self.run_query_probed(plan, None)
    }

    /// Execute a query plan with an optional passive probe attached to the
    /// shared executor the whole job DAG runs on. The probe observes every
    /// resource event and phase span (on the query's single time axis) but
    /// cannot influence the run: timings and rows are byte-identical with
    /// and without one.
    pub fn run_query_probed(
        &self,
        plan: &LogicalPlan,
        probe: Option<Rc<RefCell<dyn Probe>>>,
    ) -> Result<QueryRun, HiveError> {
        let mut lowering = Lowering::new(&self.warehouse);
        lowering.exec.set_probe(probe);
        lowering.map_failure_fraction = self.map_failure_fraction;
        let mut staged: Staged = lowering.lower(plan)?;
        let rows = staged.take_rows().collect();
        lowering.exec.set_probe(None);
        Ok(QueryRun {
            rows,
            total_secs: lowering.total_secs,
            jobs: lowering.jobs,
            scratch_bytes: lowering.peak_scratch,
            resources: lowering.exec.resource_reports(),
            scan_stats: lowering.scan_stats,
            events_executed: lowering.exec.events_executed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_warehouse;
    use cluster::Params;
    use relational::testing::assert_rows_match;
    use relational::{execute, Catalog};
    use tpch::{generate, GenConfig};

    fn setup(scale: f64, k: f64) -> (HiveEngine, Catalog) {
        let cat = generate(&GenConfig::new(scale));
        let params = Params::paper_dss().scaled(k);
        let (w, _) = load_warehouse(&cat, &params, None).unwrap();
        (HiveEngine::new(w), cat)
    }

    #[test]
    fn q1_matches_reference_and_takes_paper_scale_time() {
        let (engine, cat) = setup(0.01, 25_000.0); // "SF 250"
        let plan = tpch::query(1);
        let run = engine.run_query(&plan).unwrap();
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("hive Q1", &run.rows, &want);
        // Paper Table 3: Hive Q1 at SF 250 ≈ 207 s. Shape check: minutes,
        // not seconds or hours.
        assert!(
            run.total_secs > 60.0 && run.total_secs < 900.0,
            "Q1@250GB ≈ 200s, got {}",
            run.total_secs
        );
    }

    #[test]
    fn q6_matches_reference() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(6);
        let run = engine.run_query(&plan).unwrap();
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("hive Q6", &run.rows, &want);
    }

    #[test]
    fn q3_join_heavy_matches_reference() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(3);
        let run = engine.run_query(&plan).unwrap();
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("hive Q3", &run.rows, &want);
        assert!(!run.jobs.is_empty());
    }

    #[test]
    fn q22_has_subquery_structure_and_failed_mapjoin() {
        let (engine, cat) = setup(0.01, 25_000.0);
        let plan = tpch::query(22);
        let run = engine.run_query(&plan).unwrap();
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("hive Q22", &run.rows, &want);
        // Sub-query labels show up in the job list.
        assert!(run.secs_for("q22_sub1") > 0.0, "sub1 jobs exist");
        assert!(run.secs_for("q22_sub3") > 0.0, "sub3 jobs exist");
        // The paper: the sub-query-4 map join fails after ~400 s at every
        // scale factor.
        assert!(
            run.jobs.iter().any(|j| j.label.contains("mapjoin-failed")),
            "Q22's map join should fail and fall back: {:?}",
            run.jobs.iter().map(|j| j.label.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn colblock_warehouse_matches_reference_and_prunes() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (w, _) = crate::load::load_warehouse_fmt(
            &cat,
            &params,
            None,
            crate::meta::StorageFormat::ColBlock,
        )
        .unwrap();
        let engine = HiveEngine::new(w);
        let plan = tpch::query(6);
        let run = engine.run_query(&plan).unwrap();
        let (_, want) = execute(&plan, &cat);
        assert_rows_match("hive colblock Q6", &run.rows, &want);
        assert!(
            run.scan_stats.blocks_pruned > 0,
            "Q6's shipdate range should skip blocks: {:?}",
            run.scan_stats
        );
        assert!(run.scan_stats.blocks_pruned < run.scan_stats.blocks_total);
    }

    #[test]
    fn insert_into_a_full_text_warehouse_is_out_of_disk() {
        use crate::meta::{HiveVersion, StorageFormat};
        let cfg = GenConfig::new(0.01);
        let cat = generate(&cfg);
        let params = Params::paper_dss().scaled(25_000.0);
        let (mut w, _) =
            crate::load::load_warehouse_fmt(&cat, &params, None, StorageFormat::Text).unwrap();
        w.version = HiveVersion::V0_8;
        // No node has room for another byte.
        let full = (0..params.nodes).map(|n| w.dfs.used_bytes(n)).min();
        w.dfs.config.capacity_per_node = full;
        let mut engine = HiveEngine::new(w);
        let rf = tpch::refresh::generate_refresh(&cfg, 0);
        let err = engine.refresh_insert("orders", rf.orders).unwrap_err();
        assert!(
            matches!(&err, HiveError::OutOfDisk { job, .. } if job == "insert"),
            "a full disk is out of disk, not unsupported: {err}"
        );
    }

    #[test]
    fn scaling_factor_is_sublinear_for_q1() {
        // Table 3: Q1 time grows 3.9x when data grows 4x at the small end
        // (startup overheads amortize).
        let (e250, _) = setup(0.01, 25_000.0);
        let (e1000, _) = setup(0.04, 25_000.0);
        let plan = tpch::query(1);
        let t250 = e250.run_query(&plan).unwrap().total_secs;
        let t1000 = e1000.run_query(&plan).unwrap().total_secs;
        let factor = t1000 / t250;
        assert!(
            (2.0..4.3).contains(&factor),
            "Q1 250→1000 scaling ≈ 2.1-3.9x, got {factor}"
        );
    }
}
