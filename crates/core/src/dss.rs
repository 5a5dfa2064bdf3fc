//! The DSS suite: TPC-H on Hive and PDW across the paper's scale factors.

use cluster::Params;
use hive::{load_warehouse, HiveEngine, QueryRun};
use pdw::{load_pdw, PdwEngine};
use relational::Catalog;
use tpch::{generate, GenConfig};

/// The paper's four TPC-H scale factors, in GB, in the order of its tables.
pub const PAPER_SCALES: [f64; 4] = [250.0, 1000.0, 4000.0, 16000.0];

/// Configuration for one full Table 3-style run. Hive's HDFS space is
/// always accounted at the paper's per-node capacity
/// ([`paper_disk_capacity`]), which is what fails Q9 at 16 TB.
#[derive(Clone, Debug)]
pub struct DssConfig {
    /// Real generated scale factor (data volume actually held in memory).
    pub sim_scale: f64,
    /// Paper scale factors to emulate (GB-equivalents: 250, 1000, ...).
    pub paper_scales: Vec<f64>,
    /// Queries to run (1-based). Empty = all 22.
    pub queries: Vec<usize>,
}

/// One query at one scale factor.
#[derive(Clone, Debug)]
pub struct QueryCell {
    pub query: usize,
    /// `None` = failed (Hive Q9 at 16 TB: out of disk).
    pub hive_secs: Option<f64>,
    pub pdw_secs: f64,
    /// Per-resource busy/queue-wait totals from the Hive run's spans.
    pub hive_util: Option<simkit::trace::UtilSummary>,
    /// Per-resource busy/queue-wait totals from the PDW run's trace.
    pub pdw_util: simkit::trace::UtilSummary,
    /// Deepest resource queue over the Hive run: `(resource, peak depth,
    /// requests still queued at end, their accrued pending wait in secs)`.
    pub hive_peak_queue: Option<(String, usize, usize, f64)>,
    /// Deepest resource queue over the PDW run.
    pub pdw_peak_queue: (String, usize, usize, f64),
}

/// The deepest FIFO queue in a run's resource reports: `(resource name,
/// peak depth, total requests still queued at snapshot, summed pending
/// wait those requests have accrued so far in seconds)`. Ties broken by
/// name (ascending) for determinism.
pub fn peak_queue(reports: &[simkit::resource::ResourceReport]) -> (String, usize, usize, f64) {
    let queued_at_end: usize = reports.iter().map(|r| r.queued_at_end).sum();
    let pending_wait: f64 = reports.iter().map(|r| r.pending_wait_secs).sum();
    let deepest = reports.iter().max_by(|a, b| {
        a.max_queue_depth
            .cmp(&b.max_queue_depth)
            .then(b.name.cmp(&a.name))
    });
    match deepest {
        Some(r) => (
            r.name.clone(),
            r.max_queue_depth,
            queued_at_end,
            pending_wait,
        ),
        None => (String::new(), 0, queued_at_end, pending_wait),
    }
}

impl QueryCell {
    pub fn speedup(&self) -> Option<f64> {
        self.hive_secs.map(|h| h / self.pdw_secs.max(1e-9))
    }
}

/// All queries at one paper scale factor.
#[derive(Clone, Debug)]
pub struct ScaleRun {
    pub paper_scale: f64,
    pub k: f64,
    pub cells: Vec<QueryCell>,
    pub hive_load_secs: f64,
    pub pdw_load_secs: f64,
    /// Raw Hive runs for drill-down (Tables 4 and 5).
    pub hive_runs: Vec<(usize, Option<QueryRun>)>,
}

fn mean(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = values.clone().count().max(1) as f64;
    let am = values.clone().sum::<f64>() / n;
    let gm = (values.map(|v| v.max(1e-12).ln()).sum::<f64>() / n).exp();
    (am, gm)
}

impl ScaleRun {
    /// Arithmetic/geometric means over completed queries, optionally
    /// excluding Q9 (the paper's AM-9/GM-9).
    pub fn means(&self, engine: &str, exclude_q9: bool) -> Option<(f64, f64)> {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| !(exclude_q9 && c.query == 9))
            .map(|c| match engine {
                "hive" => c.hive_secs,
                "pdw" => Some(c.pdw_secs),
                other => panic!("unknown engine {other}"),
            })
            .collect::<Option<Vec<f64>>>()?;
        Some(mean(vals.iter().copied()))
    }
}

/// Full results of a DSS suite run.
#[derive(Clone, Debug)]
pub struct DssResults {
    pub config: DssConfig,
    pub runs: Vec<ScaleRun>,
}

/// Execute the suite. The scale factors are independent simulations over
/// the same generated data, so they run on [`crate::fanout`], which
/// returns them in `paper_scales` order.
pub fn run_dss(config: &DssConfig) -> DssResults {
    let catalog = generate(&GenConfig::new(config.sim_scale));
    let queries: Vec<usize> = if config.queries.is_empty() {
        (1..=tpch::QUERY_COUNT).collect()
    } else {
        config.queries.clone()
    };
    let jobs: Vec<_> = config
        .paper_scales
        .iter()
        .map(|&ps| {
            let (catalog, queries) = (&catalog, &queries);
            move || run_one_scale(config, catalog, queries, ps)
        })
        .collect();
    DssResults {
        config: config.clone(),
        runs: crate::fanout::run(jobs),
    }
}

fn run_one_scale(
    config: &DssConfig,
    catalog: &Catalog,
    queries: &[usize],
    paper_scale: f64,
) -> ScaleRun {
    let k = paper_scale / config.sim_scale;
    let params = Params::paper_dss().scaled(k);
    let capacity = Some(((paper_disk_capacity() as f64 / k).round() as u64).max(1));

    let (warehouse, hive_load) =
        load_warehouse(catalog, &params, capacity).expect("base data fits on disk");
    let hive_engine = HiveEngine::new(warehouse);
    let (pdw_catalog, pdw_load) = load_pdw(catalog, &params);
    let pdw_engine = PdwEngine::new(pdw_catalog);

    let mut cells = Vec::new();
    let mut hive_runs = Vec::new();
    for &q in queries {
        let plan = tpch::query(q);
        let hive_run = hive_engine.run_query(&plan).ok();
        let pdw_run = pdw_engine.run_query(&plan);
        cells.push(QueryCell {
            query: q,
            hive_secs: hive_run.as_ref().map(|r| r.total_secs),
            pdw_secs: pdw_run.total_secs,
            hive_util: hive_run.as_ref().map(|r| r.util()),
            pdw_util: pdw_run.trace.util(),
            hive_peak_queue: hive_run.as_ref().map(|r| peak_queue(&r.resources)),
            pdw_peak_queue: peak_queue(&pdw_run.resources),
        });
        hive_runs.push((q, hive_run));
    }
    ScaleRun {
        paper_scale,
        k,
        cells,
        hive_load_secs: hive_load.total_secs,
        pdw_load_secs: pdw_load.total_secs,
        hive_runs,
    }
}

/// The paper's per-node HDFS capacity: 8 data disks × 300 GB.
pub fn paper_disk_capacity() -> u64 {
    (8.0 * 300e9) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_produces_sane_speedups() {
        let cfg = DssConfig {
            sim_scale: 0.01,
            paper_scales: vec![250.0],
            queries: vec![1, 6],
        };
        let res = run_dss(&cfg);
        assert_eq!(res.runs.len(), 1);
        let run = &res.runs[0];
        assert_eq!(run.cells.len(), 2);
        for c in &run.cells {
            let s = c.speedup().expect("no failures at 250 GB");
            assert!(s > 1.0, "PDW must win Q{} (speedup {s})", c.query);
        }
        let (am, gm) = run.means("hive", false).unwrap();
        assert!(am >= gm, "AM >= GM always");
    }

    #[test]
    fn q9_runs_out_of_disk_at_16tb_only() {
        let cfg = DssConfig {
            sim_scale: 0.01,
            paper_scales: vec![250.0, 16000.0],
            queries: vec![9],
        };
        let res = run_dss(&cfg);
        assert!(
            res.runs[0].cells[0].hive_secs.is_some(),
            "Q9 completes at 250 GB"
        );
        assert!(
            res.runs[1].cells[0].hive_secs.is_none(),
            "Q9 must die on disk space at 16 TB"
        );
        // PDW finishes it everywhere.
        assert!(res.runs[1].cells[0].pdw_secs > 0.0);
    }

    #[test]
    fn a_scale_does_not_depend_on_the_other_scales_in_the_run() {
        // The calibration reports render single scales out of the full
        // suite run, so a scale's cells must equal those of a run of that
        // scale alone.
        let run = |paper_scales: Vec<f64>| {
            run_dss(&DssConfig {
                sim_scale: 0.01,
                paper_scales,
                queries: vec![6, 9],
            })
        };
        let alone = run(vec![16000.0]);
        let paired = run(vec![250.0, 16000.0]);
        assert_eq!(paired.runs[1].paper_scale, 16000.0);
        assert_eq!(
            format!("{:?}", alone.runs[0].cells),
            format!("{:?}", paired.runs[1].cells)
        );
    }
}
