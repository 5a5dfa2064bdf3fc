//! Data loading: dbgen text → HDFS copy → RCFile conversion (the two-phase
//! pipeline of §3.3.3, timed for Table 2).

use crate::meta::HiveWarehouse;
use cluster::Params;
use dfs::{Dfs, DfsConfig, DfsError};
use relational::Catalog;
use std::collections::BTreeMap;
use tpch::layout::layout_of;

/// Load timing breakdown.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Phase 1: parallel `hdfs put` of the generated text files.
    pub copy_secs: f64,
    /// Phase 2: INSERT ... SELECT converting text to compressed RCFile.
    pub convert_secs: f64,
    pub total_secs: f64,
    /// Compressed bytes stored (before replication).
    pub stored_bytes: u64,
    /// Raw text bytes generated.
    pub text_bytes: u64,
}

/// Build a Hive warehouse from a generated TPC-H catalog, returning the
/// warehouse and load timings.
///
/// `capacity_per_node` optionally enables disk-space accounting (the Q9
/// failure at 16 TB needs it).
pub fn load_warehouse(
    catalog: &Catalog,
    params: &Params,
    capacity_per_node: Option<u64>,
) -> Result<(HiveWarehouse, LoadReport), DfsError> {
    load_warehouse_fmt(
        catalog,
        params,
        capacity_per_node,
        crate::meta::StorageFormat::RcFile,
    )
}

/// Like [`load_warehouse`] but choosing the storage format (the RCFile
/// vs text ablation).
pub fn load_warehouse_fmt(
    catalog: &Catalog,
    params: &Params,
    capacity_per_node: Option<u64>,
    format: crate::meta::StorageFormat,
) -> Result<(HiveWarehouse, LoadReport), DfsError> {
    let mut config = DfsConfig::from_params(params);
    config.capacity_per_node = capacity_per_node;
    let mut warehouse = HiveWarehouse {
        dfs: Dfs::new(config),
        tables: BTreeMap::new(),
        params: params.clone(),
        format,
        version: crate::meta::HiveVersion::V0_7,
    };

    let mut report = LoadReport::default();
    for name in tpch::schema::TABLE_NAMES {
        let table = catalog.get(name);
        let layout = layout_of(name).hive;
        report.text_bytes += table.byte_size();
        let stored = warehouse.create_table(name, &table.schema, &layout, table.rows.clone())?;
        report.stored_bytes += stored;
    }

    // Phase 1 — all 16 nodes copy their local dbgen output into HDFS in
    // parallel; each byte lands on `replication` nodes, so the client-side
    // write bandwidth (which already folds in the replication pipeline) is
    // the bottleneck.
    let per_node_text = report.text_bytes as f64 / params.nodes as f64;
    report.copy_secs = per_node_text / params.hdfs_write_bw_per_node;

    // Phase 2 — a map-only conversion job: scan text, compress + encode
    // the stored format, write back to HDFS. Encode CPU is the bottleneck:
    // each node runs `map_slots` encoders in parallel. Text "conversion"
    // keeps the RCFile rate (the staging copy is the same CPU-bound pass).
    let encode_bw = match format {
        crate::meta::StorageFormat::ColBlock => params.colblock_encode_bw,
        _ => params.rcfile_encode_bw,
    };
    let encode_parallelism = params.map_slots_per_node as f64;
    let per_node_encode = per_node_text / (encode_bw * encode_parallelism);
    let per_node_write =
        (report.stored_bytes as f64 / params.nodes as f64) / params.hdfs_write_bw_per_node;
    report.convert_secs = per_node_encode.max(per_node_write) + params.job_overhead;

    report.total_secs = report.copy_secs + report.convert_secs;
    Ok((warehouse, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::{generate, GenConfig};

    #[test]
    fn warehouse_loads_all_tables() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0); // 250 GB / 0.01
        let (w, report) = load_warehouse(&cat, &params, None).unwrap();
        assert_eq!(w.tables.len(), 8);
        assert_eq!(w.table("lineitem").files.len(), 512);
        assert_eq!(w.table("orders").files.len(), 512);
        assert_eq!(w.table("customer").files.len(), 200);
        assert!(report.stored_bytes > 0);
        assert!(report.stored_bytes < report.text_bytes, "compression");
        assert!(report.total_secs > 0.0);
    }

    #[test]
    fn lineitem_buckets_mostly_empty() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (w, _) = load_warehouse(&cat, &params, None).unwrap();
        let meta = w.table("lineitem");
        let non_empty = meta
            .files
            .iter()
            .filter(|p| w.rcfile(p).n_rows() > 0)
            .count();
        assert_eq!(non_empty, 128, "sparse orderkeys fill 128 of 512 buckets");
    }

    #[test]
    fn load_time_scales_roughly_linearly() {
        let cat = generate(&GenConfig::new(0.01));
        let p250 = Params::paper_dss().scaled(25_000.0);
        let p1000 = Params::paper_dss().scaled(100_000.0);
        let (_, r250) = load_warehouse(&cat, &p250, None).unwrap();
        let (_, r1000) = load_warehouse(&cat, &p1000, None).unwrap();
        let ratio = r1000.total_secs / r250.total_secs;
        assert!(
            (3.0..=4.5).contains(&ratio),
            "4x data ≈ 4x load time, got {ratio}"
        );
    }

    #[test]
    fn out_of_space_surfaces() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        match load_warehouse(&cat, &params, Some(1024)) {
            Err(DfsError::OutOfSpace { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("load should exhaust a 1 KB/node filesystem"),
        }
    }
}
