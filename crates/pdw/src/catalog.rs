//! PDW's physical catalog: hash-distributed and replicated tables, plus the
//! dwloader load path (Table 2 timings).

use cluster::Params;
use relational::value::row_bytes;
use relational::{ops, Catalog, Row, Schema};
use std::collections::BTreeMap;
use storage::ColBlockFile;
use tpch::layout::{colblock_cluster_col, layout_of};

/// Physical distribution of a table.
pub enum PdwTable {
    /// Hash-partitioned on a column into `parts.len()` distributions.
    Hash {
        schema: Schema,
        col: usize,
        parts: Vec<Vec<Row>>,
    },
    /// Full copy on every node.
    Replicated { schema: Schema, rows: Vec<Row> },
}

impl PdwTable {
    pub fn schema(&self) -> &Schema {
        match self {
            PdwTable::Hash { schema, .. } => schema,
            PdwTable::Replicated { schema, .. } => schema,
        }
    }

    pub fn n_rows(&self) -> usize {
        match self {
            PdwTable::Hash { parts, .. } => parts.iter().map(Vec::len).sum(),
            PdwTable::Replicated { rows, .. } => rows.len(),
        }
    }

    /// Bytes of every row, by a fresh walk. [`PdwCatalog::table_bytes`]
    /// keeps this count without the walk.
    pub fn data_bytes(&self) -> u64 {
        match self {
            PdwTable::Hash { parts, .. } => parts
                .iter()
                .flat_map(|p| p.iter())
                .map(|r| row_bytes(r))
                .sum(),
            PdwTable::Replicated { rows, .. } => rows.iter().map(|r| row_bytes(r)).sum(),
        }
    }
}

/// The PDW database.
pub struct PdwCatalog {
    /// `BTreeMap` so any catalog enumeration is in sorted table order.
    /// Private: [`PdwCatalog::refresh_insert`] and
    /// [`PdwCatalog::refresh_delete`] are the only mutators, and they keep
    /// `bytes` in step with the rows.
    tables: BTreeMap<String, PdwTable>,
    /// [`PdwTable::data_bytes`] of every table, counted when the rows
    /// change rather than on every scan.
    bytes: BTreeMap<String, u64>,
    pub params: Params,
    pub distributions: usize,
    /// Columnar-format shadow of every table: one colblock file per hash
    /// distribution (one total for replicated tables), cluster-sorted so
    /// block min/max stats prune. Empty until [`PdwCatalog::build_colblock`]
    /// runs — the row engine never reads these.
    pub col_files: BTreeMap<String, Vec<ColBlockFile>>,
}

impl PdwCatalog {
    pub fn table(&self, name: &str) -> &PdwTable {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no PDW table `{name}`"))
    }

    /// One table's [`PdwTable::data_bytes`], from the count kept at load
    /// and refresh time.
    pub fn table_bytes(&self, name: &str) -> u64 {
        *self
            .bytes
            .get(name)
            .unwrap_or_else(|| panic!("no PDW table `{name}`"))
    }

    /// The base data's bytes over every table.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    fn table_mut(&mut self, name: &str) -> &mut PdwTable {
        self.tables
            .get_mut(name)
            .unwrap_or_else(|| panic!("no PDW table `{name}`"))
    }

    /// Count a table's bytes again after its rows changed, and rebuild its
    /// colblock shadow if it has one.
    fn rows_changed(&mut self, name: &str) {
        let bytes = self.table(name).data_bytes();
        self.bytes.insert(name.to_string(), bytes);
        if self.col_files.contains_key(name) {
            self.rebuild_colblock(name);
        }
    }

    /// Materialize the columnar shadow copies (the colblock ablation's
    /// storage conversion). Each distribution's rows are sorted on the
    /// table's cluster column before being carved into blocks, so the
    /// per-block min/max ranges are tight and disjoint.
    pub fn build_colblock(&mut self) {
        let names: Vec<String> = self.tables.keys().cloned().collect();
        for name in names {
            self.rebuild_colblock(&name);
        }
    }

    /// (Re)materialize one table's colblock files from its current rows.
    fn rebuild_colblock(&mut self, name: &str) {
        let t = self.table(name);
        let schema = t.schema().clone();
        let cluster = colblock_cluster_col(name).and_then(|c| schema.index_of(c));
        let part_rows: Vec<Vec<Row>> = match t {
            PdwTable::Hash { parts, .. } => parts.clone(),
            PdwTable::Replicated { rows, .. } => vec![rows.clone()],
        };
        let files: Vec<ColBlockFile> = part_rows
            .into_iter()
            .map(|mut rows| {
                if let Some(cc) = cluster {
                    rows.sort_by(|a, z| a[cc].cmp(&z[cc]));
                }
                ColBlockFile::write(&rows, &schema, storage::colblock::DEFAULT_ROWS_PER_BLOCK)
            })
            .collect();
        self.col_files.insert(name.to_string(), files);
    }

    /// TPC-H RF1: bulk-insert rows through the landing node (dwloader
    /// path), routing each to its hash distribution. Returns simulated
    /// seconds.
    pub fn refresh_insert(&mut self, name: &str, rows: Vec<Row>) -> f64 {
        let bytes: u64 = rows.iter().map(|r| row_bytes(r)).sum();
        let d = self.distributions;
        match self.table_mut(name) {
            PdwTable::Hash { col, parts, .. } => {
                let routed = ops::hash_partition(rows, &[*col], d);
                for (p, new) in parts.iter_mut().zip(routed) {
                    p.extend(new);
                }
            }
            PdwTable::Replicated { rows: all, .. } => all.extend(rows),
        }
        self.rows_changed(name);
        bytes as f64 / self.params.pdw_load_bw_per_node + self.params.pdw_step_overhead
    }

    /// TPC-H RF2: delete rows whose `key_col` value is in `keys`. The
    /// paper's configuration has **no indexes** (§3.3.2), so the delete
    /// scans the table. Returns simulated seconds.
    pub fn refresh_delete(
        &mut self,
        name: &str,
        key_col: usize,
        // simlint: allow(no-unordered-iter) — membership probes only (`contains`), never iterated
        keys: &std::collections::HashSet<i64>,
    ) -> f64 {
        let p = self.params.clone();
        let total_bytes = self.table_bytes(name);
        let matches = |r: &Row| {
            r[key_col]
                .as_i64()
                .map(|k| keys.contains(&k))
                .unwrap_or(false)
        };
        match self.table_mut(name) {
            PdwTable::Hash { parts, .. } => {
                for p in parts.iter_mut() {
                    p.retain(|r| !matches(r));
                }
            }
            PdwTable::Replicated { rows, .. } => rows.retain(|r| !matches(r)),
        }
        self.rows_changed(name);
        // Full scan across the distributions to find the victims.
        total_bytes as f64 / (p.nodes as f64 * p.pdw_scan_bw_per_node) + p.pdw_step_overhead
    }
}

impl relational::plan::SchemaProvider for PdwCatalog {
    fn table_schema(&self, name: &str) -> &Schema {
        self.table(name).schema()
    }
}

/// dwloader timing (Table 2): data is generated on the landing node, split,
/// and pushed to the compute nodes through the landing node's pipe.
#[derive(Clone, Debug, Default)]
pub struct PdwLoadReport {
    pub total_secs: f64,
    pub text_bytes: u64,
}

/// Build the PDW database from a generated TPC-H catalog using the paper's
/// Table 1 layouts.
pub fn load_pdw(catalog: &Catalog, params: &Params) -> (PdwCatalog, PdwLoadReport) {
    let distributions = params.total_distributions() as usize;
    let mut tables = BTreeMap::new();
    let mut bytes = BTreeMap::new();
    let mut report = PdwLoadReport::default();

    for name in tpch::schema::TABLE_NAMES {
        let table = catalog.get(name);
        // The same rows, so the same sum as `PdwTable::data_bytes`.
        let table_bytes = table.byte_size();
        report.text_bytes += table_bytes;
        bytes.insert(name.to_string(), table_bytes);
        let layout = layout_of(name).pdw;
        let t = match layout.distribution_col {
            Some(col) => {
                let c = table.schema.col(col);
                let parts = ops::hash_partition(table.rows.clone(), &[c], distributions);
                PdwTable::Hash {
                    schema: table.schema.clone(),
                    col: c,
                    parts,
                }
            }
            None => PdwTable::Replicated {
                schema: table.schema.clone(),
                rows: table.rows.clone(),
            },
        };
        tables.insert(name.to_string(), t);
    }

    // Landing-node pipe is the bottleneck; dwloader also sorts/validates,
    // folded into the effective rate.
    report.total_secs = report.text_bytes as f64 / params.pdw_load_bw_per_node;
    (
        PdwCatalog {
            tables,
            bytes,
            params: params.clone(),
            distributions,
            col_files: BTreeMap::new(),
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpch::{generate, GenConfig};

    #[test]
    fn layouts_match_table1() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (pdw, report) = load_pdw(&cat, &params);
        assert!(matches!(pdw.table("lineitem"), PdwTable::Hash { .. }));
        assert!(matches!(pdw.table("nation"), PdwTable::Replicated { .. }));
        assert!(matches!(pdw.table("region"), PdwTable::Replicated { .. }));
        if let PdwTable::Hash { parts, col, .. } = pdw.table("lineitem") {
            assert_eq!(parts.len(), 128);
            assert_eq!(*col, 0); // l_orderkey
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, cat.get("lineitem").len());
        }
        assert!(report.total_secs > 0.0);
    }

    #[test]
    fn hash_distribution_has_no_pathological_skew() {
        // Unlike Hive's identity-modulo bucketing, PDW's hash function does
        // not leave distributions empty under sparse order keys.
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (pdw, _) = load_pdw(&cat, &params);
        if let PdwTable::Hash { parts, .. } = pdw.table("lineitem") {
            let non_empty = parts.iter().filter(|p| !p.is_empty()).count();
            assert_eq!(non_empty, 128, "every distribution should hold rows");
            let max = parts.iter().map(Vec::len).max().unwrap();
            let min = parts.iter().map(Vec::len).min().unwrap();
            assert!(
                (max as f64) < (min.max(1) as f64) * 2.5,
                "skew too high: {min}..{max}"
            );
        } else {
            panic!("lineitem should be hash distributed");
        }
    }

    /// The cached counts must equal a fresh walk of the rows: a stale
    /// count would shift `hot_fraction` and so every later scan's cost.
    fn assert_bytes_fresh(pdw: &PdwCatalog, when: &str) {
        let mut total = 0;
        for (name, t) in &pdw.tables {
            let walk = t.data_bytes();
            assert_eq!(pdw.table_bytes(name), walk, "{when}: `{name}`");
            total += walk;
        }
        assert_eq!(pdw.total_bytes(), total, "{when}: total");
    }

    #[test]
    fn cached_bytes_track_load_and_refresh() {
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (mut pdw, _) = load_pdw(&cat, &params);
        assert_bytes_fresh(&pdw, "after load_pdw");

        // One hash-distributed and one replicated table each way.
        let (li, na) = (pdw.table_bytes("lineitem"), pdw.table_bytes("nation"));
        pdw.refresh_insert("lineitem", cat.get("lineitem").rows[..100].to_vec());
        pdw.refresh_insert("nation", cat.get("nation").rows[..3].to_vec());
        assert!(pdw.table_bytes("lineitem") > li && pdw.table_bytes("nation") > na);
        assert_bytes_fresh(&pdw, "after refresh_insert");

        let (li, na) = (pdw.table_bytes("lineitem"), pdw.table_bytes("nation"));
        let keys = (0..50).collect();
        pdw.refresh_delete("lineitem", 0, &keys);
        pdw.refresh_delete("nation", 0, &keys);
        assert!(pdw.table_bytes("lineitem") < li && pdw.table_bytes("nation") < na);
        assert_bytes_fresh(&pdw, "after refresh_delete");
    }

    #[test]
    fn pdw_load_slower_than_hive_at_same_scale() {
        // Table 2: PDW ~79 min vs Hive ~38 min at 250 GB.
        let cat = generate(&GenConfig::new(0.01));
        let params = Params::paper_dss().scaled(25_000.0);
        let (_, pdw_report) = load_pdw(&cat, &params);
        assert!(pdw_report.total_secs > 0.0);
    }
}
