//! The metastore: table layouts and the physical warehouse in DFS.

use crate::hive_bucket;
use cluster::Params;
use dfs::Dfs;
use relational::{Row, Schema};
use std::collections::BTreeMap;
use storage::colblock::ColBlockFile;
use storage::rcfile::RcFile;
use tpch::layout::{colblock_cluster_col, HiveLayout};

/// A file stored in the warehouse.
pub enum HiveFile {
    /// Compressed columnar data (the format the paper benchmarks).
    Rc(RcFile),
    /// Raw delimited text (the pre-conversion external tables).
    Text(Vec<u8>),
    /// Columnar blocks with min/max statistics (the modern-format
    /// ablation; not part of the paper's configuration).
    Col(ColBlockFile),
}

/// Metastore entry for one table.
#[derive(Clone, Debug)]
pub struct HiveTableMeta {
    pub schema: Schema,
    pub layout: HiveLayout,
    /// Data file paths in bucket order (one per partition × bucket).
    pub files: Vec<String>,
    pub n_rows: u64,
}

/// On-disk format for base tables (the paper's RCFile-vs-text discussion,
/// §3.3.4.3 point 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageFormat {
    /// Compressed columnar (the paper's configuration).
    RcFile,
    /// Plain delimited text: no compression, no column pruning, but a much
    /// cheaper decode path.
    Text,
    /// Columnar blocks (`storage::colblock`): column pruning plus
    /// block-level min/max pruning and a vectorized decode path — the
    /// "2026 elephant" third leg of the storage ablation.
    ColBlock,
}

/// Hive release behaviour the paper distinguishes (§3.3.1): 0.7 cannot
/// insert into existing tables; 0.8 supports INSERT INTO (deletes remain
/// unsupported in both).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HiveVersion {
    V0_7,
    V0_8,
}

/// The warehouse: DFS + metastore.
pub struct HiveWarehouse {
    pub dfs: Dfs<HiveFile>,
    /// `BTreeMap` so any metastore enumeration is in sorted table order.
    pub tables: BTreeMap<String, HiveTableMeta>,
    pub params: Params,
    pub format: StorageFormat,
    pub version: HiveVersion,
}

impl HiveWarehouse {
    /// Physically organize `rows` according to `layout` and store them in
    /// the warehouse's format under `/warehouse/<table>/...`. Returns total compressed
    /// bytes written, or the out-of-space error.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: &Schema,
        layout: &HiveLayout,
        rows: Vec<Row>,
    ) -> Result<u64, dfs::DfsError> {
        let n_rows = rows.len() as u64;
        // Partition: directory per partition value (BTreeMap for
        // deterministic directory order).
        let mut partitions: BTreeMap<String, Vec<Row>> = BTreeMap::new();
        match layout.partition_col {
            Some(col) => {
                let idx = schema.col(col);
                for r in rows {
                    let key = r[idx].to_string();
                    partitions.entry(key).or_default().push(r);
                }
            }
            None => {
                partitions.insert("all".to_string(), rows);
            }
        }

        let mut files = Vec::new();
        let mut total = 0u64;
        for (part, part_rows) in partitions {
            let (bucket_col, n_buckets) = match layout.buckets {
                Some((col, n)) => (Some(schema.col(col)), n),
                None => (None, 1),
            };
            // Bucket split (identity modulo for ints — see crate docs).
            let mut buckets: Vec<Vec<Row>> = (0..n_buckets).map(|_| Vec::new()).collect();
            match bucket_col {
                Some(bc) => {
                    for r in part_rows {
                        let b = hive_bucket(&r[bc], n_buckets);
                        buckets[b].push(r);
                    }
                }
                None => buckets[0] = part_rows,
            }
            for (b, mut bucket_rows) in buckets.into_iter().enumerate() {
                // Each bucket is sorted on the bucket column (Table 1).
                if let Some(bc) = bucket_col {
                    bucket_rows.sort_by(|a, z| a[bc].cmp(&z[bc]));
                }
                let path = format!("/warehouse/{name}/{part}/{b:05}");
                total += self.store_file(&path, name, schema, bucket_rows)?;
                files.push(path);
            }
        }
        self.tables.insert(
            name.to_string(),
            HiveTableMeta {
                schema: schema.clone(),
                layout: layout.clone(),
                files,
                n_rows,
            },
        );
        Ok(total)
    }

    /// Encode `rows` of `table` in the warehouse's format and store them
    /// as one file at `path`. Returns the stored bytes, or the DFS error.
    pub(crate) fn store_file(
        &mut self,
        path: &str,
        table: &str,
        schema: &Schema,
        mut rows: Vec<Row>,
    ) -> Result<u64, dfs::DfsError> {
        let (len, file) = match self.format {
            StorageFormat::RcFile => {
                let rc = RcFile::write(&rows, schema, storage::rcfile::DEFAULT_ROW_GROUP);
                (rc.compressed_size(), HiveFile::Rc(rc))
            }
            StorageFormat::Text => {
                let text = storage::text::encode(&rows);
                (text.len() as u64, HiveFile::Text(text))
            }
            StorageFormat::ColBlock => {
                // Cluster-sort so block min/max ranges are tight and
                // disjoint; without it every block spans the full value
                // range and pruning never fires.
                if let Some(cc) = colblock_cluster_col(table).and_then(|c| schema.index_of(c)) {
                    rows.sort_by(|a, z| a[cc].cmp(&z[cc]));
                }
                let cb =
                    ColBlockFile::write(&rows, schema, storage::colblock::DEFAULT_ROWS_PER_BLOCK);
                (cb.compressed_size(), HiveFile::Col(cb))
            }
        };
        self.dfs.create(path, len, file)?;
        Ok(len)
    }

    pub fn table(&self, name: &str) -> &HiveTableMeta {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no hive table `{name}`"))
    }

    /// The RCFile behind a path.
    pub fn rcfile(&self, path: &str) -> &RcFile {
        match self.dfs.payload(path).expect("file exists") {
            HiveFile::Rc(f) => f,
            _ => panic!("{path} is not an RCFile"),
        }
    }

    /// Partition pruning: files surviving an (optional) partition-value
    /// restriction. `keep` receives each partition directory value.
    pub fn pruned_files(&self, name: &str, keep: impl Fn(&str) -> bool) -> Vec<String> {
        self.table(name)
            .files
            .iter()
            .filter(|p| {
                let part = p.split('/').nth(3).expect("warehouse path shape");
                keep(part)
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::DfsConfig;
    use relational::{DataType, Value};

    fn warehouse() -> HiveWarehouse {
        let params = Params::paper_dss();
        HiveWarehouse {
            dfs: Dfs::new(DfsConfig::from_params(&params)),
            tables: BTreeMap::new(),
            params,
            format: StorageFormat::RcFile,
            version: HiveVersion::V0_7,
        }
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::I64(i),
                    Value::I64(i % 25),
                    Value::str(format!("r{i}")),
                ]
            })
            .collect()
    }

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::I64),
            ("nat", DataType::I64),
            ("s", DataType::Str),
        ])
    }

    #[test]
    fn bucketed_table_creates_one_file_per_bucket() {
        let mut w = warehouse();
        let layout = HiveLayout {
            partition_col: None,
            buckets: Some(("k", 8)),
        };
        w.create_table("t", &schema(), &layout, rows(100)).unwrap();
        let meta = w.table("t");
        assert_eq!(meta.files.len(), 8);
        let total: usize = meta.files.iter().map(|p| w.rcfile(p).n_rows()).sum();
        assert_eq!(total, 100);
        // Buckets are sorted on the bucket column.
        let f0 = w.rcfile(&meta.files[0]).read_all();
        let keys: Vec<i64> = f0.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn partitioned_and_bucketed_like_customer() {
        let mut w = warehouse();
        let layout = HiveLayout {
            partition_col: Some("nat"),
            buckets: Some(("k", 8)),
        };
        w.create_table("cust", &schema(), &layout, rows(1000))
            .unwrap();
        // 25 partitions x 8 buckets = 200 files — the paper's customer
        // table map-task count.
        assert_eq!(w.table("cust").files.len(), 200);
        // Pruning to one nation keeps 8 files.
        let pruned = w.pruned_files("cust", |p| p == "7");
        assert_eq!(pruned.len(), 8);
    }

    #[test]
    fn sparse_keys_leave_buckets_empty_but_files_exist() {
        let mut w = warehouse();
        let layout = HiveLayout {
            partition_col: None,
            buckets: Some(("k", 64)),
        };
        // keys 32g + (1..=8): residues mod 64 cover {1..8, 33..40} = 16.
        let rows: Vec<Row> = (0..512)
            .map(|i| {
                vec![
                    Value::I64((i / 8) * 32 + i % 8 + 1),
                    Value::I64(0),
                    Value::str("x"),
                ]
            })
            .collect();
        w.create_table("sparse", &schema(), &layout, rows).unwrap();
        let meta = w.table("sparse");
        assert_eq!(meta.files.len(), 64, "empty buckets still get files");
        let non_empty = meta
            .files
            .iter()
            .filter(|p| w.rcfile(p).n_rows() > 0)
            .count();
        assert_eq!(non_empty, 16);
    }
}
