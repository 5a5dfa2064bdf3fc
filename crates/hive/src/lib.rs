//! # hive — a Hive 0.7-style MapReduce warehouse
//!
//! The NoSQL contender on the DSS side of the paper. What is modelled — and
//! what deliberately is *not* — mirrors the paper's analysis of why Hive
//! loses to PDW:
//!
//! * **Storage** ([`meta`], [`load`]): tables live in an HDFS-like DFS as
//!   compressed RCFiles, organized into partitions (one directory per
//!   partition-column value) and buckets (one file per hash bucket, sorted
//!   on the bucket column). Hive's integer bucket hash is the identity
//!   (`key % buckets`), so TPC-H's sparse order keys (first 8 of every 32)
//!   leave 384 of `lineitem`'s 512 buckets **empty** — the root cause of
//!   the paper's Q1/Q22 scaling anomalies.
//! * **Planning** ([`lower`]): *syntax-directed*, no cost-based optimizer.
//!   Joins run in exactly the order the query was written (the Hive team's
//!   hand-written TPC-H scripts). Map-side joins are chosen by a file-size
//!   heuristic and can **fail at runtime** (Java heap) after ~400 s, falling
//!   back to a common join — Q22's sub-query 4. Bucketed map joins are used
//!   when both sides are bucketed compatibly. Intermediate results are
//!   never re-bucketed, so downstream joins degrade to common joins — the
//!   paper's point (3) in §3.3.4.3.
//! * **Execution**: every stage is a real MapReduce job: data is actually
//!   partitioned/joined/aggregated with the shared `relational::ops`
//!   kernels, while the `mapreduce` engine turns per-task volumes into
//!   simulated wall-clock time.

#![forbid(unsafe_code)]

pub mod engine;
pub mod load;
pub mod lower;
pub mod meta;

pub use engine::{HiveEngine, HiveError, QueryRun};
pub use load::{load_warehouse, load_warehouse_fmt, LoadReport};
pub use meta::{HiveFile, HiveTableMeta, HiveWarehouse, StorageFormat};

/// Hive's bucket function: identity modulo for integer-like keys (this is
/// what leaves 384 of 512 lineitem buckets empty under sparse order keys),
/// FNV for strings.
pub fn hive_bucket(v: &relational::Value, n: usize) -> usize {
    use relational::Value;
    debug_assert!(n > 0);
    match v {
        Value::I64(x) => (x.rem_euclid(n as i64)) as usize,
        Value::Date(x) => ((*x as i64).rem_euclid(n as i64)) as usize,
        Value::Bool(b) => (*b as usize) % n,
        other => relational::ops::bucket_of(std::slice::from_ref(other), &[0], n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::Value;

    #[test]
    fn integer_bucketing_is_identity_modulo() {
        assert_eq!(hive_bucket(&Value::I64(1), 512), 1);
        assert_eq!(hive_bucket(&Value::I64(513), 512), 1);
        assert_eq!(hive_bucket(&Value::I64(-1), 4), 3); // rem_euclid
    }

    #[test]
    fn sparse_orderkeys_fill_exactly_128_of_512_buckets() {
        // Keys use the first 8 of every 32 values; 512 = 16 * 32, so the
        // reachable residues are {32g + r : g in 0..16, r in 1..=8}.
        let mut used = std::collections::HashSet::new();
        for ordinal in 0..1_000_000i64 {
            let key = tpch_sparse(ordinal);
            used.insert(hive_bucket(&Value::I64(key), 512));
        }
        assert_eq!(used.len(), 128);
    }

    fn tpch_sparse(ordinal: i64) -> i64 {
        (ordinal / 8) * 32 + ordinal % 8 + 1
    }
}
