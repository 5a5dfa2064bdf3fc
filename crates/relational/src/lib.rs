//! # relational — shared relational core
//!
//! The common substrate for the three SQL-ish engines in this reproduction
//! (the PDW-style parallel warehouse, the Hive-style MapReduce warehouse,
//! and the single-node OLTP engine):
//!
//! * [`value`] — the dynamic [`Value`] type with a total order
//!   (dates, fixed-point decimals, strings, ...),
//! * [`date`] — proleptic-Gregorian civil date arithmetic (TPC-H needs
//!   `date '1998-12-01' - interval '90' day` and friends),
//! * [`schema`] — named, typed columns,
//! * [`expr`] — an expression tree with an interpreter (comparisons,
//!   arithmetic, LIKE, CASE, SUBSTRING, EXTRACT...),
//! * [`plan`] — a logical relational algebra (scan / filter / project /
//!   join / aggregate / sort / limit),
//! * [`ops`] — operator kernels over materialized row vectors (hash join,
//!   hash aggregate, sort, ...) reused by every engine,
//! * [`batch`] — vectorized counterparts of the same kernels over typed
//!   column vectors (`ColumnBatch`), answer-equivalent by construction
//!   and fed by the columnar `storage::colblock` scan paths,
//! * [`scan`] — the scan chain both warehouses fuse into a base-table
//!   read: a Filter/Project stack, its read columns, pruning bounds and
//!   row and batch runners,
//! * [`exec`] — a single-node reference executor used as the ground truth
//!   in cross-engine answer-equality tests,
//! * [`catalog`] — an in-memory table provider.
//!
//! ```
//! use relational::expr::{col, lit_i64};
//! use relational::{execute, AggCall, Catalog, DataType, LogicalPlan, Schema, Table, Value};
//!
//! let mut cat = Catalog::new();
//! cat.add(
//!     "t",
//!     Table::new(
//!         Schema::of(&[("k", DataType::I64), ("v", DataType::I64)]),
//!         vec![
//!             vec![Value::I64(1), Value::I64(10)],
//!             vec![Value::I64(2), Value::I64(20)],
//!             vec![Value::I64(2), Value::I64(30)],
//!         ],
//!     ),
//! );
//! let plan = LogicalPlan::scan("t")
//!     .filter(col(0).ge(lit_i64(2)))
//!     .aggregate(vec![(col(0), "k")], vec![AggCall::sum(col(1), "s")]);
//! let (_, rows) = execute(&plan, &cat);
//! assert_eq!(rows, vec![vec![Value::I64(2), Value::F64(50.0)]]);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod catalog;
pub mod date;
pub mod display;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod scan;
pub mod schema;
pub mod testing;
pub mod value;

pub use catalog::{Catalog, Table};
pub use exec::execute;
pub use expr::Expr;
pub use plan::{AggCall, AggFunc, JoinKind, LogicalPlan, SortKey};
pub use schema::{DataType, Field, Schema};
pub use value::{Row, Value};
