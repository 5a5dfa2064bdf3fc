//! Scan chains: a run of Filter/Project operators directly over a base
//! table scan.
//!
//! Both warehouses fuse such a stack into the scan itself: Hive into the
//! map task over its RCFile, text or colblock files, PDW into the
//! per-distribution read of its row store or colblock shadow. This module
//! owns every decision that fusion needs, once for both engines:
//!
//! * which base columns the stack reads ([`ColumnRead::cols`]) and the
//!   min/max bounds its filters imply ([`ColumnRead::bounds`]);
//! * the stack in read-column coordinates, remapped once per chain
//!   ([`ColumnRead::chain`]);
//! * where a key column lands after the projections ([`ScanChain::col_out`],
//!   built on [`col_after_project`]) and the output width;
//! * one row runner over borrowed or owned rows ([`ScanChain::run_rows`])
//!   and one batch runner over [`ColumnBatch`]es ([`ScanChain::run_batch`]).
//!
//! The engines keep only what is theirs: storage layout, partition pruning,
//! the per-format read and the costing of the scan.
//!
//! ```
//! use relational::expr::{col, lit_i64};
//! use relational::scan::ScanChain;
//! use relational::{LogicalPlan, Value};
//! use std::borrow::Cow;
//!
//! let plan = LogicalPlan::scan("t")
//!     .filter(col(0).ge(lit_i64(2)))
//!     .project(vec![(col(2), "c"), (col(0), "k")]);
//! let chain = ScanChain::match_plan(&plan).unwrap();
//! let read = chain.column_read(3);
//! assert_eq!(read.cols, vec![0, 2]);
//! assert_eq!(chain.col_out(0), Some(1));
//! let base = vec![
//!     vec![Value::I64(1), Value::I64(10), Value::I64(100)],
//!     vec![Value::I64(2), Value::I64(20), Value::I64(200)],
//! ];
//! let rows = chain.run_rows(base.iter().map(Cow::Borrowed));
//! assert_eq!(rows, vec![vec![Value::I64(200), Value::I64(2)]]);
//! ```

use crate::batch::{self, ColumnBatch};
use crate::expr::{Bounds, Expr};
use crate::{LogicalPlan, Row};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// One operator of a scan chain.
#[derive(Clone, Debug)]
enum Op<'a> {
    Filter(Cow<'a, Expr>),
    Project(Cow<'a, [(Expr, String)]>),
}

/// A Filter/Project stack over `LogicalPlan::Scan { table }`. Its ops run
/// bottom-up (closest to the scan first) and, as matched, see base-table
/// column indices.
#[derive(Debug)]
pub struct ScanChain<'a> {
    pub table: &'a str,
    ops: Vec<Op<'a>>,
}

/// What a read of only some base columns needs: the columns, the pruning
/// bounds, and the chain over rows that hold just those columns.
#[derive(Debug)]
pub struct ColumnRead<'a> {
    /// Base columns the chain reads, ascending.
    pub cols: Vec<usize>,
    /// Per base column, the interval every accepted row's value lies in.
    /// Colblock files skip blocks whose min/max stats miss it.
    pub bounds: BTreeMap<usize, Bounds>,
    /// The chain with its ops over rows holding only `cols`.
    pub chain: ScanChain<'a>,
}

impl<'a> ScanChain<'a> {
    /// `plan` as a scan chain, or `None` when anything but Filter and
    /// Project sits between it and its base scan.
    pub fn match_plan(plan: &'a LogicalPlan) -> Option<ScanChain<'a>> {
        let mut ops = Vec::new();
        let mut cur = plan;
        loop {
            match cur {
                LogicalPlan::Scan { table } => {
                    ops.reverse();
                    return Some(ScanChain { table, ops });
                }
                LogicalPlan::Filter { input, pred } => {
                    ops.push(Op::Filter(Cow::Borrowed(pred)));
                    cur = input;
                }
                LogicalPlan::Project { input, exprs } => {
                    ops.push(Op::Project(Cow::Borrowed(exprs)));
                    cur = input;
                }
                _ => return None,
            }
        }
    }

    /// The filters below the first projection: the only ones that see
    /// base-table column indices.
    pub fn base_filters(&self) -> impl Iterator<Item = &Expr> {
        self.ops.iter().map_while(|op| match op {
            Op::Filter(p) => Some(p.as_ref()),
            Op::Project(_) => None,
        })
    }

    /// Output width over a table `base_width` columns wide.
    pub fn width(&self, base_width: usize) -> usize {
        self.ops
            .iter()
            .rev()
            .find_map(|op| match op {
                Op::Project(exprs) => Some(exprs.len()),
                Op::Filter(_) => None,
            })
            .unwrap_or(base_width)
    }

    /// Where column `col` of the chain's input lands in its output: `None`
    /// once a projection drops it or only computes over it.
    pub fn col_out(&self, col: usize) -> Option<usize> {
        self.ops.iter().try_fold(col, |c, op| match op {
            Op::Filter(_) => Some(c),
            Op::Project(exprs) => col_after_project(c, exprs),
        })
    }

    /// The column read of this chain over a table `base_width` columns
    /// wide. It reads the columns that the ops up to and including the
    /// first projection reference, or every column when there is no
    /// projection. The bounds keep mapping back through bare-column
    /// projections: Q19's implied part predicate sits above the leaf's
    /// column-select projection and would otherwise prune nothing.
    pub fn column_read(&self, base_width: usize) -> ColumnRead<'a> {
        let mut needed = BTreeSet::new();
        let mut projected = false;
        for op in &self.ops {
            match op {
                Op::Filter(p) => p.referenced_cols(&mut needed),
                Op::Project(exprs) => {
                    for (e, _) in exprs.iter() {
                        e.referenced_cols(&mut needed);
                    }
                    projected = true;
                    break;
                }
            }
        }
        let cols: Vec<usize> = if projected {
            needed.into_iter().collect()
        } else {
            (0..base_width).collect()
        };

        let mut bounds: BTreeMap<usize, Bounds> = BTreeMap::new();
        // Current column → base column, while every projection so far is
        // bare column references.
        let mut to_base: Option<Vec<usize>> = Some((0..base_width).collect());
        for op in &self.ops {
            let Some(map) = to_base else { break };
            to_base = match op {
                Op::Filter(p) => {
                    for (c, b) in p.column_bounds() {
                        if let Some(&base) = map.get(c) {
                            let merged = match bounds.remove(&base) {
                                Some(prev) => prev.intersect(b),
                                None => b,
                            };
                            bounds.insert(base, merged);
                        }
                    }
                    Some(map)
                }
                Op::Project(exprs) => exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Col(i) => map.get(*i).copied(),
                        _ => None,
                    })
                    .collect(),
            };
        }

        // Ops up to the first projection see base columns and are remapped
        // into read coordinates; the ones above it see the projection's
        // output and stay as they are.
        let remap: BTreeMap<usize, usize> = cols
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let mut base_level = true;
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                _ if !base_level => op.clone(),
                Op::Filter(p) => Op::Filter(Cow::Owned(p.remap_cols(&remap))),
                Op::Project(exprs) => {
                    base_level = false;
                    Op::Project(Cow::Owned(
                        exprs
                            .iter()
                            .map(|(e, n)| (e.remap_cols(&remap), n.clone()))
                            .collect(),
                    ))
                }
            })
            .collect();
        ColumnRead {
            cols,
            bounds,
            chain: ScanChain {
                table: self.table,
                ops,
            },
        }
    }

    /// Run the chain over `rows` in one pass per row. A filter drops a row
    /// before anything of it is copied, and a borrowed row stays borrowed
    /// until a projection builds a new one, so only surviving rows, or
    /// their projected values, are ever cloned.
    pub fn run_rows<'r>(&self, rows: impl IntoIterator<Item = Cow<'r, Row>>) -> Vec<Row> {
        let mut out = Vec::new();
        'rows: for mut row in rows {
            for op in &self.ops {
                match op {
                    Op::Filter(p) => {
                        if !p.matches(&row) {
                            continue 'rows;
                        }
                    }
                    Op::Project(exprs) => {
                        row = Cow::Owned(exprs.iter().map(|(e, _)| e.eval(&row)).collect());
                    }
                }
            }
            out.push(row.into_owned());
        }
        out
    }

    /// Run the chain over a column batch with the vectorized kernels.
    pub fn run_batch(&self, mut b: ColumnBatch) -> ColumnBatch {
        for op in &self.ops {
            b = match op {
                Op::Filter(p) => batch::filter(&b, p),
                Op::Project(exprs) => batch::project(&b, exprs),
            };
        }
        b
    }
}

/// Where column `col` of a projection's input lands in its output: the
/// first bare reference to it, or `None` when the projection drops it or
/// only computes over it. A hash or bucket key survives a projection only
/// this way.
pub fn col_after_project(col: usize, exprs: &[(Expr, String)]) -> Option<usize> {
    exprs
        .iter()
        .position(|(e, _)| matches!(e, Expr::Col(i) if *i == col))
}
