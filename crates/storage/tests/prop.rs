//! Property-based tests: the storage structures against reference models.

use proptest::prelude::*;
use relational::expr::{col, lit_i64, Bounds, Expr};
use relational::scan::ScanChain;
use relational::{Catalog, DataType, LogicalPlan, Row, Schema, Table, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use storage::bufpool::{Access, BufferPool};
use storage::rcfile::RcFile;
use storage::{compress, BTree, ColBlockFile};

// ---- compressor ----------------------------------------------------------

proptest! {
    #[test]
    fn compress_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&packed), data);
    }

    #[test]
    fn compress_round_trips_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let packed = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&packed), data);
    }
}

// ---- B-tree vs BTreeMap model --------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Scan(u16, u8),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Remove),
        any::<u16>().prop_map(TreeOp::Get),
        (any::<u16>(), any::<u8>()).prop_map(|(k, n)| TreeOp::Scan(k, n)),
    ]
}

proptest! {
    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(tree_op(), 1..300)) {
        let mut tree: BTree<u16, u32> = BTree::with_order(4); // tiny order → many splits
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&k), model.get(&k));
                }
                TreeOp::Scan(k, n) => {
                    let got: Vec<(u16, u32)> =
                        tree.scan_from(&k, n as usize).into_iter().map(|(a, b)| (*a, *b)).collect();
                    let want: Vec<(u16, u32)> =
                        model.range(k..).take(n as usize).map(|(a, b)| (*a, *b)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
    }
}

// ---- buffer pool vs naive LRU model ---------------------------------------

/// O(n) reference LRU.
struct NaiveLru {
    cap: usize,
    /// Most recent at the back; (page, dirty).
    items: Vec<(u64, bool)>,
}

impl NaiveLru {
    fn access(&mut self, page: u64, dirty: bool) -> (bool, Option<u64>) {
        if let Some(i) = self.items.iter().position(|&(p, _)| p == page) {
            let (p, d) = self.items.remove(i);
            self.items.push((p, d || dirty));
            return (true, None);
        }
        let mut evicted = None;
        if self.items.len() >= self.cap {
            let (p, d) = self.items.remove(0);
            if d {
                evicted = Some(p);
            }
        }
        self.items.push((page, dirty));
        (false, evicted)
    }
}

proptest! {
    #[test]
    fn bufpool_matches_naive_lru(
        cap in 1usize..20,
        accesses in proptest::collection::vec((0u64..40, any::<bool>()), 1..400),
    ) {
        let mut pool = BufferPool::new(cap);
        let mut model = NaiveLru { cap, items: Vec::new() };
        for (page, dirty) in accesses {
            let got = pool.access(page, dirty);
            let (hit, evicted) = model.access(page, dirty);
            match got {
                Access::Hit => prop_assert!(hit),
                Access::Miss { evicted_dirty } => {
                    prop_assert!(!hit);
                    prop_assert_eq!(evicted_dirty, evicted);
                }
            }
            prop_assert_eq!(pool.len(), model.items.len());
        }
    }
}

// ---- RCFile round trip -----------------------------------------------------

fn arb_value(ty: DataType) -> BoxedStrategy<Value> {
    match ty {
        DataType::I64 => prop_oneof![any::<i64>().prop_map(Value::I64), Just(Value::Null)].boxed(),
        DataType::Decimal => (-1_000_000i64..1_000_000).prop_map(Value::Decimal).boxed(),
        DataType::Date => (-100_000i32..100_000).prop_map(Value::Date).boxed(),
        DataType::F64 => any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::F64)
            .boxed(),
        DataType::Str => "[a-zA-Z0-9 ]{0,40}".prop_map(Value::str).boxed(),
        DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn rcfile_round_trips(
        rows_data in proptest::collection::vec(
            (arb_value(DataType::I64), arb_value(DataType::Str),
             arb_value(DataType::Decimal), arb_value(DataType::Date)),
            0..200,
        ),
        group in 1usize..64,
    ) {
        let schema = Schema::of(&[
            ("a", DataType::I64),
            ("b", DataType::Str),
            ("c", DataType::Decimal),
            ("d", DataType::Date),
        ]);
        let rows: Vec<Row> = rows_data
            .into_iter()
            .map(|(a, b, c, d)| vec![a, b, c, d])
            .collect();
        let f = RcFile::write(&rows, &schema, group);
        prop_assert_eq!(f.read_all(), rows.clone());
        // Projections agree with manual extraction.
        let proj = f.read_columns(&[2, 0]);
        for (got, want) in proj.iter().zip(&rows) {
            prop_assert_eq!(&got[0], &want[2]);
            prop_assert_eq!(&got[1], &want[0]);
        }
    }
}

// ---- colblock round trip + pruning soundness ------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn colblock_round_trips(
        rows_data in proptest::collection::vec(
            (arb_value(DataType::I64), arb_value(DataType::Str),
             arb_value(DataType::Decimal), arb_value(DataType::Date)),
            0..200,
        ),
        block in 1usize..64,
    ) {
        let schema = Schema::of(&[
            ("a", DataType::I64),
            ("b", DataType::Str),
            ("c", DataType::Decimal),
            ("d", DataType::Date),
        ]);
        let rows: Vec<Row> = rows_data
            .into_iter()
            .map(|(a, b, c, d)| vec![a, b, c, d])
            .collect();
        let f = ColBlockFile::write(&rows, &schema, block);
        prop_assert_eq!(f.read_all(), rows.clone());
        // Projections agree with manual extraction.
        let proj = f.read_columns(&[2, 0]);
        for (got, want) in proj.iter().zip(&rows) {
            prop_assert_eq!(&got[0], &want[2]);
            prop_assert_eq!(&got[1], &want[0]);
        }
    }

    /// Soundness of min/max pruning: restricting the scan to blocks whose
    /// statistics admit the interval must lose no matching row. Because
    /// pruning only drops whole blocks (order is preserved), the pruned
    /// output filtered by the predicate must equal the full table filtered
    /// by the predicate — i.e. every skipped block contained no match.
    #[test]
    fn colblock_pruning_is_sound(
        rows_data in proptest::collection::vec(
            (arb_value(DataType::I64), arb_value(DataType::Date)),
            0..200,
        ),
        block in 1usize..16,
        lo in prop_oneof![Just(None), (-50i64..50).prop_map(Some)],
        hi in prop_oneof![Just(None), (-50i64..50).prop_map(Some)],
    ) {
        let schema = Schema::of(&[("k", DataType::I64), ("d", DataType::Date)]);
        let rows: Vec<Row> = rows_data.into_iter().map(|(k, d)| vec![k, d]).collect();
        let f = ColBlockFile::write(&rows, &schema, block);
        let b = Bounds { lo: lo.map(Value::I64), hi: hi.map(Value::I64) };
        let bounds: BTreeMap<usize, Bounds> = [(0usize, b.clone())].into_iter().collect();
        let (batch, stats) = f.read_pruned(&[0, 1], &bounds);
        prop_assert_eq!(stats.blocks_total, rows.len().div_ceil(block) as u64);
        // A NULL never satisfies a bounded comparison.
        let matches = |r: &Row| match &r[0] {
            Value::Null => false,
            v => b.lo.as_ref().is_none_or(|x| v >= x) && b.hi.as_ref().is_none_or(|x| v <= x),
        };
        let want: Vec<Row> = rows.iter().filter(|r| matches(r)).cloned().collect();
        let got: Vec<Row> = batch.to_rows().into_iter().filter(|r| matches(r)).collect();
        prop_assert_eq!(got, want);
    }
}

// ---- scan chains over row and columnar reads -------------------------------

/// One generated filter: `col op lit`, on a column index taken modulo the
/// width of the rows it sees.
#[derive(Clone, Debug)]
struct FilterSpec {
    col: usize,
    op: u8,
    lit: i64,
    span: i64,
}

impl FilterSpec {
    fn expr(&self, width: usize) -> Expr {
        let c = col(self.col % width);
        match self.op {
            0 => c.eq(lit_i64(self.lit)),
            1 => c.lt(lit_i64(self.lit)),
            2 => c.le(lit_i64(self.lit)),
            3 => c.gt(lit_i64(self.lit)),
            4 => c.ge(lit_i64(self.lit)),
            _ => c.between(Value::I64(self.lit), Value::I64(self.lit + self.span)),
        }
    }
}

/// One generated projection: bare references to `cols` (modulo the input
/// width), plus a computed column at `computed`'s position when present.
#[derive(Clone, Debug)]
struct ProjectSpec {
    cols: Vec<usize>,
    computed: Option<usize>,
}

fn arb_filter() -> BoxedStrategy<Option<FilterSpec>> {
    prop_oneof![
        Just(None),
        (0usize..8, 0u8..6, -25i64..25, 0i64..15)
            .prop_map(|(col, op, lit, span)| Some(FilterSpec { col, op, lit, span })),
    ]
    .boxed()
}

fn arb_project() -> BoxedStrategy<ProjectSpec> {
    (
        proptest::collection::vec(0usize..8, 1..5),
        prop_oneof![Just(None), (0usize..8).prop_map(Some)],
    )
        .prop_map(|(cols, computed)| ProjectSpec { cols, computed })
        .boxed()
}

/// The plan `F0? P1 F1? P2 F2?` over table `t` (projections only when
/// `projected`), and the base column each filtered column is a bare copy
/// of, for filters below the first computed projection: the columns the
/// chain's pruning bounds must cover.
fn scan_plan(
    filters: &[Option<FilterSpec>; 3],
    projects: &[ProjectSpec; 2],
    projected: bool,
    base_width: usize,
) -> (LogicalPlan, BTreeSet<usize>) {
    let mut plan = LogicalPlan::scan("t");
    // Current column → base column while every projection is bare.
    let mut origin: Option<Vec<usize>> = Some((0..base_width).collect());
    let mut width = base_width;
    let mut bounded = BTreeSet::new();
    for (i, f) in filters.iter().enumerate() {
        if let Some(f) = f {
            let pred = f.expr(width);
            if let Some(o) = &origin {
                bounded.insert(o[f.col % width]);
            }
            plan = plan.filter(pred);
        }
        let Some(p) = projects.get(i).filter(|_| projected) else {
            continue;
        };
        let mut exprs: Vec<(Expr, String)> = p
            .cols
            .iter()
            .map(|&c| (col(c % width), format!("c{c}")))
            .collect();
        if let Some(at) = p.computed {
            let e = Expr::IsNull(Box::new(col(at % width)));
            exprs.insert(at % (exprs.len() + 1), (e, "computed".to_string()));
            origin = None;
        }
        origin = origin.map(|o| p.cols.iter().map(|&c| o[c % width]).collect());
        width = exprs.len();
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        };
    }
    (plan, bounded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// A scan chain gives the reference executor's answer on every read
    /// path: its row runner over borrowed and over owned base rows, and its
    /// column read (read columns, pruning bounds, remapped stack) over an
    /// RCFile-style column subset and over pruned colblock batches. Its
    /// bounds cover every filtered column that maps back to a base column,
    /// and `col_out` puts the unique key where each output row's source
    /// row can be found again.
    #[test]
    fn scan_chain_matches_reference_on_every_read_path(
        rows_data in proptest::collection::vec(
            (
                prop_oneof![(-25i64..25).prop_map(Value::I64), Just(Value::Null)],
                (-25i64..25).prop_map(Value::I64),
                "[a-c]{0,2}".prop_map(Value::str),
            ),
            0..120,
        ),
        block in 1usize..16,
        filters in (arb_filter(), arb_filter(), arb_filter()),
        projects in (arb_project(), arb_project()),
        projected in 0u8..4,
    ) {
        let schema = Schema::of(&[
            ("k", DataType::I64),
            ("a", DataType::I64),
            ("b", DataType::I64),
            ("s", DataType::Str),
        ]);
        // Column 0 is a unique ascending key, so colblock blocks hold
        // disjoint key ranges and key bounds prune.
        let rows: Vec<Row> = rows_data
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, s))| vec![Value::I64(i as i64 - 40), a, b, s])
            .collect();
        let (plan, bounded) = scan_plan(
            &[filters.0, filters.1, filters.2],
            &[projects.0, projects.1],
            projected > 0,
            schema.len(),
        );
        let mut cat = Catalog::new();
        cat.add("t", Table::new(schema.clone(), rows.clone()));
        let (out_schema, want) = relational::execute(&plan, &cat);

        let chain = ScanChain::match_plan(&plan).expect("a Filter/Project stack over a scan");
        prop_assert_eq!(chain.table, "t");
        prop_assert_eq!(chain.width(schema.len()), out_schema.len());
        prop_assert_eq!(&chain.run_rows(rows.iter().map(Cow::Borrowed)), &want);
        prop_assert_eq!(&chain.run_rows(rows.clone().into_iter().map(Cow::Owned)), &want);

        let read = chain.column_read(schema.len());
        prop_assert_eq!(read.bounds.keys().copied().collect::<BTreeSet<_>>(), bounded);
        let subset: Vec<Row> = rows
            .iter()
            .map(|r| read.cols.iter().map(|&c| r[c].clone()).collect())
            .collect();
        prop_assert_eq!(&read.chain.run_rows(subset.into_iter().map(Cow::Owned)), &want);
        let f = ColBlockFile::write(&rows, &schema, block);
        let (batch, _) = f.read_pruned(&read.cols, &read.bounds);
        prop_assert_eq!(&read.chain.run_batch(batch).to_rows(), &want);

        if let Some(pos) = chain.col_out(0) {
            for out in &want {
                let source = &rows[(out[pos].as_i64().expect("key") + 40) as usize];
                prop_assert_eq!(
                    &chain.run_rows([Cow::Borrowed(source)]),
                    &vec![out.clone()]
                );
            }
        }
    }
}
