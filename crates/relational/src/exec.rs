//! Single-node reference executor: the ground truth every distributed
//! engine's answers are checked against. Executes a [`LogicalPlan`] by
//! materializing each operator with the shared kernels in [`crate::ops`].

use std::borrow::Cow;

use crate::catalog::Catalog;
use crate::ops;
use crate::plan::LogicalPlan;
use crate::schema::Schema;
use crate::value::Row;

/// Execute a plan against a catalog, returning `(schema, rows)`.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> (Schema, Vec<Row>) {
    let schema = plan.schema(catalog);
    let rows = run(plan, catalog).into_owned();
    (schema, rows)
}

/// A scan borrows its table's rows, so operators over it copy only what
/// they keep: filters clone their surviving rows, a projection over them
/// reads them in place, and no base table is cloned whole.
fn run<'a>(plan: &LogicalPlan, catalog: &'a Catalog) -> Cow<'a, [Row]> {
    match plan {
        LogicalPlan::Scan { table } => Cow::Borrowed(&catalog.get(table).rows),
        LogicalPlan::Filter { input, pred } => match scanned(plan, catalog) {
            Some(rows) => rows.into_iter().cloned().collect(),
            None => Cow::Owned(ops::filter(run(input, catalog).into_owned(), pred)),
        },
        LogicalPlan::Project { input, exprs } => Cow::Owned(match scanned(input, catalog) {
            Some(rows) => ops::project(rows, exprs),
            None => ops::project(run(input, catalog).iter(), exprs),
        }),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
            ..
        } => {
            let l = run(left, catalog);
            let r = run(right, catalog);
            let right_width = right.schema(catalog).len();
            Cow::Owned(ops::hash_join(
                &l,
                &r,
                on,
                *kind,
                residual.as_ref(),
                right_width,
            ))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => Cow::Owned(ops::hash_aggregate(&run(input, catalog), group_by, aggs)),
        LogicalPlan::Sort { input, keys } => {
            Cow::Owned(ops::sort(run(input, catalog).into_owned(), keys))
        }
        LogicalPlan::Limit { input, n } => match run(input, catalog) {
            Cow::Borrowed(rows) => Cow::Borrowed(&rows[..rows.len().min(*n)]),
            Cow::Owned(rows) => Cow::Owned(ops::limit(rows, *n)),
        },
        LogicalPlan::Materialize { input, .. } => run(input, catalog),
    }
}

/// The rows a chain of filters straight over a base-table scan keeps,
/// borrowed from the table; `None` for any other plan.
fn scanned<'a>(plan: &LogicalPlan, catalog: &'a Catalog) -> Option<Vec<&'a Row>> {
    match plan {
        LogicalPlan::Scan { table } => Some(catalog.get(table).rows.iter().collect()),
        LogicalPlan::Filter { input, pred } => {
            let mut rows = scanned(input, catalog)?;
            rows.retain(|r| pred.matches(r));
            Some(rows)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use crate::expr::{col, lit_i64};
    use crate::plan::{AggCall, JoinKind, SortKey};
    use crate::schema::DataType;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            "orders",
            Table::new(
                Schema::of(&[("o_id", DataType::I64), ("o_cust", DataType::I64)]),
                vec![
                    vec![Value::I64(1), Value::I64(10)],
                    vec![Value::I64(2), Value::I64(10)],
                    vec![Value::I64(3), Value::I64(20)],
                ],
            ),
        );
        c.add(
            "cust",
            Table::new(
                Schema::of(&[("c_id", DataType::I64), ("c_name", DataType::Str)]),
                vec![
                    vec![Value::I64(10), Value::str("alice")],
                    vec![Value::I64(20), Value::str("bob")],
                    vec![Value::I64(30), Value::str("carol")],
                ],
            ),
        );
        c
    }

    #[test]
    fn join_group_sort_pipeline() {
        let c = catalog();
        // SELECT c_name, count(*) FROM cust JOIN orders ON c_id=o_cust
        // GROUP BY c_name ORDER BY count DESC, name ASC
        let plan = LogicalPlan::scan("cust")
            .join(LogicalPlan::scan("orders"), vec![(0, 1)])
            .aggregate(vec![(col(1), "c_name")], vec![AggCall::count_star("n")])
            .sort(vec![SortKey::desc(col(1)), SortKey::asc(col(0))]);
        let (schema, rows) = execute(&plan, &c);
        assert_eq!(schema.col("n"), 1);
        assert_eq!(
            rows,
            vec![
                vec![Value::str("alice"), Value::I64(2)],
                vec![Value::str("bob"), Value::I64(1)],
            ]
        );
    }

    #[test]
    fn anti_join_finds_customers_without_orders() {
        let c = catalog();
        let plan = LogicalPlan::scan("cust").join_kind(
            LogicalPlan::scan("orders"),
            JoinKind::LeftAnti,
            vec![(0, 1)],
            None,
        );
        let (_, rows) = execute(&plan, &c);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::str("carol"));
    }

    #[test]
    fn scalar_subquery_via_cross_join() {
        let c = catalog();
        // SELECT o_id FROM orders WHERE o_id > (SELECT avg(o_id) FROM orders)
        let scalar = LogicalPlan::scan("orders").aggregate(vec![], vec![AggCall::avg(col(0), "a")]);
        let plan = LogicalPlan::scan("orders")
            .join_kind(scalar, JoinKind::Inner, vec![], Some(col(0).gt(col(2))))
            .project(vec![(col(0), "o_id")]);
        let (_, rows) = execute(&plan, &c);
        assert_eq!(rows, vec![vec![Value::I64(3)]]);
    }

    #[test]
    fn limit_truncates() {
        let c = catalog();
        let plan = LogicalPlan::scan("orders")
            .sort(vec![SortKey::desc(col(0))])
            .limit(1);
        let (_, rows) = execute(&plan, &c);
        assert_eq!(rows, vec![vec![Value::I64(3), Value::I64(20)]]);
        // Straight over a scan: the table's first rows.
        let (_, rows) = execute(&LogicalPlan::scan("orders").limit(2), &c);
        assert_eq!(rows, c.get("orders").rows[..2]);
    }

    #[test]
    fn filter_with_literal() {
        let c = catalog();
        let plan = LogicalPlan::scan("orders").filter(col(1).eq(lit_i64(10)));
        let (_, rows) = execute(&plan, &c);
        assert_eq!(rows.len(), 2);
        // A projection over the filtered scan reads the kept rows in place.
        let (_, rows) = execute(&plan.project(vec![(col(0), "o_id")]), &c);
        assert_eq!(rows, vec![vec![Value::I64(1)], vec![Value::I64(2)]]);
    }
}
