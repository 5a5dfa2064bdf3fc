//! Operator kernels over materialized row vectors.
//!
//! These are the building blocks every engine shares: the reference executor
//! composes them directly; the Hive engine runs them inside map/reduce tasks
//! (partial aggregation in mappers, final in reducers); the PDW engine runs
//! them per compute node between DMS data movements. Keeping one set of
//! kernels guarantees cross-engine answer equality is a property of the
//! *plans*, not of subtly different operator semantics.

use crate::expr::Expr;
use crate::plan::{AggCall, AggFunc, JoinKind, SortKey};
use crate::value::{Row, Value};
use std::borrow::Cow;
// simlint: allow(no-unordered-iter) — HashMap/HashSet here are probe- or count-only (see per-site allows); ordered state uses BTreeMap
use std::collections::{BTreeMap, HashMap, HashSet};

/// WHERE: keep rows matching the predicate (NULL = drop).
pub fn filter(rows: Vec<Row>, pred: &Expr) -> Vec<Row> {
    rows.into_iter().filter(|r| pred.matches(r)).collect()
}

/// SELECT list: evaluate expressions per row.
pub fn project<'a>(rows: impl IntoIterator<Item = &'a Row>, exprs: &[(Expr, String)]) -> Vec<Row> {
    rows.into_iter()
        .map(|r| exprs.iter().map(|(e, _)| e.eval(r)).collect())
        .collect()
}

/// Hash join. Builds on `right`, probes with `left`. `on` holds
/// `(left_col, right_col)` pairs; empty `on` degrades to a nested-loop cross
/// join. `residual` is evaluated over the concatenated `[left ++ right]` row
/// (for all kinds, including semi/anti, where it sees the candidate match).
///
/// NULL join keys never match (SQL semantics). The same as
/// [`JoinTable::build`] on `right` followed by one [`JoinTable::probe`].
pub fn hash_join(
    left: &[Row],
    right: &[Row],
    on: &[(usize, usize)],
    kind: JoinKind,
    residual: Option<&Expr>,
    right_width: usize,
) -> Vec<Row> {
    JoinTable::build(right, on).probe(left.iter().map(Cow::Borrowed), kind, residual, right_width)
}

/// The build side of a [`hash_join`], built once and probed any number of
/// times: a replicated build side joined against every partition of a
/// distributed probe side needs one table, not one per partition. Probing
/// the chunks of any split of `left` in order and concatenating the outputs
/// gives exactly `hash_join` over the whole of `left`.
pub struct JoinTable<'a> {
    right: Vec<&'a Row>,
    lcols: Vec<usize>,
    /// Right-row indices by key; NULL keys are left out. A cross join
    /// (empty `on`) keys every right row by the empty key.
    // simlint: allow(no-unordered-iter) — probe-only (`get`), output order is driven by the probe side
    table: HashMap<Vec<Value>, Vec<usize>>,
}

impl<'a> JoinTable<'a> {
    /// Build over `right`, any sequence of rows (the chunks of a split
    /// build side chained in order build the same table as their concat).
    pub fn build(right: impl IntoIterator<Item = &'a Row>, on: &[(usize, usize)]) -> JoinTable<'a> {
        let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let right: Vec<&Row> = right.into_iter().collect();
        // simlint: allow(no-unordered-iter) — probe-only build side (see the field)
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, r) in right.iter().enumerate() {
            let k: Vec<Value> = rcols.iter().map(|&c| r[c].clone()).collect();
            if k.iter().any(Value::is_null) {
                continue;
            }
            table.entry(k).or_default().push(i);
        }
        JoinTable {
            right,
            lcols,
            table,
        }
    }

    /// Indices of the right rows whose key equals `l`'s; none for a NULL
    /// key. A one-column key is looked up in place; a wider one is copied
    /// into `buf`.
    fn matches(&self, l: &[Value], buf: &mut Vec<Value>) -> &[usize] {
        let key: &[Value] = match self.lcols[..] {
            [c] => std::slice::from_ref(&l[c]),
            _ => {
                buf.clear();
                buf.extend(self.lcols.iter().map(|&c| l[c].clone()));
                buf
            }
        };
        if key.iter().any(Value::is_null) {
            return &[];
        }
        self.table.get(key).map_or(&[], Vec::as_slice)
    }

    /// Join `left` against the built side (see [`hash_join`]). Every output
    /// row is allocated at its exact length. An owned left row moves into
    /// its last output row; a borrowed one is copied.
    pub fn probe<'l>(
        &self,
        left: impl IntoIterator<Item = Cow<'l, Row>>,
        kind: JoinKind,
        residual: Option<&Expr>,
        right_width: usize,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        let mut buf: Vec<Value> = Vec::new();
        let mut scratch: Row = Vec::new();
        for l in left {
            let hits = self.matches(&l, &mut buf);
            if residual.is_some() && !hits.is_empty() {
                scratch.clear();
                scratch.extend_from_slice(&l);
            }
            // The latest accepted right row; each is emitted once the next
            // is found, so the last one can take `l` itself.
            let mut last: Option<&Row> = None;
            for &ri in hits {
                let r = self.right[ri];
                if let Some(pred) = residual {
                    scratch.truncate(l.len());
                    scratch.extend_from_slice(r);
                    if !pred.matches(&scratch) {
                        continue;
                    }
                }
                if let Some(prev) = last.replace(r) {
                    out.push(joined(Cow::Borrowed(&*l), prev.iter().cloned()));
                }
                if matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti) {
                    break;
                }
            }
            match (kind, last) {
                (JoinKind::Inner | JoinKind::Left, Some(r)) => {
                    out.push(joined(l, r.iter().cloned()))
                }
                (JoinKind::Left, None) => {
                    out.push(joined(l, std::iter::repeat_n(Value::Null, right_width)))
                }
                (JoinKind::LeftSemi, Some(_)) | (JoinKind::LeftAnti, None) => {
                    out.push(l.into_owned())
                }
                _ => {}
            }
        }
        out
    }
}

/// `l ++ tail` allocated at its exact length: an owned `l` grows in place.
fn joined(l: Cow<'_, Row>, tail: impl ExactSizeIterator<Item = Value>) -> Row {
    let mut row = match l {
        Cow::Owned(mut row) => {
            row.reserve_exact(tail.len());
            row
        }
        Cow::Borrowed(l) => {
            let mut row = Vec::with_capacity(l.len() + tail.len());
            row.extend_from_slice(l);
            row
        }
    };
    row.extend(tail);
    row
}

/// Mergeable aggregate state — the key to distributed aggregation: mappers /
/// compute nodes build partial states, reducers / the control node merge
/// them. `finish` produces the SQL result value.
#[derive(Clone, Debug)]
pub enum AggState {
    Count(i64),
    Sum { sum: f64, seen: bool },
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    // simlint: allow(no-unordered-iter) — distinct set is only ever counted (`len`), never iterated
    Distinct(HashSet<Value>),
}

impl AggState {
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            // simlint: allow(no-unordered-iter) — distinct set is count-only
            AggFunc::CountDistinct => AggState::Distinct(HashSet::new()),
        }
    }

    /// Fold one input value (already NULL-filtered by the caller for
    /// `COUNT(expr)` semantics — NULLs are skipped for every function).
    pub fn update(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { sum, seen } => {
                *sum += v.as_f64().expect("SUM over non-numeric");
                *seen = true;
            }
            AggState::Avg { sum, n } => {
                *sum += v.as_f64().expect("AVG over non-numeric");
                *n += 1;
            }
            AggState::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v < *c) {
                    *cur = Some(v);
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v > *c) {
                    *cur = Some(v);
                }
            }
            AggState::Distinct(set) => {
                set.insert(v);
            }
        }
    }

    /// COUNT(*) has no argument: always counts.
    pub fn update_star(&mut self) {
        if let AggState::Count(n) = self {
            *n += 1;
        } else {
            panic!("update_star on non-count state");
        }
    }

    /// Merge a partial state of the same function.
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { sum: a, seen: sa }, AggState::Sum { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum: a, n: na }, AggState::Avg { sum: b, n: nb }) => {
                *a += b;
                *na += nb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|c| v < *c) {
                        *a = Some(v);
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|c| v > *c) {
                        *a = Some(v);
                    }
                }
            }
            (AggState::Distinct(a), AggState::Distinct(b)) => a.extend(b),
            (a, b) => panic!("merging mismatched agg states {a:?} / {b:?}"),
        }
    }

    pub fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::I64(n),
            AggState::Sum { sum, seen } => {
                if seen {
                    Value::F64(sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::F64(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Distinct(set) => Value::I64(set.len() as i64),
        }
    }

    /// Approximate in-memory footprint (drives Hive map-side agg spill
    /// decisions and map-join memory checks).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            AggState::Distinct(set) => 16 + set.iter().map(Value::byte_width).sum::<u64>(),
            _ => 16,
        }
    }
}

/// Grouped partial-aggregation table: group key -> one state per agg call.
///
/// A `BTreeMap`, deliberately: [`aggregate_finish`] iterates it into output
/// rows, so the table's order is the result order for any query without an
/// explicit ORDER BY. Sorted-by-group-key is deterministic across runs and
/// refactors; a hash table here would leak its bucket order into result
/// bytes (the `no-unordered-iter` simlint rule guards this).
pub type GroupTable = BTreeMap<Vec<Value>, Vec<AggState>>;

/// Build partial aggregate states for a chunk of rows.
pub fn aggregate_partial(
    rows: &[Row],
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
) -> GroupTable {
    let mut table: GroupTable = GroupTable::new();
    // One key buffer: a hit is one lookup, and only a new group keeps a key.
    let mut key: Vec<Value> = Vec::with_capacity(group_by.len());
    for row in rows {
        key.clear();
        key.extend(group_by.iter().map(|(e, _)| e.eval(row)));
        let states = match table.get_mut(key.as_slice()) {
            Some(states) => states,
            None => table
                .entry(std::mem::replace(
                    &mut key,
                    Vec::with_capacity(group_by.len()),
                ))
                .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect()),
        };
        for (st, call) in states.iter_mut().zip(aggs) {
            match &call.arg {
                Some(e) => st.update(e.eval(row)),
                None => st.update_star(),
            }
        }
    }
    // Global aggregate over empty input still yields one (empty-key) group.
    if group_by.is_empty() && table.is_empty() {
        table.insert(
            Vec::new(),
            aggs.iter().map(|a| AggState::new(a.func)).collect(),
        );
    }
    table
}

/// Merge partial tables (reduce side / control node).
pub fn aggregate_merge(mut acc: GroupTable, other: GroupTable) -> GroupTable {
    for (k, states) in other {
        match acc.entry(k) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(states) {
                    a.merge(b);
                }
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(states);
            }
        }
    }
    acc
}

/// Finish a group table into output rows `[group keys..., agg values...]`.
pub fn aggregate_finish(table: GroupTable) -> Vec<Row> {
    table
        .into_iter()
        .map(|(mut key, states)| {
            key.reserve_exact(states.len());
            key.extend(states.into_iter().map(AggState::finish));
            key
        })
        .collect()
}

/// One-shot hash aggregate (reference executor path).
pub fn hash_aggregate(rows: &[Row], group_by: &[(Expr, String)], aggs: &[AggCall]) -> Vec<Row> {
    aggregate_finish(aggregate_partial(rows, group_by, aggs))
}

/// ORDER BY.
pub fn sort(mut rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for k in keys {
            let (va, vb) = (k.expr.eval(a), k.expr.eval(b));
            let ord = va.cmp(&vb);
            let ord = if k.desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// LIMIT.
pub fn limit(mut rows: Vec<Row>, n: usize) -> Vec<Row> {
    rows.truncate(n);
    rows
}

/// Partition rows by a hash of the given columns into `n` buckets — the
/// primitive behind Hive bucketing, PDW hash distribution, MapReduce
/// shuffling, and client-side sharding. Deterministic FNV-1a so every engine
/// agrees on placement.
pub fn hash_partition(
    rows: impl IntoIterator<Item = Row>,
    cols: &[usize],
    n: usize,
) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    for row in rows {
        let b = bucket_of(&row, cols, n);
        out[b].push(row);
    }
    out
}

/// Deterministic bucket assignment (FNV-1a over the display form of the key
/// columns — stable across engines and runs).
pub fn bucket_of(row: &[Value], cols: &[usize], n: usize) -> usize {
    debug_assert!(n > 0);
    let mut h: u64 = 0xcbf29ce484222325;
    for &c in cols {
        fnv_value(&mut h, &row[c]);
    }
    (h % n as u64) as usize
}

fn fnv_value(h: &mut u64, v: &Value) {
    const P: u64 = 0x100000001b3;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(P);
        }
    };
    match v {
        Value::Null => write(&[0]),
        Value::Bool(b) => write(&[1, *b as u8]),
        Value::I64(x) => write(&x.to_le_bytes()),
        Value::F64(x) => write(&x.to_bits().to_le_bytes()),
        Value::Decimal(x) => write(&x.to_le_bytes()),
        Value::Date(x) => write(&(*x as i64).to_le_bytes()),
        Value::Str(s) => write(s.as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_i64};

    fn rows(data: &[&[i64]]) -> Vec<Row> {
        data.iter()
            .map(|r| r.iter().map(|&v| Value::I64(v)).collect())
            .collect()
    }

    #[test]
    fn filter_and_project() {
        let r = rows(&[&[1, 10], &[2, 20], &[3, 30]]);
        let f = filter(r, &col(0).ge(lit_i64(2)));
        assert_eq!(f.len(), 2);
        let p = project(&f, &[(col(1), "b".into())]);
        assert_eq!(p, rows(&[&[20], &[30]]));
    }

    #[test]
    fn inner_join_matches() {
        let l = rows(&[&[1, 100], &[2, 200], &[3, 300]]);
        let r = rows(&[&[1, 11], &[1, 12], &[4, 44]]);
        let out = hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 2);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&rows(&[&[1, 100, 1, 11]])[0]));
        assert!(out.contains(&rows(&[&[1, 100, 1, 12]])[0]));
    }

    #[test]
    fn left_join_pads_nulls() {
        let l = rows(&[&[1], &[2]]);
        let r = rows(&[&[1, 10]]);
        let out = hash_join(&l, &r, &[(0, 0)], JoinKind::Left, None, 2);
        assert_eq!(out.len(), 2);
        let unmatched: Vec<_> = out.iter().filter(|r| r[1].is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Value::I64(2));
    }

    #[test]
    fn semi_and_anti_join() {
        let l = rows(&[&[1], &[2], &[3]]);
        let r = rows(&[&[2, 0], &[2, 1]]);
        let semi = hash_join(&l, &r, &[(0, 0)], JoinKind::LeftSemi, None, 2);
        assert_eq!(semi, rows(&[&[2]])); // no duplicates from multi-match
        let anti = hash_join(&l, &r, &[(0, 0)], JoinKind::LeftAnti, None, 2);
        assert_eq!(anti.len(), 2);
    }

    #[test]
    fn null_keys_never_match() {
        let l = vec![vec![Value::Null], vec![Value::I64(1)]];
        let r = vec![vec![Value::Null], vec![Value::I64(1)]];
        let out = hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 1);
        assert_eq!(out.len(), 1);
        // Anti join: NULL probe key has no match, so it *survives*.
        let anti = hash_join(&l, &r, &[(0, 0)], JoinKind::LeftAnti, None, 1);
        assert_eq!(anti.len(), 1);
        assert!(anti[0][0].is_null());
    }

    #[test]
    fn residual_filters_matches() {
        let l = rows(&[&[1, 5]]);
        let r = rows(&[&[1, 3], &[1, 9]]);
        // join on col0, keep only right.col1 > left.col1
        let out = hash_join(
            &l,
            &r,
            &[(0, 0)],
            JoinKind::Inner,
            Some(&col(3).gt(col(1))),
            2,
        );
        assert_eq!(out, rows(&[&[1, 5, 1, 9]]));
    }

    #[test]
    fn cross_join_via_empty_on() {
        let l = rows(&[&[1], &[2]]);
        let r = rows(&[&[10]]);
        let out = hash_join(&l, &r, &[], JoinKind::Inner, None, 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn aggregate_grouped() {
        let r = rows(&[&[1, 10], &[1, 20], &[2, 5]]);
        let out = hash_aggregate(
            &r,
            &[(col(0), "g".into())],
            &[
                AggCall::count_star("n"),
                AggCall::sum(col(1), "s"),
                AggCall::avg(col(1), "a"),
                AggCall::min(col(1), "lo"),
                AggCall::max(col(1), "hi"),
            ],
        );
        let sorted = sort(out, &[SortKey::asc(col(0))]);
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0][1], Value::I64(2));
        assert_eq!(sorted[0][2], Value::F64(30.0));
        assert_eq!(sorted[0][3], Value::F64(15.0));
        assert_eq!(sorted[0][4], Value::I64(10));
        assert_eq!(sorted[0][5], Value::I64(20));
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let out = hash_aggregate(
            &[],
            &[],
            &[AggCall::count_star("n"), AggCall::sum(col(0), "s")],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::I64(0));
        assert!(out[0][1].is_null());
    }

    #[test]
    fn partial_merge_equals_one_shot() {
        let r = rows(&[&[1, 10], &[1, 20], &[2, 5], &[2, 7], &[3, 1]]);
        let gb = [(col(0), "g".to_string())];
        let aggs = [
            AggCall::sum(col(1), "s"),
            AggCall::count_star("n"),
            AggCall::count_distinct(col(1), "d"),
        ];
        let one_shot = sort(hash_aggregate(&r, &gb, &aggs), &[SortKey::asc(col(0))]);
        let p1 = aggregate_partial(&r[..2], &gb, &aggs);
        let p2 = aggregate_partial(&r[2..], &gb, &aggs);
        let merged = sort(
            aggregate_finish(aggregate_merge(p1, p2)),
            &[SortKey::asc(col(0))],
        );
        assert_eq!(one_shot, merged);
    }

    #[test]
    fn count_distinct_merges_sets() {
        let r = rows(&[&[1], &[1], &[2]]);
        let aggs = [AggCall::count_distinct(col(0), "d")];
        let p1 = aggregate_partial(&r[..2], &[], &aggs);
        let p2 = aggregate_partial(&r[2..], &[], &aggs);
        let out = aggregate_finish(aggregate_merge(p1, p2));
        assert_eq!(out[0][0], Value::I64(2));
    }

    #[test]
    fn sort_multi_key_with_desc() {
        let r = rows(&[&[1, 2], &[2, 1], &[1, 1]]);
        let out = sort(r, &[SortKey::asc(col(0)), SortKey::desc(col(1))]);
        assert_eq!(out, rows(&[&[1, 2], &[1, 1], &[2, 1]]));
    }

    #[test]
    fn hash_partition_is_deterministic_and_complete() {
        let r = rows(&[&[1], &[2], &[3], &[4], &[5], &[6]]);
        let parts = hash_partition(r.clone(), &[0], 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 6);
        let parts2 = hash_partition(r, &[0], 4);
        assert_eq!(parts, parts2);
    }

    #[test]
    fn aggregate_skips_nulls() {
        let r = vec![
            vec![Value::I64(1), Value::Null],
            vec![Value::I64(1), Value::I64(4)],
        ];
        let out = hash_aggregate(
            &r,
            &[(col(0), "g".into())],
            &[
                AggCall::new(AggFunc::Count, Some(col(1)), "c"),
                AggCall::avg(col(1), "a"),
            ],
        );
        assert_eq!(out[0][1], Value::I64(1)); // COUNT(col) skips NULL
        assert_eq!(out[0][2], Value::F64(4.0));
    }
}
