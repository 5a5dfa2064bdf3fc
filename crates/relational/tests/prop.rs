//! Property-based tests: operator kernels against naive reference
//! implementations, and the invariants distributed execution relies on.

use proptest::prelude::*;
use relational::expr::{col, like_match, Expr};
use relational::{ops, AggCall, JoinKind, Row, Value};
use std::borrow::Cow;

fn arb_row() -> impl Strategy<Value = Row> {
    (0i64..50, 0i64..20, -100i64..100)
        .prop_map(|(a, b, c)| vec![Value::I64(a), Value::I64(b), Value::I64(c)])
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(arb_row(), 0..max)
}

// ---- hash join vs nested loop ---------------------------------------------

fn nested_loop_inner(l: &[Row], r: &[Row], lc: usize, rc: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for a in l {
        for b in r {
            if !a[lc].is_null() && a[lc] == b[rc] {
                let mut row = a.clone();
                row.extend(b.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn hash_join_matches_nested_loop(l in arb_rows(60), r in arb_rows(60)) {
        let mut got = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 3);
        let mut want = nested_loop_inner(&l, &r, 0, 0);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn semi_plus_anti_partition_the_left(l in arb_rows(60), r in arb_rows(60)) {
        let semi = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::LeftSemi, None, 3);
        let anti = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::LeftAnti, None, 3);
        prop_assert_eq!(semi.len() + anti.len(), l.len());
        let mut both = semi;
        both.extend(anti);
        both.sort();
        let mut left = l.clone();
        left.sort();
        prop_assert_eq!(both, left);
    }

    #[test]
    fn left_join_keeps_every_left_row(l in arb_rows(40), r in arb_rows(40)) {
        let out = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Left, None, 3);
        // Each left row appears max(1, matches) times.
        prop_assert!(out.len() >= l.len());
        let inner = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 3);
        let unmatched = out.iter().filter(|row| row[3].is_null()).count();
        prop_assert_eq!(inner.len() + unmatched, out.len());
    }
}

// ---- JoinTable: every probe path vs a nested-loop model ---------------------

/// `[k1, k2, v, ..]`, `width` columns: keys from a tiny domain, 0 drawn
/// as NULL, so both sides repeat keys and hold NULLs. The two sides get
/// different widths, so that a row grown by doubling its capacity cannot
/// land on its exact length by chance.
fn arb_join_row(width: usize) -> impl Strategy<Value = Row> {
    (0i64..4, 0i64..3, 0i64..10).prop_map(move |(a, b, v)| {
        let key = |k: i64| if k == 0 { Value::Null } else { Value::I64(k) };
        let mut row = vec![key(a), key(b)];
        row.resize(width, Value::I64(v));
        row
    })
}

/// The join by definition: for each left row, every right row in order
/// whose key equals it (a NULL key equals nothing) and that passes the
/// residual over `[left ++ right]`.
fn nested_loop_join(
    l: &[Row],
    r: &[Row],
    on: &[(usize, usize)],
    kind: JoinKind,
    residual: Option<&Expr>,
    right_width: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    for a in l {
        let hits: Vec<Row> = r
            .iter()
            .filter(|b| {
                on.iter()
                    .all(|&(lc, rc)| !a[lc].is_null() && a[lc] == b[rc])
            })
            .map(|b| a.iter().chain(b).cloned().collect::<Row>())
            .filter(|row| residual.is_none_or(|p| p.matches(row)))
            .collect();
        match kind {
            JoinKind::Inner => out.extend(hits),
            JoinKind::Left if hits.is_empty() => out.push(
                a.iter()
                    .cloned()
                    .chain(vec![Value::Null; right_width])
                    .collect(),
            ),
            JoinKind::Left => out.extend(hits),
            JoinKind::LeftSemi if !hits.is_empty() => out.push(a.clone()),
            JoinKind::LeftAnti if hits.is_empty() => out.push(a.clone()),
            JoinKind::LeftSemi | JoinKind::LeftAnti => {}
        }
    }
    out
}

/// `rows` cut at `cuts` into consecutive chunks.
fn chunks<'a>(rows: &'a [Row], cuts: &[usize]) -> Vec<&'a [Row]> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
    bounds.extend([0, rows.len()]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| &rows[w[0]..w[1]]).collect()
}

proptest! {
    /// Borrowed and owned left rows, probed chunk by chunk against a table
    /// built once, and a table built over a right side split into chunks,
    /// all give the nested-loop join row for row, and every output row is
    /// allocated at its exact length.
    #[test]
    fn join_table_matches_nested_loop_on_every_path(
        left in proptest::collection::vec(arb_join_row(4), 0..30),
        right in proptest::collection::vec(arb_join_row(3), 0..20),
        lcuts in proptest::collection::vec(0usize..30, 0..4),
        rcuts in proptest::collection::vec(0usize..20, 0..4),
        keys in 0usize..3,
        with_residual in any::<bool>(),
    ) {
        let on: &[(usize, usize)] = match keys {
            0 => &[],
            1 => &[(0, 0)],
            _ => &[(0, 0), (1, 1)],
        };
        // The right row's value must exceed the left row's.
        let res = col(6).gt(col(2));
        let residual = with_residual.then_some(&res);
        let table = ops::JoinTable::build(&right, on);
        let split_build = ops::JoinTable::build(chunks(&right, &rcuts).into_iter().flatten(), on);
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            let want = nested_loop_join(&left, &right, on, kind, residual, 3);
            let borrowed: Vec<Row> = chunks(&left, &lcuts)
                .into_iter()
                .flat_map(|c| table.probe(c.iter().map(Cow::Borrowed), kind, residual, 3))
                .collect();
            let owned: Vec<Row> = chunks(&left, &lcuts)
                .into_iter()
                .flat_map(|c| table.probe(c.iter().cloned().map(Cow::Owned), kind, residual, 3))
                .collect();
            let from_split =
                split_build.probe(left.iter().cloned().map(Cow::Owned), kind, residual, 3);
            for got in [borrowed, owned, from_split] {
                prop_assert!(got.iter().all(|row| row.capacity() == row.len()));
                prop_assert_eq!(got, want.clone());
            }
        }
    }
}

// ---- distributed aggregation invariant --------------------------------------

proptest! {
    #[test]
    fn partial_merge_equals_oneshot_for_any_split(
        rows in arb_rows(120),
        split in 0usize..120,
    ) {
        let gb = [(col(0), "g".to_string())];
        let aggs = [
            AggCall::sum(col(2), "s"),
            AggCall::count_star("n"),
            AggCall::min(col(2), "lo"),
            AggCall::max(col(2), "hi"),
            AggCall::avg(col(2), "a"),
            AggCall::count_distinct(col(1), "d"),
        ];
        let split = split.min(rows.len());
        let p1 = ops::aggregate_partial(&rows[..split], &gb, &aggs);
        let p2 = ops::aggregate_partial(&rows[split..], &gb, &aggs);
        let mut merged = ops::aggregate_finish(ops::aggregate_merge(p1, p2));
        let mut oneshot = ops::hash_aggregate(&rows, &gb, &aggs);
        merged.sort();
        oneshot.sort();
        prop_assert!(relational::testing::rows_approx_eq(&merged, &oneshot, 1e-9));
    }

    #[test]
    fn hash_partition_is_a_partition(rows in arb_rows(150), n in 1usize..20) {
        let parts = ops::hash_partition(rows.clone(), &[0], n);
        prop_assert_eq!(parts.len(), n);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, rows.len());
        // Same key never lands in two partitions.
        for (i, p) in parts.iter().enumerate() {
            for row in p {
                prop_assert_eq!(ops::bucket_of(row, &[0], n), i);
            }
        }
        // Co-partitioned join equals global join.
        let parts_b = ops::hash_partition(rows.clone(), &[0], n);
        let mut partitioned: Vec<Row> = Vec::new();
        for i in 0..n {
            partitioned.extend(ops::hash_join(
                &parts[i], &parts_b[i], &[(0, 0)], JoinKind::Inner, None, 3,
            ));
        }
        let mut global = ops::hash_join(&rows, &rows, &[(0, 0)], JoinKind::Inner, None, 3);
        partitioned.sort();
        global.sort();
        prop_assert_eq!(partitioned, global);
    }
}

// ---- LIKE matcher vs naive backtracking reference ----------------------------

fn naive_like(s: &[char], p: &[char]) -> bool {
    match (s.first(), p.first()) {
        (_, None) => s.is_empty(),
        (_, Some('%')) => naive_like(s, &p[1..]) || (!s.is_empty() && naive_like(&s[1..], p)),
        (Some(c), Some(pc)) if *pc == '_' || pc == c => naive_like(&s[1..], &p[1..]),
        _ => false,
    }
}

/// The matcher as it was over collected `Vec<char>`s, kept as a model.
/// It tries a literal match before `%`, so it differs from SQL only when
/// the subject holds a `%` where the pattern has one.
fn vec_like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

proptest! {
    #[test]
    fn like_matches_reference(s in "[abc%_é日]{0,12}", p in "[abc%_é日]{0,8}") {
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.chars().collect();
        prop_assert_eq!(like_match(&s, &p), naive_like(&sc, &pc));
    }

    /// The in-place matcher agrees with the `Vec<char>` one on ASCII and
    /// multi-byte subjects without `%`, and `_` takes one char, not one byte.
    #[test]
    fn like_matches_the_vec_char_matcher(s in "[ab_é日]{0,12}", p in "[ab%_é日]{0,8}") {
        prop_assert_eq!(like_match(&s, &p), vec_like_match(&s, &p));
    }
}

// ---- value total order ---------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|v| Value::I64(v as i64)),
        (-1000i64..1000).prop_map(Value::Decimal),
        (-10000i32..10000).prop_map(Value::Date),
        any::<f32>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(|f| Value::F64(f as f64)),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #[test]
    fn value_order_is_total_and_consistent(
        a in arb_value(), b in arb_value(), c in arb_value()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (of <=).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Eq ⇒ equal hashes.
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }
}
