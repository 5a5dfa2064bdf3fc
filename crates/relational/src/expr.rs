//! Expression trees and their interpreter.
//!
//! Expressions are built by hand when constructing the 22 TPC-H plans, so
//! the API favours fluent builders: `col(3).gt(lit_date(1995, 3, 15))`.
//! NULL semantics follow SQL three-valued logic for comparisons and
//! conjunctions (sufficient for TPC-H, which has no NULL data, but exercised
//! by property tests anyway).

use crate::date;
use crate::value::Value;
use std::sync::Arc;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators. All arithmetic evaluates in `f64` (matching how the
/// paper's engines compute TPC-H aggregate expressions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// An expression over a row.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    NotLike(Box<Expr>, String),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// Inclusive range check.
    Between(Box<Expr>, Value, Value),
    /// Searched CASE.
    Case {
        whens: Vec<(Expr, Expr)>,
        otherwise: Box<Expr>,
    },
    /// 1-based SQL SUBSTRING(expr, start, len).
    Substr(Box<Expr>, usize, usize),
    /// EXTRACT(YEAR FROM date-expr).
    ExtractYear(Box<Expr>),
    IsNull(Box<Expr>),
}

impl Expr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row[*i].clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row), b.eval(row));
                if va.is_null() || vb.is_null() {
                    return Value::Null;
                }
                let c = va.cmp(&vb);
                Value::Bool(match op {
                    CmpOp::Eq => c.is_eq(),
                    CmpOp::Ne => c.is_ne(),
                    CmpOp::Lt => c.is_lt(),
                    CmpOp::Le => c.is_le(),
                    CmpOp::Gt => c.is_gt(),
                    CmpOp::Ge => c.is_ge(),
                })
            }
            Expr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(row) {
                        Value::Bool(false) => return Value::Bool(false),
                        Value::Null => saw_null = true,
                        Value::Bool(true) => {}
                        other => panic!("AND over non-boolean {other:?}"),
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                }
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(row) {
                        Value::Bool(true) => return Value::Bool(true),
                        Value::Null => saw_null = true,
                        Value::Bool(false) => {}
                        other => panic!("OR over non-boolean {other:?}"),
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                }
            }
            Expr::Not(e) => match e.eval(row) {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => panic!("NOT over non-boolean {other:?}"),
            },
            Expr::Arith(op, a, b) => {
                let (va, vb) = (a.eval(row), b.eval(row));
                if va.is_null() || vb.is_null() {
                    return Value::Null;
                }
                // Date +/- integer days stays a date.
                if let (Value::Date(d), Some(n)) = (&va, vb.as_i64()) {
                    match op {
                        ArithOp::Add => return Value::Date(d + n as i32),
                        ArithOp::Sub => return Value::Date(d - n as i32),
                        _ => {}
                    }
                }
                let (x, y) = (
                    va.as_f64().unwrap_or_else(|| panic!("non-numeric {va:?}")),
                    vb.as_f64().unwrap_or_else(|| panic!("non-numeric {vb:?}")),
                );
                Value::F64(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                })
            }
            Expr::Like(e, pat) => match e.eval(row) {
                Value::Str(s) => Value::Bool(like_match(&s, pat)),
                Value::Null => Value::Null,
                other => panic!("LIKE over non-string {other:?}"),
            },
            Expr::NotLike(e, pat) => match e.eval(row) {
                Value::Str(s) => Value::Bool(!like_match(&s, pat)),
                Value::Null => Value::Null,
                other => panic!("NOT LIKE over non-string {other:?}"),
            },
            Expr::InList(e, list) => {
                let v = e.eval(row);
                if v.is_null() {
                    return Value::Null;
                }
                Value::Bool(list.contains(&v))
            }
            Expr::Between(e, lo, hi) => {
                let v = e.eval(row);
                if v.is_null() {
                    return Value::Null;
                }
                Value::Bool(&v >= lo && &v <= hi)
            }
            Expr::Case { whens, otherwise } => {
                for (cond, out) in whens {
                    if matches!(cond.eval(row), Value::Bool(true)) {
                        return out.eval(row);
                    }
                }
                otherwise.eval(row)
            }
            Expr::Substr(e, start, len) => match e.eval(row) {
                Value::Str(s) => {
                    let start = start.saturating_sub(1);
                    let out: String = s.chars().skip(start).take(*len).collect();
                    Value::Str(Arc::from(out.as_str()))
                }
                Value::Null => Value::Null,
                other => panic!("SUBSTRING over non-string {other:?}"),
            },
            Expr::ExtractYear(e) => match e.eval(row) {
                Value::Date(d) => Value::I64(date::year(d) as i64),
                Value::Null => Value::Null,
                other => panic!("EXTRACT YEAR over non-date {other:?}"),
            },
            Expr::IsNull(e) => Value::Bool(e.eval(row).is_null()),
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn matches(&self, row: &[Value]) -> bool {
        matches!(self.eval(row), Value::Bool(true))
    }

    // ---- fluent builders -------------------------------------------------
    // The arithmetic names intentionally mirror SQL/`std::ops`; `Expr` is a
    // plan-construction DSL, not a numeric type, so the trait impls would
    // mislead more than the names do.

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }
    pub fn like(self, pat: impl Into<String>) -> Expr {
        Expr::Like(Box::new(self), pat.into())
    }
    pub fn not_like(self, pat: impl Into<String>) -> Expr {
        Expr::NotLike(Box::new(self), pat.into())
    }
    pub fn in_list(self, vals: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), vals)
    }
    pub fn between(self, lo: Value, hi: Value) -> Expr {
        Expr::Between(Box::new(self), lo, hi)
    }
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr(Box::new(self), start, len)
    }
    pub fn extract_year(self) -> Expr {
        Expr::ExtractYear(Box::new(self))
    }
}

/// Column reference builder.
pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}

/// Literal builders.
pub fn lit(v: Value) -> Expr {
    Expr::Lit(v)
}
pub fn lit_i64(v: i64) -> Expr {
    Expr::Lit(Value::I64(v))
}
pub fn lit_f64(v: f64) -> Expr {
    Expr::Lit(Value::F64(v))
}
pub fn lit_str(s: &str) -> Expr {
    Expr::Lit(Value::str(s))
}
pub fn lit_date(y: i32, m: u32, d: u32) -> Expr {
    Expr::Lit(Value::Date(date::date(y, m, d)))
}

/// N-ary conjunction / disjunction.
pub fn and(parts: Vec<Expr>) -> Expr {
    Expr::And(parts)
}
pub fn or(parts: Vec<Expr>) -> Expr {
    Expr::Or(parts)
}

impl Expr {
    /// Collect every column index referenced by this expression.
    pub fn referenced_cols(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Expr::Col(i) => {
                out.insert(*i);
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.referenced_cols(out);
                b.referenced_cols(out);
            }
            Expr::And(parts) | Expr::Or(parts) => {
                for p in parts {
                    p.referenced_cols(out);
                }
            }
            Expr::Not(e)
            | Expr::Like(e, _)
            | Expr::NotLike(e, _)
            | Expr::InList(e, _)
            | Expr::Between(e, _, _)
            | Expr::Substr(e, _, _)
            | Expr::ExtractYear(e)
            | Expr::IsNull(e) => e.referenced_cols(out),
            Expr::Case { whens, otherwise } => {
                for (c, o) in whens {
                    c.referenced_cols(out);
                    o.referenced_cols(out);
                }
                otherwise.referenced_cols(out);
            }
        }
    }

    /// Rewrite column indices through `map` (old index → new index).
    /// Panics if a referenced column is missing from the map — that is a
    /// planning bug, not a data condition.
    pub fn remap_cols(&self, map: &std::collections::BTreeMap<usize, usize>) -> Expr {
        let m = |e: &Expr| Box::new(e.remap_cols(map));
        match self {
            Expr::Col(i) => Expr::Col(
                *map.get(i)
                    .unwrap_or_else(|| panic!("column {i} missing from remap")),
            ),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, m(a), m(b)),
            Expr::Arith(op, a, b) => Expr::Arith(*op, m(a), m(b)),
            Expr::And(parts) => Expr::And(parts.iter().map(|p| p.remap_cols(map)).collect()),
            Expr::Or(parts) => Expr::Or(parts.iter().map(|p| p.remap_cols(map)).collect()),
            Expr::Not(e) => Expr::Not(m(e)),
            Expr::Like(e, p) => Expr::Like(m(e), p.clone()),
            Expr::NotLike(e, p) => Expr::NotLike(m(e), p.clone()),
            Expr::InList(e, l) => Expr::InList(m(e), l.clone()),
            Expr::Between(e, lo, hi) => Expr::Between(m(e), lo.clone(), hi.clone()),
            Expr::Case { whens, otherwise } => Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, o)| (c.remap_cols(map), o.remap_cols(map)))
                    .collect(),
                otherwise: m(otherwise),
            },
            Expr::Substr(e, a, b) => Expr::Substr(m(e), *a, *b),
            Expr::ExtractYear(e) => Expr::ExtractYear(m(e)),
            Expr::IsNull(e) => Expr::IsNull(m(e)),
        }
    }
}

/// An inclusive per-column value interval implied by a predicate. `None`
/// means unbounded on that side. Produced by [`Expr::column_bounds`] and
/// consumed by block-level min/max pruning in the columnar scan paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bounds {
    pub lo: Option<Value>,
    pub hi: Option<Value>,
}

impl Bounds {
    fn lo(v: Value) -> Bounds {
        Bounds {
            lo: Some(v),
            hi: None,
        }
    }
    fn hi(v: Value) -> Bounds {
        Bounds {
            lo: None,
            hi: Some(v),
        }
    }
    fn range(lo: Value, hi: Value) -> Bounds {
        Bounds {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// AND of two bounds on the same column: the tighter interval.
    /// Conjunction of two intervals (both restrictions apply).
    pub fn intersect(self, other: Bounds) -> Bounds {
        Bounds {
            lo: max_opt(self.lo, other.lo),
            hi: min_opt(self.hi, other.hi),
        }
    }

    /// OR of two bounds on the same column: the covering interval
    /// (unbounded on a side if either operand is).
    fn union(self, other: Bounds) -> Bounds {
        Bounds {
            lo: self.lo.zip(other.lo).map(|(a, b)| a.min(b)),
            hi: self.hi.zip(other.hi).map(|(a, b)| a.max(b)),
        }
    }
}

fn max_opt(a: Option<Value>, b: Option<Value>) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) | (None, x) => x,
    }
}

fn min_opt(a: Option<Value>, b: Option<Value>) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

impl Expr {
    /// Per-column inclusive bounds implied by this predicate: every row the
    /// predicate accepts holds, for each `(col, bounds)` entry, a
    /// **non-NULL** value inside the interval. A block whose non-null
    /// min/max range misses the interval (or that is all-NULL in that
    /// column) therefore contains no accepted row and may be skipped.
    ///
    /// The analysis is deliberately conservative — it only weakens, never
    /// strengthens: strict comparisons widen to inclusive bounds, OR keeps
    /// a column only when *every* branch bounds it (interval union),
    /// anything it cannot reason about (NOT, LIKE, IS NULL, column-column
    /// comparisons, arithmetic over the column) contributes nothing.
    pub fn column_bounds(&self) -> std::collections::BTreeMap<usize, Bounds> {
        use std::collections::BTreeMap;
        let mut out = BTreeMap::new();
        match self {
            Expr::Cmp(op, a, b) => {
                let (c, v, op) = match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
                    // `lit op col` flips to `col flipped-op lit`.
                    (Expr::Lit(v), Expr::Col(c)) => {
                        let flipped = match op {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                            other => *other,
                        };
                        (*c, v, flipped)
                    }
                    _ => return out,
                };
                if v.is_null() {
                    return out; // NULL literal: predicate never accepts.
                }
                let b = match op {
                    CmpOp::Eq => Bounds::range(v.clone(), v.clone()),
                    // Strict bounds widen to inclusive — sound for pruning.
                    CmpOp::Gt | CmpOp::Ge => Bounds::lo(v.clone()),
                    CmpOp::Lt | CmpOp::Le => Bounds::hi(v.clone()),
                    CmpOp::Ne => return out,
                };
                out.insert(c, b);
            }
            Expr::Between(e, lo, hi) => {
                if let Expr::Col(c) = e.as_ref() {
                    if !lo.is_null() && !hi.is_null() {
                        out.insert(*c, Bounds::range(lo.clone(), hi.clone()));
                    }
                }
            }
            Expr::InList(e, list) => {
                if let Expr::Col(c) = e.as_ref() {
                    // An accepted value is non-NULL, so it can only equal a
                    // non-NULL list entry; NULL entries are ignored.
                    let vals: Vec<&Value> = list.iter().filter(|v| !v.is_null()).collect();
                    if let (Some(lo), Some(hi)) = (vals.iter().min(), vals.iter().max()) {
                        out.insert(*c, Bounds::range((*lo).clone(), (*hi).clone()));
                    }
                }
            }
            Expr::And(parts) => {
                for p in parts {
                    for (c, b) in p.column_bounds() {
                        let merged = match out.remove(&c) {
                            Some(prev) => Bounds::intersect(prev, b),
                            None => b,
                        };
                        out.insert(c, merged);
                    }
                }
            }
            Expr::Or(parts) => {
                let mut iter = parts.iter();
                let Some(first) = iter.next() else {
                    return out;
                };
                let mut acc = first.column_bounds();
                for p in iter {
                    let branch = p.column_bounds();
                    // Keep only columns bounded in every branch, unioned.
                    acc = acc
                        .into_iter()
                        .filter_map(|(c, b)| branch.get(&c).map(|ob| (c, b.union(ob.clone()))))
                        .collect();
                    if acc.is_empty() {
                        break;
                    }
                }
                out = acc;
            }
            _ => {}
        }
        out
    }
}

/// SQL LIKE matcher (`%` = any run, `_` = any single char). Iterative
/// two-pointer algorithm with backtracking over the last `%`, walking both
/// strings in place.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut s, mut p) = (s, pattern);
    // After the last `%`: the pattern past it, and where in `s` it matches
    // from next.
    let mut star: Option<(&str, &str)> = None;
    while let Some(c) = s.chars().next() {
        let mut pc = p.chars();
        match pc.next() {
            Some('%') => {
                p = pc.as_str();
                star = Some((p, s));
            }
            Some(q) if q == '_' || q == c => {
                s = &s[c.len_utf8()..];
                p = pc.as_str();
            }
            _ => match star {
                Some((after, from)) => {
                    // Let the `%` take one more char of `s`.
                    let mut rest = from.chars();
                    rest.next();
                    s = rest.as_str();
                    p = after;
                    star = Some((p, s));
                }
                None => return false,
            },
        }
    }
    p.chars().all(|c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_semantics() {
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
        assert!(like_match("green almond antique", "%green%"));
        assert!(!like_match("STANDARD", "PROMO%"));
        assert!(like_match("MEDIUM POLISHED", "%POLISHED%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abbc", "a_c"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("x%y", "x%y"));
        // `%` in the pattern is a wildcard even over a literal `%`.
        assert!(like_match("%a", "%"));
        assert!(like_match("50% off", "%0%off"));
        assert!(like_match("héllo", "h_llo"));
        // Q13 pattern: '%special%requests%'
        assert!(like_match(
            "blah special blah requests blah",
            "%special%requests%"
        ));
        assert!(!like_match("requests then special", "%special%requests%"));
    }

    #[test]
    fn comparisons_and_logic() {
        let row = vec![Value::I64(5), Value::str("hello"), Value::Null];
        assert!(col(0).gt(lit_i64(3)).matches(&row));
        assert!(!col(0).gt(lit_i64(7)).matches(&row));
        assert!(col(1).eq(lit_str("hello")).matches(&row));
        // NULL propagates and WHERE treats it as false.
        assert_eq!(col(2).eq(lit_i64(1)).eval(&row), Value::Null);
        assert!(!col(2).eq(lit_i64(1)).matches(&row));
        // 3VL: false AND null = false; true AND null = null.
        assert_eq!(
            and(vec![col(0).gt(lit_i64(7)), col(2).eq(lit_i64(1))]).eval(&row),
            Value::Bool(false)
        );
        assert_eq!(
            and(vec![col(0).gt(lit_i64(3)), col(2).eq(lit_i64(1))]).eval(&row),
            Value::Null
        );
        // true OR null = true.
        assert_eq!(
            or(vec![col(0).gt(lit_i64(3)), col(2).eq(lit_i64(1))]).eval(&row),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic_promotes_to_f64() {
        let row = vec![Value::Decimal(10000), Value::Decimal(5)]; // 100.00, 0.05
                                                                  // l_extendedprice * (1 - l_discount)
        let e = col(0).mul(lit_f64(1.0).sub(col(1)));
        match e.eval(&row) {
            Value::F64(v) => assert!((v - 95.0).abs() < 1e-9),
            other => panic!("expected f64, got {other:?}"),
        }
    }

    #[test]
    fn date_plus_days() {
        let row = vec![Value::Date(date::date(1998, 12, 1))];
        let e = col(0).sub(lit_i64(90));
        assert_eq!(e.eval(&row), Value::Date(date::date(1998, 9, 2)));
    }

    #[test]
    fn case_between_inlist_substr_extract() {
        let row = vec![
            Value::str("BUILDING"),
            Value::I64(7),
            Value::Date(date::date(1995, 3, 15)),
        ];
        let c = Expr::Case {
            whens: vec![(col(0).eq(lit_str("BUILDING")), lit_i64(1))],
            otherwise: Box::new(lit_i64(0)),
        };
        assert_eq!(c.eval(&row), Value::I64(1));
        assert!(col(1).between(Value::I64(5), Value::I64(7)).matches(&row));
        assert!(!col(1).between(Value::I64(8), Value::I64(9)).matches(&row));
        assert!(col(1)
            .in_list(vec![Value::I64(7), Value::I64(9)])
            .matches(&row));
        assert_eq!(col(0).substr(1, 2).eval(&row), Value::str("BU"));
        assert_eq!(col(2).extract_year().eval(&row), Value::I64(1995));
    }

    #[test]
    fn column_bounds_from_comparisons_and_ranges() {
        // shipdate >= d1 AND shipdate < d2 AND discount BETWEEN .05 AND .07
        let p = and(vec![
            col(10).ge(lit_date(1994, 1, 1)),
            col(10).lt(lit_date(1995, 1, 1)),
            col(6).between(Value::decimal(0.05), Value::decimal(0.07)),
        ]);
        let b = p.column_bounds();
        assert_eq!(
            b[&10],
            Bounds {
                lo: Some(Value::Date(date::date(1994, 1, 1))),
                // Strict `<` widens to inclusive.
                hi: Some(Value::Date(date::date(1995, 1, 1))),
            }
        );
        assert_eq!(
            b[&6],
            Bounds {
                lo: Some(Value::Decimal(5)),
                hi: Some(Value::Decimal(7)),
            }
        );
        // Flipped literal-first comparison.
        let b = lit_i64(3).lt(col(2)).column_bounds();
        assert_eq!(
            b[&2],
            Bounds {
                lo: Some(Value::I64(3)),
                hi: None
            }
        );
        // Eq pins both sides; Ne and column-column bound nothing.
        assert_eq!(
            col(0).eq(lit_i64(7)).column_bounds()[&0],
            Bounds {
                lo: Some(Value::I64(7)),
                hi: Some(Value::I64(7))
            }
        );
        assert!(col(0).ne(lit_i64(7)).column_bounds().is_empty());
        assert!(col(0).lt(col(1)).column_bounds().is_empty());
    }

    #[test]
    fn column_bounds_or_unions_only_common_columns() {
        // Q19 shape: every branch bounds p_size, only some bound quantity.
        let p = or(vec![
            and(vec![
                col(9).between(Value::I64(1), Value::I64(5)),
                col(4).ge(lit_i64(1)),
            ]),
            and(vec![col(9).between(Value::I64(1), Value::I64(10))]),
            and(vec![col(9).between(Value::I64(1), Value::I64(15))]),
        ]);
        let b = p.column_bounds();
        assert_eq!(
            b[&9],
            Bounds {
                lo: Some(Value::I64(1)),
                hi: Some(Value::I64(15))
            }
        );
        // quantity is not bounded in every branch, so it must drop out.
        assert!(!b.contains_key(&4));
        // A branch with no bounds at all kills every column.
        let p = or(vec![
            col(9).between(Value::I64(1), Value::I64(5)),
            col(0).like("x%"),
        ]);
        assert!(p.column_bounds().is_empty());
    }

    #[test]
    fn column_bounds_in_list_skips_nulls() {
        let b = col(3)
            .in_list(vec![Value::I64(9), Value::Null, Value::I64(2)])
            .column_bounds();
        assert_eq!(
            b[&3],
            Bounds {
                lo: Some(Value::I64(2)),
                hi: Some(Value::I64(9))
            }
        );
        // All-NULL list never accepts, bounds nothing.
        assert!(col(3).in_list(vec![Value::Null]).column_bounds().is_empty());
        // Predicates over NULL-propagating shapes bound nothing.
        assert!(Expr::IsNull(Box::new(col(3))).column_bounds().is_empty());
        assert!(col(3).eq(lit(Value::Null)).column_bounds().is_empty());
    }

    #[test]
    fn is_null_and_not() {
        let row = vec![Value::Null, Value::Bool(true)];
        assert!(Expr::IsNull(Box::new(col(0))).matches(&row));
        assert!(!Expr::IsNull(Box::new(col(1))).matches(&row));
        assert!(!col(1).negate().matches(&row));
    }
}
