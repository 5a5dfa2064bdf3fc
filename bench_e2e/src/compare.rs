//! `--compare a.jsonl b.jsonl`: judge set `b` against baseline set `a`,
//! one row per (end-to-end metric, workload).

use crate::metrics::END_TO_END;
use crate::stats::{verdict, Summary, Verdict};
use obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Every end-to-end metric's values per workload, one per invocation
/// recorded in one `--out` file: each invocation is one run of the set.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), i + 1);
        let v = obs::json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let metrics = v
            .get("metrics")
            .ok_or_else(|| format!("{}: no metrics", at()))?;
        for d in &END_TO_END {
            let value = metrics
                .get(d.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no value for {}", at(), d.name))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(d.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Print the comparison table; returns whether any pair is `worse`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<14} {:>36} {:>36} {:>6}  verdict",
        "metric", "workload", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    let fmt = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
    let mut any_worse = false;
    for d in &END_TO_END {
        for (workload, ma) in &sa {
            let Some(mb) = sb.get(workload) else {
                continue;
            };
            let (xa, xb) = (&ma[d.name], &mb[d.name]);
            let v = verdict(xa, xb, d.bound, d.better);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<14} {:<14} {:>36} {:>36} {:>5.0}%  {}",
                d.name,
                workload,
                fmt(&Summary::of(xa)),
                fmt(&Summary::of(xb)),
                d.bound * 100.0,
                v.label()
            );
        }
    }
    for w in sa.keys().filter(|w| !sb.contains_key(*w)) {
        println!("{w}: only in {}", a.display());
    }
    for w in sb.keys().filter(|w| !sa.contains_key(*w)) {
        println!("{w}: only in {}", b.display());
    }
    Ok(any_worse)
}
