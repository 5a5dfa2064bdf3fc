//! Windowed serving-side latency percentiles, rendered from the
//! [`MetricRegistry`].
//!
//! The YCSB harness reports one aggregate p50/p95/p99 per run; this report
//! reads the registry's per-*(operation, shard, tenant, window)*
//! histograms so latency can be read **over time** and **across shards**:
//! per-window percentiles come from [`LatencyHistogram::merge`]-ing the
//! shard and tenant histograms (exact — bucketing is deterministic, see the
//! S2 property test), and the min/max per-shard p95 exposes skew a single
//! merged number hides.

use crate::metrics::MetricRegistry;
use simkit::stats::LatencyHistogram;
use simkit::{as_millis, SimTime};
use std::fmt::Write as _;

/// One operation's windows `0..n` for one engine, tenants merged away.
struct OpWindows {
    op: &'static str,
    /// All shards merged, per window.
    merged: Vec<LatencyHistogram>,
    /// Per-shard windows, by ascending shard; unsharded keys excluded.
    shards: Vec<(usize, Vec<LatencyHistogram>)>,
}

impl OpWindows {
    /// `(min, max)` of per-shard quantile `q` in window `w`, over shards
    /// with at least one sample. `None` if fewer than two shards have data.
    fn shard_spread(&self, w: usize, q: f64) -> Option<(SimTime, SimTime)> {
        let mut lo = SimTime::MAX;
        let mut hi = 0;
        let mut n = 0;
        for (_, windows) in &self.shards {
            if windows[w].count() == 0 {
                continue;
            }
            let v = windows[w].quantile(q);
            lo = lo.min(v);
            hi = hi.max(v);
            n += 1;
        }
        (n >= 2).then_some((lo, hi))
    }
}

/// Collect `engine`'s windows `0..n` per operation, sorted by op label.
/// A key contributes only if one of those windows holds a sample, so ops
/// and shards seen only during warm-up or the post-measurement drain stay
/// out of the report.
fn op_windows(reg: &MetricRegistry, engine: &str, n: usize) -> Vec<OpWindows> {
    assert!(
        n <= reg.capacity(),
        "registry retains {} windows, report wants {n}",
        reg.capacity()
    );
    let empty = || (0..n).map(|_| LatencyHistogram::new()).collect::<Vec<_>>();
    let mut out: Vec<OpWindows> = Vec::new();
    // Keys iterate in (engine, op, shard, tenant) order, so one op's keys,
    // and one shard's tenants within it, are adjacent.
    for k in reg.latency_keys().filter(|k| k.engine == engine) {
        let Some(series) = reg.latency(k) else {
            continue;
        };
        let hs: Vec<Option<&LatencyHistogram>> = (0..n as u64)
            .map(|w| series.window(w).filter(|h| h.count() > 0))
            .collect();
        if hs.iter().all(Option::is_none) {
            continue;
        }
        if out.last().map(|o| o.op) != Some(k.op) {
            out.push(OpWindows {
                op: k.op,
                merged: empty(),
                shards: Vec::new(),
            });
        }
        let o = out.last_mut().expect("just pushed");
        if let Some(shard) = k.shard {
            if o.shards.last().map(|(s, _)| *s) != Some(shard) {
                o.shards.push((shard, empty()));
            }
        }
        for (w, h) in hs.iter().enumerate() {
            let Some(h) = h else { continue };
            o.merged[w].merge(h);
            if let Some((_, sw)) = k.shard.and(o.shards.last_mut()) {
                sw[w].merge(h);
            }
        }
    }
    out
}

/// Render `engine`'s windows `0..windows` (at least one) as a markdown
/// table per operation: ops and p50/p95/p99 per window, plus the per-shard
/// p95 spread for sharded stores. Windows past `windows - 1` (the driver's
/// post-measurement drain) are not read.
pub fn render(reg: &MetricRegistry, engine: &str, windows: usize, title: &str) -> String {
    let n = windows.max(1);
    let mut out = String::new();
    let win_s = reg.window_width() as f64 / 1e9;
    let _ = writeln!(out, "### {title}");
    for o in op_windows(reg, engine, n) {
        let _ = writeln!(out, "\n`{}` ({win_s:.1}s windows):\n", o.op);
        let sharded = !o.shards.is_empty();
        if sharded {
            let _ = writeln!(
                out,
                "| window | ops | p50 ms | p95 ms | p99 ms | shard p95 ms |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
        } else {
            let _ = writeln!(out, "| window | ops | p50 ms | p95 ms | p99 ms |");
            let _ = writeln!(out, "|---|---|---|---|---|");
        }
        for (w, m) in o.merged.iter().enumerate() {
            let t = w as f64 * win_s;
            let mut row = format!(
                "| {}–{}s | {} | {:.2} | {:.2} | {:.2} |",
                fmt_t(t),
                fmt_t(t + win_s),
                m.count(),
                as_millis(m.quantile(0.50)),
                as_millis(m.quantile(0.95)),
                as_millis(m.quantile(0.99)),
            );
            if sharded {
                match o.shard_spread(w, 0.95) {
                    Some((lo, hi)) => {
                        let _ = write!(row, " {:.2}–{:.2} |", as_millis(lo), as_millis(hi));
                    }
                    None => row.push_str(" – |"),
                }
            }
            let _ = writeln!(out, "{row}");
        }
    }
    out
}

/// Window-boundary seconds: whole numbers bare, fractions to one decimal.
fn fmt_t(t: f64) -> String {
    if (t - t.round()).abs() < 1e-9 {
        format!("{t:.0}")
    } else {
        format!("{t:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKey;
    use simkit::{millis, secs};

    fn key(op: &'static str, shard: Option<usize>, tenant: u32) -> MetricKey {
        MetricKey::new("mongo", op, shard, Some(tenant))
    }

    #[test]
    fn windows_partition_the_measure_interval() {
        let mut reg = MetricRegistry::new(secs(4.0), secs(1.0), 8);
        reg.observe(key("read", Some(0), 0), secs(3.9), millis(1.0)); // before t0: dropped
        reg.observe(key("read", Some(0), 1), secs(4.0), millis(1.0)); // window 0
        reg.observe(key("read", Some(1), 0), secs(5.5), millis(2.0)); // window 1
        reg.observe(key("read", Some(0), 0), secs(6.999), millis(3.0)); // window 2
        reg.observe(key("read", Some(0), 0), secs(7.0), millis(9.0)); // window 3: past the report
        let ops = op_windows(&reg, "mongo", 3);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op, "read");
        let counts: Vec<u64> = ops[0].merged.iter().map(|h| h.count()).collect();
        assert_eq!(counts, vec![1, 1, 1]);
        let shards: Vec<usize> = ops[0].shards.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 1]);
        assert!(op_windows(&reg, "sqlcs", 3).is_empty(), "other engine");
    }

    #[test]
    fn merged_percentiles_cover_all_shards_and_tenants() {
        let mut reg = MetricRegistry::new(0, secs(1.0), 1);
        for shard in 0..4 {
            for i in 0..25 {
                let k = key("update", Some(shard), i % 3);
                reg.observe(k, 0, millis(1.0 + i as f64));
            }
        }
        let ops = op_windows(&reg, "mongo", 1);
        assert_eq!(ops[0].merged[0].count(), 100);
        assert_eq!(ops[0].shards.len(), 4, "tenants merge into their shard");
        assert!(ops[0].shards.iter().all(|(_, w)| w[0].count() == 25));
        let spread = ops[0].shard_spread(0, 0.95).expect("4 shards");
        assert_eq!(spread.0, spread.1, "identical shards have zero spread");
    }

    #[test]
    fn render_is_deterministic_and_tabular() {
        let mut reg = MetricRegistry::new(0, secs(1.0), 2);
        let k = |op| MetricKey::new("mongo", op, None, None);
        reg.observe(k("read"), 0, millis(2.0));
        reg.observe(k("scan"), secs(1.5), millis(40.0));
        let a = render(&reg, "mongo", 2, "ycsb-a");
        assert_eq!(a, render(&reg, "mongo", 2, "ycsb-a"));
        assert!(a.contains("`read`"));
        assert!(a.contains("| 0–1s | 1 |"));
        assert!(!a.contains("shard p95"), "unsharded store");
    }

    #[test]
    fn drain_samples_past_the_last_window_stay_out_of_the_table() {
        // The ring keeps the post-measurement drain (SLO evaluation reads
        // it); the report must not. `scan` completes only in the drain.
        let mut reg = MetricRegistry::new(0, secs(1.0), 8);
        reg.observe(key("read", Some(0), 0), secs(0.5), millis(2.0));
        reg.observe(key("read", Some(1), 0), secs(1.5), millis(3.0));
        let before = render(&reg, "mongo", 2, "drain");
        reg.observe(key("read", Some(0), 0), secs(2.5), millis(900.0));
        reg.observe(key("read", Some(2), 0), secs(3.5), millis(900.0));
        reg.observe(key("scan", Some(0), 0), secs(4.5), millis(900.0));
        assert_eq!(render(&reg, "mongo", 2, "drain"), before);
        assert_eq!(
            reg.merged_window("mongo", "read", 2).count(),
            1,
            "ring kept it"
        );
        assert!(!before.contains("`scan`"));
    }
}
