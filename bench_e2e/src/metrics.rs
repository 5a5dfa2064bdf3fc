//! The metric catalogue (mirrored in `BENCHMARK.json`) and the derivation
//! of per-layer metrics from a traced rep's spans.

use crate::stats::Better;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. The one-line summary
/// carries `fail_frac` as its `failed`/`attempted` counts instead.
pub const END_TO_END: [Def; 6] = [
    def("wall_s", "s", Lower, 0.25),
    def("setup_s", "s", Lower, 0.25),
    def("unit_p50_ms", "ms", Lower, 0.25),
    def("unit_tail_ms", "ms", Lower, 0.25),
    def("peak_rss_mb", "MB", Lower, 0.05),
    def(FAIL_FRAC, "ratio", Lower, 0.0),
];

pub const FAIL_FRAC: &str = "fail_frac";

/// Per-layer metrics, from the traced rep. Every workload reports every
/// one; a layer the workload never calls reads 0. The time splits are
/// named by role so they are measured on both families: "nosql" is Hive or
/// MongoDB, "sql" is PDW or SQL Server (see README.md for the mapping).
pub const PER_LAYER: [Def; 26] = [
    def("setup.data_s", "s", Lower, 0.0),
    def("setup.nosql_s", "s", Lower, 0.0),
    def("setup.sql_s", "s", Lower, 0.0),
    def("run.nosql_s", "s", Lower, 0.0),
    def("run.sql_s", "s", Lower, 0.0),
    def("run.kernel_s", "s", Lower, 0.0),
    def("run.engine_s", "s", Lower, 0.0),
    def("core.render_s", "s", Lower, 0.0),
    def("simkit.events", "count", Lower, 0.0),
    def("simkit.events_per_s", "1/s", Higher, 0.0),
    def("simkit.events_per_op", "count", Lower, 0.0),
    def("simkit.arena_peak", "count", Lower, 0.0),
    def("hive.events", "count", Lower, 0.0),
    def("pdw.events", "count", Lower, 0.0),
    def("cluster.replay_events", "count", Lower, 0.0),
    def("relational.execute_ratio", "ratio", Higher, 0.0),
    def("relational.batch_ratio", "ratio", Higher, 0.0),
    def("ycsb.ops", "count", Higher, 0.0),
    def("ycsb.do_op_ratio", "ratio", Lower, 0.0),
    def("ycsb.done_ratio", "ratio", Lower, 0.0),
    def("docstore.cache_hit_rate", "ratio", Higher, 0.0),
    def("docstore.write_lock_frac", "ratio", Lower, 0.0),
    def("docstore.migrations", "count", Lower, 0.0),
    def("sqlengine.bufpool_hit_rate", "ratio", Higher, 0.0),
    def("obs.probe_overhead_frac", "ratio", Lower, 0.0),
    def("trace_overhead_frac", "ratio", Lower, 0.0),
];

/// The per-layer values of a traced rep, keyed by metric name: sums over
/// its spans by name, plus the non-span `extras` and the tracing overhead.
pub fn per_layer(
    tr: &Tracer,
    extras: &BTreeMap<&'static str, f64>,
    trace_overhead_frac: f64,
) -> BTreeMap<&'static str, f64> {
    let spans = tr.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    // Folded from +0.0: an empty float `sum` is -0.0.
    let total = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0, |a, b| a + b);
    let secs = |name| total(&mut named(name).map(Span::secs));
    let count = |name| total(&mut named(name).map(|s| s.count as f64));
    let run_under = |layer: &str| {
        total(
            &mut named("ycsb.run_workload")
                .filter(|s| s.parent.is_some_and(|p| spans[p].name == layer))
                .map(Span::secs),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let nosql_run = secs("hive.run_query") + run_under("docstore.point");
    let sql_run = secs("pdw.run_query") + run_under("sqlengine.point");
    let engines = nosql_run + sql_run;
    let events = count("hive.run_query") + count("pdw.run_query") + count("simkit.kernel");
    let ops = count("ycsb.run_workload");
    let ycsb_run = secs("ycsb.run_workload");
    // TPC-H splits only PDW into kernel and engine time: its phases can be
    // replayed on a bare substrate, Hive's task waves cannot.
    let pdw_compute = secs("pdw.run_query") - secs("cluster.replay");

    let mut out = BTreeMap::from([
        (
            "setup.data_s",
            secs("tpch.generate") + secs("docstore.load") + secs("sqlengine.load"),
        ),
        ("setup.nosql_s", secs("hive.load") + secs("docstore.build")),
        ("setup.sql_s", secs("pdw.load") + secs("sqlengine.build")),
        ("run.nosql_s", nosql_run),
        ("run.sql_s", sql_run),
        (
            "run.kernel_s",
            secs("cluster.replay") + secs("simkit.kernel"),
        ),
        (
            "run.engine_s",
            pdw_compute + secs("ycsb.do_op") + secs("ycsb.done"),
        ),
        ("core.render_s", secs("core.render")),
        ("simkit.events", events),
        ("simkit.events_per_s", ratio(events, engines)),
        ("simkit.events_per_op", ratio(count("simkit.kernel"), ops)),
        ("hive.events", count("hive.run_query")),
        ("pdw.events", count("pdw.run_query")),
        ("cluster.replay_events", count("cluster.replay")),
        (
            "relational.execute_ratio",
            ratio(secs("relational.execute"), engines),
        ),
        (
            "relational.batch_ratio",
            ratio(secs("relational.execute_batch"), engines),
        ),
        ("ycsb.ops", ops),
        ("ycsb.do_op_ratio", ratio(secs("ycsb.do_op"), ycsb_run)),
        ("ycsb.done_ratio", ratio(secs("ycsb.done"), ycsb_run)),
        ("trace_overhead_frac", trace_overhead_frac),
    ]);
    out.extend(extras.iter().map(|(k, v)| (*k, *v)));
    for d in &PER_LAYER {
        out.entry(d.name).or_insert(0.0);
    }
    out
}
