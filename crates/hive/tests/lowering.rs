//! Behavioural tests of the Hive lowering: which join strategy gets
//! picked, partition pruning, text-format equality, and job structure.

use cluster::Params;
use hive::lower::Lowering;
use hive::{load_warehouse, load_warehouse_fmt, HiveEngine, StorageFormat};
use relational::expr::{col, lit_i64, lit_str};
use relational::value::row_bytes;
use relational::{AggCall, JoinKind, LogicalPlan, Value};
use tpch::{generate, GenConfig};

fn engine(scale: f64, paper: f64) -> HiveEngine {
    let cat = generate(&GenConfig::new(scale));
    let params = Params::paper_dss().scaled(paper / scale);
    let (w, _) = load_warehouse(&cat, &params, None).unwrap();
    HiveEngine::new(w)
}

#[test]
fn q12_uses_the_bucketed_map_join() {
    // lineitem and orders are both bucketed 512-ways on the order key and
    // Q12 joins exactly on it: the lowering must pick the bucketed map join
    // (no shuffle of either table).
    let e = engine(0.01, 250.0);
    let run = e.run_query(&tpch::query(12)).unwrap();
    assert!(
        run.jobs.iter().any(|j| j.label.contains("bucket-mapjoin")),
        "Q12 should use a bucketed map join: {:?}",
        run.jobs.iter().map(|j| j.label.clone()).collect::<Vec<_>>()
    );
}

#[test]
fn q5_lineitem_join_is_a_common_join() {
    // §3.3.4.1: the nation⋈region⋈supplier chain map-joins, but the join
    // against lineitem runs as the expensive common join.
    let e = engine(0.01, 250.0);
    let run = e.run_query(&tpch::query(5)).unwrap();
    let labels: Vec<&str> = run.jobs.iter().map(|j| j.label.as_str()).collect();
    assert!(
        labels.iter().filter(|l| l.contains("common-join")).count() >= 2,
        "Q5 needs common joins for lineitem/orders/customer: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.contains("mapjoin")),
        "the dimension chain should map-join: {labels:?}"
    );
}

#[test]
fn nation_region_always_broadcast_at_any_scale() {
    // Fixed-size dimension tables are broadcastable regardless of the
    // similitude factor (the scaled task memory cannot be the yardstick).
    for paper in [250.0, 16000.0] {
        let e = engine(0.01, paper);
        let plan = LogicalPlan::scan("nation")
            .project(vec![(col(0), "n_nationkey"), (col(2), "n_regionkey")])
            .join(
                LogicalPlan::scan("region").project(vec![(col(0), "r_regionkey")]),
                vec![(1, 0)],
            )
            .aggregate(vec![], vec![AggCall::count_star("n")]);
        let run = e.run_query(&plan).unwrap();
        assert!(
            run.jobs.iter().any(|j| j.label.contains("mapjoin")),
            "@{paper}: nation⋈region must broadcast"
        );
        assert!(
            !run.jobs.iter().any(|j| j.label.contains("common-join")),
            "@{paper}: no shuffle for fixed dimension tables"
        );
    }
}

#[test]
fn partition_pruning_reads_only_matching_directories() {
    // customer is partitioned by c_nationkey into 25 directories; an
    // equality filter must scan 8 files (one partition's buckets), not 200.
    let e = engine(0.01, 250.0);
    let s = tpch::schema::customer();
    let pruned = LogicalPlan::scan("customer")
        .filter(col(s.col("c_nationkey")).eq(lit_i64(7)))
        .aggregate(vec![], vec![AggCall::count_star("n")]);
    let run_pruned = e.run_query(&pruned).unwrap();
    let full = LogicalPlan::scan("customer")
        .filter(col(s.col("c_mktsegment")).eq(lit_str("BUILDING")))
        .aggregate(vec![], vec![AggCall::count_star("n")]);
    let run_full = e.run_query(&full).unwrap();
    let maps = |r: &hive::QueryRun| r.jobs.iter().map(|j| j.report.n_maps).max().unwrap();
    assert_eq!(maps(&run_pruned), 8, "one partition = 8 bucket files");
    assert_eq!(maps(&run_full), 200, "unprunable filter scans all files");
}

#[test]
fn text_format_gives_identical_answers() {
    let cat = generate(&GenConfig::new(0.01));
    let params = Params::paper_dss().scaled(25_000.0);
    let (wr, _) = load_warehouse_fmt(&cat, &params, None, StorageFormat::RcFile).unwrap();
    let (wt, _) = load_warehouse_fmt(&cat, &params, None, StorageFormat::Text).unwrap();
    let er = HiveEngine::new(wr);
    let et = HiveEngine::new(wt);
    for q in 1..=tpch::QUERY_COUNT {
        let plan = tpch::query(q);
        let a = er.run_query(&plan).unwrap();
        let b = et.run_query(&plan).unwrap();
        assert!(
            relational::testing::rows_approx_eq(&a.rows, &b.rows, 1e-9),
            "format must not change Q{q}'s answer"
        );
    }
}

#[test]
fn empty_bucket_map_tasks_still_launch() {
    // The Q1 phenomenon: all 512 lineitem bucket files get a map task even
    // though 384 are empty.
    let e = engine(0.01, 250.0);
    let run = e.run_query(&tpch::query(1)).unwrap();
    let scan_job = run
        .jobs
        .iter()
        .find(|j| j.report.n_maps >= 512)
        .expect("the lineitem scan launches one task per bucket file");
    // ≥ 4 waves: 384 empty files + ≥ 1 task per non-empty bucket. (Our LZ
    // compressor is weaker than GZIP, so non-empty buckets can span an
    // extra block vs the paper's exactly-512.)
    assert!(
        (4..=8).contains(&scan_job.report.min_waves),
        "waves = {}",
        scan_job.report.min_waves
    );
}

#[test]
fn left_join_against_an_empty_map_join_pads_its_full_width() {
    // nation ⋈ region with no region left is an empty map-join output; the
    // LEFT join over it must still pad all 7 of its columns with NULLs.
    let e = engine(0.01, 250.0);
    let nowhere = LogicalPlan::scan("nation").join(
        LogicalPlan::scan("region").filter(col(1).eq(lit_str("NOWHERE"))),
        vec![(2, 0)],
    );
    let plan = LogicalPlan::scan("region")
        .join_kind(nowhere, JoinKind::Left, vec![(0, 2)], None)
        .project(vec![(col(0), "r_regionkey"), (col(4), "n_name")]);
    let run = e.run_query(&plan).unwrap();
    assert!(
        run.jobs.iter().any(|j| j.label.contains("mapjoin")),
        "the inner join should map-join"
    );
    assert_eq!(run.rows.len(), 5, "one row per region");
    assert!(run.rows.iter().all(|r| r.len() == 2 && r[1] == Value::Null));
}

/// Every node of `plan`, the root first.
fn subplans<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
    out.push(plan);
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Join { left, right, .. } => {
            subplans(left, out);
            subplans(right, out);
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Materialize { input, .. } => subplans(input, out),
    }
}

#[test]
fn cached_segment_bytes_match_a_recount_for_every_subplan() {
    // Each lowered intermediate of the 22 queries: every file's cached byte
    // count equals its rows' byte sum, and every row has the stage's width.
    let e = engine(0.005, 250.0);
    for q in 1..=tpch::QUERY_COUNT {
        let plan = tpch::query(q);
        let mut nodes = Vec::new();
        subplans(&plan, &mut nodes);
        for node in nodes {
            let staged = Lowering::new(&e.warehouse).lower(node).unwrap();
            for seg in &staged.segments {
                let recount: u64 = seg.rows.iter().map(|r| row_bytes(r)).sum();
                assert_eq!(seg.bytes, recount, "Q{q}: cached bytes drifted");
                assert!(
                    seg.rows.iter().all(|r| r.len() == staged.width),
                    "Q{q}: row width differs from the stage's {}",
                    staged.width
                );
            }
        }
    }
}
