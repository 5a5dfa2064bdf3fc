//! End-to-end failure reproduction: the three failures the paper reports.

use elephants::cluster::Params;
use elephants::core::dss::{run_dss, DssConfig};
use elephants::core::serving::{run_point, ServingConfig, SystemKind};
use elephants::docstore::{MongoCluster, Sharding};
use elephants::hive::{load_warehouse, HiveEngine};
use elephants::simkit::Sim;
use elephants::tpch::{generate, GenConfig};
use elephants::ycsb::workload::{OpType, Workload};

/// §3.3.4: "Query 9 did not complete in Hive at the 16TB scale factor due
/// to lack of disk space" — and only Q9, only at 16 TB.
#[test]
fn q9_is_the_only_disk_space_casualty() {
    let cfg = DssConfig {
        sim_scale: 0.01,
        paper_scales: vec![4000.0, 16000.0],
        queries: vec![7, 9, 21], // the other intermediate-heavy queries
    };
    let res = run_dss(&cfg);
    let at = |scale: usize, q: usize| {
        res.runs[scale]
            .cells
            .iter()
            .find(|c| c.query == q)
            .expect("cell")
            .hive_secs
    };
    // 4 TB: everything completes.
    for q in [7, 9, 21] {
        assert!(at(0, q).is_some(), "Q{q} must complete at 4 TB");
    }
    // 16 TB: Q9 dies, Q7/Q21 (also large intermediates) survive.
    assert!(at(1, 7).is_some(), "Q7 completes at 16 TB (paper: 24887 s)");
    assert!(at(1, 9).is_none(), "Q9 must run out of disk at 16 TB");
    assert!(
        at(1, 21).is_some(),
        "Q21 completes at 16 TB (paper: 40748 s)"
    );
}

/// §3.3.4.2: Q22's hinted map-side join fails after ~400 s at *every*
/// scale factor and falls back to a common join.
#[test]
fn q22_map_join_fails_at_every_scale() {
    let catalog = generate(&GenConfig::new(0.01));
    for paper in [250.0, 16000.0] {
        let params = Params::paper_dss().scaled(paper / 0.01);
        let (w, _) = load_warehouse(&catalog, &params, None).expect("load");
        let run = HiveEngine::new(w)
            .run_query(&elephants::tpch::query(22))
            .expect("q22");
        let failed: f64 = run.secs_for("mapjoin-failed");
        assert!(
            (350.0..=450.0).contains(&failed),
            "@{paper:.0} GB the failed attempt costs ~400s, got {failed:.0}"
        );
    }
}

/// §3.4.3, workload D: Mongo-AS's order-preserving sharding routes every
/// append — and most "latest" reads — to the final chunk, collapsing it to
/// a fraction of what the hash-sharded systems sustain (the paper's system
/// additionally crashed outright above a 20 k target; the open-loop flood
/// that reproduces the crash lives in the docstore unit tests and the
/// autosharding_demo example — a throttled closed-loop driver bounds the
/// queue and stops short of socket timeouts).
#[test]
fn mongo_as_collapses_under_workload_d() {
    let cfg = ServingConfig {
        k: 10_000.0,
        warmup_secs: 2.0,
        measure_secs: 8.0,
        threads: 800,
        seed: 3,
    };
    let target = 320_000.0;
    let p_as = run_point(&cfg, SystemKind::MongoAs, Workload::D, target);
    let p_sql = run_point(&cfg, SystemKind::SqlCs, Workload::D, target);
    let p_cs = run_point(&cfg, SystemKind::MongoCs, Workload::D, target);
    assert!(
        !p_sql.crashed && !p_cs.crashed,
        "hash-sharded systems survive"
    );
    assert!(
        p_as.crashed || p_as.achieved_ops < 0.25 * p_sql.achieved_ops,
        "Mongo-AS must collapse: AS {} vs SQL {}",
        p_as.achieved_ops,
        p_sql.achieved_ops
    );
    // The hotspot also shows in append latency.
    let alat = |p: &elephants::core::serving::SweepPoint| {
        p.latency(OpType::Insert).unwrap_or(f64::INFINITY)
    };
    assert!(
        alat(&p_as) > 5.0 * alat(&p_sql),
        "AS appends {}ms vs SQL {}ms",
        alat(&p_as),
        alat(&p_sql)
    );
}

/// The crash mechanism itself: appends route to the last chunk, the chunk
/// splits, the balancer migration seizes the hot shard's global lock.
#[test]
fn crash_is_driven_by_migrations_not_randomness() {
    let params = Params::paper_ycsb().scaled_ycsb(10_000.0);
    let mut sim: Sim<()> = Sim::new();
    let m = MongoCluster::build(&mut sim, &params, Sharding::Range);
    m.load(64_000);
    // All appends route to the last shard.
    let last = m.shards() - 1;
    for _ in 0..100 {
        assert_eq!(m.shard_of(m.next_append_key()), last);
    }
}
