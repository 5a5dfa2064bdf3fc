//! Regenerates Table 5: the time breakdown of Q22's four sub-queries at
//! each scale factor (paper rows: sub1 85/104/169/263, sub2 38/51/51/63,
//! sub3 109/236/658/2234, sub4 654/735/797/813 — sub4 is dominated by the
//! ~400 s failed map-side join at every scale).

use cluster::Params;
use elephants_core::dss::PAPER_SCALES;
use elephants_core::report::TableBuilder;
use hive::{load_warehouse, HiveEngine};
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sim_scale = bench::arg_f64(&args, "--sf", 0.01);
    let cat = generate(&GenConfig::new(sim_scale));

    let mut t = TableBuilder::new(
        "Table 5 — Time breakdown for Query 22 (seconds)",
        &[
            "Sub-query",
            "SF = 250 GB",
            "SF = 1 TB",
            "SF = 4 TB",
            "SF = 16 TB",
        ],
    );
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Sub-query 1".into()],
        vec!["Sub-query 2".into()],
        vec!["Sub-query 3".into()],
        vec!["Sub-query 4".into()],
    ];
    for paper in PAPER_SCALES {
        let params = Params::paper_dss().scaled(paper / sim_scale);
        let (w, _) = load_warehouse(&cat, &params, None).expect("load");
        let engine = HiveEngine::new(w);
        let run = engine.run_query(&tpch::query(22)).expect("q22");
        let sub1 = run.secs_for("q22_sub1");
        let sub2 = run.secs_for("q22_sub2");
        let sub3 = run.secs_for("q22_sub3");
        let sub4 = run.total_secs - sub1 - sub2 - sub3;
        rows[0].push(format!("{sub1:.0}"));
        rows[1].push(format!("{sub2:.0}"));
        rows[2].push(format!("{sub3:.0}"));
        rows[3].push(format!("{sub4:.0}"));
    }
    for r in rows {
        t.row(r);
    }
    println!("{}", t.to_markdown());
    println!(
        "paper: sub1 85/104/169/263  sub2 38/51/51/63  sub3 109/236/658/2234  sub4 654/735/797/813"
    );
}
