//! Regenerates Table 4: total map-phase time for Q1 at each scale factor
//! (paper: 148 / 339 / 1258 / 5220 s). The sub-linear growth at the small
//! end comes from the 384 empty lineitem buckets sharing map waves with the
//! 128 real ones.

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
        "Table 4 — Total time for the map phase of Query 1 (seconds)",
        &["SF = 250 GB", "SF = 1 TB", "SF = 4 TB", "SF = 16 TB"],
    );
    let mut row = Vec::new();
    for paper in PAPER_SCALES {
        let params = Params::paper_dss().scaled(paper / sim_scale);
        let (w, _) = load_warehouse(&cat, &params, None).expect("load");
        let engine = HiveEngine::new(w);
        let run = engine.run_query(&tpch::query(1)).expect("q1");
        // The first job is the scan+aggregate over lineitem's 512 buckets.
        let map_phase = run
            .jobs
            .iter()
            .find(|j| j.report.n_maps >= 128)
            .map(|j| j.report.map_done)
            .unwrap_or(0.0);
        row.push(format!("{map_phase:.0}"));
    }
    t.row(row);
    println!("{}", t.to_markdown());
    println!("paper: 148 / 339 / 1258 / 5220");
}
