//! Regenerates Table 2: load times for Hive and PDW at the four scale
//! factors (paper: Hive 38/125/519/2512 min, PDW 79/313/1180/4712 min).

use cluster::Params;
use elephants_core::dss::PAPER_SCALES;
use elephants_core::report::TableBuilder;
use hive::load_warehouse;
use pdw::load_pdw;
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sim_scale = bench::arg_f64(&args, "--sf", 0.01);
    let cat = generate(&GenConfig::new(sim_scale));

    let mut t = TableBuilder::new(
        "Table 2 — Load times (minutes)",
        &["System", "250 GB", "1 TB", "4 TB", "16 TB"],
    );
    let mut hive_row = vec!["HIVE".to_string()];
    let mut pdw_row = vec!["PDW".to_string()];
    for paper in PAPER_SCALES {
        let params = Params::paper_dss().scaled(paper / sim_scale);
        let (_, hive_report) = load_warehouse(&cat, &params, None).expect("hive load");
        let (_, pdw_report) = load_pdw(&cat, &params);
        hive_row.push(format!("{:.0}", hive_report.total_secs / 60.0));
        pdw_row.push(format!("{:.0}", pdw_report.total_secs / 60.0));
    }
    t.row(hive_row);
    t.row(pdw_row);
    println!("{}", t.to_markdown());
    println!("paper: HIVE 38 / 125 / 519 / 2512   PDW 79 / 313 / 1180 / 4712");
}
