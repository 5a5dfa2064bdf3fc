//! Regenerates Table 3 and every view derived from it, from one TPC-H
//! suite run: the 22 queries on Hive and PDW at the four paper scale
//! factors (speedups, per-engine scaling factors, AM/GM/AM-9/GM-9 rows,
//! utilization footer), then Figure 1, then one calibration report vs the
//! paper's Table 3 per paper scale. Parts are separated by a line holding
//! only a form feed; see `bench::dss`.
//!
//! Usage: `repro_table3 [--sf 0.02] [--queries 1,5,19] [--scales 250,1000]`
//! Paper values for comparison live in EXPERIMENTS.md.

use elephants_core::dss::{run_dss, DssConfig, PAPER_SCALES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = DssConfig {
        sim_scale: bench::arg_f64(&args, "--sf", 0.02),
        paper_scales: bench::arg_list(&args, "--scales").unwrap_or_else(|| PAPER_SCALES.to_vec()),
        queries: bench::arg_queries(&args).unwrap_or_default(),
    };
    eprintln!(
        "running TPC-H suite: sim SF {} → paper scales {:?}",
        config.sim_scale, config.paper_scales
    );
    let results = run_dss(&config);
    let parts = bench::dss::render(&results, bench::has_flag(&args, "--csv"));
    print!("{}", parts.join(&format!("{}\n", bench::dss::SEPARATOR)));
}
