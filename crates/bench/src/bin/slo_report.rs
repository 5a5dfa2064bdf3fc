//! Per-tenant SLO burn rates over one YCSB point per system: client
//! threads are partitioned round-robin into tenants, every completed op
//! feeds the streaming metric registry, and each (tenant, policy) cell is
//! judged by multi-window burn rate — long horizon (all windows) and
//! short horizon (the most recent few) both have to run hot before the
//! verdict escalates (`obs::slo`).
//!
//! ```text
//! cargo run --release -p bench --bin slo_report -- \
//!     [--workload A] [--target 40000] [--windows 8] [--tenants 4]
//!     [--short 2] [--k 2500]
//! ```
//!
//! The observer is passive and the registry deterministic, so the default
//! output is the byte-diff-gated `results/slo_report_a.txt`.

use bench::figures::figure_config;
use elephants_core::serving::{run_point_profiled, SystemKind};
use obs::SloPolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = figure_config(&args);
    let target = bench::arg_f64(&args, "--target", 40e3);
    let windows = bench::arg_usize(&args, "--windows", 8);
    let tenants = bench::arg_usize(&args, "--tenants", 4) as u32;
    let short = bench::arg_usize(&args, "--short", 2) as u64;
    let workload = bench::arg_workload(&args);
    // Targets sit between SQL-CS's latencies (~11 ms p95 at this point)
    // and the Mongo variants' (~45–70 ms p95), so the committed artifact
    // shows all three verdicts: healthy tenants, a slow warning burn, and
    // a tight tail objective burning hot enough to page.
    let policies = [
        SloPolicy::new("read", simkit::millis(25.0), 0.95),
        SloPolicy::new("update", simkit::millis(30.0), 0.99),
    ];

    println!("# Per-tenant SLO burn rates — YCSB workload {workload:?} @ target {target:.0} ops/s");
    println!(
        "# {tenants} tenants (client threads round-robin); {windows} windows over {:.0}s; short horizon = last {short} windows",
        cfg.measure_secs
    );
    println!(
        "# burn 1.0 = spending exactly the error budget; WARN when both horizons ≥2x, PAGE when both ≥10x"
    );
    for system in SystemKind::all() {
        eprintln!("  {} ...", system.label());
        let (point, reg) = run_point_profiled(&cfg, system, workload, target, windows, tenants);
        let evals = obs::slo::evaluate(&reg, system.label(), &policies, short);
        println!();
        print!(
            "{}",
            obs::slo::render(
                &format!(
                    "{} — achieved {:.0} ops/s{}",
                    system.label(),
                    point.achieved_ops,
                    if point.crashed { " (CRASHED)" } else { "" }
                ),
                &evals
            )
        );
    }
}
