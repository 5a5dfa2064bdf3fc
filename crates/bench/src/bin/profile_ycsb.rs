//! Windowed serving-side latency profile: one YCSB point per system with a
//! passive windowed-latency observer attached, reporting p50/p95/p99 **over
//! time** (fixed windows across the measurement interval) and the per-shard
//! p95 spread — the skew a single aggregate percentile hides.
//!
//! ```text
//! cargo run --release -p bench --bin profile_ycsb -- \
//!     [--workload A] [--target 40000] [--windows 4] [--k 2500]
//!     [--tenants 4] [--slo]
//! ```
//!
//! Every completed op feeds the streaming metric registry and the tables
//! are rendered from it. The observer is passive: the same point run
//! through `repro_fig*` yields byte-identical throughput/latency numbers.
//!
//! `--tenants N` partitions client threads into N tenants; tenants merge
//! away in the windowed tables, so they do not change, and a per-tenant
//! ops table is appended. `--slo` (with `--tenants`) also appends
//! per-tenant SLO burn rates (same policies as the `slo_report` bin).

use bench::figures::figure_config;
use elephants_core::serving::{run_point_profiled, SystemKind};
use obs::SloPolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = figure_config(&args);
    let target = bench::arg_f64(&args, "--target", 40e3);
    let windows = bench::arg_usize(&args, "--windows", 4);
    let tenants = bench::arg_usize(&args, "--tenants", 0) as u32;
    let slo = bench::has_flag(&args, "--slo");
    let workload = bench::arg_workload(&args);

    println!(
        "# Windowed latency profile — YCSB workload {:?} @ target {target:.0} ops/s",
        workload
    );
    println!(
        "# ({windows} windows over the {:.0}s measurement interval; shard p95 = min–max over shards)",
        cfg.measure_secs
    );
    for system in SystemKind::all() {
        eprintln!("  {} ...", system.label());
        let (point, reg) = run_point_profiled(&cfg, system, workload, target, windows, tenants);
        println!();
        print!(
            "{}",
            obs::serving::render(
                &reg,
                system.label(),
                windows,
                &format!(
                    "{} — achieved {:.0} ops/s{}",
                    system.label(),
                    point.achieved_ops,
                    if point.crashed { " (CRASHED)" } else { "" }
                )
            )
        );
        if tenants == 0 {
            continue;
        }
        println!("per-tenant ops ({tenants} tenants, client threads round-robin):");
        for (engine, op) in reg.ops() {
            for t in reg.tenants(engine, op) {
                let ops: u64 = (0..windows as u64)
                    .map(|w| reg.tenant_window(engine, op, Some(t), w).count())
                    .sum();
                println!("  tenant {t} {op:<8} {ops:>8}");
            }
        }
        if slo {
            let policies = [
                SloPolicy::new("read", simkit::millis(25.0), 0.95),
                SloPolicy::new("update", simkit::millis(30.0), 0.99),
            ];
            let evals = obs::slo::evaluate(&reg, system.label(), &policies, 2);
            print!("{}", obs::slo::render(system.label(), &evals));
        }
    }
}
