//! Shared runner for the YCSB figures (2–6): sweep the paper's target
//! throughputs for all three systems, print achieved throughput and
//! per-operation-type mean latency.
//!
//! Passing `--timeline` to a figure binary additionally attaches a passive
//! windowed-latency observer to every point and appends per-window
//! p50/p95/p99 tables (with per-shard p95 spread) after the figure — the
//! figure numbers themselves are byte-identical either way.

use elephants_core::report::TableBuilder;
use elephants_core::serving::{run_point, run_point_profiled, ServingConfig, SystemKind};
use ycsb::workload::{OpType, Workload};

/// Windows the measurement interval is cut into for `--timeline` profiles.
const PROFILE_WINDOWS: usize = 4;

/// Run one figure: `targets` in ops/sec, reporting latencies for `ops`.
/// Renders markdown, or CSV when the process args contain `--csv`; appends
/// windowed latency profiles when they contain `--timeline`.
pub fn run_figure(
    title: &str,
    workload: Workload,
    targets: &[f64],
    ops: &[OpType],
    cfg: &ServingConfig,
) -> String {
    let timeline = std::env::args().any(|a| a == "--timeline");
    let (t, profiles) = figure_inner(title, workload, targets, ops, cfg, timeline);
    let mut out = if std::env::args().any(|a| a == "--csv") {
        t.to_csv()
    } else {
        t.to_markdown()
    };
    out.push_str(&profiles);
    out
}

fn figure_inner(
    title: &str,
    workload: Workload,
    targets: &[f64],
    ops: &[OpType],
    cfg: &ServingConfig,
    timeline: bool,
) -> (TableBuilder, String) {
    let mut header = vec![
        "System".to_string(),
        "Target ops/s".to_string(),
        "Achieved".to_string(),
    ];
    for op in ops {
        header.push(format!("{} latency (ms)", op.label()));
    }
    header.push("Crashed".to_string());
    let headers: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TableBuilder::new(title, &headers);
    let mut profiles = String::new();

    for system in SystemKind::all() {
        for &target in targets {
            eprintln!("  {} @ target {:.0} ops/s ...", system.label(), target);
            let p = if timeline {
                let (p, reg) =
                    run_point_profiled(cfg, system, workload, target, PROFILE_WINDOWS, 0);
                profiles.push('\n');
                profiles.push_str(&obs::serving::render(
                    &reg,
                    system.label(),
                    PROFILE_WINDOWS,
                    &format!("{} @ target {:.0} ops/s", system.label(), target),
                ));
                p
            } else {
                run_point(cfg, system, workload, target)
            };
            let mut row = vec![
                system.label().to_string(),
                format!("{target:.0}"),
                format!("{:.0}", p.achieved_ops),
            ];
            for op in ops {
                row.push(match p.latency(*op) {
                    Some(l) => {
                        let se = p.latency_stderr_ms.get(op).copied().unwrap_or(0.0);
                        format!("{l:.1} ±{se:.1}")
                    }
                    None => "--".to_string(),
                });
            }
            row.push(if p.crashed {
                "CRASH".into()
            } else {
                String::new()
            });
            t.row(row);
            // Once a system crashes at a target, higher targets only crash
            // harder (the paper stops plotting Mongo-AS there too).
            if p.crashed {
                break;
            }
        }
    }
    (t, profiles)
}

/// Parse the standard figure-binary arguments into a config.
pub fn figure_config(args: &[String]) -> ServingConfig {
    ServingConfig {
        k: crate::arg_f64(args, "--k", 2_500.0),
        warmup_secs: crate::arg_f64(args, "--warmup", 3.0),
        measure_secs: crate::arg_f64(args, "--measure", 6.0),
        threads: crate::arg_usize(args, "--threads", 800),
        seed: 42,
    }
}
