//! Regenerates Table 3: the 22 TPC-H queries on Hive and PDW at the four
//! paper scale factors, with speedups, per-engine scaling factors, and the
//! AM/GM/AM-9/GM-9 summary rows.
//!
//! Usage: `repro_table3 [--sf 0.02] [--queries 1,5,19] [--scales 250,1000]`
//! Paper values for comparison live in EXPERIMENTS.md.

use elephants_core::dss::{paper_disk_capacity, run_dss, DssConfig, DssResults};
use elephants_core::report::{fmt_ratio, fmt_secs, TableBuilder};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sim_scale = bench::arg_f64(&args, "--sf", 0.02);
    let queries = bench::arg_queries(&args).unwrap_or_default();
    let scales = bench::arg_list(&args, "--scales").unwrap_or_else(|| bench::PAPER_SCALES.to_vec());

    let config = DssConfig {
        sim_scale,
        paper_scales: scales,
        queries,
        disk_capacity_per_node: Some(paper_disk_capacity()),
    };
    eprintln!(
        "running TPC-H suite: sim SF {} → paper scales {:?}",
        config.sim_scale, config.paper_scales
    );
    let results = run_dss(&config);
    let table = render(&results);
    if bench::has_flag(&args, "--csv") {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.to_markdown());
        print_utilization(&results);
    }
}

/// Per-resource busy time and queue waits per engine per scale, summed
/// over all queries (from the DES traces backing every cell).
fn print_utilization(results: &DssResults) {
    use elephants_core::report::util_line;
    use simkit::trace::UtilSummary;
    println!("Cluster resource totals per scale (summed over queries):\n");
    for run in &results.runs {
        let mut pdw = UtilSummary::default();
        let mut hive = UtilSummary::default();
        let mut hive_peak: (usize, String) = (0, String::new());
        let mut pdw_peak: (usize, String) = (0, String::new());
        let mut left_over = 0usize;
        let mut pending_wait = 0.0f64;
        for c in &run.cells {
            pdw.merge(&c.pdw_util);
            if let Some(u) = &c.hive_util {
                hive.merge(u);
            }
            if let Some((name, depth, left, pending)) = &c.hive_peak_queue {
                if *depth > hive_peak.0 {
                    hive_peak = (*depth, name.clone());
                }
                left_over += left;
                pending_wait += pending;
            }
            let (name, depth, left, pending) = &c.pdw_peak_queue;
            if *depth > pdw_peak.0 {
                pdw_peak = (*depth, name.clone());
            }
            left_over += left;
            pending_wait += pending;
        }
        println!(
            "  @{:>6.0} GB  HIVE  {}  peak queue {} ({})",
            run.paper_scale,
            util_line(&hive),
            hive_peak.0,
            hive_peak.1
        );
        println!(
            "  @{:>6.0} GB  PDW   {}  peak queue {} ({})",
            run.paper_scale,
            util_line(&pdw),
            pdw_peak.0,
            pdw_peak.1
        );
        if left_over > 0 {
            println!(
                "  @{:>6.0} GB  WARNING: {left_over} requests still queued at run end \
                 ({pending_wait:.1}s pending wait accrued, uncounted in mean queue wait)",
                run.paper_scale
            );
        }
    }
}

fn render(results: &DssResults) -> TableBuilder {
    let mut header = vec!["Query".to_string()];
    for run in &results.runs {
        header.push(format!("HIVE {:.0}", run.paper_scale));
        header.push(format!("PDW {:.0}", run.paper_scale));
        header.push(format!("Speedup {:.0}", run.paper_scale));
    }
    // Per-engine scaling columns between adjacent scale factors.
    for w in results.runs.windows(2) {
        header.push(format!(
            "PDW {:.0}→{:.0}",
            w[0].paper_scale, w[1].paper_scale
        ));
    }
    for w in results.runs.windows(2) {
        header.push(format!(
            "HIVE {:.0}→{:.0}",
            w[0].paper_scale, w[1].paper_scale
        ));
    }

    let headers: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TableBuilder::new(
        "Table 3 — TPC-H on Hive and PDW (seconds; '--' = failed)",
        &headers,
    );

    let n_queries = results.runs[0].cells.len();
    for qi in 0..n_queries {
        let qnum = results.runs[0].cells[qi].query;
        let mut row = vec![format!("Q{qnum}")];
        for run in &results.runs {
            let c = &run.cells[qi];
            row.push(fmt_secs(c.hive_secs));
            row.push(fmt_secs(Some(c.pdw_secs)));
            row.push(fmt_ratio(c.speedup()));
        }
        for w in results.runs.windows(2) {
            let a = w[0].cells[qi].pdw_secs;
            let b = w[1].cells[qi].pdw_secs;
            row.push(fmt_ratio(Some(b / a.max(1e-9))));
        }
        for w in results.runs.windows(2) {
            let r = match (w[0].cells[qi].hive_secs, w[1].cells[qi].hive_secs) {
                (Some(a), Some(b)) => Some(b / a.max(1e-9)),
                _ => None,
            };
            row.push(fmt_ratio(r));
        }
        t.row(row);
    }

    // Summary rows.
    for (label, exclude_q9) in [("AM", false), ("GM", false), ("AM-9", true), ("GM-9", true)] {
        let mut row = vec![label.to_string()];
        for run in &results.runs {
            let hive = run.means("hive", exclude_q9);
            let pdw = run.means("pdw", exclude_q9).expect("pdw always finishes");
            let idx = if label.starts_with("AM") { 0 } else { 1 };
            let h = hive.map(|m| if idx == 0 { m.0 } else { m.1 });
            let p = if idx == 0 { pdw.0 } else { pdw.1 };
            row.push(fmt_secs(h));
            row.push(fmt_secs(Some(p)));
            row.push(fmt_ratio(h.map(|h| h / p)));
        }
        for _ in 0..results.runs.len().saturating_sub(1) * 2 {
            row.push(String::new());
        }
        t.row(row);
    }
    t
}
