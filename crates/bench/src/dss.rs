//! Every view of one TPC-H suite run ([`run_dss`]), rendered from that one
//! result: Table 3 with its utilization footer, Figure 1, and one
//! calibration report against the paper's own Table 3 cells for each
//! paper scale in the run. `repro_table3` prints them in that order, one
//! [`SEPARATOR`] line between parts, and the artifact scripts split its
//! stdout into one `results/` file per part.
//!
//! [`run_dss`]: elephants_core::dss::run_dss

use std::fmt::Write;

use elephants_core::dss::{DssResults, ScaleRun, PAPER_SCALES};
use elephants_core::report::{fmt_ratio, fmt_secs, util_line, TableBuilder};
use simkit::trace::UtilSummary;

/// The line between two parts of the output: a form feed alone.
pub const SEPARATOR: &str = "\x0c";

/// Table 3 of the paper: Hive seconds per query (row = query − 1) at
/// [`PAPER_SCALES`] (column). `None` = did not complete (Q9 at 16 TB).
const PAPER_HIVE: [[Option<f64>; 4]; 22] = [
    [Some(207.0), Some(443.0), Some(1376.0), Some(5357.0)],
    [Some(411.0), Some(530.0), Some(1081.0), Some(3191.0)],
    [Some(508.0), Some(1125.0), Some(3789.0), Some(11644.0)],
    [Some(367.0), Some(855.0), Some(2120.0), Some(6508.0)],
    [Some(536.0), Some(1686.0), Some(5481.0), Some(19812.0)],
    [Some(79.0), Some(166.0), Some(537.0), Some(2131.0)],
    [Some(1007.0), Some(2447.0), Some(7694.0), Some(24887.0)],
    [Some(967.0), Some(2003.0), Some(6150.0), Some(18112.0)],
    [Some(2033.0), Some(7243.0), Some(27522.0), None],
    [Some(489.0), Some(1107.0), Some(2958.0), Some(13195.0)],
    [Some(242.0), Some(258.0), Some(695.0), Some(1964.0)],
    [Some(253.0), Some(490.0), Some(1597.0), Some(5123.0)],
    [Some(392.0), Some(629.0), Some(1428.0), Some(4577.0)],
    [Some(154.0), Some(353.0), Some(769.0), Some(2556.0)],
    [Some(444.0), Some(585.0), Some(1145.0), Some(2768.0)],
    [Some(460.0), Some(654.0), Some(1732.0), Some(5695.0)],
    [Some(654.0), Some(1717.0), Some(6334.0), Some(25662.0)],
    [Some(786.0), Some(2249.0), Some(8264.0), Some(25964.0)],
    [Some(376.0), Some(1069.0), Some(4005.0), Some(17644.0)],
    [Some(606.0), Some(1296.0), Some(2461.0), Some(11041.0)],
    [Some(1431.0), Some(3217.0), Some(13071.0), Some(40748.0)],
    [Some(908.0), Some(1145.0), Some(1744.0), Some(3402.0)],
];

/// Table 3 of the paper: PDW seconds, indexed like [`PAPER_HIVE`].
const PAPER_PDW: [[f64; 4]; 22] = [
    [54.0, 212.0, 864.0, 3607.0],
    [7.0, 25.0, 115.0, 495.0],
    [32.0, 112.0, 606.0, 2572.0],
    [8.0, 54.0, 187.0, 629.0],
    [33.0, 80.0, 253.0, 1060.0],
    [5.0, 41.0, 142.0, 526.0],
    [19.0, 80.0, 240.0, 955.0],
    [9.0, 89.0, 238.0, 814.0],
    [207.0, 844.0, 3962.0, 15494.0],
    [14.0, 67.0, 265.0, 981.0],
    [3.0, 18.0, 99.0, 302.0],
    [5.0, 44.0, 192.0, 631.0],
    [51.0, 190.0, 772.0, 3061.0],
    [7.0, 64.0, 164.0, 640.0],
    [21.0, 99.0, 377.0, 1397.0],
    [36.0, 71.0, 223.0, 549.0],
    [93.0, 406.0, 1679.0, 6757.0],
    [20.0, 103.0, 482.0, 2880.0],
    [16.0, 73.0, 272.0, 958.0],
    [20.0, 101.0, 425.0, 1611.0],
    [31.0, 138.0, 927.0, 4736.0],
    [19.0, 71.0, 255.0, 1270.0],
];

/// Every part, in output order: Table 3, Figure 1, then a calibration
/// report per paper scale in the run. Markdown with each part's footer
/// lines, or each table alone as CSV.
pub fn render(results: &DssResults, csv: bool) -> Vec<String> {
    let part = |(table, footer): (TableBuilder, String)| {
        if csv {
            format!("{}\n", table.to_csv())
        } else {
            format!("{}\n{footer}", table.to_markdown())
        }
    };
    [table3(results), fig1(results)]
        .into_iter()
        .chain(results.runs.iter().filter_map(calibration))
        .map(part)
        .collect()
}

/// Table 3: per-query seconds and speedups at every scale, per-engine
/// scaling between adjacent scales, and the AM/GM/AM-9/GM-9 rows. The
/// footer holds the per-scale resource totals.
fn table3(results: &DssResults) -> (TableBuilder, String) {
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
    (t, utilization(results))
}

/// Per-resource busy time and queue waits per engine per scale, summed
/// over all queries (from the DES traces backing every cell).
fn utilization(results: &DssResults) -> String {
    let mut out = String::from("Cluster resource totals per scale (summed over queries):\n\n");
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
        let scale = run.paper_scale;
        let _ = writeln!(
            out,
            "  @{scale:>6.0} GB  HIVE  {}  peak queue {} ({})",
            util_line(&hive),
            hive_peak.0,
            hive_peak.1
        );
        let _ = writeln!(
            out,
            "  @{scale:>6.0} GB  PDW   {}  peak queue {} ({})",
            util_line(&pdw),
            pdw_peak.0,
            pdw_peak.1
        );
        if left_over > 0 {
            let _ = writeln!(
                out,
                "  @{scale:>6.0} GB  WARNING: {left_over} requests still queued at run end \
                 ({pending_wait:.1}s pending wait accrued, uncounted in mean queue wait)"
            );
        }
    }
    out
}

/// Figure 1: the AM-9/GM-9 rows of Table 3 normalized to PDW at the
/// first scale of the run (the paper's SF 250), with the paper's values
/// in the footer.
fn fig1(results: &DssResults) -> (TableBuilder, String) {
    let base = &results.runs[0];
    let (base_am, base_gm) = base.means("pdw", true).expect("pdw always finishes");
    let mut t = TableBuilder::new(
        format!(
            "Figure 1 — normalized AM-9 / GM-9 (PDW @ SF {:.0} = 1)",
            base.paper_scale
        ),
        &[
            "SF",
            "HIVE norm AM",
            "PDW norm AM",
            "HIVE norm GM",
            "PDW norm GM",
        ],
    );
    for run in &results.runs {
        let hive = run.means("hive", true);
        let pdw = run.means("pdw", true).expect("pdw always finishes");
        t.row(vec![
            format!("{:.0}", run.paper_scale),
            hive.map(|m| format!("{:.0}", m.0 / base_am))
                .unwrap_or("--".into()),
            format!("{:.0}", pdw.0 / base_am),
            hive.map(|m| format!("{:.0}", m.1 / base_gm))
                .unwrap_or("--".into()),
            format!("{:.0}", pdw.1 / base_gm),
        ]);
    }
    let footer = "paper AM: HIVE 22/48/148/500, PDW 1/4/17/72;  \
                  GM: HIVE 26/52/144/474, PDW 1/5/18/72\n";
    (t, footer.to_string())
}

/// Per-query calibration at one scale: measured vs. the paper's Table 3
/// cell for the same query and scale, with measured/paper ratios and
/// outlier flags. `None` when the run's scale is not one of the paper's.
fn calibration(run: &ScaleRun) -> Option<(TableBuilder, String)> {
    let si = PAPER_SCALES.iter().position(|&s| s == run.paper_scale)?;
    let scale = run.paper_scale;
    let mut t = TableBuilder::new(
        format!("Calibration vs paper Table 3 @ {scale:.0} GB (seconds; ratio = measured/paper)"),
        &[
            "Query",
            "HIVE measured",
            "HIVE paper",
            "HIVE ratio",
            "PDW measured",
            "PDW paper",
            "PDW ratio",
            "flag",
        ],
    );
    let (mut h_sum, mut p_sum, mut n) = (0.0, 0.0, 0);
    for cell in &run.cells {
        let paper_h = PAPER_HIVE[cell.query - 1][si];
        let paper_p = PAPER_PDW[cell.query - 1][si];
        let h_ratio = match (cell.hive_secs, paper_h) {
            (Some(m), Some(p)) => Some(m / p),
            _ => None,
        };
        let p_ratio = cell.pdw_secs / paper_p;
        if let Some(hr) = h_ratio {
            h_sum += hr.ln();
            p_sum += p_ratio.ln();
            n += 1;
        }
        let flag = match h_ratio {
            Some(hr) if !(0.5..=2.0).contains(&hr) || !(0.5..=2.0).contains(&p_ratio) => ">2x off",
            None if paper_h.is_some() != cell.hive_secs.is_some() => "failure mismatch",
            None => "both failed (Q9@16TB)",
            _ => "",
        };
        t.row(vec![
            format!("Q{}", cell.query),
            cell.hive_secs
                .map(|v| format!("{v:.0}"))
                .unwrap_or("--".into()),
            paper_h.map(|v| format!("{v:.0}")).unwrap_or("--".into()),
            h_ratio.map(|v| format!("{v:.2}")).unwrap_or("--".into()),
            format!("{:.0}", cell.pdw_secs),
            format!("{paper_p:.0}"),
            format!("{p_ratio:.2}"),
            flag.to_string(),
        ]);
    }

    let mut pdw_u = UtilSummary::default();
    let mut hive_u = UtilSummary::default();
    for c in &run.cells {
        pdw_u.merge(&c.pdw_util);
        if let Some(u) = &c.hive_util {
            hive_u.merge(u);
        }
    }
    let footer = format!(
        "geometric-mean ratio: HIVE {:.2}, PDW {:.2} (1.00 = perfect calibration)\n\
         cluster totals @ {scale:.0} GB: HIVE {}\n\
         cluster totals @ {scale:.0} GB: PDW  {}\n",
        (h_sum / n as f64).exp(),
        (p_sum / n as f64).exp(),
        util_line(&hive_u),
        util_line(&pdw_u),
    );
    Some((t, footer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_core::dss::{DssConfig, QueryCell};

    fn cell(query: usize, hive_secs: Option<f64>, pdw_secs: f64) -> QueryCell {
        QueryCell {
            query,
            hive_secs,
            pdw_secs,
            hive_util: None,
            pdw_util: UtilSummary::default(),
            hive_peak_queue: None,
            pdw_peak_queue: (String::new(), 0, 0, 0.0),
        }
    }

    fn results(paper_scales: &[f64], cells: &[QueryCell]) -> DssResults {
        DssResults {
            config: DssConfig {
                sim_scale: 0.02,
                paper_scales: paper_scales.to_vec(),
                queries: cells.iter().map(|c| c.query).collect(),
            },
            runs: paper_scales
                .iter()
                .map(|&paper_scale| ScaleRun {
                    paper_scale,
                    k: paper_scale / 0.02,
                    cells: cells.to_vec(),
                    hive_load_secs: 0.0,
                    pdw_load_secs: 0.0,
                    hive_runs: Vec::new(),
                })
                .collect(),
        }
    }

    /// The row of a markdown table that starts with `| {label} |`.
    fn row<'a>(part: &'a str, label: &str) -> &'a str {
        let prefix = format!("| {label} |");
        part.lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no row {label} in\n{part}"))
    }

    #[test]
    fn calibration_pairs_each_query_with_its_own_paper_cell() {
        // `--queries 9,22 --scales 1000,16000`: the cells sit at positions
        // 0 and 1, but must be read against the paper's Q9 and Q22 rows at
        // the 1000 and 16000 GB columns.
        let parts = render(
            &results(
                &[1000.0, 16000.0],
                &[cell(9, None, 900.0), cell(22, Some(1100.0), 70.0)],
            ),
            false,
        );
        assert_eq!(parts.len(), 4, "Table 3, Fig 1, one report per scale");
        assert!(parts[2].starts_with("### Calibration vs paper Table 3 @ 1000 GB"));
        assert!(parts[3].starts_with("### Calibration vs paper Table 3 @ 16000 GB"));
        assert_eq!(
            row(&parts[2], "Q9"),
            "| Q9 | -- | 7243 | -- | 900 | 844 | 1.07 | failure mismatch |"
        );
        assert_eq!(
            row(&parts[2], "Q22"),
            "| Q22 | 1100 | 1145 | 0.96 | 70 | 71 | 0.99 |  |"
        );
        assert_eq!(
            row(&parts[3], "Q9"),
            "| Q9 | -- | -- | -- | 900 | 15494 | 0.06 | both failed (Q9@16TB) |"
        );
        assert_eq!(
            row(&parts[3], "Q22"),
            "| Q22 | 1100 | 3402 | 0.32 | 70 | 1270 | 0.06 | >2x off |"
        );
    }

    #[test]
    fn scales_outside_the_papers_get_no_calibration_report() {
        let parts = render(
            &results(&[250.0, 500.0], &[cell(1, Some(240.0), 50.0)]),
            false,
        );
        assert_eq!(parts.len(), 3);
        assert!(parts[2].contains("@ 250 GB"));
        assert!(parts.iter().all(|p| !p.contains(SEPARATOR)));
    }
}
