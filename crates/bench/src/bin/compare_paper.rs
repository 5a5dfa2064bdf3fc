//! Per-query calibration report: measured vs. the paper's Table 3, with
//! measured/paper ratios and outlier flags. The regression dashboard for
//! the DSS cost model.
//!
//!     cargo run --release -p bench --bin compare_paper [--sf 0.02] [--scale 250]

use elephants_core::dss::{paper_disk_capacity, run_dss, DssConfig};
use elephants_core::report::TableBuilder;

/// Table 3 of the paper: Hive seconds at SF {250, 1000, 4000, 16000}.
/// `None` = did not complete (Q9 at 16 TB).
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

/// Table 3 of the paper: PDW seconds at SF {250, 1000, 4000, 16000}.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sim_scale = bench::arg_f64(&args, "--sf", 0.02);
    let scale_idx = bench::arg_paper_scale(&args);
    let scale = bench::PAPER_SCALES[scale_idx];

    let config = DssConfig {
        sim_scale,
        paper_scales: vec![scale],
        queries: Vec::new(),
        disk_capacity_per_node: Some(paper_disk_capacity()),
    };
    eprintln!("running all 22 queries @ {scale:.0} GB (sim SF {sim_scale})...");
    let results = run_dss(&config);
    let run = &results.runs[0];

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
    for (i, cell) in run.cells.iter().enumerate() {
        let paper_h = PAPER_HIVE[i][scale_idx];
        let paper_p = PAPER_PDW[i][scale_idx];
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
    println!("{}", t.to_markdown());
    println!(
        "geometric-mean ratio: HIVE {:.2}, PDW {:.2} (1.00 = perfect calibration)",
        (h_sum / n as f64).exp(),
        (p_sum / n as f64).exp()
    );

    let mut pdw_u = simkit::trace::UtilSummary::default();
    let mut hive_u = simkit::trace::UtilSummary::default();
    for c in &run.cells {
        pdw_u.merge(&c.pdw_util);
        if let Some(u) = &c.hive_util {
            hive_u.merge(u);
        }
    }
    println!(
        "cluster totals @ {scale:.0} GB: HIVE {}",
        elephants_core::report::util_line(&hive_u)
    );
    println!(
        "cluster totals @ {scale:.0} GB: PDW  {}",
        elephants_core::report::util_line(&pdw_u)
    );
}
