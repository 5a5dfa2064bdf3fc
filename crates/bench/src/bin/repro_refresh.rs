//! Extension experiment — the TPC-H refresh functions the paper had to
//! skip (§3.3.1: "We didn't execute the two TPC-H refresh functions,
//! because the Hive version that we used does not support deletes and
//! inserts into existing tables"). PDW runs both; Hive 0.7 can run
//! neither; Hive 0.8 can run RF1 (INSERT INTO) but still not RF2.

use cluster::Params;
use elephants_core::dss::PAPER_SCALES;
use elephants_core::report::TableBuilder;
use hive::{load_warehouse, HiveEngine, HiveError};
use pdw::load_pdw;
use std::collections::HashSet;
use tpch::refresh::generate_refresh;
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf = bench::arg_f64(&args, "--sf", 0.01);
    let cat = generate(&GenConfig::new(sf));

    let mut t = TableBuilder::new(
        "TPC-H refresh functions (seconds; the paper skipped these)",
        &[
            "SF (GB)",
            "PDW RF1",
            "PDW RF2",
            "Hive 0.7",
            "Hive 0.8 RF1",
            "Hive RF2",
        ],
    );
    for paper in PAPER_SCALES {
        let params = Params::paper_dss().scaled(paper / sf);
        let cfg = GenConfig::new(sf);
        let rf = generate_refresh(&cfg, 0);

        // PDW: both functions.
        let (mut pdw_cat, _) = load_pdw(&cat, &params);
        let rf1 = pdw_cat.refresh_insert("orders", rf.orders.clone())
            + pdw_cat.refresh_insert("lineitem", rf.lineitems.clone());
        let victims: HashSet<i64> = rf.delete_keys.iter().copied().collect();
        let rf2 = pdw_cat.refresh_delete("orders", 0, &victims)
            + pdw_cat.refresh_delete("lineitem", 0, &victims);

        // Hive 0.7: neither.
        let (w7, _) = load_warehouse(&cat, &params, None).expect("load");
        let mut hive7 = HiveEngine::new(w7);
        let h7 = match hive7.refresh_insert("orders", rf.orders.clone()) {
            Err(HiveError::Unsupported(_)) => "unsupported".to_string(),
            other => panic!("Hive 0.7 must reject INSERT INTO, got {other:?}"),
        };

        // Hive 0.8: RF1 only.
        let (mut w8, _) = load_warehouse(&cat, &params, None).expect("load");
        w8.version = hive::meta::HiveVersion::V0_8;
        let mut hive8 = HiveEngine::new(w8);
        let h8_rf1 = hive8
            .refresh_insert("orders", rf.orders.clone())
            .and_then(|a| {
                hive8
                    .refresh_insert("lineitem", rf.lineitems.clone())
                    .map(|b| a + b)
            })
            .expect("hive 0.8 supports INSERT INTO");
        let h_rf2 = match hive8.refresh_delete("orders") {
            Err(HiveError::Unsupported(_)) => "unsupported".to_string(),
            other => panic!("no Hive release deletes rows, got {other:?}"),
        };

        t.row(vec![
            format!("{paper:.0}"),
            format!("{rf1:.0}"),
            format!("{rf2:.0}"),
            h7,
            format!("{h8_rf1:.0}"),
            h_rf2,
        ]);
    }
    println!("{}", t.to_markdown());
    println!(
        "RF2 on index-less PDW is a full scan of orders+lineitem — with indexes\n\
         (ablation_pdw_indexes) it would be near-instant."
    );
}
