//! Critical-path blame for a TPC-H query, both engines side by side: every
//! nanosecond of each phase span attributed to disk/CPU/NIC service, queue
//! wait, or stall via the kernel's span↔resource linkage (`obs::critpath`).
//!
//!     cargo run --release -p bench --bin critpath -- 5 [--sf 0.02]
//!         [--paper 16000] [--trace out.json]
//!
//! `--trace` writes a Chrome Trace Event JSON whose span slices carry the
//! blame breakdown in `args.crit` (click a phase in Perfetto to see why it
//! was slow). The probes are passive: the engines' reported times are
//! byte-identical with and without them, and the default output is the
//! byte-diff-gated `results/critpath_q5.txt`.

use cluster::Params;
use hive::{load_warehouse, HiveEngine};
use obs::{CritPathProbe, Tee, TimelineProbe};
use pdw::{load_pdw, PdwEngine};
use simkit::probe::Probe;
use std::cell::RefCell;
use std::rc::Rc;
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let q = bench::arg_query(&args);
    let sf = bench::arg_f64(&args, "--sf", 0.02);
    let paper = bench::arg_f64(&args, "--paper", 16000.0);
    let trace_path = bench::arg_str(&args, "--trace");

    let plan = tpch::query(q);
    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);

    let probes = || {
        let tl = Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(1.0))));
        let cp = Rc::new(RefCell::new(CritPathProbe::new()));
        let tee = Rc::new(RefCell::new(Tee::of(vec![tl.clone(), cp.clone()])));
        (tl, cp, tee as Rc<RefCell<dyn Probe>>)
    };
    let unwrap_cp = |cp: Rc<RefCell<CritPathProbe>>| {
        Rc::try_unwrap(cp)
            .map(|c| c.into_inner())
            .unwrap_or_else(|_| panic!("engine released the probe"))
    };
    let unwrap_tl = |tl: Rc<RefCell<TimelineProbe>>| {
        Rc::try_unwrap(tl)
            .expect("engine released the probe")
            .into_inner()
    };

    println!("# Critical-path blame — Q{q} @ {paper:.0} GB (sf {sf})");
    println!("# elapsed = per-kind critical-path service + queue wait + stall, exactly");

    let (w, _) = load_warehouse(&cat, &params, None).expect("hive load");
    let hive = HiveEngine::new(w);
    let (htl, hcp, htee) = probes();
    let hrun = hive.run_query_probed(&plan, Some(htee)).expect("hive run");
    let hreport = unwrap_cp(hcp).report();
    println!();
    print!(
        "{}",
        hreport.render(&format!("hive Q{q} — total {:.0}s", hrun.total_secs))
    );

    let (pc, _) = load_pdw(&cat, &params);
    let pdw = PdwEngine::new(pc);
    let (ptl, pcp, ptee) = probes();
    let prun = pdw.run_query_probed(&plan, Some(ptee));
    let preport = unwrap_cp(pcp).report();
    println!();
    print!(
        "{}",
        preport.render(&format!("pdw Q{q} — total {:.0}s", prun.total_secs))
    );

    assert!(
        relational::testing::rows_approx_eq(&hrun.rows, &prun.rows, 1e-6),
        "engines disagree"
    );
    println!("\n(answers verified identical: {} rows)", prun.rows.len());

    if let Some(path) = trace_path {
        let doc = obs::chrome::chrome_trace_annotated(&[
            ("hive", &unwrap_tl(htl), Some(&hreport)),
            ("pdw", &unwrap_tl(ptl), Some(&preport)),
        ]);
        std::fs::write(&path, doc).expect("write trace");
        eprintln!("(wrote blame-annotated Chrome trace to {path})");
    }
}
