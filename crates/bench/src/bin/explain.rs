//! EXPLAIN for a TPC-H query: the logical plan as written (Hive's
//! execution order), the Hive job DAG with simulated phase times, and the
//! PDW step list — side by side, the paper's §3.3.4.1 plan narratives as a
//! tool.
//!
//!     cargo run --release -p bench --bin explain -- 5 [--sf 0.01] [--paper 16000]
//!         [--trace out.json] [--timeline]
//!
//! `--trace` writes a Chrome Trace Event JSON (load it in Perfetto or
//! `chrome://tracing`) with one process per engine; `--timeline` appends an
//! ASCII phase/utilization timeline. Both come from a passive probe — the
//! numbers above them are byte-identical with and without the flags.

use cluster::Params;
use hive::{load_warehouse, HiveEngine};
use obs::TimelineProbe;
use pdw::{load_pdw, PdwEngine};
use relational::display::plan_to_string;
use simkit::probe::Probe;
use std::cell::RefCell;
use std::rc::Rc;
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let q = bench::arg_query(&args);
    let sf = bench::arg_f64(&args, "--sf", 0.01);
    let paper = bench::arg_f64(&args, "--paper", 16000.0);
    let trace_path = bench::arg_str(&args, "--trace");
    let timeline = bench::has_flag(&args, "--timeline");
    let observing = trace_path.is_some() || timeline;
    let mk_probe = || Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(1.0))));
    let as_dyn = |p: &Rc<RefCell<TimelineProbe>>| p.clone() as Rc<RefCell<dyn Probe>>;
    let unwrap = |p: Rc<RefCell<TimelineProbe>>| {
        Rc::try_unwrap(p)
            .expect("engine released the probe")
            .into_inner()
    };

    let plan = tpch::query(q);
    println!("== Q{q} logical plan (written order = Hive's execution order) ==\n");
    println!("{}", plan_to_string(&plan));

    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);

    let (w, _) = load_warehouse(&cat, &params, None).expect("hive load");
    let hive = HiveEngine::new(w);
    let hprobe = observing.then(mk_probe);
    let hrun = hive
        .run_query_probed(&plan, hprobe.as_ref().map(as_dyn))
        .expect("hive run");
    println!(
        "== Hive job DAG @ {paper:.0} GB — total {:.0}s ==\n",
        hrun.total_secs
    );
    for j in &hrun.jobs {
        println!(
            "  {:>8.1}s  {:<28} maps={:<6} reduces={:<4} map_phase={:.0}s",
            j.report.total, j.label, j.report.n_maps, j.report.n_reduces, j.report.map_done
        );
    }
    let hu = hrun.util();
    println!(
        "\n  resource totals: {}",
        elephants_core::report::util_line(&hu)
    );

    let (pc, _) = load_pdw(&cat, &params);
    let pdw = PdwEngine::new(pc);
    let pprobe = observing.then(mk_probe);
    let prun = pdw.run_query_probed(&plan, pprobe.as_ref().map(as_dyn));
    println!(
        "\n== PDW step list @ {paper:.0} GB — total {:.0}s (speedup {:.1}x) ==\n",
        prun.total_secs,
        hrun.total_secs / prun.total_secs
    );
    for s in &prun.trace.spans {
        let u = s.util();
        println!(
            "  {:>8.1}s  {:<28} disk {:>7.1}s  cpu {:>7.1}s  net {:>7.1}s  wait {:.3}s",
            s.secs(),
            s.name,
            u.disk_busy,
            u.cpu_busy,
            u.net_busy,
            u.mean_wait()
        );
    }
    println!(
        "\n  resource totals: {}",
        elephants_core::report::util_line(&prun.trace.util())
    );

    assert!(
        relational::testing::rows_approx_eq(&hrun.rows, &prun.rows, 1e-6),
        "engines disagree"
    );
    println!("\n(answers verified identical: {} rows)", prun.rows.len());

    if observing {
        let hp = unwrap(hprobe.expect("observing"));
        let pp = unwrap(pprobe.expect("observing"));
        if timeline {
            println!();
            print!("{}", obs::ascii_timeline(&format!("hive Q{q}"), &hp));
            println!();
            print!("{}", obs::ascii_timeline(&format!("pdw Q{q}"), &pp));
        }
        if let Some(path) = trace_path {
            let doc = obs::chrome_trace(&[("hive", &hp), ("pdw", &pp)]);
            std::fs::write(&path, doc).expect("write trace");
            eprintln!("(wrote Chrome trace to {path} — load it in Perfetto)");
        }
    }
}
