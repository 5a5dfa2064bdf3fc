//! Observability overhead + passivity smoke: run one TPC-H query per
//! engine bare and with the full probe stack attached (a `Tee` of
//! counting, timeline, and critical-path probes), alternating the two in
//! each of `--iters` rounds, and report both the real wall-clock cost of
//! observing (the median of each side, so host noise hits both alike) and
//! the proof that observing changed nothing: kernel event counts and
//! simulated query times must be identical probed vs unprobed (asserted
//! here, recorded in the JSON for the schema gate). The default 21 rounds
//! give each side of the shorter PDW run over a second on a 2-vCPU host.
//!
//!     cargo run --release -p bench --bin bench_obs -- [--q 5] [--sf 0.02]
//!         [--paper 16000] [--iters 21]
//!
//! Output is JSON on stdout (committed as `results/BENCH_obs.json`, not
//! byte-diff gated: the wall-clock numbers are host-dependent by design).

use cluster::Params;
use hive::{load_warehouse, HiveEngine};
use obs::{CritPathProbe, Tee, TimelineProbe};
use pdw::{load_pdw, PdwEngine};
use simkit::probe::{CountingProbe, Probe};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tpch::{generate, GenConfig};

/// One engine's probed-vs-unprobed measurement.
struct Row {
    engine: &'static str,
    events_bare: u64,
    events_probed: u64,
    sim_secs: f64,
    /// Probe-event deliveries the counting probe saw (all classes).
    probe_events: u64,
    spans: u64,
    /// Median wall seconds of the bare and the probed runs.
    bare_secs: f64,
    probed_secs: f64,
}

/// Median of a non-empty sample (the mean of the middle two when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let q = bench::arg_usize(&args, "--q", 5);
    let sf = bench::arg_f64(&args, "--sf", 0.02);
    let paper = bench::arg_f64(&args, "--paper", 16000.0);
    let iters = bench::arg_usize(&args, "--iters", 21).max(1);

    let plan = tpch::query(q);
    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);

    // One runner per engine: (kernel events executed, simulated secs).
    type Run<'a> = Box<dyn Fn(Option<Rc<RefCell<dyn Probe>>>) -> (u64, f64) + 'a>;
    let (w, _) = load_warehouse(&cat, &params, None).expect("hive load");
    let hive = HiveEngine::new(w);
    let (pc, _) = load_pdw(&cat, &params);
    let pdw = PdwEngine::new(pc);
    let engines: Vec<(&'static str, Run)> = vec![
        (
            "hive",
            Box::new(|p| {
                let r = hive.run_query_probed(&plan, p).expect("hive run");
                (r.events_executed, r.total_secs)
            }),
        ),
        (
            "pdw",
            Box::new(|p| {
                let r = pdw.run_query_probed(&plan, p);
                (r.events_executed, r.total_secs)
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, run) in &engines {
        let (mut bare_secs, mut probed_secs) = (Vec::new(), Vec::new());
        let (mut bare, mut probed) = ((0u64, 0f64), (0u64, 0f64));
        let mut counts = CountingProbe::default();
        for _ in 0..iters {
            let t0 = Instant::now();
            bare = run(None);
            bare_secs.push(t0.elapsed().as_secs_f64());
            let counter = Rc::new(RefCell::new(CountingProbe::default()));
            let tee = Tee::of(vec![
                counter.clone(),
                Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(1.0)))),
                Rc::new(RefCell::new(CritPathProbe::new())),
            ]);
            let t0 = Instant::now();
            probed = run(Some(Rc::new(RefCell::new(tee))));
            probed_secs.push(t0.elapsed().as_secs_f64());
            counts = counter.borrow().clone();
        }
        // The passivity contract, checked at the kernel's own yardsticks.
        assert_eq!(bare.0, probed.0, "{name}: probe changed the event count");
        assert_eq!(
            bare.1.to_bits(),
            probed.1.to_bits(),
            "{name}: probe changed the simulated time"
        );
        rows.push(Row {
            engine: name,
            events_bare: bare.0,
            events_probed: probed.0,
            sim_secs: probed.1,
            probe_events: counts.registered
                + counts.enqueued
                + counts.started
                + counts.completed
                + counts.spans_opened
                + counts.spans_closed
                + counts.tasks_started
                + counts.tasks_finished
                + counts.tasks_retried,
            spans: counts.spans_closed,
            bare_secs: median(bare_secs),
            probed_secs: median(probed_secs),
        });
    }

    println!("{{");
    println!("  \"bench\": \"obs_overhead\",");
    println!("{},", bench::meta::machine_json("  "));
    println!(
        "{},",
        bench::meta::config_json("  ", iters, "median_of_n_alternating_wall_clock")
    );
    println!("  \"query\": {q},");
    println!("  \"sf\": {sf},");
    println!("  \"engines\": [");
    for (i, r) in rows.iter().enumerate() {
        let overhead = if r.bare_secs > 0.0 {
            (r.probed_secs / r.bare_secs - 1.0) * 100.0
        } else {
            0.0
        };
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{ \"name\": \"{}\", \"events_bare\": {}, \"events_probed\": {}, \
             \"sim_secs\": {:.3}, \"probe_events\": {}, \"spans\": {}, \
             \"bare_secs\": {:.6}, \"probed_secs\": {:.6}, \"overhead_pct\": {:.1} }}{comma}",
            r.engine,
            r.events_bare,
            r.events_probed,
            r.sim_secs,
            r.probe_events,
            r.spans,
            r.bare_secs,
            r.probed_secs,
            overhead
        );
    }
    println!("  ]");
    println!("}}");
}
