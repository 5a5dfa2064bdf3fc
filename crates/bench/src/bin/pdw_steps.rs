//! Diagnostic: print the PDW step breakdown for chosen queries (the Q5/Q19
//! plan narratives of §3.3.4.1), with per-step disk/CPU/NIC busy time and
//! queue waits from the DES trace, plus the busiest cluster resources from
//! the simkit resource reports.

//! `--trace <path>` writes a Chrome Trace Event JSON (one process per
//! query — load in Perfetto); `--timeline` appends ASCII timelines. Both
//! come from a passive probe: the tables are identical with and without.

use cluster::Params;
use elephants_core::report::span_table;
use obs::TimelineProbe;
use pdw::{load_pdw, PdwEngine};
use simkit::probe::Probe;
use std::cell::RefCell;
use std::rc::Rc;
use tpch::{generate, GenConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf = bench::arg_f64(&args, "--sf", 0.01);
    let paper = bench::arg_f64(&args, "--paper", 250.0);
    let trace_path = bench::arg_str(&args, "--trace");
    let timeline = bench::has_flag(&args, "--timeline");
    let observing = trace_path.is_some() || timeline;
    let queries = bench::arg_queries(&args).unwrap_or_else(|| vec![1, 5, 19]);

    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let engine = PdwEngine::new(pdwcat);
    let mut probes: Vec<(String, TimelineProbe)> = Vec::new();
    for q in queries {
        let probe = observing.then(|| Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(1.0)))));
        let run = engine.run_query_probed(
            &tpch::query(q),
            probe.clone().map(|p| p as Rc<RefCell<dyn Probe>>),
        );
        if let Some(p) = probe {
            let p = Rc::try_unwrap(p)
                .expect("engine released the probe")
                .into_inner();
            probes.push((format!("Q{q}"), p));
        }
        let spans: Vec<_> = run
            .trace
            .spans
            .iter()
            .filter(|s| s.secs() > 0.05)
            .cloned()
            .collect();
        println!(
            "{}",
            span_table(
                format!("Q{q} @ paper SF {paper} — total {:.1}s", run.total_secs),
                &spans
            )
            .to_markdown()
        );

        let mut res: Vec<_> = run
            .resources
            .iter()
            .filter(|r| r.busy_secs > 0.0)
            .cloned()
            .collect();
        res.sort_by(|a, b| b.busy_secs.total_cmp(&a.busy_secs));
        println!("busiest resources (simkit resource report):");
        for r in res.iter().take(6) {
            println!(
                "  {:>8.1}s busy  {:<16} {:>5} reqs  mean queue wait {:.3}s  pending wait {:.3}s  peak queue {}",
                r.busy_secs,
                r.name,
                r.completions,
                r.mean_queue_wait_secs,
                r.pending_wait_secs,
                r.max_queue_depth
            );
        }
        let left: usize = run.resources.iter().map(|r| r.queued_at_end).sum();
        if left > 0 {
            let pending: f64 = run.resources.iter().map(|r| r.pending_wait_secs).sum();
            println!(
                "  WARNING: {left} requests still queued at run end \
                 ({pending:.1}s pending wait accrued, uncounted in mean queue wait)"
            );
        }
        println!();
    }

    if timeline {
        for (name, p) in &probes {
            print!("{}", obs::ascii_timeline(name, p));
            println!();
        }
    }
    if let Some(path) = trace_path {
        let procs: Vec<(&str, &TimelineProbe)> =
            probes.iter().map(|(n, p)| (n.as_str(), p)).collect();
        std::fs::write(&path, obs::chrome_trace(&procs)).expect("write trace");
        eprintln!("(wrote Chrome trace to {path} — load it in Perfetto)");
    }
}
