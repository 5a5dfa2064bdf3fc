//! Concurrent workload mix: TPC-H Q5 + Q1 + a background ETL scan job
//! admission-scheduled through the same simulated cluster, then the
//! measured queue waits fed back into the PDW optimizer's movement cost
//! estimates (`pdw::FeedbackCosts`).
//!
//! Sections of the artifact:
//!   1. solo baselines — Q1/Q5 on an idle cluster (closed-form planning),
//!   2. the mix — `ClusterExec::run_mix` interleaves the three jobs with
//!      fair per-job round-robin dispatch; busiest-resource footer shows
//!      the contention (incl. pending queue wait),
//!   3. measured feedback — per-class inflation + per-movement wait derived
//!      from the mix's span trace and NIC timeline,
//!   4. re-planning all 22 queries under that feedback, printing every
//!      join decision that flips away from the closed-form choice,
//!   5. the mix re-run with feedback-planned queries.
//!
//! `--trace <path>` writes a Chrome Trace Event JSON of the mix;
//! `--timeline` appends ASCII timelines. The probe is attached either way
//! (the feedback needs the NIC depth series); it is passive, so the
//! printed tables are identical with and without the flags.

use cluster::{ClusterExec, JobSpec, Params, Phase};
use obs::TimelineProbe;
use pdw::{load_pdw, FeedbackCosts, PdwEngine};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simkit::probe::Probe;
use simkit::trace::{ResKind, Trace};
use std::cell::RefCell;
use std::rc::Rc;
use tpch::{generate, GenConfig};

/// Background ETL backfill: `waves` sequential all-node phases, each node
/// scanning a slice from disk and forwarding it to its ring neighbour at
/// DMS bandwidth. Per-wave per-node volume is sized off the lineitem table
/// so the NIC pressure tracks the catalog scale.
fn etl_job(p: &Params, lineitem_bytes: u64, waves: usize, arrival_secs: f64) -> JobSpec {
    let per_node = lineitem_bytes as f64 / p.nodes as f64;
    let mut phases = Vec::new();
    for w in 0..waves {
        let mut ph = Phase::new(format!("wave{w}"));
        for n in 0..p.nodes {
            ph.disk_seq(n, per_node, p.pdw_scan_bw_per_node);
            ph.net_send(n, per_node, p.dms_bw_per_node);
            ph.net_recv((n + 1) % p.nodes, per_node, p.dms_bw_per_node);
        }
        phases.push(ph);
    }
    JobSpec {
        name: "etl-backfill".into(),
        arrival_secs,
        phases,
    }
}

/// Sum (service, wait) over the Net contributions of spans whose name
/// contains `marker` — the same classification `FeedbackCosts` uses, kept
/// here so the artifact can print the raw measurements behind the ratios.
fn net_service_wait(trace: &Trace, marker: &str) -> (f64, f64) {
    let (mut service, mut wait) = (0.0, 0.0);
    for span in &trace.spans {
        if !span.name.contains(marker) {
            continue;
        }
        for c in &span.contribs {
            if matches!(c.kind, ResKind::Net) {
                service += c.service;
                wait += c.queue_wait;
            }
        }
    }
    (service, wait)
}

fn print_footer(reports: &[simkit::resource::ResourceReport]) {
    let mut res: Vec<_> = reports.iter().filter(|r| r.busy_secs > 0.0).collect();
    res.sort_by(|a, b| b.busy_secs.total_cmp(&a.busy_secs));
    println!("busiest resources (simkit resource report):");
    for r in res.iter().take(8) {
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
    let left: usize = reports.iter().map(|r| r.queued_at_end).sum();
    if left > 0 {
        println!("  WARNING: {left} requests still queued at run end");
    }
}

struct MixResult {
    outcomes: Vec<cluster::JobOutcome>,
    reports: Vec<simkit::resource::ResourceReport>,
    trace: Trace,
    probe: TimelineProbe,
}

fn run_mix(params: &Params, jobs: Vec<JobSpec>) -> MixResult {
    let mut exec = ClusterExec::new(params.clone());
    let probe = Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(10.0))));
    exec.set_probe(Some(probe.clone() as Rc<RefCell<dyn Probe>>));
    let outcomes = exec.run_mix(jobs);
    let reports = exec.resource_reports();
    exec.set_probe(None);
    let probe = Rc::try_unwrap(probe)
        .expect("exec released the probe")
        .into_inner();
    MixResult {
        outcomes,
        reports,
        trace: exec.take_trace(),
        probe,
    }
}

fn print_outcomes(outcomes: &[cluster::JobOutcome]) {
    println!(
        "  {:<14} {:>9} {:>9} {:>10} {:>7}",
        "job", "arrival", "end", "makespan", "phases"
    );
    for o in outcomes {
        println!(
            "  {:<14} {:>8.1}s {:>8.1}s {:>9.1}s {:>7}",
            o.name,
            o.arrival_secs,
            o.end_secs,
            o.makespan_secs(),
            o.phases
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf = bench::arg_f64(&args, "--sf", 0.01);
    let paper = bench::arg_f64(&args, "--paper", 250.0);
    let seed = bench::arg_f64(&args, "--seed", 42.0) as u64;
    let waves = bench::arg_usize(&args, "--etl-waves", 6);
    let trace_path = bench::arg_str(&args, "--trace");
    let timeline = bench::has_flag(&args, "--timeline");

    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let lineitem_bytes = pdwcat.table_bytes("lineitem");
    let engine = PdwEngine::new(pdwcat);

    let mut rng = StdRng::seed_from_u64(seed);
    let q1_at = rng.gen_range(5.0..15.0);
    let q5_at = rng.gen_range(30.0..90.0);

    println!("concurrent workload mix — admission scheduling + measured-wait feedback");
    println!(
        "  catalog TPC-H SF {sf}, params scaled to paper SF {paper} (similitude x{})",
        paper / sf
    );
    println!(
        "  seed {seed}: arrivals etl-backfill @ 0.0s ({waves} waves), q1 @ {q1_at:.1}s, q5 @ {q5_at:.1}s"
    );
    println!();

    // ---- 1. solo baselines (idle cluster, closed-form planning) ---------
    let (q1_solo, q1_phases) = engine.run_query_recorded(&tpch::query(1));
    let (q5_solo, q5_phases) = engine.run_query_recorded(&tpch::query(5));
    println!("== solo baselines (idle cluster) ==");
    println!(
        "  Q1  total {:>7.1}s  ({} steps, {} rows)",
        q1_solo.total_secs,
        q1_solo.steps.len(),
        q1_solo.rows.len()
    );
    println!(
        "  Q5  total {:>7.1}s  ({} steps, {} rows)",
        q5_solo.total_secs,
        q5_solo.steps.len(),
        q5_solo.rows.len()
    );
    println!();

    // ---- 2. the mix (closed-form plans) ---------------------------------
    let jobs = vec![
        etl_job(&params, lineitem_bytes, waves, 0.0),
        JobSpec {
            name: "q1".into(),
            arrival_secs: q1_at,
            phases: q1_phases.clone(),
        },
        JobSpec {
            name: "q5".into(),
            arrival_secs: q5_at,
            phases: q5_phases,
        },
    ];
    let mix = run_mix(&params, jobs);
    println!("== mix run (closed-form plans) ==");
    print_outcomes(&mix.outcomes);
    print_footer(&mix.reports);
    println!();

    // ---- 3. measured feedback -------------------------------------------
    let width = mix.probe.bucket_width();
    let mut depth_windows = Vec::new();
    for i in 0..mix.probe.bucket_count() {
        let nic: Vec<_> = mix
            .probe
            .resources()
            .iter()
            .filter(|s| s.name.contains("nic"))
            .collect();
        let depth: f64 = nic.iter().map(|s| s.mean_depth(i, width)).sum::<f64>() / nic.len() as f64;
        if depth > 0.0 {
            depth_windows.push(depth);
        }
    }
    let fb = FeedbackCosts::from_observation(&mix.reports, &mix.trace, &depth_windows);
    let (sh_service, sh_wait) = net_service_wait(&mix.trace, "shuffle:");
    let (rp_service, rp_wait) = net_service_wait(&mix.trace, "replicate:");
    println!("== measured feedback (from the mix trace + NIC timeline) ==");
    println!(
        "  shuffle inflation   {:>6.3}  (Net service {:.1}s, queue wait {:.1}s over shuffle: spans)",
        fb.shuffle_inflation, sh_service, sh_wait
    );
    println!(
        "  replicate inflation {:>6.3}  (Net service {:.1}s, queue wait {:.1}s over replicate: spans)",
        fb.replicate_inflation, rp_service, rp_wait
    );
    println!(
        "  net wait / movement {:>6.1}s  (mean NIC queue depth over {} active {:.0}s windows × mean NIC service)",
        fb.net_wait_per_move_secs,
        depth_windows.len(),
        simkit::as_secs(width)
    );
    println!();

    // ---- 4. re-plan all 22 queries under feedback -----------------------
    let fb_engine = engine.with_feedback(fb);
    println!("== optimizer re-planning under measured feedback (22 queries) ==");
    let (mut n_decisions, mut n_flips, mut q_flipped) = (0usize, 0usize, 0usize);
    for q in 1..=tpch::QUERY_COUNT {
        let run = fb_engine.run_query(&tpch::query(q));
        n_decisions += run.decisions.len();
        let flips: Vec<_> = run.decisions.iter().filter(|d| d.flipped()).collect();
        if flips.is_empty() {
            continue;
        }
        q_flipped += 1;
        n_flips += flips.len();
        for d in flips {
            println!(
                "  Q{q} {} (l {:.2} MB, r {:.2} MB): closed-form {} -> feedback {}",
                d.name,
                d.l_bytes as f64 / (1u64 << 20) as f64,
                d.r_bytes as f64 / (1u64 << 20) as f64,
                d.closed_form,
                d.chosen
            );
            for (label, closed, eff) in &d.options {
                let mark = if *label == d.chosen {
                    "<- chosen"
                } else if *label == d.closed_form {
                    "<- closed-form pick"
                } else {
                    ""
                };
                let line = format!(
                    "      {:<16} closed {:>8.1}s   effective {:>8.1}s  {}",
                    label, closed, eff, mark
                );
                println!("{}", line.trim_end());
            }
        }
    }
    println!(
        "  {n_flips} of {n_decisions} join movement decisions flipped, across {q_flipped} of {} queries",
        tpch::QUERY_COUNT
    );
    println!();

    // ---- 5. feedback-planned mix re-run ---------------------------------
    let (_, q1_fb_phases) = fb_engine.run_query_recorded(&tpch::query(1));
    let (_, q5_fb_phases) = fb_engine.run_query_recorded(&tpch::query(5));
    let jobs = vec![
        etl_job(&params, lineitem_bytes, waves, 0.0),
        JobSpec {
            name: "q1".into(),
            arrival_secs: q1_at,
            phases: q1_fb_phases,
        },
        JobSpec {
            name: "q5".into(),
            arrival_secs: q5_at,
            phases: q5_fb_phases,
        },
    ];
    let remix = run_mix(&params, jobs);
    println!("== mix re-run (feedback-planned queries) ==");
    print_outcomes(&remix.outcomes);
    let span = |r: &MixResult, name: &str| {
        r.outcomes
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.makespan_secs())
            .unwrap_or(0.0)
    };
    println!(
        "  q5 makespan under contention: closed-form plan {:.1}s -> feedback plan {:.1}s",
        span(&mix, "q5"),
        span(&remix, "q5")
    );

    if timeline {
        println!();
        print!(
            "{}",
            obs::ascii_timeline("mix (closed-form plans)", &mix.probe)
        );
    }
    if let Some(path) = trace_path {
        let procs: Vec<(&str, &TimelineProbe)> =
            vec![("mix", &mix.probe), ("mix-feedback", &remix.probe)];
        std::fs::write(&path, obs::chrome_trace(&procs)).expect("write trace");
        eprintln!("(wrote Chrome trace to {path} — load it in Perfetto)");
    }
}
