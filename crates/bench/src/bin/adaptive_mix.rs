//! Adaptive mid-mix re-planning: TPC-H Q5 + Q1 + a background ETL scan job
//! on the shared simulated cluster, with Q5's recorded plan re-planned
//! *while it runs* — at every phase boundary the live critical-path blame
//! (`obs::CritPathProbe`) and streaming NIC-wait windows
//! (`obs::MetricRegistry`) are distilled into effective movement costs
//! (`pdw::adaptive::live_costs`), and the not-yet-started join movements
//! swap shuffle↔replicate when the live ranking disagrees with the plan
//! (`pdw::AdaptiveTail` + `cluster::ClusterExec::run_mix_adaptive`).
//!
//! Sections of the artifact:
//!   1. Q5's solo plan and its movement decisions (closed-form options),
//!   2. the fixed-plan mix — the baseline schedule,
//!   3. non-adaptive equivalence — the same mix through
//!      `run_mix_adaptive` with identity re-planners is asserted
//!      bitwise-identical (outcomes and span trace) to the fixed path,
//!   4. the adaptive mix — every mid-flight swap with the blame verdict
//!      and live effective costs that justified it,
//!   5. makespan comparison.
//!
//! Determinism: re-plans fire only at phase boundaries and compute pure
//! arithmetic over the deterministic probe stream, so the adaptive run is
//! byte-reproducible (same seed → same swaps → same bytes; pinned by the
//! CI artifact diff).
//!
//! `--trace <path>` writes a Chrome Trace Event JSON of both mixes.

use cluster::{ClusterExec, JobOutcome, JobSpec, MixJob, Params, Phase};
use obs::{CritPathProbe, MetricKey, MetricRegistry, Tee, TimelineProbe};
use pdw::adaptive::{live_costs, AdaptiveTail, BlameVerdict};
use pdw::{load_pdw, JoinDecision, PdwEngine};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simkit::probe::{Probe, ProbeEvent};
use simkit::trace::Trace;
use std::cell::RefCell;
use std::rc::Rc;
use tpch::{generate, GenConfig};

/// Background ETL backfill: `waves` sequential all-node phases, each node
/// scanning a slice from disk and forwarding it to its ring neighbour at
/// DMS bandwidth (same job the `concurrent_mix` artifact uses).
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

fn nic_wait_key() -> MetricKey {
    MetricKey::new("mix", "nic.wait", None, None)
}

/// Passive live sensor: streams every network request's queue wait into a
/// [`MetricRegistry`] sliding window as service starts. The re-planner
/// reads the merged windows at phase boundaries for its additive
/// per-movement wait term — the live twin of the NIC-depth series the
/// offline feedback loop folds after the run.
struct NicWaitSensor {
    net: Vec<bool>,
    reg: MetricRegistry,
}

impl NicWaitSensor {
    fn new() -> NicWaitSensor {
        NicWaitSensor {
            net: Vec::new(),
            reg: MetricRegistry::new(0, simkit::secs(10.0), 4096),
        }
    }

    /// Mean network queue wait over every request observed so far, seconds.
    fn mean_nic_wait_secs(&self) -> f64 {
        match self.reg.latency(&nic_wait_key()) {
            Some(sw) => sw.merged(0, sw.hi()).mean() / 1e9,
            None => 0.0,
        }
    }
}

impl Probe for NicWaitSensor {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        match *ev {
            ProbeEvent::ResourceRegistered { res, name, .. } => {
                let i = res.index();
                if self.net.len() <= i {
                    self.net.resize(i + 1, false);
                }
                self.net[i] =
                    name.contains("nic") || name.ends_with(".rx") || name.ends_with(".tx");
            }
            ProbeEvent::ServiceStarted { at, res, wait, .. }
                if self.net.get(res.index()).copied().unwrap_or(false) =>
            {
                self.reg.observe(nic_wait_key(), at, wait);
            }
            _ => {}
        }
    }
}

fn print_outcomes(outcomes: &[JobOutcome]) {
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

fn print_decision(d: &JoinDecision) {
    println!(
        "  {} (l {:.2} MB, r {:.2} MB): chosen {}",
        d.name,
        d.l_bytes as f64 / (1u64 << 20) as f64,
        d.r_bytes as f64 / (1u64 << 20) as f64,
        d.chosen
    );
    for (label, closed, eff) in &d.options {
        let mark = if *label == d.chosen { "<- chosen" } else { "" };
        let line = format!(
            "      {:<16} closed {:>8.1}s   effective {:>8.1}s  {}",
            label, closed, eff, mark
        );
        println!("{}", line.trim_end());
    }
}

/// Fingerprint a mix run for the bitwise-equivalence assertion: outcomes
/// with exact end bits plus the full span trace (contribs included).
fn fingerprint(outcomes: &[JobOutcome], trace: &Trace) -> String {
    let mut s = String::new();
    for o in outcomes {
        s.push_str(&format!(
            "{} {} {:x} {}\n",
            o.name,
            o.arrival_secs,
            o.end_secs.to_bits(),
            o.phases
        ));
    }
    s.push_str(&format!("{:?}", trace.spans));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sf = bench::arg_f64(&args, "--sf", 0.01);
    let paper = bench::arg_f64(&args, "--paper", 250.0);
    let seed = bench::arg_f64(&args, "--seed", 42.0) as u64;
    let waves = bench::arg_usize(&args, "--etl-waves", 6);
    let trace_path = bench::arg_str(&args, "--trace");

    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let lineitem_bytes = pdwcat.table_bytes("lineitem");
    let engine = PdwEngine::new(pdwcat);

    // Q1 lands early (its agg shuffle is the mix's first contended
    // network movement); Q5 a few minutes in, so live blame about that
    // shuffle exists by the time Q5's own movements are still pending —
    // the window where re-planning can act.
    let mut rng = StdRng::seed_from_u64(seed);
    let q1_at = rng.gen_range(5.0..15.0);
    let q5_at = rng.gen_range(120.0..240.0);

    println!("adaptive mid-mix re-planning — live blame swaps join movements at phase boundaries");
    println!(
        "  catalog TPC-H SF {sf}, params scaled to paper SF {paper} (similitude x{})",
        paper / sf
    );
    println!(
        "  seed {seed}: arrivals etl-backfill @ 0.0s ({waves} waves), q1 @ {q1_at:.1}s, q5 @ {q5_at:.1}s"
    );
    println!();

    // ---- 1. Q5's solo plan and movement decisions -----------------------
    let (q1_run, q1_phases) = engine.run_query_recorded(&tpch::query(1));
    let (q5_run, q5_phases) = engine.run_query_recorded(&tpch::query(5));
    println!("== solo q5 plan (idle cluster, closed-form) ==");
    println!(
        "  total {:.1}s, {} phases; join movement decisions:",
        q5_run.total_secs,
        q5_phases.len()
    );
    for d in q5_run.decisions.iter().filter(|d| d.chosen != "none") {
        print_decision(d);
    }
    println!();
    drop(q1_run);

    let jobs = |q1p: Vec<Phase>, q5p: Vec<Phase>| {
        vec![
            etl_job(&params, lineitem_bytes, waves, 0.0),
            JobSpec {
                name: "q1".into(),
                arrival_secs: q1_at,
                phases: q1p,
            },
            JobSpec {
                name: "q5".into(),
                arrival_secs: q5_at,
                phases: q5p,
            },
        ]
    };

    // ---- 2. fixed-plan mix (baseline) -----------------------------------
    let mut exec = ClusterExec::new(params.clone());
    let timeline = Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(10.0))));
    exec.set_probe(Some(timeline.clone() as Rc<RefCell<dyn Probe>>));
    let fixed_outcomes = exec.run_mix(jobs(q1_phases.clone(), q5_phases.clone()));
    exec.set_probe(None);
    let fixed_trace = exec.take_trace();
    let fixed_fp = fingerprint(&fixed_outcomes, &fixed_trace);
    println!("== fixed-plan mix (baseline) ==");
    print_outcomes(&fixed_outcomes);
    println!();

    // ---- 3. non-adaptive equivalence ------------------------------------
    // The adaptive path with identity re-planners must replay the fixed
    // schedule bit for bit: phases bind lazily but binding is pure, and a
    // `None` re-plan never touches the tail.
    let mut exec_id = ClusterExec::new(params.clone());
    let id_outcomes = exec_id.run_mix_adaptive(
        jobs(q1_phases.clone(), q5_phases.clone())
            .into_iter()
            .map(|spec| MixJob::adaptive(spec, |_| None))
            .collect(),
    );
    let id_fp = fingerprint(&id_outcomes, exec_id.trace());
    assert_eq!(
        fixed_fp, id_fp,
        "identity re-planners must not perturb the schedule"
    );
    println!("== non-adaptive equivalence ==");
    println!("  run_mix_adaptive with identity re-planners vs run_mix:");
    println!("  outcomes and span trace bitwise identical (asserted in-process)");
    println!();

    // ---- 4. the adaptive mix --------------------------------------------
    let mut exec_ad = ClusterExec::new(params.clone());
    let crit = Rc::new(RefCell::new(CritPathProbe::new()));
    let sensor = Rc::new(RefCell::new(NicWaitSensor::new()));
    let ad_timeline = Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(10.0))));
    let tee = Tee::of(vec![
        crit.clone() as Rc<RefCell<dyn Probe>>,
        sensor.clone() as Rc<RefCell<dyn Probe>>,
        ad_timeline.clone() as Rc<RefCell<dyn Probe>>,
    ]);
    exec_ad.set_probe(Some(Rc::new(RefCell::new(tee)) as Rc<RefCell<dyn Probe>>));

    let tail = Rc::new(RefCell::new(AdaptiveTail::new(
        params.clone(),
        &q5_run.decisions,
    )));
    let replanner = {
        let (crit, sensor, tail) = (crit.clone(), sensor.clone(), tail.clone());
        move |ctx: &cluster::ReplanCtx<'_>| {
            let verdicts: Vec<BlameVerdict> = crit
                .borrow()
                .spans()
                .iter()
                .map(|s| {
                    let v = s.verdict();
                    BlameVerdict {
                        span: v.span,
                        label: v.label.to_string(),
                        share: v.share,
                        net_svc_secs: v.net_svc_secs,
                        net_que_secs: v.net_que_secs,
                    }
                })
                .collect();
            let mean_wait = sensor.borrow().mean_nic_wait_secs();
            let (fb, evidence) = live_costs(&verdicts, mean_wait);
            tail.borrow_mut()
                .replan(ctx.remaining, &fb, &evidence, ctx.now_secs)
        }
    };
    let mix_jobs: Vec<MixJob> = jobs(q1_phases, q5_phases)
        .into_iter()
        .map(|spec| {
            if spec.name == "q5" {
                // `replanner` is FnMut and q5 is unique, so moving it into
                // the one adaptive job is fine.
                MixJob::adaptive(spec, replanner.clone())
            } else {
                MixJob::fixed(spec)
            }
        })
        .collect();
    let ad_outcomes = exec_ad.run_mix_adaptive(mix_jobs);
    exec_ad.set_probe(None);
    drop(replanner);

    println!("== adaptive mix (q5 re-planned at phase boundaries from live blame) ==");
    print_outcomes(&ad_outcomes);
    let tail = Rc::try_unwrap(tail)
        .ok()
        .expect("replanner dropped")
        .into_inner();
    println!("  mid-flight swaps: {}", tail.swaps().len());
    for s in tail.swaps() {
        println!();
        println!(
            "  {}: {} -> {}  (l {:.2} MB, r {:.2} MB)",
            s.name,
            s.closed_form,
            s.chosen,
            s.l_bytes as f64 / (1u64 << 20) as f64,
            s.r_bytes as f64 / (1u64 << 20) as f64
        );
        if let Some(e) = &s.evidence {
            println!("      evidence: {e}");
        }
        for (label, closed, eff) in &s.options {
            let mark = if *label == s.chosen {
                "<- swapped in"
            } else if *label == s.closed_form {
                "<- was scheduled"
            } else {
                ""
            };
            let line = format!(
                "      {:<16} closed {:>8.1}s   live effective {:>8.1}s  {}",
                label, closed, eff, mark
            );
            println!("{}", line.trim_end());
        }
    }
    println!();

    // ---- 5. makespan comparison -----------------------------------------
    let span = |outs: &[JobOutcome], name: &str| {
        outs.iter()
            .find(|o| o.name == name)
            .map(|o| o.makespan_secs())
            .unwrap_or(0.0)
    };
    println!("== makespans under contention ==");
    println!(
        "  q5: fixed plan {:.1}s -> adaptive {:.1}s",
        span(&fixed_outcomes, "q5"),
        span(&ad_outcomes, "q5")
    );
    let delta = span(&fixed_outcomes, "q5") - span(&ad_outcomes, "q5");
    if delta.abs() < 1e-9 && !tail.swaps().is_empty() {
        println!(
            "  (every flip was reverted before its movement ran, so the realized \
             plan — and the clock — match the fixed plan)"
        );
    }

    if let Some(path) = trace_path {
        let fixed_tl = timeline.borrow();
        let ad_tl = ad_timeline.borrow();
        let procs: Vec<(&str, &TimelineProbe)> =
            vec![("mix-fixed", &fixed_tl), ("mix-adaptive", &ad_tl)];
        std::fs::write(&path, obs::chrome_trace(&procs)).expect("write trace");
        eprintln!("(wrote Chrome trace to {path} — load it in Perfetto)");
    }
}
