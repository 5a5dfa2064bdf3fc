//! S3: the probe layer is *passive* and *deterministic*.
//!
//! Passive: attaching a probe changes no timing cell and no result byte,
//! for every engine. Deterministic: running the same workload twice with
//! probes attached produces byte-identical Chrome-trace exports.
//! Aligned: exported span slices sit exactly on the engines' reported
//! phase boundaries.

use elephants::cluster::Params;
use elephants::hive::{load_warehouse, HiveEngine};
use elephants::obs::{chrome_trace, TimelineProbe};
use elephants::pdw::{load_pdw, PdwEngine};
use elephants::simkit::probe::Probe;
use elephants::simkit::{as_secs, secs};
use elephants::tpch::{generate, GenConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn probe() -> Rc<RefCell<TimelineProbe>> {
    Rc::new(RefCell::new(TimelineProbe::new(secs(1.0))))
}

fn unwrap(p: Rc<RefCell<TimelineProbe>>) -> TimelineProbe {
    Rc::try_unwrap(p)
        .expect("engine released the probe")
        .into_inner()
}

fn engines() -> (HiveEngine, PdwEngine) {
    let cat = generate(&GenConfig::new(0.01));
    let params = Params::paper_dss().scaled(25_000.0);
    let (w, _) = load_warehouse(&cat, &params, None).expect("hive load");
    let (pc, _) = load_pdw(&cat, &params);
    (HiveEngine::new(w), PdwEngine::new(pc))
}

#[test]
fn probes_change_no_timing_cell_or_row() {
    let (hive, pdw) = engines();
    for q in [1, 5, 19] {
        let plan = elephants::tpch::query(q);

        let bare = hive.run_query(&plan).expect("hive");
        let p = probe();
        let probed = hive
            .run_query_probed(&plan, Some(p.clone() as Rc<RefCell<dyn Probe>>))
            .expect("hive probed");
        assert_eq!(
            format!("{:?}", (&bare.rows, bare.total_secs, &bare.jobs)),
            format!("{:?}", (&probed.rows, probed.total_secs, &probed.jobs)),
            "Q{q}: Hive run must be byte-identical with a probe attached"
        );
        assert!(unwrap(p).end() > 0, "Q{q}: probe saw the Hive run");

        let bare = pdw.run_query(&plan);
        let p = probe();
        let probed = pdw.run_query_probed(&plan, Some(p.clone() as Rc<RefCell<dyn Probe>>));
        assert_eq!(
            format!("{:?}", (&bare.rows, bare.total_secs, &bare.steps)),
            format!("{:?}", (&probed.rows, probed.total_secs, &probed.steps)),
            "Q{q}: PDW run must be byte-identical with a probe attached"
        );
        assert!(unwrap(p).end() > 0, "Q{q}: probe saw the PDW run");
    }
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let run = || {
        let (hive, pdw) = engines();
        let plan = elephants::tpch::query(5);
        let hp = probe();
        hive.run_query_probed(&plan, Some(hp.clone() as Rc<RefCell<dyn Probe>>))
            .expect("hive");
        let pp = probe();
        pdw.run_query_probed(&plan, Some(pp.clone() as Rc<RefCell<dyn Probe>>));
        chrome_trace(&[("hive", &unwrap(hp)), ("pdw", &unwrap(pp))])
    };
    assert_eq!(run(), run(), "Chrome trace must be deterministic");
}

#[test]
fn exported_spans_align_with_reported_phase_boundaries() {
    let (hive, pdw) = engines();
    let plan = elephants::tpch::query(5);

    // Hive: every traced job's map/shuffle/reduce spans appear in the
    // probe's span list at the executor-absolute boundaries the report
    // locates via `start_secs`.
    let hp = probe();
    let run = hive
        .run_query_probed(&plan, Some(hp.clone() as Rc<RefCell<dyn Probe>>))
        .expect("hive");
    let hp = unwrap(hp);
    let spans = hp.spans();
    assert!(
        spans.iter().any(|s| s.name == "map"),
        "probe saw map spans: {:?}",
        spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
    );
    let mut checked = 0;
    for job in run.jobs.iter().filter(|j| !j.report.spans.is_empty()) {
        for (i, want) in job.report.spans.iter().enumerate() {
            let got = spans
                .iter()
                .find(|s| s.start == want.start && s.name == want.name)
                .unwrap_or_else(|| {
                    panic!(
                        "job {} span {i} ({}) missing from probe",
                        job.label, want.name
                    )
                });
            assert_eq!(got.end, want.end, "span end matches");
            checked += 1;
        }
        // The job's relative phase boundaries reconcile through start_secs.
        let last = job.report.spans.last().expect("spans");
        assert!(
            (as_secs(last.end) - (job.report.start_secs + job.report.total)).abs() < 1e-9,
            "job {}: absolute end == start_secs + total",
            job.label
        );
    }
    assert!(checked >= 3, "at least one full map/shuffle/reduce checked");

    // PDW: probe spans mirror the engine's own trace exactly.
    let pp = probe();
    let run = pdw.run_query_probed(&plan, Some(pp.clone() as Rc<RefCell<dyn Probe>>));
    let pp = unwrap(pp);
    let got: Vec<_> = pp
        .spans()
        .iter()
        .map(|s| (s.name.clone(), s.start, s.end))
        .collect();
    let want: Vec<_> = run
        .trace
        .spans
        .iter()
        .map(|s| (s.name.clone(), s.start, s.end))
        .collect();
    assert_eq!(got, want, "PDW probe spans == engine trace spans");
}
