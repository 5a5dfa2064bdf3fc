//! Properties the active observability layer must hold on *real* engine
//! runs, not hand-built fixtures:
//!
//! 1. Critical-path blame is exhaustive and exclusive — every span's
//!    blame components sum to exactly its elapsed time, the extracted
//!    path tiles `[start, end]` with no gaps or overlaps, and no span
//!    outlives the query it belongs to.
//! 2. The streaming metric registry loses and double-counts nothing:
//!    every sample lands in exactly one window, and tenants partition
//!    each window's merged histogram.
//! 3. The blame-annotated Chrome trace export passes the structural
//!    validator (balanced lanes, nested spans) that gates CI traces.

use elephants::cluster::Params;
use elephants::hive::{load_warehouse, HiveEngine};
use elephants::obs::{CritPathProbe, CritPathReport, MetricKey, MetricRegistry};
use elephants::pdw::{load_pdw, PdwEngine};
use elephants::simkit::probe::Probe;
use elephants::simkit::{as_secs, millis, secs, SimTime};
use elephants::tpch::{generate, GenConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn engines() -> (HiveEngine, PdwEngine) {
    let cat = generate(&GenConfig::new(0.01));
    let params = Params::paper_dss().scaled(25_000.0);
    let (w, _) = load_warehouse(&cat, &params, None).expect("hive load");
    let (pc, _) = load_pdw(&cat, &params);
    (HiveEngine::new(w), PdwEngine::new(pc))
}

fn probed_reports(q: usize) -> Vec<(&'static str, f64, CritPathReport)> {
    let (hive, pdw) = engines();
    let plan = elephants::tpch::query(q);
    let cp = Rc::new(RefCell::new(CritPathProbe::new()));
    let hrun = hive
        .run_query_probed(&plan, Some(cp.clone() as Rc<RefCell<dyn Probe>>))
        .expect("hive");
    let hreport = Rc::try_unwrap(cp)
        .map(|c| c.into_inner().report())
        .unwrap_or_else(|_| panic!("sole owner"));
    let cp = Rc::new(RefCell::new(CritPathProbe::new()));
    let prun = pdw.run_query_probed(&plan, Some(cp.clone() as Rc<RefCell<dyn Probe>>));
    let preport = Rc::try_unwrap(cp)
        .map(|c| c.into_inner().report())
        .unwrap_or_else(|_| panic!("sole owner"));
    vec![
        ("hive", hrun.total_secs, hreport),
        ("pdw", prun.total_secs, preport),
    ]
}

#[test]
fn blame_sums_to_elapsed_and_path_tiles_every_span() {
    for q in [1, 5, 19] {
        for (engine, total_secs, report) in probed_reports(q) {
            assert_eq!(report.orphaned, 0, "{engine} Q{q}: events without a span");
            assert!(!report.spans.is_empty(), "{engine} Q{q}: no spans blamed");
            for b in &report.spans {
                // Exhaustive: the seven components are a partition of the
                // span's lifetime — nothing unattributed, nothing twice.
                let parts: SimTime = b.components().iter().map(|(_, t)| t).sum();
                assert_eq!(
                    parts,
                    b.elapsed(),
                    "{engine} Q{q} {}: blame must sum to elapsed",
                    b.name
                );
                assert_eq!(
                    b.path_len(),
                    b.elapsed(),
                    "{engine} Q{q} {}: critical path must tile the span",
                    b.name
                );
                // Exclusive: segments are contiguous from start to end.
                let mut at = b.start;
                for seg in &b.path {
                    assert_eq!(seg.from, at, "{engine} Q{q} {}: gap in path", b.name);
                    assert!(seg.to >= seg.from);
                    at = seg.to;
                }
                assert_eq!(at, b.end, "{engine} Q{q} {}: path stops early", b.name);
                // Bounded: no span outlives the query's wall clock.
                assert!(
                    as_secs(b.end) <= total_secs + 1e-9,
                    "{engine} Q{q} {}: span ends at {}s, query at {total_secs}s",
                    b.name,
                    as_secs(b.end)
                );
            }
        }
    }
}

#[test]
fn streaming_registry_tenants_partition_every_window() {
    // A deterministic pseudo-random op stream (LCG — no external crates):
    // two ops over five shards and three tenants, latencies spanning four
    // orders of magnitude, timestamps in non-decreasing order.
    let (t0, width) = (secs(2.0), secs(0.5));
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    // Retention must cover the whole stream (≤ 5000 × 1.2ms = 6s = 12
    // windows) or early windows would be evicted before they are read.
    let mut reg = MetricRegistry::new(t0, width, 16);
    let mut sent = [0u64; 2];
    let mut at = t0;
    for _ in 0..5_000 {
        at += rng() as u64 % millis(1.2);
        let (i, op) = if rng() % 3 == 0 {
            (1, "update")
        } else {
            (0, "read")
        };
        let shard = Some(rng() as usize % 5);
        let tenant = rng() % 3;
        let latency = millis(0.01) + rng() as u64 % millis(40.0);
        reg.observe(MetricKey::new("sim", op, shard, Some(tenant)), at, latency);
        sent[i] += 1;
    }
    let hi = (at - t0) / width;
    for (i, op) in ["read", "update"].into_iter().enumerate() {
        assert_eq!(reg.tenants("sim", op), vec![0, 1, 2], "{op}: tenants");
        let mut seen = 0;
        for w in 0..=hi {
            let merged = reg.merged_window("sim", op, w);
            // Tenancy is a partition of the merged stream, never a
            // rescale: the tenant histograms merge back to the whole,
            // bucket for bucket.
            let mut by_tenant = elephants::simkit::stats::LatencyHistogram::new();
            for t in reg.tenants("sim", op) {
                by_tenant.merge(&reg.tenant_window("sim", op, Some(t), w));
            }
            assert_eq!(by_tenant, merged, "{op} window {w}: tenant merge");
            seen += merged.count();
        }
        assert_eq!(seen, sent[i], "{op}: every sample in exactly one window");
    }
}

#[test]
fn annotated_trace_export_passes_structural_validation() {
    let (hive, pdw) = engines();
    let plan = elephants::tpch::query(5);
    let probes = || {
        let tl = Rc::new(RefCell::new(elephants::obs::TimelineProbe::new(secs(1.0))));
        let cp = Rc::new(RefCell::new(CritPathProbe::new()));
        let tee = elephants::obs::Tee::of(vec![tl.clone(), cp.clone()]);
        (tl, cp, Rc::new(RefCell::new(tee)) as Rc<RefCell<dyn Probe>>)
    };
    let (htl, hcp, htee) = probes();
    hive.run_query_probed(&plan, Some(htee)).expect("hive");
    let (ptl, pcp, ptee) = probes();
    pdw.run_query_probed(&plan, Some(ptee));
    let unwrap_tl = |tl: Rc<RefCell<elephants::obs::TimelineProbe>>| {
        Rc::try_unwrap(tl).expect("sole owner").into_inner()
    };
    let unwrap_cp = |cp: Rc<RefCell<CritPathProbe>>| {
        Rc::try_unwrap(cp)
            .map(|c| c.into_inner().report())
            .unwrap_or_else(|_| panic!("sole owner"))
    };
    let doc = elephants::obs::chrome::chrome_trace_annotated(&[
        ("hive", &unwrap_tl(htl), Some(&unwrap_cp(hcp))),
        ("pdw", &unwrap_tl(ptl), Some(&unwrap_cp(pcp))),
    ]);
    let sum = elephants::obs::validate::validate_text(&doc)
        .expect("annotated export must satisfy the trace validator");
    assert_eq!(sum.procs, vec!["hive", "pdw"]);
    assert!(sum.spans > 0 && sum.counters > 0);
}
