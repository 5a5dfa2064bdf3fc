//! `tpch_16tb`: all 22 TPC-H queries on Hive and PDW at the paper's 16 TB
//! scale, through each engine's public `run_query`, on one thread.
//!
//! `core::dss::run_dss` is deliberately not used: it runs one thread per
//! scale factor, which would make the timings depend on the host's cores.

use crate::digest::Fnv;
use crate::trace::Tracer;
use crate::workload::Rep;
use cluster::{ClusterExec, Params};
use elephants_core::dss::paper_disk_capacity;
use elephants_core::report::{fmt_ratio, fmt_secs, TableBuilder};
use hive::{load_warehouse, HiveEngine, HiveError, QueryRun};
use obs::{CritPathProbe, Tee, TimelineProbe};
use pdw::{load_pdw, PdwEngine, PdwQueryRun};
use relational::testing::rows_approx_eq;
use relational::{LogicalPlan, Row};
use simkit::probe::Probe;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use tpch::{generate, GenConfig};

/// Relative tolerance for engine answers against the reference executor:
/// the engines sum floats in a different order.
const TOLERANCE: f64 = 1e-9;

/// The query the probed reruns use (the one `BENCH_obs.json` measures).
const PROBED_QUERY: usize = 5;

pub struct Dss {
    /// Generated (in-memory) scale factor.
    sim_scale: f64,
    /// The paper scale the cluster parameters emulate, in GB.
    paper_gb: f64,
    seed: i64,
    plans: Vec<(usize, LogicalPlan)>,
    /// `relational::execute`'s answers on the seed's data.
    reference: Vec<Vec<Row>>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

impl Dss {
    /// Computes the reference answers once, before any rep, so every rep
    /// starts from the same heap state.
    pub fn new(sim_scale: f64, paper_gb: f64, seed: u64) -> Result<Dss, String> {
        // The generator offsets the seed by up to 7 per table.
        let seed = i64::try_from(seed)
            .ok()
            .filter(|s| *s <= i64::MAX - 8)
            .ok_or_else(|| format!("--seed {seed} is too large for the TPC-H generator"))?;
        let plans: Vec<(usize, LogicalPlan)> = (1..=tpch::QUERY_COUNT)
            .map(|q| (q, tpch::query(q)))
            .collect();
        let catalog = generate(&gen_config(sim_scale, seed));
        let reference = plans
            .iter()
            .map(|(_, plan)| relational::execute(plan, &catalog).1)
            .collect();
        Ok(Dss {
            sim_scale,
            paper_gb,
            seed,
            plans,
            reference,
        })
    }

    pub fn rep(&mut self, tr: &mut Tracer) -> Result<Rep, String> {
        let traced = tr.enabled();
        let root = tr.open(None, "rep", false);

        // Set-up: generate, then load both engines.
        let t0 = Instant::now();
        let catalog = generate(&gen_config(self.sim_scale, self.seed));
        let t1 = Instant::now();
        let k = self.paper_gb / self.sim_scale;
        let params = Params::paper_dss().scaled(k);
        let capacity = ((paper_disk_capacity() as f64 / k).round() as u64).max(1);
        let (warehouse, _) = load_warehouse(&catalog, &params, Some(capacity))
            .map_err(|e| format!("hive load failed: {e}"))?;
        let hive = HiveEngine::new(warehouse);
        let t2 = Instant::now();
        let pdw = PdwEngine::new(load_pdw(&catalog, &params).0);
        let t3 = Instant::now();
        tr.span(Some(root), "tpch.generate", None, t0, t1, 0);
        tr.span(Some(root), "hive.load", None, t1, t2, 0);
        tr.span(Some(root), "pdw.load", None, t2, t3, 0);

        // Timed region: every query on both engines, then the table.
        let mut units_ms = Vec::with_capacity(2 * self.plans.len());
        let mut hive_runs = Vec::with_capacity(self.plans.len());
        let mut pdw_runs = Vec::with_capacity(self.plans.len());
        let mut phases = Vec::new();
        for (q, plan) in &self.plans {
            let a = Instant::now();
            let h = hive.run_query(plan);
            let b = Instant::now();
            // Recording clones each phase before it runs; only the traced
            // rep pays for it, and the digest check proves it passive.
            let p = if traced {
                let (p, ph) = pdw.run_query_recorded(plan);
                phases.push(ph);
                p
            } else {
                pdw.run_query(plan)
            };
            let c = Instant::now();
            units_ms.push(ms(a, b));
            units_ms.push(ms(b, c));
            if traced {
                let unit = format!("Q{q}");
                let events = h.as_ref().map_or(0, |r| r.events_executed);
                tr.span(Some(root), "hive.run_query", Some(&unit), a, b, events);
                tr.span(
                    Some(root),
                    "pdw.run_query",
                    Some(&unit),
                    b,
                    c,
                    p.events_executed,
                );
            }
            hive_runs.push(h);
            pdw_runs.push(p);
        }
        let r0 = Instant::now();
        let table = self.render(&hive_runs, &pdw_runs);
        let end = Instant::now();
        tr.span(Some(root), "core.render", None, r0, end, 0);
        tr.close(root);

        // Outside the timed region: answers, digest, reference spans.
        let mut failed_units = 0;
        let mut fnv = Fnv::default();
        for ((h, p), want) in hive_runs.iter().zip(&pdw_runs).zip(&self.reference) {
            match h {
                Ok(run) => {
                    fnv.u64(0);
                    fnv.f64(run.total_secs);
                    failed_units += usize::from(!rows_approx_eq(&run.rows, want, TOLERANCE));
                }
                // The paper's 16 TB Q9 outcome: the scratch space runs out.
                Err(HiveError::OutOfDisk { .. }) => fnv.u64(1),
                Err(HiveError::Unsupported(_)) => {
                    fnv.u64(2);
                    failed_units += 1;
                }
            }
            fnv.f64(p.total_secs);
            failed_units += usize::from(!rows_approx_eq(&p.rows, want, TOLERANCE));
        }

        let mut extras = BTreeMap::new();
        if traced {
            let (probe_overhead, probe_failures) =
                self.reference_spans(tr, &catalog, (&hive, &pdw), phases);
            extras.insert("obs.probe_overhead_frac", probe_overhead);
            failed_units += probe_failures;
        }

        Ok(Rep {
            setup_s: (t3 - t0).as_secs_f64(),
            wall_s: (end - t3).as_secs_f64(),
            units_ms,
            failed_units,
            digest: fnv.finish(),
            table,
            extras,
        })
    }

    fn render(&self, hive: &[Result<QueryRun, HiveError>], pdw: &[PdwQueryRun]) -> String {
        let gb = self.paper_gb;
        let (h, p, s) = (
            format!("HIVE {gb:.0}"),
            format!("PDW {gb:.0}"),
            format!("Speedup {gb:.0}"),
        );
        let mut t = TableBuilder::new(
            format!("TPC-H on Hive and PDW at {gb:.0} GB (seconds; '--' = failed)"),
            &["Query", &h, &p, &s],
        );
        for (((q, _), hr), pr) in self.plans.iter().zip(hive).zip(pdw) {
            let hs = hr.as_ref().ok().map(|r| r.total_secs);
            t.row(vec![
                format!("Q{q}"),
                fmt_secs(hs),
                fmt_secs(Some(pr.total_secs)),
                fmt_ratio(hs.map(|x| x / pr.total_secs.max(1e-9))),
            ]);
        }
        t.to_markdown()
    }

    /// The traced rep's reference-only work, under one `refs` span: the
    /// reference executors on the same plans, a replay of PDW's recorded
    /// phases on a fresh substrate (substrate + kernel cost alone), and one
    /// query rerun bare and then probed. Returns the probes' relative
    /// overhead and how many probed reruns changed a simulated time.
    fn reference_spans(
        &self,
        tr: &mut Tracer,
        catalog: &relational::Catalog,
        (hive, pdw): (&HiveEngine, &PdwEngine),
        phases: Vec<Vec<cluster::Phase>>,
    ) -> (f64, usize) {
        let refs = tr.open(None, "refs", true);
        for (q, plan) in &self.plans {
            let unit = format!("Q{q}");
            let a = Instant::now();
            let rows = relational::execute(plan, catalog).1.len();
            let b = Instant::now();
            let batch_rows = relational::batch::execute_batch(plan, catalog).1.len();
            let c = Instant::now();
            tr.span(
                Some(refs),
                "relational.execute",
                Some(&unit),
                a,
                b,
                rows as u64,
            );
            tr.span(
                Some(refs),
                "relational.execute_batch",
                Some(&unit),
                b,
                c,
                batch_rows as u64,
            );
        }
        for ((q, _), query_phases) in self.plans.iter().zip(phases) {
            let a = Instant::now();
            let mut exec = ClusterExec::new(pdw.catalog.params.clone());
            for ph in query_phases {
                exec.run(ph);
            }
            let b = Instant::now();
            let unit = format!("Q{q}");
            tr.span(
                Some(refs),
                "cluster.replay",
                Some(&unit),
                a,
                b,
                exec.events_executed(),
            );
        }

        // Probe overhead: Q5 bare, then probed, back to back on both engines.
        let (_, plan) = self
            .plans
            .iter()
            .find(|(q, _)| *q == PROBED_QUERY)
            .expect("the probed query is one of the 22");
        let unit = format!("Q{PROBED_QUERY}");
        let sim_secs = |h: Result<QueryRun, HiveError>, p: PdwQueryRun| {
            (
                h.ok().map(|r| r.total_secs.to_bits()),
                p.total_secs.to_bits(),
            )
        };
        let a = Instant::now();
        let bare = sim_secs(hive.run_query(plan), pdw.run_query(plan));
        let b = Instant::now();
        let probed = sim_secs(
            hive.run_query_probed(plan, Some(probe_stack())),
            pdw.run_query_probed(plan, Some(probe_stack())),
        );
        let c = Instant::now();
        tr.span(Some(refs), "obs.bare", Some(&unit), a, b, 0);
        tr.span(Some(refs), "obs.probed", Some(&unit), b, c, 0);
        tr.close(refs);
        // Passivity: probes must not move a simulated time.
        let changed = usize::from(bare.0 != probed.0) + usize::from(bare.1 != probed.1);
        (ms(b, c) / ms(a, b) - 1.0, changed)
    }
}

fn gen_config(sim_scale: f64, seed: i64) -> GenConfig {
    GenConfig {
        seed,
        ..GenConfig::new(sim_scale)
    }
}

/// The full probe stack: a timeline and critical-path blame, teed.
fn probe_stack() -> Rc<RefCell<dyn Probe>> {
    Rc::new(RefCell::new(Tee::of(vec![
        Rc::new(RefCell::new(TimelineProbe::new(simkit::secs(1.0)))),
        Rc::new(RefCell::new(CritPathProbe::new())),
    ])))
}
