//! `ycsb_*`: one YCSB workload swept over three targets on SQL-CS,
//! Mongo-AS and Mongo-CS — the Figure 2/4/5 configurations — calling each
//! store's `build`/`load` and `ycsb::run_workload_observed` directly.
//!
//! The 800 clients are simulated closed-loop threads inside one `Sim`, not
//! host threads. A unit of work is one simulated 0.5 s slice of a sweep
//! point: a passive `OpObserver` notes the host clock whenever completions
//! cross a slice boundary.

use crate::digest::Fnv;
use crate::trace::{nanos, Tracer};
use crate::workload::Rep;
use docstore::{MongoCluster, Sharding};
use elephants_core::report::TableBuilder;
use elephants_core::serving::{ServingConfig, SystemKind};
use simkit::{Sim, SimTime};
use sqlengine::SqlCluster;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use ycsb::driver::{run_workload_observed, Done, OpObserver, RunConfig, RunResult};
use ycsb::{Op, OpType, Store, Workload};

type S = Sim<()>;

/// Simulated length of one unit of work.
const SLICE_SECS: f64 = 0.5;

pub struct Sweep {
    workload: Workload,
    title: &'static str,
    targets: Vec<f64>,
    ops: &'static [OpType],
    cfg: ServingConfig,
}

impl Sweep {
    /// The figure configuration for `workload`: 800 clients, k = 2500
    /// (256 k records), 3 s warm-up and 6 s measured. `smoke` measures 1 s
    /// at the first target only, for tests.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Sweep {
        let (title, targets, ops): (_, &[f64], &'static [OpType]) = match workload {
            Workload::C => (
                "Figure 2 — Workload C: 100% reads",
                &[20e3, 40e3, 80e3],
                &[OpType::Read],
            ),
            Workload::A => (
                "Figure 4 — Workload A: 50% reads, 50% updates",
                &[10e3, 20e3, 40e3],
                &[OpType::Read, OpType::Update],
            ),
            Workload::D => (
                "Figure 5 — Workload D: 95% reads (latest), 5% appends",
                &[20e3, 80e3, 160e3],
                &[OpType::Read, OpType::Insert],
            ),
            other => unreachable!("no sweep is defined for workload {other:?}"),
        };
        let targets = if smoke { &targets[..1] } else { targets };
        Sweep {
            workload,
            title,
            targets: targets.to_vec(),
            ops,
            cfg: ServingConfig {
                k: 2_500.0,
                warmup_secs: if smoke { 1.0 } else { 3.0 },
                measure_secs: if smoke { 1.0 } else { 6.0 },
                threads: 800,
                seed,
            },
        }
    }

    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let root = tr.open(None, "rep", false);
        let mut header = ["System", "Target ops/s", "Achieved"]
            .map(String::from)
            .to_vec();
        header.extend(
            self.ops
                .iter()
                .map(|op| format!("{} latency (ms)", op.label())),
        );
        header.push("Crashed".to_string());
        let headers: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TableBuilder::new(self.title, &headers);

        let (mut setup, mut wall) = (Duration::ZERO, Duration::ZERO);
        let mut units_ms = Vec::new();
        let mut failed_units = 0;
        let mut fnv = Fnv::default();
        let mut stats = LayerStats::default();
        for system in SystemKind::all() {
            for &target in &self.targets {
                let p = self.point(tr, root, system, target, &mut stats);
                setup += p.setup;
                wall += p.run;
                let sane = p.res.achieved_ops.is_finite()
                    && p.res.achieved_ops > 0.0
                    && p.res.latencies.values().all(|l| l.mean_ms.is_finite());
                if !sane {
                    failed_units += p.units_ms.len();
                }
                units_ms.extend(p.units_ms);
                table.row(self.row(system, target, &p.res, &mut fnv));
                // A crashed system only crashes harder at higher targets (the
                // figures stop there too).
                if p.res.crashed {
                    break;
                }
            }
        }

        // Rendering is part of the timed region; the rows were built as the
        // points finished.
        let r0 = Instant::now();
        let table = table.to_markdown();
        let r1 = Instant::now();
        wall += r1 - r0;
        tr.span(Some(root), "core.render", None, r0, r1, 0);
        tr.close(root);

        Rep {
            setup_s: setup.as_secs_f64(),
            wall_s: wall.as_secs_f64(),
            units_ms,
            failed_units,
            digest: fnv.finish(),
            table,
            extras: stats.finish(),
        }
    }

    /// Build, load and run one sweep point in a fresh `Sim` (the paper
    /// reloads between runs, so every point starts cold).
    fn point(
        &self,
        tr: &mut Tracer,
        root: usize,
        system: SystemKind,
        target: f64,
        stats: &mut LayerStats,
    ) -> Point {
        let cfg = &self.cfg;
        let params = cfg.params();
        let n = cfg.n_records();
        let unit = format!("{}@{target:.0}", system.label());
        let (layer, build, load) = match system {
            SystemKind::SqlCs => ("sqlengine.point", "sqlengine.build", "sqlengine.load"),
            _ => ("docstore.point", "docstore.build", "docstore.load"),
        };
        let point = tr.open(Some(root), layer, false);

        let a = Instant::now();
        let mut sim: S = Sim::new();
        let store = match system {
            SystemKind::SqlCs => Built::Sql(SqlCluster::build(&mut sim, &params)),
            SystemKind::MongoAs => {
                Built::Mongo(MongoCluster::build(&mut sim, &params, Sharding::Range))
            }
            SystemKind::MongoCs => {
                Built::Mongo(MongoCluster::build(&mut sim, &params, Sharding::Hash))
            }
        };
        let b = Instant::now();
        match &store {
            Built::Sql(sql) => {
                sql.load(n);
                let horizon = simkit::secs(cfg.warmup_secs + cfg.measure_secs);
                sql.start_checkpoints(&mut sim, horizon);
            }
            Built::Mongo(m) => m.load(n),
        }
        let c = Instant::now();
        tr.span(Some(point), build, Some(&unit), a, b, 0);
        tr.span(Some(point), load, Some(&unit), b, c, n);

        let run_cfg = RunConfig {
            target_ops_per_sec: target,
            threads: cfg.threads,
            warmup_secs: cfg.warmup_secs,
            measure_secs: cfg.measure_secs,
            seed: cfg.seed,
            n_records: n,
            max_scan_len: 1000,
        };
        let host = Rc::new(HostTime::default());
        let driven = store.driven(tr.enabled().then(|| host.clone()));
        let slicer = Rc::new(RefCell::new(Slicer::new(simkit::secs(SLICE_SECS))));
        let d = Instant::now();
        slicer.borrow_mut().last = d;
        let res = run_workload_observed(
            &mut sim,
            driven,
            self.workload,
            &run_cfg,
            Some(slicer.clone()),
        );
        let e = Instant::now();
        let slicer = slicer.borrow();
        let mut units_ms = slicer.units_ms.clone();
        units_ms.push((e - slicer.last).as_secs_f64() * 1e3);

        if tr.enabled() {
            // do_op, done and the rest (kernel + engine continuations) tile
            // the run span; the per-op calls are aggregated, so they are
            // laid end to end inside it.
            let run = tr.span(
                Some(point),
                "ycsb.run_workload",
                Some(&unit),
                d,
                e,
                slicer.ops,
            );
            let s0 = tr.start_ns(run);
            let s1 = s0 + host.do_op_ns.get();
            let s2 = s1 + host.done_ns.get();
            let s3 = (s0 + nanos(e - d)).max(s2);
            let calls = host.calls.get();
            tr.span_ns(Some(run), "ycsb.do_op", Some(&unit), s0, s1, calls);
            tr.span_ns(Some(run), "ycsb.done", Some(&unit), s1, s2, calls);
            tr.span_ns(
                Some(run),
                "simkit.kernel",
                Some(&unit),
                s2,
                s3,
                sim.events_executed(),
            );
        }
        tr.close(point);
        stats.add(&store, &sim, cfg.warmup_secs + cfg.measure_secs);
        Point {
            setup: c - a,
            run: e - d,
            units_ms,
            res,
        }
    }

    /// The point's table row; digests its simulated outputs on the way.
    fn row(&self, system: SystemKind, target: f64, res: &RunResult, fnv: &mut Fnv) -> Vec<String> {
        fnv.f64(target);
        fnv.f64(res.achieved_ops);
        for op in [OpType::Read, OpType::Update, OpType::Insert, OpType::Scan] {
            if let Some(l) = res.latencies.get(&op) {
                fnv.u64(op as u64);
                for v in [l.mean_ms, l.p95_ms, l.p99_ms, l.std_err_ms] {
                    fnv.f64(v);
                }
                fnv.u64(l.count);
            }
        }
        fnv.u64(u64::from(res.crashed));

        let mut row = vec![
            system.label().to_string(),
            format!("{target:.0}"),
            format!("{:.0}", res.achieved_ops),
        ];
        row.extend(self.ops.iter().map(|op| match res.latencies.get(op) {
            Some(l) => format!("{:.1} ±{:.1}", l.mean_ms, l.std_err_ms),
            None => "--".to_string(),
        }));
        row.push(if res.crashed {
            "CRASH".into()
        } else {
            String::new()
        });
        row
    }
}

/// One sweep point's host timings and simulated result.
struct Point {
    setup: Duration,
    run: Duration,
    units_ms: Vec<f64>,
    res: RunResult,
}

/// A freshly built and loaded store, typed so its counters stay readable.
enum Built {
    Sql(Rc<SqlCluster>),
    Mongo(Rc<MongoCluster>),
}

impl Built {
    /// The store the YCSB driver runs against: the store itself, or a wrapper
    /// that times `do_op` and completion callbacks into `host`.
    fn driven(&self, host: Option<Rc<HostTime>>) -> Rc<dyn Store> {
        match (self, host) {
            (Built::Sql(s), None) => s.clone(),
            (Built::Mongo(m), None) => m.clone(),
            (Built::Sql(s), Some(host)) => Rc::new(Timed {
                inner: s.clone(),
                host,
            }),
            (Built::Mongo(m), Some(host)) => Rc::new(Timed {
                inner: m.clone(),
                host,
            }),
        }
    }
}

/// Host time inside `Store::do_op` and inside completion callbacks.
#[derive(Default)]
struct HostTime {
    do_op_ns: Cell<u64>,
    done_ns: Cell<u64>,
    calls: Cell<u64>,
}

/// A passive `Store` wrapper: forwards every call unchanged and only
/// reads the host clock around them.
struct Timed<T> {
    inner: Rc<T>,
    host: Rc<HostTime>,
}

impl<T: Store + 'static> Store for Timed<T> {
    fn do_op(self: Rc<Self>, sim: &mut S, op: Op, done: Done) {
        let host = self.host.clone();
        let timed_done: Done = Box::new(move |sim, result| {
            let t = Instant::now();
            done(sim, result);
            host.done_ns.set(host.done_ns.get() + nanos(t.elapsed()));
        });
        let done_before = self.host.done_ns.get();
        let t = Instant::now();
        self.inner.clone().do_op(sim, op, timed_done);
        let spent = nanos(t.elapsed());
        // A store that completes synchronously ran the callback inside
        // do_op; count that time once, as callback time.
        let nested = self.host.done_ns.get() - done_before;
        let h = &self.host;
        h.do_op_ns
            .set(h.do_op_ns.get() + spent.saturating_sub(nested));
        h.calls.set(h.calls.get() + 1);
    }

    fn crashed(&self) -> bool {
        self.inner.crashed()
    }

    fn shard_of(&self, key: u64) -> Option<usize> {
        self.inner.shard_of(key)
    }
}

/// Cuts a sweep point into simulated slices and notes the host time each
/// took. Completions are its only clock, so a slice ends at the first
/// completion past its boundary.
struct Slicer {
    slice: SimTime,
    next: SimTime,
    last: Instant,
    units_ms: Vec<f64>,
    ops: u64,
}

impl Slicer {
    fn new(slice: SimTime) -> Slicer {
        Slicer {
            slice,
            next: slice,
            last: Instant::now(),
            units_ms: Vec::new(),
            ops: 0,
        }
    }
}

impl OpObserver for Slicer {
    fn on_op(&mut self, _: OpType, _: Option<usize>, _: u32, at: SimTime, _: SimTime) {
        self.ops += 1;
        if at >= self.next {
            let now = Instant::now();
            self.units_ms.push((now - self.last).as_secs_f64() * 1e3);
            self.last = now;
            self.next = (at / self.slice + 1) * self.slice;
        }
    }
}

/// Simulated-fidelity counters over a sweep, plus the kernel's arena
/// high-water mark.
#[derive(Default)]
struct LayerStats {
    mongo_hits: u64,
    mongo_misses: u64,
    mongo_points: u64,
    write_lock_frac: f64,
    migrations: u64,
    sql_hits: u64,
    sql_misses: u64,
    arena_peak: usize,
}

impl LayerStats {
    fn add(&mut self, store: &Built, sim: &S, elapsed_secs: f64) {
        self.arena_peak = self.arena_peak.max(sim.arena_capacity());
        match store {
            Built::Mongo(m) => {
                for c in &m.caches {
                    let c = c.borrow();
                    self.mongo_hits += c.hits();
                    self.mongo_misses += c.misses();
                }
                self.mongo_points += 1;
                self.write_lock_frac += m.write_lock_fraction(elapsed_secs);
                self.migrations += m.migrations.get();
            }
            Built::Sql(s) => {
                for node in &s.nodes {
                    let node = node.borrow();
                    self.sql_hits += node.pool.hits();
                    self.sql_misses += node.pool.misses();
                }
            }
        }
    }

    fn finish(self) -> BTreeMap<&'static str, f64> {
        let rate = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        BTreeMap::from([
            (
                "docstore.cache_hit_rate",
                rate(self.mongo_hits, self.mongo_misses),
            ),
            (
                "docstore.write_lock_frac",
                self.write_lock_frac / self.mongo_points.max(1) as f64,
            ),
            ("docstore.migrations", self.migrations as f64),
            (
                "sqlengine.bufpool_hit_rate",
                rate(self.sql_hits, self.sql_misses),
            ),
            ("simkit.arena_peak", self.arena_peak as f64),
        ])
    }
}
