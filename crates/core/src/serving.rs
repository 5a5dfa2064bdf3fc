//! The data-serving suite: YCSB sweeps over SQL-CS / Mongo-AS / Mongo-CS.

use cluster::Params;
use docstore::{MongoCluster, Sharding};
use obs::{MetricKey, MetricRegistry};
use simkit::{Sim, SimTime};
use sqlengine::SqlCluster;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use ycsb::driver::{run_workload_observed, OpObserver, RunConfig, RunResult};
use ycsb::workload::{OpType, Workload};

type S = Sim<()>;

/// The three systems of §3.4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SystemKind {
    SqlCs,
    MongoAs,
    MongoCs,
}

impl SystemKind {
    pub fn all() -> [SystemKind; 3] {
        [SystemKind::MongoAs, SystemKind::MongoCs, SystemKind::SqlCs]
    }

    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::SqlCs => "SQL-CS",
            SystemKind::MongoAs => "Mongo-AS",
            SystemKind::MongoCs => "Mongo-CS",
        }
    }
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Similitude factor: records and memory shrink by this (the paper's
    /// 640 M records → `640e6 / k`).
    pub k: f64,
    pub warmup_secs: f64,
    pub measure_secs: f64,
    pub threads: usize,
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            k: 2_500.0,
            warmup_secs: 4.0,
            measure_secs: 8.0,
            threads: 800,
            seed: 42,
        }
    }
}

impl ServingConfig {
    pub fn n_records(&self) -> u64 {
        ((640e6 / self.k) as u64).max(1_000)
    }

    pub fn params(&self) -> Params {
        Params::paper_ycsb().scaled_ycsb(self.k)
    }
}

/// One point of a latency-vs-throughput curve.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    pub system: SystemKind,
    pub workload: Workload,
    pub target_ops: f64,
    pub achieved_ops: f64,
    /// mean latency (ms) per op type.
    pub latency_ms: BTreeMap<OpType, f64>,
    /// standard error of the per-interval means (the paper's error bars).
    pub latency_stderr_ms: BTreeMap<OpType, f64>,
    pub crashed: bool,
}

impl SweepPoint {
    pub fn latency(&self, ty: OpType) -> Option<f64> {
        self.latency_ms.get(&ty).copied()
    }
}

/// Run one (system, workload, target) cell in a fresh simulation — the
/// paper drops and reloads between runs and flushes memory, so every run
/// starts cold.
pub fn run_point(
    cfg: &ServingConfig,
    system: SystemKind,
    workload: Workload,
    target_ops: f64,
) -> SweepPoint {
    run_point_inner(cfg, system, workload, target_ops, None)
}

fn run_point_inner(
    cfg: &ServingConfig,
    system: SystemKind,
    workload: Workload,
    target_ops: f64,
    observer: Option<Rc<RefCell<dyn OpObserver>>>,
) -> SweepPoint {
    let params = cfg.params();
    let n = cfg.n_records();
    let run_cfg = RunConfig {
        target_ops_per_sec: target_ops,
        threads: cfg.threads,
        warmup_secs: cfg.warmup_secs,
        measure_secs: cfg.measure_secs,
        seed: cfg.seed,
        n_records: n,
        max_scan_len: 1000,
    };
    let mut sim: S = Sim::new();
    let result: RunResult = match system {
        SystemKind::SqlCs => {
            let sql = SqlCluster::build(&mut sim, &params);
            sql.load(n);
            let horizon = simkit::secs(cfg.warmup_secs + cfg.measure_secs);
            sql.start_checkpoints(&mut sim, horizon);
            run_workload_observed(&mut sim, sql, workload, &run_cfg, observer)
        }
        SystemKind::MongoAs => {
            let m = MongoCluster::build(&mut sim, &params, Sharding::Range);
            m.load(n);
            run_workload_observed(&mut sim, m, workload, &run_cfg, observer)
        }
        SystemKind::MongoCs => {
            let m = MongoCluster::build(&mut sim, &params, Sharding::Hash);
            m.load(n);
            run_workload_observed(&mut sim, m, workload, &run_cfg, observer)
        }
    };
    SweepPoint {
        system,
        workload,
        target_ops,
        achieved_ops: result.achieved_ops,
        latency_ms: result
            .latencies
            .iter()
            .map(|(ty, l)| (*ty, l.mean_ms))
            .collect(),
        latency_stderr_ms: result
            .latencies
            .iter()
            .map(|(ty, l)| (*ty, l.std_err_ms))
            .collect(),
        crashed: result.crashed,
    }
}

/// Bridges the driver's per-op callback into the streaming registry,
/// assigning each client thread to a tenant round-robin (`client %
/// tenants`) — deterministic, stable across the run, and independent of
/// op timing. With no tenants every op is keyed `tenant: None`.
struct RegistryObserver {
    reg: MetricRegistry,
    engine: &'static str,
    tenants: u32,
}

impl OpObserver for RegistryObserver {
    fn on_op(
        &mut self,
        ty: OpType,
        shard: Option<usize>,
        client: u32,
        at: SimTime,
        latency: SimTime,
    ) {
        let tenant = (self.tenants > 0).then(|| client % self.tenants);
        let key = MetricKey::new(self.engine, ty.label(), shard, tenant);
        self.reg.observe(key, at, latency);
    }
}

/// [`run_point`] with a streaming latency profile attached: the
/// measurement interval is cut into `windows` fixed windows, client
/// threads are partitioned into `tenants` tenants (0 = untagged), and
/// every completed op feeds a [`MetricRegistry`] keyed `(engine, op,
/// shard, tenant)`. Render the windows with [`obs::serving::render`]; the
/// ring also retains the driver's post-measurement drain, which
/// [`obs::slo::evaluate`] reads. The observer is passive — the
/// `SweepPoint` is byte-identical to an unprofiled [`run_point`].
pub fn run_point_profiled(
    cfg: &ServingConfig,
    system: SystemKind,
    workload: Workload,
    target_ops: f64,
    windows: usize,
    tenants: u32,
) -> (SweepPoint, MetricRegistry) {
    let t0 = simkit::secs(cfg.warmup_secs);
    let window = simkit::secs(cfg.measure_secs / windows.max(1) as f64).max(1);
    // The driver drains in-flight ops for 5 s past the measurement end;
    // those completions land in windows past the profiled range and must
    // not evict it from the ring, so retain the drain's windows too.
    let cap = windows.max(1) + (simkit::secs(5.0) / window) as usize + 2;
    let obs = Rc::new(RefCell::new(RegistryObserver {
        reg: MetricRegistry::new(t0, window, cap),
        engine: system.label(),
        tenants,
    }));
    let point = run_point_inner(cfg, system, workload, target_ops, Some(obs.clone()));
    let obs = Rc::try_unwrap(obs)
        .ok()
        .expect("driver released observer")
        .into_inner();
    (point, obs.reg)
}

/// §3.4.2 load times at paper scale (minutes).
pub fn load_times_minutes(cfg: &ServingConfig) -> Vec<(&'static str, f64)> {
    let p = cfg.params();
    let records = 640e6 as u64;
    vec![
        (
            "Mongo-AS (pre-split chunks)",
            records as f64 / (p.nodes as f64 * p.mongo_as_insert_rate_per_node) / 60.0,
        ),
        (
            "SQL-CS (per-insert transactions)",
            records as f64 / (p.nodes as f64 * p.sql_insert_rate_per_node) / 60.0,
        ),
        (
            "Mongo-CS",
            records as f64 / (p.nodes as f64 * p.mongo_cs_insert_rate_per_node) / 60.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServingConfig {
        ServingConfig {
            k: 10_000.0,
            warmup_secs: 1.0,
            measure_secs: 2.0,
            threads: 100,
            seed: 7,
        }
    }

    #[test]
    fn workload_c_point_runs_for_all_systems() {
        let cfg = tiny();
        for system in SystemKind::all() {
            let p = run_point(&cfg, system, Workload::C, 2_000.0);
            assert!(p.achieved_ops > 100.0, "{:?}: {}", system, p.achieved_ops);
            assert!(p.latency(OpType::Read).unwrap() > 0.0);
            assert!(!p.crashed, "{system:?} must survive workload C");
        }
    }

    #[test]
    fn profiled_point_is_byte_identical_and_windowed() {
        let cfg = tiny();
        let plain = run_point(&cfg, SystemKind::SqlCs, Workload::A, 2_000.0);
        let (prof, reg) = run_point_profiled(&cfg, SystemKind::SqlCs, Workload::A, 2_000.0, 4, 0);
        // Passivity: the observer must not change any result field.
        assert_eq!(format!("{plain:?}"), format!("{prof:?}"));
        let total: u64 = (0..4)
            .map(|w| reg.merged_window("SQL-CS", "read", w).count())
            .sum();
        assert!(total > 0, "windowed reads recorded");
        assert!(
            reg.latency_keys().any(|k| k.shard.is_some()),
            "shard labels present"
        );
        assert!(reg.tenants("SQL-CS", "read").is_empty(), "untagged");
    }

    #[test]
    fn tenant_profile_matches_plain_profile_bit_for_bit() {
        let cfg = tiny();
        let plain = run_point(&cfg, SystemKind::SqlCs, Workload::A, 2_000.0);
        let (point, reg) = run_point_profiled(&cfg, SystemKind::SqlCs, Workload::A, 2_000.0, 4, 4);
        // Passivity again, with tenant tagging on.
        assert_eq!(format!("{plain:?}"), format!("{point:?}"));
        assert_eq!(reg.tenants("SQL-CS", "read"), vec![0, 1, 2, 3]);
    }

    #[test]
    fn load_times_roughly_match_paper() {
        let cfg = tiny();
        let times = load_times_minutes(&cfg);
        let get = |name: &str| {
            times
                .iter()
                .find(|(n, _)| n.contains(name))
                .map(|(_, t)| *t)
                .unwrap()
        };
        assert!((get("Mongo-AS") - 114.0).abs() < 10.0);
        assert!((get("SQL-CS") - 146.0).abs() < 10.0);
        assert!((get("Mongo-CS") - 45.0).abs() < 10.0);
    }
}
