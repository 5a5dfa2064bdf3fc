//! Kernel perf-trajectory harness: REAL wall-clock event throughput of
//! the simulation kernel itself. Output is JSON on stdout (committed as
//! `results/BENCH_kernel.json`, schema-gated but not byte-diff gated:
//! timings are host-dependent by design — see PERFORMANCE.md for how to
//! read the trajectory).
//!
//! Sections of the artifact:
//!   * `workloads` — synthetic kernel stress runs, one `calendar` row
//!     each. `drain` times the pop path alone over a bulk-injected trace;
//!     `timers` holds a large pending population; `queueing` is a closed
//!     queueing network hammering the resource grant/completion path.
//!   * `headline` — the drain rate in events/sec.
//!   * `engine_points` — the same kernel doing real work: a PDW TPC-H Q5
//!     phase replay on `ClusterExec`, a YCSB workload-A serving run on
//!     Mongo-CS and a workload-D run on Mongo-AS, whose hot chunk leaves
//!     most pending events at one instant. These are the numbers to watch
//!     across PRs. Each point also reports `scan_per_pop`, the calendar
//!     queue's bucket entries scanned per search (`Sim::queue_work`).
//!     Unlike the timings it is deterministic, and `validate_bench` bounds
//!     it on both YCSB points.
//!
//! `--smoke` shrinks every dimension for CI; `--iters N` sets the
//! best-of-N repeat count (default 3).

use std::rc::Rc;
use std::time::Instant;

use bench::meta;
use cluster::{ClusterExec, Params};
use docstore::{MongoCluster, Sharding};
use elephants_core::serving::ServingConfig;
use pdw::{load_pdw, PdwEngine};
use simkit::{QueueWork, ResourceId, Sim};
use tpch::{generate, GenConfig};
use ycsb::driver::{run_workload, RunConfig};
use ycsb::workload::Workload;

/// World state shared by the synthetic workloads.
struct World {
    fired: u64,
    reschedules_left: u64,
}

/// splitmix64 finalizer: deterministic integer mixing in place of an RNG
/// (no random stream, so nothing to seed — every run is identical).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One self-rescheduling timer: fires, then reschedules itself with a new
/// pseudo-random delay while the shared budget lasts. Keeps the pending
/// population near-constant until the tail drains.
fn tick(sim: &mut Sim<World>, id: u64, round: u64) {
    let delay = mix(id.wrapping_mul(0x0100_0000_01B3).wrapping_add(round)) % 1_000_000 + 1;
    sim.after(delay, move |s, w| {
        w.fired += 1;
        if w.reschedules_left > 0 {
            w.reschedules_left -= 1;
            tick(s, id, round + 1);
        }
    });
}

/// Pure dequeue stress: bulk-inject a pre-generated arrival trace of
/// `total` one-shot events (untimed — trace replay injects up front),
/// then time draining it. This isolates the scheduler's pop path: an
/// O(1) short-bucket scan per event in the calendar queue.
fn run_drain(total: u64) -> (u64, f64) {
    let mut sim: Sim<World> = Sim::new();
    let mut w = World {
        fired: 0,
        reschedules_left: 0,
    };
    // ~500 ns mean spacing: a dense arrival trace spanning total/2 µs.
    let span = total.saturating_mul(500);
    for id in 0..total {
        let at = mix(id) % span + 1;
        sim.after(at, |_s, w| w.fired += 1);
    }
    let t0 = Instant::now();
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "every injected arrival must fire");
    assert_eq!(sim.events_executed(), total);
    (total, secs)
}

/// Timer stress: `pending` concurrent timers, `total` events overall.
/// Returns (events executed, wall-clock seconds including scheduling).
fn run_timers(pending: u64, total: u64) -> (u64, f64) {
    let mut sim: Sim<World> = Sim::new();
    let mut w = World {
        fired: 0,
        reschedules_left: total.saturating_sub(pending),
    };
    let t0 = Instant::now();
    for id in 0..pending {
        tick(&mut sim, id, 0);
    }
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "timer budget must be fully consumed");
    assert_eq!(sim.events_executed(), total);
    (total, secs)
}

/// One customer hop in the closed queueing network: request a
/// pseudo-random pool for a pseudo-random service time, and on completion
/// hop again while the shared budget lasts.
fn hop(sim: &mut Sim<World>, pools: Rc<Vec<ResourceId>>, customer: u64, round: u64) {
    let h = mix(customer
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(round));
    let r = pools[(h as usize) % pools.len()];
    let service = (h >> 32) % 9_900 + 100;
    sim.use_resource(r, service, move |s, w| {
        w.fired += 1;
        if w.reschedules_left > 0 {
            w.reschedules_left -= 1;
            hop(s, pools, customer, round + 1);
        }
    });
}

/// Closed queueing network: `customers` customers cycling over `pools`
/// 4-server pools until `total` completions have fired. Hammers the
/// grant/completion path.
fn run_queueing(customers: u64, pools: usize, total: u64) -> (u64, f64) {
    let mut sim: Sim<World> = Sim::new();
    let pools: Rc<Vec<ResourceId>> =
        Rc::new((0..pools).map(|_| sim.add_resource("pool", 4)).collect());
    let mut w = World {
        fired: 0,
        reschedules_left: total.saturating_sub(customers),
    };
    let t0 = Instant::now();
    for c in 0..customers {
        hop(&mut sim, Rc::clone(&pools), c, 0);
    }
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "queueing budget must be fully consumed");
    (sim.events_executed(), secs)
}

/// Best-of-N wall-clock over a workload closure returning (result, secs);
/// the result is deterministic, so any run's will do.
fn best_of<T>(iters: usize, f: impl Fn() -> (T, f64)) -> (T, f64) {
    let (mut result, mut best) = f();
    for _ in 1..iters.max(1) {
        let (r, s) = f();
        result = r;
        best = best.min(s);
    }
    (result, best)
}

/// PDW TPC-H Q5 phase replay: record the resolved plan once, then replay
/// its phases on a fresh `ClusterExec` per iteration. This is the kernel
/// doing engine-grade work — phase barriers, per-node disk/CPU/NIC
/// requests — rather than synthetic ticks.
fn pdw_q5_point(sf: f64, paper: f64, iters: usize) -> ((u64, QueueWork), f64) {
    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let engine = PdwEngine::new(pdwcat);
    let (_, phases) = engine.run_query_recorded(&tpch::query(5));
    best_of(iters, || {
        let mut exec = ClusterExec::new(Params::paper_dss().scaled(paper / sf));
        let t0 = Instant::now();
        for ph in &phases {
            exec.run(ph.clone());
        }
        let secs = t0.elapsed().as_secs_f64();
        ((exec.events_executed(), exec.queue_work()), secs)
    })
}

/// YCSB serving run on a sharded Mongo cluster: the serving side's
/// open-loop arrival stream is the other engine-grade shape (many small
/// events, deep timer population).
fn ycsb_point(
    sharding: Sharding,
    workload: Workload,
    ops_per_sec: f64,
    measure_secs: f64,
    iters: usize,
) -> ((u64, QueueWork), f64) {
    let cfg = ServingConfig::default();
    best_of(iters, || {
        let params = cfg.params();
        let mut sim: Sim<()> = Sim::new();
        let m = MongoCluster::build(&mut sim, &params, sharding);
        m.load(cfg.n_records());
        let rc = RunConfig {
            target_ops_per_sec: ops_per_sec,
            threads: cfg.threads,
            warmup_secs: cfg.warmup_secs.min(measure_secs),
            measure_secs,
            seed: cfg.seed,
            n_records: cfg.n_records(),
            max_scan_len: 1000,
        };
        let t0 = Instant::now();
        run_workload(&mut sim, m, workload, &rc);
        let secs = t0.elapsed().as_secs_f64();
        ((sim.events_executed(), sim.queue_work()), secs)
    })
}

fn print_workload(name: &str, note: &str, (events, secs): (u64, f64), last: bool) {
    let eps = events as f64 / secs;
    println!("    {{");
    println!("      \"name\": \"{name}\",");
    println!("      \"note\": \"{note}\",");
    println!("      \"kernels\": [");
    println!(
        "        {{ \"kernel\": \"calendar\", \"events\": {events}, \"secs\": {secs:.4}, \
         \"events_per_sec\": {eps:.0} }}"
    );
    println!("      ]");
    println!("    }}{}", if last { "" } else { "," });
}

fn print_engine_point(name: &str, ((events, work), secs): ((u64, QueueWork), f64), last: bool) {
    println!(
        "    {{ \"name\": \"{name}\", \"events\": {events}, \"secs\": {secs:.4}, \
         \"events_per_sec\": {:.0}, \"scan_per_pop\": {:.2} }}{}",
        events as f64 / secs,
        work.scan_per_pop(),
        if last { "" } else { "," }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = bench::has_flag(&args, "--smoke");
    let iters = bench::arg_usize(&args, "--iters", if smoke { 1 } else { 3 });

    // Workload dimensions: the timer population is sized well past L2 so
    // bucket locality matters; totals keep full runs under a minute.
    let (t_pending, t_total) = if smoke {
        (2_048, 50_000)
    } else {
        (131_072, 2_000_000)
    };
    let (q_customers, q_pools, q_total) = if smoke {
        (200, 8, 20_000)
    } else {
        (2_000, 16, 1_000_000)
    };
    let d_total = if smoke { 16_384 } else { 4_000_000 };

    let drain = best_of(iters, || run_drain(d_total));
    let timers = best_of(iters, || run_timers(t_pending, t_total));
    let queueing = best_of(iters, || run_queueing(q_customers, q_pools, q_total));

    // Engine-grade trajectory points.
    let pdw = if smoke {
        pdw_q5_point(0.01, 250.0, 1)
    } else {
        pdw_q5_point(0.02, 1000.0, iters)
    };
    let ycsb_secs = if smoke { 2.0 } else { 30.0 };
    let ycsb_a = ycsb_point(Sharding::Hash, Workload::A, 20_000.0, ycsb_secs, iters);
    let ycsb_d = ycsb_point(Sharding::Range, Workload::D, 80_000.0, ycsb_secs, iters);

    // ---- JSON artifact --------------------------------------------------
    println!("{{");
    println!("  \"bench\": \"kernel\",");
    println!("  \"smoke\": {smoke},");
    println!("{},", meta::machine_json("  "));
    println!(
        "{},",
        meta::config_json("  ", iters, "best_of_n_wall_clock")
    );
    println!("  \"workloads\": [");
    print_workload(
        "drain",
        &format!(
            "pre-injected arrival trace, {d_total} events; timed region is the drain loop only"
        ),
        drain,
        false,
    );
    print_workload(
        "timers",
        &format!("{t_pending} pending self-rescheduling timers, {t_total} events"),
        timers,
        false,
    );
    print_workload(
        "queueing",
        &format!(
            "closed network: {q_customers} customers over {q_pools} 4-server pools, {q_total} completions"
        ),
        queueing,
        true,
    );
    println!("  ],");
    println!("  \"headline\": {{");
    println!("    \"workload\": \"drain\",");
    println!("    \"events_per_sec\": {:.0}", drain.0 as f64 / drain.1);
    println!("  }},");
    println!("  \"engine_points\": [");
    print_engine_point("pdw_q5_phase_replay", pdw, false);
    print_engine_point("ycsb_workload_a", ycsb_a, false);
    print_engine_point("mongo_as_workload_d", ycsb_d, true);
    println!("  ]");
    println!("}}");
}
