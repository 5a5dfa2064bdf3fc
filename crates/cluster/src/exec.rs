//! Phase execution: charge a query phase's per-node work against the shared
//! cluster resources on the DES, and emit a [`Span`] for every phase.
//!
//! Engines describe a phase as *work volumes* — bytes to scan, CPU seconds
//! to burn, bytes to ship — and [`ClusterExec`] turns each volume into
//! `simkit` resource requests on the node's disks, CPU pool, and NIC
//! directions. Makespans therefore come out of the event loop (including
//! any queueing behind other requests), not from closed-form `max(io, cpu)`
//! arithmetic, and every phase records where its time went.
//!
//! Two phase styles cover both engines:
//!
//! * **[`Phase`]** — a flat batch of work volumes issued together (PDW's
//!   scans, DMS shuffles, gathers; MapReduce's shuffle). Every request is
//!   traced individually, so the span carries one [`Contrib`] per request.
//! * **[`TaskPhase`]** — *slot-scheduled* tasks (MapReduce's map and reduce
//!   phases): each [`Task`] is pinned to a node, runs its [`TaskStep`]s in
//!   sequence, and holds one of the phase's per-node slots for its whole
//!   life — which is what produces task *waves*. The span aggregates the
//!   phase's service/queue-wait totals per resource kind.
//!
//! ## Work resolution
//!
//! * [`Phase::disk_seq`] — `bytes` of sequential I/O on a node, striped
//!   evenly across all of its disks: each disk serves `bytes/D` at its
//!   `node_bw/D` share, so all disks run concurrently for `bytes/node_bw`.
//! * [`Phase::cpu`] — `lanes` parallel workers of `per_lane_secs` each on
//!   the node's k-core pool (lanes ≤ cores ⇒ no queueing).
//! * [`Phase::net_send`] / [`Phase::net_recv`] — one request per NIC
//!   direction of `bytes / bw`.
//! * [`Phase::gather_recv`] — ingest at the control node's single receive
//!   link; concurrent senders serialize there, which is exactly how a
//!   gather's cost accrues.
//! * [`TaskStep`] variants bind to the node's CPU pool, its individual
//!   disks, its send NIC, or its capacity-1 HDFS ingest link (created on
//!   first use; see [`TaskStep::HdfsRead`]).
//!
//! Phases run serially on one [`ClusterExec`] (the event queue drains
//! between phases), matching PDW's step-at-a-time DSQL plans and
//! MapReduce's map → shuffle → reduce barriers; the resource *accounting*
//! (busy integrals, queue waits) accumulates across the whole run for
//! end-of-query utilization reports.
//!
//! ## Concurrent mixes
//!
//! [`ClusterExec::run_mix`] lifts the serial restriction for *whole jobs*:
//! each [`JobSpec`] is an ordered chain of phases admitted at a seeded
//! arrival offset, and every job's chain advances phase-by-phase (intra-job
//! barriers preserved) while different jobs contend for the same disks,
//! CPU pools, and NICs concurrently. Dispatch inside a resource queue is
//! fair across jobs (each job's requests carry its admission index as a
//! client tag; see `simkit::resource`), and the whole schedule is
//! deterministic: admission order is the canonical sort by
//! `(arrival, name)` — independent of submission order — and ties inside
//! the event loop break on (time, schedule seq), so reruns are
//! byte-identical. Phase spans land in the trace in completion order with
//! `job/phase` names.

use crate::params::Params;
use crate::topo::Cluster;
use simkit::probe::{Probe, ProbeEvent};
use simkit::resource::{report, ResourceReport};
use simkit::trace::{Contrib, ResKind, Span, Trace};
use simkit::{as_secs, secs, Latch, QueueWork, ReqTiming, ResourceId, Sim, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// A unit of work inside a phase, not yet bound to concrete resources.
#[derive(Clone, Debug)]
enum Work {
    /// Sequential disk I/O of `bytes` on `node` at aggregate `node_bw`.
    DiskSeq {
        node: usize,
        bytes: f64,
        node_bw: f64,
    },
    /// `lanes` parallel CPU workers of `per_lane_secs` each on `node`.
    Cpu {
        node: usize,
        per_lane_secs: f64,
        lanes: usize,
    },
    /// Outbound transfer of `bytes` from `node` at `bw`.
    NetSend { node: usize, bytes: f64, bw: f64 },
    /// Inbound transfer of `bytes` into `node` at `bw`.
    NetRecv { node: usize, bytes: f64, bw: f64 },
    /// Ingest of `bytes` at the control node's receive link at `bw`.
    GatherRecv { bytes: f64, bw: f64 },
}

/// Builder for one phase: a named batch of work items issued together
/// after `setup` seconds of fixed overhead.
#[derive(Clone, Debug)]
pub struct Phase {
    name: String,
    node: Option<usize>,
    setup: f64,
    work: Vec<Work>,
}

impl Phase {
    pub fn new(name: impl Into<String>) -> Phase {
        Phase {
            name: name.into(),
            node: None,
            setup: 0.0,
            work: Vec::new(),
        }
    }

    /// The phase's name as given to [`Phase::new`] (mix re-planners inspect
    /// it to recognize e.g. `shuffle:`/`replicate:` movement phases).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fixed setup overhead in seconds.
    pub fn setup_secs(&self) -> f64 {
        self.setup
    }

    /// Pin the phase's span to one node (default: cluster-wide).
    pub fn on_node(mut self, node: usize) -> Phase {
        self.node = Some(node);
        self
    }

    /// Fixed overhead paid before any work is issued (step startup,
    /// round-trip latencies).
    pub fn setup(mut self, secs: f64) -> Phase {
        self.setup += secs;
        self
    }

    /// Sequential I/O of `bytes` on `node`, striped across all its disks
    /// at aggregate bandwidth `node_bw` bytes/sec.
    pub fn disk_seq(&mut self, node: usize, bytes: f64, node_bw: f64) -> &mut Phase {
        if bytes > 0.0 {
            self.work.push(Work::DiskSeq {
                node,
                bytes,
                node_bw,
            });
        }
        self
    }

    /// CPU work on `node`: `lanes` parallel workers, `per_lane_secs` each.
    pub fn cpu(&mut self, node: usize, per_lane_secs: f64, lanes: usize) -> &mut Phase {
        if per_lane_secs > 0.0 && lanes > 0 {
            self.work.push(Work::Cpu {
                node,
                per_lane_secs,
                lanes,
            });
        }
        self
    }

    /// Outbound network transfer from `node`.
    pub fn net_send(&mut self, node: usize, bytes: f64, bw: f64) -> &mut Phase {
        if bytes > 0.0 {
            self.work.push(Work::NetSend { node, bytes, bw });
        }
        self
    }

    /// Inbound network transfer into `node`.
    pub fn net_recv(&mut self, node: usize, bytes: f64, bw: f64) -> &mut Phase {
        if bytes > 0.0 {
            self.work.push(Work::NetRecv { node, bytes, bw });
        }
        self
    }

    /// Ingest `bytes` at the control node's receive link.
    pub fn gather_recv(&mut self, bytes: f64, bw: f64) -> &mut Phase {
        if bytes > 0.0 {
            self.work.push(Work::GatherRecv { bytes, bw });
        }
        self
    }
}

// ---------------------------------------------------------------------------
// Slot-scheduled task phases (the MapReduce execution model)
// ---------------------------------------------------------------------------

/// One sequential step of a slot-scheduled [`Task`].
///
/// Unlike [`Phase`] work volumes, zero-sized steps are *not* elided: a
/// zero-byte read still enqueues on the (possibly busy) ingest link, which
/// is how an empty-file map task can stall behind a neighbour's full read.
#[derive(Clone, Debug)]
pub enum TaskStep {
    /// Fixed latency (task startup, injected timeouts); holds no resource.
    Delay { secs: f64 },
    /// Read `bytes` through the node's shared HDFS ingest link at `bw`
    /// bytes/sec. The link is a capacity-1 resource distinct from the raw
    /// disks (the paper's testdfsio measured ~400 MB/s/node aggregate vs
    /// ~800 MB/s raw), so concurrent readers on one node serialize.
    HdfsRead { bytes: u64, bw: f64 },
    /// One core of the node's CPU pool for `secs`.
    Cpu { secs: f64 },
    /// Sequential write of `bytes` to local disk `disk` (modulo the node's
    /// disk count) at the cluster's sequential disk bandwidth.
    DiskWrite { disk: usize, bytes: u64 },
    /// Replicated HDFS output write: the local disk write of `bytes` and
    /// the replication traffic (`net_bytes` on the node's send NIC at
    /// `net_bw`) run concurrently; the step completes when both drain.
    HdfsWrite {
        disk: usize,
        bytes: u64,
        net_bytes: u64,
        net_bw: f64,
    },
}

/// A slot-scheduled task: pinned to one node (modulo cluster size), running
/// its steps in order while holding one of the phase's per-node slots for
/// its entire life.
#[derive(Clone, Debug)]
pub struct Task {
    node: usize,
    steps: Vec<TaskStep>,
    fail_wasting: Option<f64>,
}

impl Task {
    pub fn on(node: usize) -> Task {
        Task {
            node,
            steps: Vec::new(),
            fail_wasting: None,
        }
    }

    /// Append one step to the task's execution chain.
    pub fn step(mut self, step: TaskStep) -> Task {
        self.steps.push(step);
        self
    }

    /// Inject one failure: the first attempt burns `secs` of pure delay
    /// while holding its slot (the half-done work a dying worker throws
    /// away), then releases the slot and re-enqueues a fresh attempt at
    /// the back of the node's queue — Hadoop's task-level retry.
    pub fn fail_once_wasting(mut self, secs: f64) -> Task {
        self.fail_wasting = Some(secs);
        self
    }
}

/// A named batch of [`Task`]s dispatched FIFO in task order onto per-node
/// slot pools, after `setup` seconds of fixed overhead.
#[derive(Clone, Debug)]
pub struct TaskPhase {
    name: String,
    setup: f64,
    slots_per_node: u32,
    tasks: Vec<Task>,
}

impl TaskPhase {
    pub fn new(name: impl Into<String>, slots_per_node: u32) -> TaskPhase {
        TaskPhase {
            name: name.into(),
            setup: 0.0,
            slots_per_node,
            tasks: Vec::new(),
        }
    }

    /// Fixed overhead paid before any task is dispatched (job submission,
    /// distributed-cache setup).
    pub fn setup(mut self, secs: f64) -> TaskPhase {
        self.setup += secs;
        self
    }

    /// Append one task (dispatch order is task order).
    pub fn task(&mut self, task: Task) -> &mut TaskPhase {
        self.tasks.push(task);
        self
    }
}

/// Outcome of [`ClusterExec::run_tasks`]. The phase's [`Span`] goes to the
/// trace like any other phase.
#[derive(Clone, Copy, Debug)]
pub struct TaskPhaseReport {
    /// Absolute sim time in seconds when the last task completed (equal to
    /// phase start + setup for an empty phase).
    pub end_secs: f64,
    /// Same instant in integer nanoseconds — use this for exact arithmetic
    /// (e.g. job-relative offsets on a shared executor).
    pub end: SimTime,
    /// Tasks that failed once and were re-run.
    pub retries: u32,
}

type Thunk = Box<dyn FnOnce(&mut Sim<()>)>;

/// A per-node pool of task slots. A slot is held for a task's whole life,
/// which is what produces task *waves*; waiting tasks queue FIFO.
struct SlotPool {
    free: u32,
    queue: VecDeque<Thunk>,
}

impl SlotPool {
    fn new(slots: u32) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(SlotPool {
            free: slots,
            queue: VecDeque::new(),
        }))
    }

    fn acquire(pool: &Rc<RefCell<Self>>, sim: &mut Sim<()>, run: Thunk) {
        let to_run = {
            let mut p = pool.borrow_mut();
            if p.free > 0 {
                p.free -= 1;
                Some(run)
            } else {
                p.queue.push_back(run);
                None
            }
        };
        if let Some(t) = to_run {
            run_now(sim, t);
        }
    }

    fn release(pool: &Rc<RefCell<Self>>, sim: &mut Sim<()>) {
        let next = {
            let mut p = pool.borrow_mut();
            match p.queue.pop_front() {
                Some(t) => Some(t),
                None => {
                    p.free += 1;
                    None
                }
            }
        };
        if let Some(t) = next {
            run_now(sim, t);
        }
    }
}

fn run_now(sim: &mut Sim<()>, t: Thunk) {
    // Schedule at now to keep the event-loop borrow discipline simple.
    sim.schedule_in(0, Box::new(move |sim, _| t(sim)));
}

/// A [`TaskStep`] bound to concrete resources and service times.
#[derive(Clone)]
enum BoundStep {
    Delay(SimTime),
    Acquire(ResourceId, SimTime),
    /// Two concurrent requests; the step completes when both drain.
    ForkTwo([(ResourceId, SimTime); 2]),
}

#[derive(Clone)]
struct BoundTask {
    node: usize,
    steps: Vec<BoundStep>,
    fail_wasting: Option<SimTime>,
}

/// Run a task's remaining steps in sequence, then `done`.
fn run_steps(sim: &mut Sim<()>, mut steps: std::vec::IntoIter<BoundStep>, done: Thunk) {
    let Some(step) = steps.next() else {
        done(sim);
        return;
    };
    match step {
        BoundStep::Delay(t) => sim.after(t, move |sim, _| run_steps(sim, steps, done)),
        BoundStep::Acquire(r, t) => {
            sim.request(r, t, Box::new(move |sim, _| run_steps(sim, steps, done)))
        }
        BoundStep::ForkTwo([(r1, t1), (r2, t2)]) => {
            let fin = Latch::with(2, move |sim: &mut Sim<()>, _| run_steps(sim, steps, done));
            let f1 = fin.clone();
            sim.request(r1, t1, Box::new(move |sim, _| f1.count_down(sim)));
            sim.request(r2, t2, Box::new(move |sim, _| fin.count_down(sim)));
        }
    }
}

/// Build a task's execution thunk: run the chain, release the slot at the
/// end. A failing attempt wastes its delay, releases the slot, and
/// re-enqueues a fresh attempt (counted in `retries`).
fn task_body(task: BoundTask, pool: Rc<RefCell<SlotPool>>, retries: Rc<Cell<u32>>) -> Thunk {
    Box::new(move |sim: &mut Sim<()>| {
        let node = task.node;
        sim.emit_probe(ProbeEvent::TaskStarted {
            at: sim.now(),
            node,
        });
        if let Some(wasted) = task.fail_wasting {
            sim.after(wasted, move |sim, _| {
                retries.set(retries.get() + 1);
                sim.emit_probe(ProbeEvent::TaskRetried {
                    at: sim.now(),
                    node,
                });
                let fresh = BoundTask {
                    fail_wasting: None,
                    ..task
                };
                let retry = task_body(fresh, pool.clone(), retries);
                SlotPool::release(&pool, sim);
                SlotPool::acquire(&pool, sim, retry);
            });
            return;
        }
        run_steps(
            sim,
            task.steps.into_iter(),
            Box::new(move |sim| {
                sim.emit_probe(ProbeEvent::TaskFinished {
                    at: sim.now(),
                    node,
                });
                SlotPool::release(&pool, sim)
            }),
        );
    })
}

/// One job in a concurrent mix: a named, ordered chain of [`Phase`]s
/// admitted at `arrival_secs` (relative to [`ClusterExec::run_mix`] start).
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub name: String,
    pub arrival_secs: f64,
    pub phases: Vec<Phase>,
}

/// Completion record for one job of a mix, in canonical
/// `(arrival, name)` order regardless of submission order.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub name: String,
    /// Admission offset relative to mix start, as submitted.
    pub arrival_secs: f64,
    /// Absolute sim time (seconds) when the job's last phase completed.
    pub end_secs: f64,
    /// Number of phases the job ran.
    pub phases: usize,
}

impl JobOutcome {
    /// Wall time from admission to completion.
    pub fn makespan_secs(&self) -> f64 {
        self.end_secs - self.arrival_secs
    }
}

/// Live context handed to a job's [`Replanner`] at a phase boundary.
pub struct ReplanCtx<'a> {
    /// The job's name as submitted.
    pub job: &'a str,
    /// Current sim time in seconds.
    pub now_secs: f64,
    /// Phases the job has completed so far.
    pub completed: usize,
    /// The not-yet-started tail of the job's phase chain, in run order.
    pub remaining: &'a [Phase],
}

/// A job's re-plan callback, invoked at every phase boundary (including
/// admission, before the first phase, and after the last, when `remaining`
/// is empty). Returning `Some(tail)` replaces the job's not-yet-started
/// phases; `None` keeps them. Boundaries are deterministic event-loop
/// instants, so any deterministic callback preserves byte-reproducibility;
/// returning `None` everywhere (or an identical tail) leaves the schedule
/// bitwise unchanged.
pub type Replanner = Box<dyn FnMut(&ReplanCtx<'_>) -> Option<Vec<Phase>>>;

/// A [`JobSpec`] plus an optional mid-mix re-planner for
/// [`ClusterExec::run_mix_adaptive`].
pub struct MixJob {
    pub spec: JobSpec,
    pub replan: Option<Replanner>,
}

impl MixJob {
    /// A fixed-plan job (no re-planning) — exactly what
    /// [`ClusterExec::run_mix`] submits.
    pub fn fixed(spec: JobSpec) -> MixJob {
        MixJob { spec, replan: None }
    }

    /// A job whose tail may be rewritten at phase boundaries.
    pub fn adaptive(
        spec: JobSpec,
        replan: impl FnMut(&ReplanCtx<'_>) -> Option<Vec<Phase>> + 'static,
    ) -> MixJob {
        MixJob {
            spec,
            replan: Some(Box::new(replan)),
        }
    }
}

/// The static resource topology a mix phase binds against, detached from
/// [`ClusterExec`] so per-job continuations (which only hold the [`Sim`])
/// can bind phases lazily at each boundary. Binding is pure — it reads the
/// topology and computes service times, touching neither the event loop
/// nor the probe stream — so binding at a boundary instead of at mix start
/// cannot change a single event.
struct Binder {
    nodes: Vec<crate::topo::NodeRes>,
    control_rx: ResourceId,
}

impl Binder {
    /// Bind abstract work items to concrete resource requests (the mix-time
    /// twin of the serial path's resolution; both call this).
    fn resolve(&self, work: &[Work]) -> Vec<(ResourceId, ResKind, Option<usize>, SimTime)> {
        let mut reqs = Vec::new();
        for w in work {
            match *w {
                Work::DiskSeq {
                    node,
                    bytes,
                    node_bw,
                } => {
                    // bytes/D per disk at node_bw/D per-disk share: every
                    // disk is busy for the full bytes/node_bw.
                    let service = secs(bytes / node_bw);
                    for &d in &self.nodes[node].disks {
                        reqs.push((d, ResKind::Disk, Some(node), service));
                    }
                }
                Work::Cpu {
                    node,
                    per_lane_secs,
                    lanes,
                } => {
                    let service = secs(per_lane_secs);
                    for _ in 0..lanes {
                        reqs.push((self.nodes[node].cpu, ResKind::Cpu, Some(node), service));
                    }
                }
                Work::NetSend { node, bytes, bw } => {
                    reqs.push((
                        self.nodes[node].nic_send,
                        ResKind::Net,
                        Some(node),
                        secs(bytes / bw),
                    ));
                }
                Work::NetRecv { node, bytes, bw } => {
                    reqs.push((
                        self.nodes[node].nic_recv,
                        ResKind::Net,
                        Some(node),
                        secs(bytes / bw),
                    ));
                }
                Work::GatherRecv { bytes, bw } => {
                    reqs.push((self.control_rx, ResKind::Net, None, secs(bytes / bw)));
                }
            }
        }
        reqs
    }
}

/// One mix job's live state, owned by its continuation chain: the unbound
/// phase tail, the boundary re-planner, and the completion bookkeeping.
struct MixJobState {
    client: u32,
    name: String,
    arrival_secs: f64,
    completed: usize,
    remaining: VecDeque<Phase>,
    replan: Option<Replanner>,
}

/// Advance one mix job at a phase boundary: offer the re-planner the
/// not-yet-started tail, bind the next phase's work to concrete requests
/// *now* (span opened now, requests issued after setup, span closed when
/// the last drains), then recurse; record a [`JobOutcome`] when the chain
/// is exhausted.
fn advance_mix_job(
    sim: &mut Sim<()>,
    binder: Rc<Binder>,
    mut st: MixJobState,
    spans: Rc<RefCell<Vec<Span>>>,
    outcomes: Rc<RefCell<Vec<JobOutcome>>>,
) {
    if let Some(replan) = st.replan.as_mut() {
        st.remaining.make_contiguous();
        let (tail, _) = st.remaining.as_slices();
        let ctx = ReplanCtx {
            job: &st.name,
            now_secs: as_secs(sim.now()),
            completed: st.completed,
            remaining: tail,
        };
        if let Some(new_tail) = replan(&ctx) {
            st.remaining = new_tail.into();
        }
    }
    let Some(phase) = st.remaining.pop_front() else {
        outcomes.borrow_mut().push(JobOutcome {
            name: st.name,
            arrival_secs: st.arrival_secs,
            end_secs: as_secs(sim.now()),
            phases: st.completed,
        });
        return;
    };
    let name = format!("{}/{}", st.name, phase.name);
    let node = phase.node;
    let setup = secs(phase.setup);
    let reqs = binder.resolve(&phase.work);
    let client = st.client;
    let t0 = sim.now();
    let sid = sim.next_span_id();
    sim.emit_probe(ProbeEvent::SpanOpened {
        at: t0,
        name: &name,
        node,
        id: sid,
    });
    let issue_at = t0.saturating_add(setup);
    let contribs: Rc<RefCell<Vec<Contrib>>> = Rc::default();
    let n = reqs.len();
    let fin = {
        let contribs = contribs.clone();
        let (spans, outcomes) = (spans, outcomes);
        let mut st = st;
        Latch::with(n.max(1) as u64, move |sim: &mut Sim<()>, _| {
            let end = sim.now();
            sim.emit_probe(ProbeEvent::SpanClosed {
                at: end,
                name: &name,
                node,
                id: sid,
            });
            spans.borrow_mut().push(Span {
                name,
                node,
                start: t0,
                end,
                contribs: contribs.take(),
            });
            st.completed += 1;
            advance_mix_job(sim, binder, st, spans, outcomes);
        })
    };
    sim.schedule_at(
        issue_at,
        Box::new(move |sim, _| {
            if n == 0 {
                // Pure-setup phase: the latch's single count is the setup
                // delay itself.
                fin.count_down(sim);
                return;
            }
            // Mix phases interleave, so the span context is scoped to
            // exactly this issue loop (requests capture it at enqueue).
            let prev = sim.set_probe_ctx(Some(sid));
            for (rid, kind, node, service) in reqs {
                let sink = contribs.clone();
                let f = fin.clone();
                sim.request_as_timed(
                    rid,
                    service,
                    client,
                    Box::new(move |sim, _, t: ReqTiming| {
                        // Queue wait comes from the kernel's own request
                        // instants (start − enqueue), not re-derived from
                        // issue-time arithmetic that would fold any
                        // completion-dispatch skew into the wait.
                        sink.borrow_mut().push(Contrib {
                            kind,
                            node,
                            service: as_secs(service),
                            queue_wait: as_secs(t.queue_wait()),
                        });
                        f.count_down(sim);
                    }),
                );
            }
            sim.set_probe_ctx(prev);
        }),
    );
}

/// A cluster bound to its own event loop, executing phases and recording
/// a [`Trace`].
pub struct ClusterExec {
    sim: Sim<()>,
    cluster: Cluster,
    /// The control node's ingest link (gather target). Not part of
    /// [`Cluster`]'s data-node resources.
    control_rx: ResourceId,
    /// The shared work→request binding table (serial and mix paths).
    binder: Rc<Binder>,
    /// Per-node HDFS ingest links (capacity 1), created lazily on the
    /// first [`TaskStep::HdfsRead`] so runs that never touch HDFS (PDW)
    /// report exactly the resources they use.
    hdfs_read: Vec<ResourceId>,
    trace: Trace,
    /// When `Some`, [`ClusterExec::run`] appends a clone of every phase it
    /// executes (see [`ClusterExec::record_phases`]) so an engine's plan
    /// can be replayed later inside a concurrent mix.
    recording: Option<Vec<Phase>>,
}

impl ClusterExec {
    pub fn new(params: Params) -> ClusterExec {
        let mut sim: Sim<()> = Sim::new();
        let cluster = Cluster::build(&mut sim, params);
        let control_rx = sim.add_resource_kind("control.rx", ResKind::Net, 1);
        let binder = Rc::new(Binder {
            nodes: cluster.nodes.clone(),
            control_rx,
        });
        ClusterExec {
            sim,
            cluster,
            control_rx,
            binder,
            hdfs_read: Vec::new(),
            trace: Trace::default(),
            recording: None,
        }
    }

    /// Start recording every [`Phase`] passed to [`ClusterExec::run`] (a
    /// clone is kept before execution). Lets an engine capture its
    /// resolved per-phase work so the identical plan can be replayed as a
    /// [`JobSpec`] inside [`ClusterExec::run_mix`] on another executor.
    pub fn record_phases(&mut self) {
        self.recording = Some(Vec::new());
    }

    /// Stop recording and return the captured phases (empty if
    /// [`ClusterExec::record_phases`] was never called).
    pub fn take_recorded_phases(&mut self) -> Vec<Phase> {
        self.recording.take().unwrap_or_default()
    }

    pub fn params(&self) -> &Params {
        &self.cluster.params
    }

    /// Current sim time in seconds (== total elapsed across phases run).
    pub fn now_secs(&self) -> f64 {
        as_secs(self.sim.now())
    }

    /// Current sim time in integer nanoseconds.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Kernel events executed by the underlying event loop so far. The
    /// perf-trajectory harness (`bench_kernel`) divides this by wall-clock
    /// to report events/sec on real engine workloads.
    pub fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    /// The kernel queue's cumulative pop work (see [`Sim::queue_work`]).
    pub fn queue_work(&self) -> QueueWork {
        self.sim.queue_work()
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Attach (or detach) a passive probe on the underlying event loop.
    /// Already-registered cluster resources are replayed to the probe;
    /// span and task events flow from here on.
    pub fn set_probe(&mut self, probe: Option<Rc<RefCell<dyn Probe>>>) {
        self.sim.set_probe(probe);
    }

    /// Run `phase` to completion. Returns its makespan in seconds and
    /// appends its [`Span`] to the trace.
    pub fn run(&mut self, phase: Phase) -> f64 {
        if let Some(rec) = &mut self.recording {
            rec.push(phase.clone());
        }
        let t0 = self.sim.now();
        let sid = self.sim.next_span_id();
        self.sim.emit_probe(ProbeEvent::SpanOpened {
            at: t0,
            name: &phase.name,
            node: phase.node,
            id: sid,
        });
        let issue_at = t0.saturating_add(secs(phase.setup));
        let reqs = self.resolve(&phase.work);
        let contribs: Rc<RefCell<Vec<Contrib>>> = Rc::default();
        let sink = contribs.clone();
        self.sim.schedule_at(
            issue_at,
            Box::new(move |sim, _| {
                for (rid, kind, node, service) in reqs {
                    let sink = sink.clone();
                    sim.request(
                        rid,
                        service,
                        Box::new(move |sim, _| {
                            let wait = sim.now().saturating_sub(issue_at).saturating_sub(service);
                            sink.borrow_mut().push(Contrib {
                                kind,
                                node,
                                service: as_secs(service),
                                queue_wait: as_secs(wait),
                            });
                        }),
                    );
                }
            }),
        );
        // `run` drains exclusively (one phase at a time), so every request
        // issued during the drain belongs to this span.
        let prev = self.sim.set_probe_ctx(Some(sid));
        self.sim.run(&mut ());
        self.sim.set_probe_ctx(prev);
        let end = self.sim.now();
        self.sim.emit_probe(ProbeEvent::SpanClosed {
            at: end,
            name: &phase.name,
            node: phase.node,
            id: sid,
        });
        self.trace.push(Span {
            name: phase.name,
            node: phase.node,
            start: t0,
            end,
            contribs: contribs.take(),
        });
        as_secs(end.saturating_sub(t0))
    }

    /// Run a slot-scheduled [`TaskPhase`] to completion: dispatch every
    /// task (FIFO, in task order) onto its node's slot pool after the
    /// phase's setup delay, drain the event queue, and append an aggregate
    /// [`Span`] (one [`Contrib`] per resource kind, summed over the phase).
    pub fn run_tasks(&mut self, phase: TaskPhase) -> TaskPhaseReport {
        if phase.tasks.iter().any(|t| {
            t.steps
                .iter()
                .any(|s| matches!(s, TaskStep::HdfsRead { .. }))
        }) {
            self.ensure_hdfs_links();
        }
        let t0 = self.sim.now();
        let sid = self.sim.next_span_id();
        self.sim.emit_probe(ProbeEvent::SpanOpened {
            at: t0,
            name: &phase.name,
            node: None,
            id: sid,
        });
        let before = self.class_totals();
        let issue_at = t0.saturating_add(secs(phase.setup));
        let bound: Vec<BoundTask> = phase.tasks.iter().map(|t| self.bind_task(t)).collect();
        let n_nodes = self.cluster.nodes.len();
        let slots = phase.slots_per_node;
        let retries = Rc::new(Cell::new(0u32));
        let retries_out = retries.clone();
        self.sim.schedule_at(
            issue_at,
            Box::new(move |sim, _| {
                let pools: Vec<_> = (0..n_nodes).map(|_| SlotPool::new(slots)).collect();
                for task in bound {
                    let pool = pools[task.node].clone();
                    let body = task_body(task, pool.clone(), retries.clone());
                    SlotPool::acquire(&pool, sim, body);
                }
            }),
        );
        // Task steps issue requests at arbitrary times during this
        // exclusive drain; the span context covers them all.
        let prev = self.sim.set_probe_ctx(Some(sid));
        self.sim.run(&mut ());
        self.sim.set_probe_ctx(prev);
        let end = self.sim.now();
        self.sim.emit_probe(ProbeEvent::SpanClosed {
            at: end,
            name: &phase.name,
            node: None,
            id: sid,
        });
        let after = self.class_totals();
        let mut contribs = Vec::new();
        for (i, kind) in ResKind::ALL.iter().enumerate() {
            let service = after[i] - before[i];
            let queue_wait = after[i + 3] - before[i + 3];
            if service > 0.0 || queue_wait > 0.0 {
                contribs.push(Contrib {
                    kind: *kind,
                    node: None,
                    service,
                    queue_wait,
                });
            }
        }
        self.trace.push(Span {
            name: phase.name,
            node: None,
            start: t0,
            end,
            contribs,
        });
        TaskPhaseReport {
            end_secs: as_secs(end),
            end,
            retries: retries_out.get(),
        }
    }

    /// Run a concurrent mix of jobs to completion.
    ///
    /// Each job's phase chain advances serially (intra-job barriers
    /// preserved) while different jobs contend for the same resources.
    /// Admission order — and hence each job's client tag for fair
    /// dispatch — is the canonical sort by `(arrival, name)`, so permuting
    /// the submission order of `jobs` cannot change the schedule. Phase
    /// spans are appended to the trace in completion order under
    /// `job/phase` names; outcomes return in admission order.
    pub fn run_mix(&mut self, jobs: Vec<JobSpec>) -> Vec<JobOutcome> {
        self.run_mix_adaptive(jobs.into_iter().map(MixJob::fixed).collect())
    }

    /// [`ClusterExec::run_mix`] with optional per-job re-planning: at every
    /// phase boundary a job's [`Replanner`] (if any) may rewrite its
    /// not-yet-started phase tail from whatever live state it observes
    /// (probes, metrics windows, blame). Phases are bound to concrete
    /// resources lazily, when they start — binding is pure, so a mix whose
    /// re-planners always return `None` (or are absent) executes the exact
    /// event sequence of the fixed-plan path, byte for byte.
    ///
    /// Determinism contract: re-plans fire only at phase boundaries —
    /// admission, each phase completion, and chain exhaustion — which are
    /// deterministic event-loop instants, and jobs are admitted in the
    /// canonical `(arrival, name)` order regardless of submission
    /// permutation. A deterministic re-planner therefore yields a
    /// byte-reproducible run.
    pub fn run_mix_adaptive(&mut self, mut jobs: Vec<MixJob>) -> Vec<JobOutcome> {
        jobs.sort_by(|a, b| {
            (secs(a.spec.arrival_secs), a.spec.name.as_str())
                .cmp(&(secs(b.spec.arrival_secs), b.spec.name.as_str()))
        });
        let binder = self.binder.clone();
        let spans: Rc<RefCell<Vec<Span>>> = Rc::default();
        let outcomes: Rc<RefCell<Vec<JobOutcome>>> = Rc::default();
        let t0 = self.sim.now();
        for (client, job) in jobs.into_iter().enumerate() {
            let st = MixJobState {
                client: client as u32,
                name: job.spec.name,
                arrival_secs: job.spec.arrival_secs,
                completed: 0,
                remaining: job.spec.phases.into(),
                replan: job.replan,
            };
            let arrival = secs(st.arrival_secs);
            let binder = binder.clone();
            let (spans, outcomes) = (spans.clone(), outcomes.clone());
            self.sim.schedule_at(
                t0.saturating_add(arrival),
                Box::new(move |sim, _| advance_mix_job(sim, binder, st, spans, outcomes)),
            );
        }
        self.sim.run(&mut ());
        for span in spans.take() {
            self.trace.push(span);
        }
        let mut out = outcomes.take();
        out.sort_by(|a, b| {
            (secs(a.arrival_secs), a.name.as_str()).cmp(&(secs(b.arrival_secs), b.name.as_str()))
        });
        out
    }

    fn ensure_hdfs_links(&mut self) {
        if self.hdfs_read.is_empty() {
            self.hdfs_read = (0..self.cluster.params.nodes)
                .map(|n| {
                    self.sim
                        .add_resource_kind(format!("node{n}.hdfs_read"), ResKind::Disk, 1)
                })
                .collect();
        }
    }

    /// Bind a task's steps to concrete resources and service times.
    fn bind_task(&self, task: &Task) -> BoundTask {
        let node = task.node % self.cluster.nodes.len();
        let nres = &self.cluster.nodes[node];
        let p = &self.cluster.params;
        let steps = task
            .steps
            .iter()
            .map(|s| match *s {
                TaskStep::Delay { secs: d } => BoundStep::Delay(secs(d)),
                TaskStep::HdfsRead { bytes, bw } => {
                    BoundStep::Acquire(self.hdfs_read[node], secs(bytes as f64 / bw))
                }
                TaskStep::Cpu { secs: c } => BoundStep::Acquire(nres.cpu, secs(c)),
                TaskStep::DiskWrite { disk, bytes } => BoundStep::Acquire(
                    nres.disks[disk % nres.disks.len()],
                    secs(bytes as f64 / p.disk_seq_bw),
                ),
                TaskStep::HdfsWrite {
                    disk,
                    bytes,
                    net_bytes,
                    net_bw,
                } => BoundStep::ForkTwo([
                    (
                        nres.disks[disk % nres.disks.len()],
                        secs(bytes as f64 / p.disk_seq_bw),
                    ),
                    (nres.nic_send, secs(net_bytes as f64 / net_bw)),
                ]),
            })
            .collect();
        BoundTask {
            node,
            steps,
            fail_wasting: task.fail_wasting.map(secs),
        }
    }

    /// Cumulative `[disk, cpu, net]` busy then queue-wait seconds at the
    /// current sim time, by resource kind (HDFS ingest links count as
    /// disk-kind; the control ingest link as net-kind).
    fn class_totals(&self) -> [f64; 6] {
        let busy = |id: &ResourceId| as_secs(self.sim.resource_busy_time(*id));
        let wait = |id: &ResourceId| as_secs(self.sim.resource_queue_wait(*id));
        let mut disk: Vec<ResourceId> = self.hdfs_read.clone();
        let mut cpu = Vec::new();
        let mut net = Vec::new();
        for n in &self.cluster.nodes {
            disk.extend(&n.disks);
            cpu.push(n.cpu);
            net.push(n.nic_send);
            net.push(n.nic_recv);
        }
        net.push(self.control_rx);
        [
            disk.iter().map(busy).sum(),
            cpu.iter().map(busy).sum(),
            net.iter().map(busy).sum(),
            disk.iter().map(wait).sum(),
            cpu.iter().map(wait).sum(),
            net.iter().map(wait).sum(),
        ]
    }

    /// Bind abstract work items to concrete resource requests (shared with
    /// the mix path's [`Binder`], so serial and mix phases bind
    /// identically).
    fn resolve(&self, work: &[Work]) -> Vec<(ResourceId, ResKind, Option<usize>, SimTime)> {
        self.binder.resolve(work)
    }

    /// End-of-run utilization of every cluster resource (all nodes' CPUs,
    /// disks, NIC directions, the control ingest link, and — if any task
    /// phase read HDFS — the per-node HDFS ingest links).
    pub fn resource_reports(&self) -> Vec<ResourceReport> {
        let mut ids = Vec::new();
        for n in &self.cluster.nodes {
            ids.push(n.cpu);
            ids.extend(&n.disks);
            ids.push(n.nic_send);
            ids.push(n.nic_recv);
        }
        ids.push(self.control_rx);
        ids.extend(&self.hdfs_read);
        report(&self.sim, &ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MB;

    fn params() -> Params {
        Params {
            nodes: 4,
            cores_per_node: 4,
            disks_per_node: 2,
            ..Params::paper_dss()
        }
    }

    #[test]
    fn scan_phase_is_max_of_io_and_cpu_plus_setup() {
        let mut ex = ClusterExec::new(params());
        let node_bw = 100.0 * MB as f64;
        let mut p = Phase::new("scan").setup(0.5);
        for n in 0..4 {
            // 200 MB of I/O (2.0s) vs 1.0s of CPU on 4 lanes.
            p.disk_seq(n, 200.0 * MB as f64, node_bw);
            p.cpu(n, 1.0, 4);
        }
        let t = ex.run(p);
        assert!((t - 2.5).abs() < 1e-6, "max(2.0, 1.0) + 0.5, got {t}");
        let span = &ex.trace().spans[0];
        let u = span.util();
        // 2 disks per node × 4 nodes × 2.0s busy each.
        assert!(
            (u.disk_busy - 16.0).abs() < 1e-6,
            "disk busy {}",
            u.disk_busy
        );
        assert!((u.cpu_busy - 16.0).abs() < 1e-6, "cpu busy {}", u.cpu_busy);
        assert_eq!(u.requests, 8 + 16);
        // No contention: nothing queued.
        assert!(u.disk_wait < 1e-9 && u.cpu_wait < 1e-9);
    }

    #[test]
    fn gather_serializes_on_control_ingest() {
        let mut ex = ClusterExec::new(params());
        let bw = 100.0 * MB as f64;
        let mut p = Phase::new("gather");
        for n in 0..4 {
            // Each node ships 100 MB: sends run concurrently (1s each) but
            // the control link ingests them one after another (4s total).
            p.net_send(n, 100.0 * MB as f64, bw);
            p.gather_recv(100.0 * MB as f64, bw);
        }
        let t = ex.run(p);
        assert!((t - 4.0).abs() < 1e-6, "serialized ingest, got {t}");
        let u = ex.trace().spans[0].util();
        // 3 of the 4 ingest requests queued: 1+2+3 = 6s of waiting.
        assert!((u.net_wait - 6.0).abs() < 1e-6, "net wait {}", u.net_wait);
    }

    #[test]
    fn phases_run_serially_and_accumulate_in_trace() {
        let mut ex = ClusterExec::new(params());
        let mut a = Phase::new("a");
        a.cpu(0, 1.0, 1);
        let ta = ex.run(a);
        let mut b = Phase::new("b");
        b.cpu(0, 2.0, 1);
        let tb = ex.run(b);
        assert!((ta - 1.0).abs() < 1e-9);
        assert!((tb - 2.0).abs() < 1e-9);
        assert!((ex.now_secs() - 3.0).abs() < 1e-9);
        let spans = &ex.trace().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].start, spans[0].end, "phases are back-to-back");
    }

    #[test]
    fn pure_setup_phase_advances_clock_with_no_requests() {
        let mut ex = ClusterExec::new(params());
        let t = ex.run(Phase::new("latency-only").setup(0.25));
        assert!((t - 0.25).abs() < 1e-9);
        assert!(ex.trace().spans[0].contribs.is_empty());
    }

    #[test]
    fn resource_reports_cover_all_nodes_and_control() {
        let p = params();
        let resources_per_node = 1 + p.disks_per_node as usize + 2;
        let mut ex = ClusterExec::new(p);
        let mut ph = Phase::new("work");
        ph.cpu(1, 1.0, 2);
        ex.run(ph);
        let reports = ex.resource_reports();
        assert_eq!(reports.len(), 4 * resources_per_node + 1);
        let cpu1 = reports.iter().find(|r| r.name == "node1.cpu").unwrap();
        assert!((cpu1.busy_secs - 2.0).abs() < 1e-9);
        assert_eq!(cpu1.completions, 2);
        assert_eq!(reports.last().unwrap().name, "control.rx");
    }

    #[test]
    fn task_phase_slots_produce_waves() {
        // 4 CPU-bound tasks per node over 2 slots per node: two waves.
        let mut ex = ClusterExec::new(params());
        let mut ph = TaskPhase::new("waves", 2);
        for i in 0..16 {
            ph.task(Task::on(i % 4).step(TaskStep::Cpu { secs: 1.0 }));
        }
        let r = ex.run_tasks(ph);
        assert!(
            (r.end_secs - 2.0).abs() < 1e-9,
            "4 tasks over 2 slots = 2 waves, got {}",
            r.end_secs
        );
        assert_eq!(r.retries, 0);
        let u = ex.trace().spans[0].util();
        assert!((u.cpu_busy - 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_task_phase_costs_setup_only() {
        let mut ex = ClusterExec::new(params());
        let r = ex.run_tasks(TaskPhase::new("nothing", 8).setup(1.5));
        assert!((r.end_secs - 1.5).abs() < 1e-9);
        let span = &ex.trace().spans[0];
        assert_eq!(span.name, "nothing");
        assert!(span.contribs.is_empty());
    }

    #[test]
    fn hdfs_reads_serialize_per_node() {
        // The ingest link has capacity 1: two concurrent 1s reads on the
        // same node take 2s even with free slots, and a zero-byte read
        // queued behind them still has to wait its turn.
        let mut ex = ClusterExec::new(params());
        let bw = 100.0 * MB as f64;
        let mut ph = TaskPhase::new("reads", 8);
        for _ in 0..2 {
            ph.task(Task::on(0).step(TaskStep::HdfsRead {
                bytes: 100 * MB,
                bw,
            }));
        }
        ph.task(Task::on(0).step(TaskStep::HdfsRead { bytes: 0, bw }));
        let r = ex.run_tasks(ph);
        assert!((r.end_secs - 2.0).abs() < 1e-9, "got {}", r.end_secs);
        let u = ex.trace().spans[0].util();
        // 1s + 2s of queue wait (second read + the zero-byte read).
        assert!((u.disk_wait - 3.0).abs() < 1e-9, "wait {}", u.disk_wait);
    }

    #[test]
    fn hdfs_write_forks_disk_and_replication_send() {
        let mut ex = ClusterExec::new(params());
        let p = ex.params().clone();
        let disk_secs = 1.0;
        let net_secs = 2.0;
        let mut ph = TaskPhase::new("out", 8);
        ph.task(Task::on(0).step(TaskStep::HdfsWrite {
            disk: 0,
            bytes: (disk_secs * p.disk_seq_bw) as u64,
            net_bytes: (net_secs * p.nic_bw) as u64,
            net_bw: p.nic_bw,
        }));
        let r = ex.run_tasks(ph);
        // Concurrent: the slower branch (replication send) bounds the step.
        assert!((r.end_secs - net_secs).abs() < 1e-6, "got {}", r.end_secs);
        let u = ex.trace().spans[0].util();
        assert!((u.disk_busy - disk_secs).abs() < 1e-6);
        assert!((u.net_busy - net_secs).abs() < 1e-6);
    }

    #[test]
    fn failing_task_retries_once_and_extends_the_phase() {
        let mut ex = ClusterExec::new(params());
        let mut ph = TaskPhase::new("faulty", 1);
        ph.task(
            Task::on(0)
                .step(TaskStep::Cpu { secs: 1.0 })
                .fail_once_wasting(0.5),
        );
        let r = ex.run_tasks(ph);
        assert_eq!(r.retries, 1);
        // 0.5s wasted holding the slot, then the clean 1s attempt.
        assert!((r.end_secs - 1.5).abs() < 1e-9, "got {}", r.end_secs);
    }

    #[test]
    fn mix_interleaves_jobs_on_shared_resources() {
        // Two single-phase CPU jobs on node 0 (4 cores), each wanting 8
        // lanes of 0.5s (4s of core-time per job). Admitted together they
        // share the pool: 8s of work on 4 cores = 2s of wall time, and
        // fair dispatch interleaves the queued lanes so job a finishes at
        // 1.5s — not the 1.0s a FIFO head-start would give it.
        let mut ex = ClusterExec::new(params());
        let job = |name: &str| {
            let mut p = Phase::new("work");
            p.cpu(0, 0.5, 8);
            JobSpec {
                name: name.into(),
                arrival_secs: 0.0,
                phases: vec![p],
            }
        };
        let out = ex.run_mix(vec![job("a"), job("b")]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].name, "a");
        assert!(
            (out[0].end_secs - 1.5).abs() < 1e-9,
            "got {}",
            out[0].end_secs
        );
        assert!(
            (out[1].end_secs - 2.0).abs() < 1e-9,
            "got {}",
            out[1].end_secs
        );
        // Both jobs experienced queueing on the shared pool.
        for name in ["a/work", "b/work"] {
            let s = ex.trace().spans.iter().find(|s| s.name == name).unwrap();
            assert!(s.util().cpu_wait > 0.0, "{name} never waited");
        }
    }

    #[test]
    fn mix_preserves_intra_job_phase_order() {
        let mut ex = ClusterExec::new(params());
        let mut p1 = Phase::new("first");
        p1.cpu(0, 1.0, 1);
        let mut p2 = Phase::new("second");
        p2.cpu(0, 1.0, 1);
        let out = ex.run_mix(vec![JobSpec {
            name: "chain".into(),
            arrival_secs: 0.5,
            phases: vec![p1, p2],
        }]);
        assert_eq!(out[0].phases, 2);
        assert!((out[0].end_secs - 2.5).abs() < 1e-9);
        assert!((out[0].makespan_secs() - 2.0).abs() < 1e-9);
        let spans = &ex.trace().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "chain/first");
        assert_eq!(spans[1].name, "chain/second");
        assert_eq!(spans[1].start, spans[0].end);
    }

    #[test]
    fn mix_is_invariant_under_submission_permutation() {
        let run = |order_rev: bool| {
            let mut ex = ClusterExec::new(params());
            let job = |name: &str| {
                let mut p = Phase::new("scan");
                p.disk_seq(0, 100.0 * MB as f64, 100.0 * MB as f64);
                JobSpec {
                    name: name.into(),
                    arrival_secs: 0.0,
                    phases: vec![p],
                }
            };
            let mut jobs = vec![job("x"), job("y")];
            if order_rev {
                jobs.reverse();
            }
            let out = ex.run_mix(jobs);
            let reports = ex.resource_reports();
            (
                out.iter()
                    .map(|o| (o.name.clone(), o.end_secs))
                    .collect::<Vec<_>>(),
                format!("{reports:?}"),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn mix_pure_setup_job_advances_without_requests() {
        let mut ex = ClusterExec::new(params());
        let out = ex.run_mix(vec![JobSpec {
            name: "latency".into(),
            arrival_secs: 0.25,
            phases: vec![Phase::new("rtt").setup(0.5)],
        }]);
        assert!((out[0].end_secs - 0.75).abs() < 1e-9);
        assert!(ex.trace().spans[0].contribs.is_empty());
    }

    #[test]
    fn recorded_phases_replay_identically() {
        // Record a serial plan, replay it as a single-job mix on a fresh
        // executor: same phase makespans.
        let mut ex = ClusterExec::new(params());
        ex.record_phases();
        let mut p = Phase::new("scan");
        p.disk_seq(1, 200.0 * MB as f64, 100.0 * MB as f64);
        p.cpu(1, 1.0, 4);
        let t_serial = ex.run(p);
        let phases = ex.take_recorded_phases();
        assert_eq!(phases.len(), 1);
        let mut ex2 = ClusterExec::new(params());
        let out = ex2.run_mix(vec![JobSpec {
            name: "replay".into(),
            arrival_secs: 0.0,
            phases,
        }]);
        assert!((out[0].end_secs - t_serial).abs() < 1e-9);
    }

    #[test]
    fn hdfs_links_reported_only_when_used() {
        let mut ex = ClusterExec::new(params());
        let mut ph = Phase::new("pdw-like");
        ph.cpu(0, 1.0, 1);
        ex.run(ph);
        assert!(
            !ex.resource_reports()
                .iter()
                .any(|r| r.name.contains("hdfs_read")),
            "phase-only runs must not grow extra resources"
        );
        let mut tp = TaskPhase::new("mr-like", 8);
        tp.task(Task::on(2).step(TaskStep::HdfsRead {
            bytes: MB,
            bw: 100.0 * MB as f64,
        }));
        ex.run_tasks(tp);
        assert!(ex
            .resource_reports()
            .iter()
            .any(|r| r.name == "node2.hdfs_read"));
    }

    /// Probe that flattens the event stream into strings, for bitwise
    /// comparisons of whole runs.
    #[derive(Default)]
    struct EventLog(Vec<String>);

    impl Probe for EventLog {
        fn on_event(&mut self, ev: &ProbeEvent<'_>) {
            self.0.push(format!("{ev:?}"));
        }
    }

    fn chain_job(name: &str, arrival: f64) -> JobSpec {
        let mut p1 = Phase::new("a");
        p1.cpu(0, 0.5, 2);
        let p2 = Phase::new("handoff").setup(0.25);
        let mut p3 = Phase::new("b");
        p3.cpu(1, 0.5, 2);
        JobSpec {
            name: name.into(),
            arrival_secs: arrival,
            phases: vec![p1, p2, p3],
        }
    }

    #[test]
    fn mix_pure_setup_phase_mid_chain_is_a_boundary() {
        // A zero-request setup phase in the middle of a chain must advance
        // the clock, keep the chain's order, and present a re-plan boundary
        // like any other phase.
        let boundaries: Rc<RefCell<Vec<(usize, f64)>>> = Rc::default();
        let seen = boundaries.clone();
        let mut ex = ClusterExec::new(params());
        let out = ex.run_mix_adaptive(vec![MixJob::adaptive(chain_job("j", 0.0), move |ctx| {
            seen.borrow_mut().push((ctx.completed, ctx.now_secs));
            None
        })]);
        assert_eq!(out[0].phases, 3);
        assert!((out[0].end_secs - 1.25).abs() < 1e-9);
        let spans = &ex.trace().spans;
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["j/a", "j/handoff", "j/b"]
        );
        assert!(spans[1].contribs.is_empty(), "setup phase made requests");
        // Boundaries: admission, then one after each completed phase.
        assert_eq!(
            *boundaries.borrow(),
            vec![(0, 0.0), (1, 0.5), (2, 0.75), (3, 1.25)]
        );
    }

    #[test]
    fn mix_replan_can_empty_the_tail() {
        // A re-planner that drops every remaining phase ends the job at
        // the boundary; the outcome records only the phases that ran.
        let mut ex = ClusterExec::new(params());
        let out = ex.run_mix_adaptive(vec![MixJob::adaptive(chain_job("j", 0.0), |ctx| {
            if ctx.completed == 1 {
                Some(Vec::new())
            } else {
                None
            }
        })]);
        assert_eq!(out[0].phases, 1);
        assert!((out[0].end_secs - 0.5).abs() < 1e-9);
        assert_eq!(ex.trace().spans.len(), 1);
        assert_eq!(ex.trace().spans[0].name, "j/a");
    }

    #[test]
    fn mix_identity_replan_is_bitwise_noop() {
        // Returning the tail unchanged (or None) must not perturb a single
        // event: outcomes and the full probe stream are compared bitwise
        // against the non-adaptive run.
        let run = |adaptive: bool| {
            let mut ex = ClusterExec::new(params());
            let log = Rc::new(RefCell::new(EventLog::default()));
            ex.set_probe(Some(log.clone() as Rc<RefCell<dyn Probe>>));
            let jobs = vec![chain_job("x", 0.1), chain_job("y", 0.0)];
            let out = if adaptive {
                ex.run_mix_adaptive(
                    jobs.into_iter()
                        .enumerate()
                        .map(|(i, spec)| {
                            if i == 0 {
                                // Identity rewrite: same phases, new Vec.
                                MixJob::adaptive(spec, |ctx| Some(ctx.remaining.to_vec()))
                            } else {
                                MixJob::adaptive(spec, |_| None)
                            }
                        })
                        .collect(),
                )
            } else {
                ex.run_mix(jobs)
            };
            ex.set_probe(None);
            let outs: Vec<(String, u64, usize)> = out
                .iter()
                .map(|o| (o.name.clone(), o.end_secs.to_bits(), o.phases))
                .collect();
            let events = log.borrow().0.clone();
            (outs, events)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn mix_contrib_waits_reconcile_with_resource_reports() {
        // Per-span queue-wait attribution must add up to the kernel's own
        // per-resource wait accounting: both sides now come from the same
        // request timing, so the totals agree to float round-off.
        let mut ex = ClusterExec::new(params());
        let job = |name: &str| {
            let mut p = Phase::new("work");
            p.cpu(0, 0.5, 8);
            p.disk_seq(0, 100.0 * MB as f64, 100.0 * MB as f64);
            JobSpec {
                name: name.into(),
                arrival_secs: 0.0,
                phases: vec![p],
            }
        };
        ex.run_mix(vec![job("a"), job("b"), job("c")]);
        let mut span_wait = 0.0;
        let mut span_requests = 0u64;
        for s in &ex.trace().spans {
            for c in &s.contribs {
                span_wait += c.queue_wait;
                span_requests += 1;
            }
        }
        assert!(span_wait > 0.0, "mix was not contended");
        let mut report_wait = 0.0;
        let mut report_requests = 0u64;
        for r in ex.resource_reports() {
            report_wait += r.mean_queue_wait_secs * r.completions as f64;
            report_requests += r.completions;
        }
        assert_eq!(span_requests, report_requests);
        assert!(
            (span_wait - report_wait).abs() < 1e-6,
            "span wait {span_wait} vs resource wait {report_wait}"
        );
    }
}
