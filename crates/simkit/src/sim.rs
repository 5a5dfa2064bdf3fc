//! The event loop: virtual clock, calendar-queue event scheduling, arena
//! event storage, batched resource grant/re-dispatch.
//!
//! See [`crate::sched`] for the calendar queue and the arena; this module
//! owns the clock, the dispatch loop, and the resource grant path. The
//! observable contract is frozen: events fire strictly in `(at, seq)`
//! order, exactly the queue's pop order, which the queue's sorted-model
//! property test pins down.

use std::cell::RefCell;
use std::rc::Rc;

use crate::probe::{Probe, ProbeEvent};
use crate::resource::{Done, ResourceId, ResourceState};
use crate::sched::{Action, Arena, CalendarQueue, Entry, QueueWork};
use crate::trace::ResKind;

/// Virtual time in nanoseconds since simulation start.
pub type SimTime = u64;

/// A scheduled action. Receives the simulator (to schedule more work) and the
/// caller's world state.
pub type Event<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

/// A completion that also receives the kernel's [`ReqTiming`] for the
/// request (see [`Sim::request_as_timed`]).
pub type TimedEvent<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W, ReqTiming)>;

/// The kernel's own record of one request's life: when it was enqueued on
/// the resource, when a server granted it, and when service completed.
/// Handed to [`TimedEvent`] completions so callers attribute queue wait
/// from these instants instead of re-deriving it from issue-time
/// arithmetic (which would fold any completion-dispatch skew into the
/// wait).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqTiming {
    /// Instant the request entered the resource's queue.
    pub enqueued: SimTime,
    /// Instant a server started serving it.
    pub started: SimTime,
    /// Instant service completed (== the instant the completion fires).
    pub completed: SimTime,
}

impl ReqTiming {
    /// Time spent queued behind other work: `started - enqueued`.
    pub fn queue_wait(&self) -> SimTime {
        self.started - self.enqueued
    }

    /// Time in service: `completed - started`.
    pub fn service(&self) -> SimTime {
        self.completed - self.started
    }
}

/// A discrete-event simulator over world type `W`.
///
/// Resources live inside the simulator so that event handlers (which hold
/// `&mut Sim<W>`) can request service without interior mutability.
///
/// Pending events are stored in a recycling arena; a calendar queue (see
/// [`crate::sched`]) orders lightweight `(at, seq, slot)` triples.
/// Resource-service completions are kernel-native events: a request costs
/// one allocation (the caller's `done` closure), not two, and a completion
/// re-dispatches every startable queued request in one frame instead of
/// bouncing through a per-grant closure.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    arena: Arena<W>,
    queue: CalendarQueue,
    resources: Vec<ResourceState<W>>,
    executed: u64,
    /// Optional passive observer (see [`crate::probe`]). `None` (the
    /// default) costs one branch per emission point; a probe receives
    /// borrowed event data only, so it cannot perturb the run.
    probe: Option<Rc<RefCell<dyn Probe>>>,
    /// Next request id; every request gets one (monotone in issue order)
    /// whether or not a probe is attached, so probed and unprobed runs take
    /// identical code paths.
    next_req: u64,
    /// Span context stamped onto requests at issue time (probe metadata
    /// only — dispatch never reads it). Execution layers set this around
    /// the requests a span issues; see [`Sim::set_probe_ctx`].
    probe_ctx: Option<u64>,
    /// Next span id handed out by [`Sim::next_span_id`].
    next_span: u64,
}

impl<W: 'static> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: 'static> Sim<W> {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Sim {
            now: 0,
            seq: 0,
            arena: Arena::new(),
            queue: CalendarQueue::new(),
            resources: Vec::new(),
            executed: 0,
            probe: None,
            next_req: 0,
            probe_ctx: None,
            next_span: 0,
        }
    }

    /// Attach (or detach, with `None`) a passive [`Probe`]. Resources that
    /// already exist are replayed as [`ProbeEvent::ResourceRegistered`] so
    /// the probe has the full resource table regardless of attach order.
    pub fn set_probe(&mut self, probe: Option<Rc<RefCell<dyn Probe>>>) {
        self.probe = probe;
        if let Some(p) = &self.probe {
            for (i, rs) in self.resources.iter().enumerate() {
                p.borrow_mut().on_event(&ProbeEvent::ResourceRegistered {
                    res: ResourceId(i),
                    name: rs.name(),
                    servers: rs.servers(),
                });
            }
        }
    }

    /// Set the span context stamped onto requests issued from now on (the
    /// span↔resource linkage carried by [`ProbeEvent::Enqueued`] and
    /// friends). Returns the previous context so callers can nest scopes.
    /// Pure probe metadata: dispatch order, timing, and randomness are
    /// unaffected, so setting it never perturbs a run.
    pub fn set_probe_ctx(&mut self, ctx: Option<u64>) -> Option<u64> {
        std::mem::replace(&mut self.probe_ctx, ctx)
    }

    /// The span context currently stamped onto issued requests.
    #[inline]
    pub fn probe_ctx(&self) -> Option<u64> {
        self.probe_ctx
    }

    /// Allocate a fresh span id (unique per `Sim`, monotone). Execution
    /// layers put it on [`ProbeEvent::SpanOpened`]/[`ProbeEvent::SpanClosed`]
    /// and pass it to [`Sim::set_probe_ctx`] while the span's requests are
    /// issued.
    pub fn next_span_id(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Emit an event to the attached probe, if any. Public so execution
    /// layers above the kernel (phase executors, engines) can feed span and
    /// task events into the same ordered stream.
    #[inline]
    pub fn emit_probe(&self, ev: ProbeEvent<'_>) {
        if let Some(p) = &self.probe {
            p.borrow_mut().on_event(&ev);
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Events currently pending (scheduled but not yet fired).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative work of the event queue's pops: searches, the entries
    /// they scanned, empty buckets stepped over and overflow-heap answers,
    /// plus the pops the same-instant lane answered without a search
    /// (`laned`: ties a search gathered and zero-delay events). `pops`
    /// counts searches only, so `scan_per_pop` is entries scanned per
    /// search and `pops + laned` is the number of events popped (plus one
    /// for each gathered lane an earlier push put back after a peek).
    /// Diagnostics only — dispatch never reads it — for benches that track
    /// the queue's cost per event (`scan_per_pop` in `bench_kernel`).
    pub fn queue_work(&self) -> QueueWork {
        self.queue.work()
    }

    /// High-water mark of the event arena: the peak number of events that
    /// were ever pending at once. The arena recycles slots, so this stays
    /// flat however many events flow through — the property the arena
    /// recycling test pins down.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Arena slots currently holding a pending event. Always equals
    /// [`Sim::pending_events`]; exposed separately so tests can check the
    /// slab and the queue agree.
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    #[inline]
    fn schedule_action(&mut self, at: SimTime, action: Action<W>) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = self.arena.insert(action);
        self.queue.push(Entry { at, seq, slot });
    }

    /// Schedule `event` to fire at absolute time `at` (clamped to `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: Event<W>) {
        self.schedule_action(at, Action::Call(event));
    }

    /// Schedule `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimTime, event: Event<W>) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedule a closure after `delay` (avoids `Box::new` at call sites).
    pub fn after(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.schedule_in(delay, Box::new(f));
    }

    /// Create a k-server FIFO resource (see [`crate::resource`]).
    pub fn add_resource(&mut self, name: impl Into<String>, servers: u32) -> ResourceId {
        self.add_resource_inner(name.into(), None, servers)
    }

    /// Like [`Sim::add_resource`], but declaring the resource's structural
    /// [`ResKind`]. The kind rides on [`crate::resource::ResourceReport`]s
    /// so consumers classify resources by what they *are* (disk / CPU /
    /// network link), never by naming conventions a rename would break.
    pub fn add_resource_kind(
        &mut self,
        name: impl Into<String>,
        kind: ResKind,
        servers: u32,
    ) -> ResourceId {
        self.add_resource_inner(name.into(), Some(kind), servers)
    }

    fn add_resource_inner(
        &mut self,
        name: String,
        kind: Option<ResKind>,
        servers: u32,
    ) -> ResourceId {
        assert!(servers > 0, "resource must have at least one server");
        let id = ResourceId(self.resources.len());
        self.resources.push(ResourceState::new(name, kind, servers));
        if self.probe.is_some() {
            self.emit_probe(ProbeEvent::ResourceRegistered {
                res: id,
                name: self.resources[id.0].name(),
                servers,
            });
        }
        id
    }

    /// Request `service` time on resource `r`; `done` fires when service
    /// completes (after any FIFO queueing delay).
    pub fn request(&mut self, r: ResourceId, service: SimTime, done: Event<W>) {
        self.request_inner(r, service, None, Done::Plain(done));
    }

    /// Like [`Sim::request`], but tagged with a `client` id. When tagged
    /// requests are queued, the resource serves client tags round-robin
    /// (FIFO within a tag) instead of globally FIFO, so one client's burst
    /// cannot starve another's — see [`crate::resource`]. Untagged and
    /// tagged requests may share a resource; untagged ones sort last.
    pub fn request_as(&mut self, r: ResourceId, service: SimTime, client: u32, done: Event<W>) {
        self.request_inner(r, service, Some(client), Done::Plain(done));
    }

    /// Like [`Sim::request_as`], but the completion receives the kernel's
    /// [`ReqTiming`] (enqueue / service-start / completion instants) so the
    /// caller can attribute queue wait from the resource's own bookkeeping.
    /// Dispatch, accounting, and the probe stream are identical to
    /// [`Sim::request_as`].
    pub fn request_as_timed(
        &mut self,
        r: ResourceId,
        service: SimTime,
        client: u32,
        done: TimedEvent<W>,
    ) {
        self.request_inner(r, service, Some(client), Done::Timed(done));
    }

    fn request_inner(
        &mut self,
        r: ResourceId,
        service: SimTime,
        client: Option<u32>,
        done: Done<W>,
    ) {
        let now = self.now;
        let req = self.next_req;
        self.next_req += 1;
        let ctx = self.probe_ctx;
        let start = {
            let rs = &mut self.resources[r.0];
            rs.enqueue(now, service, client, req, ctx, done)
        };
        if self.probe.is_some() {
            self.emit_probe(ProbeEvent::Enqueued {
                at: now,
                res: r,
                service,
                waiting: self.resources[r.0].queue_len(),
                req,
                ctx,
                client,
            });
        }
        if start {
            self.grant(r);
        }
    }

    /// Convenience: request with a closure completion.
    pub fn use_resource(
        &mut self,
        r: ResourceId,
        service: SimTime,
        done: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        self.request(r, service, Box::new(done));
    }

    /// Structural kind of `r`, if one was declared at registration.
    pub fn resource_kind(&self, r: ResourceId) -> Option<ResKind> {
        self.resources[r.0].kind()
    }

    /// Start service on every startable queued request of `r` — the batched
    /// grant path. A single freed server grants one request, but the loop
    /// means any caller that frees or adds capacity re-dispatches the whole
    /// eligible queue in one frame, with one probe guard check per grant
    /// and a kernel-native completion event (no per-grant closure).
    fn grant(&mut self, r: ResourceId) {
        let now = self.now;
        while let Some(s) = self.resources[r.0].start_next(now) {
            if self.probe.is_some() {
                self.emit_probe(ProbeEvent::ServiceStarted {
                    at: now,
                    res: r,
                    service: s.service,
                    wait: s.wait,
                    waiting: self.resources[r.0].queue_len(),
                    req: s.req,
                    ctx: s.ctx,
                    client: s.client,
                });
            }
            let (service, req, ctx, client) = (s.service, s.req, s.ctx, s.client);
            // Timed completions bind the kernel's grant instant here; plain
            // ones pass through untouched (no extra allocation).
            let done = s.into_done(now);
            self.schedule_action(
                now.saturating_add(service),
                Action::Completion {
                    res: r,
                    req,
                    ctx,
                    client,
                    done,
                },
            );
        }
    }

    /// A kernel-native service completion fired: emit the probe event, run
    /// the caller's `done`, release the server, re-dispatch the queue.
    /// Order matches the pre-arena kernel exactly: completed-probe, done,
    /// finish, grant.
    fn complete(
        &mut self,
        r: ResourceId,
        req: u64,
        ctx: Option<u64>,
        client: Option<u32>,
        done: Event<W>,
        w: &mut W,
    ) {
        if self.probe.is_some() {
            self.emit_probe(ProbeEvent::ServiceCompleted {
                at: self.now,
                res: r,
                waiting: self.resources[r.0].queue_len(),
                req,
                ctx,
                client,
            });
        }
        done(self, w);
        let more = self.resources[r.0].finish_one(self.now);
        if more {
            self.grant(r);
        }
    }

    #[inline]
    fn fire(&mut self, e: Entry, w: &mut W) {
        debug_assert!(e.at >= self.now, "time went backwards");
        self.now = e.at;
        self.executed += 1;
        match self.arena.take(e.slot) {
            Action::Call(ev) => ev(self, w),
            Action::Completion {
                res,
                req,
                ctx,
                client,
                done,
            } => self.complete(res, req, ctx, client, done, w),
        }
    }

    /// Drain every event. Returns the final clock value.
    pub fn run(&mut self, w: &mut W) -> SimTime {
        while let Some(e) = self.queue.pop() {
            self.fire(e, w);
        }
        self.now
    }

    /// Run until the clock would pass `deadline`; events at exactly
    /// `deadline` still fire. Returns true if the queue drained.
    pub fn run_until(&mut self, w: &mut W, deadline: SimTime) -> bool {
        loop {
            let Some(at) = self.queue.peek_time() else {
                return true;
            };
            if at > deadline {
                // A deadline already in the past must not rewind the clock.
                self.now = self.now.max(deadline);
                return false;
            }
            let e = self.queue.pop().expect("peeked");
            self.fire(e, w);
        }
    }

    /// Busy-time integral of a resource (for utilization reporting).
    pub fn resource_busy_time(&self, r: ResourceId) -> SimTime {
        self.resources[r.0].busy_time(self.now)
    }

    /// Total completed services on a resource.
    pub fn resource_completions(&self, r: ResourceId) -> u64 {
        self.resources[r.0].completions()
    }

    /// Time spent queued (not being served) summed over all requests.
    pub fn resource_queue_wait(&self, r: ResourceId) -> SimTime {
        self.resources[r.0].total_queue_wait()
    }

    /// Wait accrued *so far* by requests still queued at the current clock
    /// (not yet included in [`Sim::resource_queue_wait`], which only counts
    /// requests whose service has started).
    pub fn resource_pending_wait(&self, r: ResourceId) -> SimTime {
        self.resources[r.0].pending_wait(self.now)
    }

    /// Resource name (diagnostics).
    pub fn resource_name(&self, r: ResourceId) -> &str {
        self.resources[r.0].name()
    }

    /// Current queue length of a resource.
    pub fn resource_queue_len(&self, r: ResourceId) -> usize {
        self.resources[r.0].queue_len()
    }

    /// Peak number of requests that were *waiting* (queued behind busy
    /// servers) at any instant so far.
    pub fn resource_max_queue_len(&self, r: ResourceId) -> usize {
        self.resources[r.0].max_queue_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{secs, SECOND};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct World {
        log: Vec<(SimTime, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.after(secs(2.0), |s, w| w.log.push((s.now(), "b")));
        sim.after(secs(1.0), |s, w| w.log.push((s.now(), "a")));
        sim.after(secs(3.0), |s, w| w.log.push((s.now(), "c")));
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![(SECOND, "a"), (2 * SECOND, "b"), (3 * SECOND, "c")]
        );
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for name in ["x", "y", "z"] {
            sim.after(secs(1.0), move |s, w| w.log.push((s.now(), name)));
        }
        sim.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.after(secs(1.0), |s, w| {
            w.log.push((s.now(), "outer"));
            s.after(secs(1.0), |s, w| w.log.push((s.now(), "inner")));
        });
        let end = sim.run(&mut w);
        assert_eq!(end, 2 * SECOND);
        assert_eq!(w.log.len(), 2);
        assert_eq!(w.log[1], (2 * SECOND, "inner"));
    }

    #[test]
    fn single_server_resource_serializes() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        // Three 1s requests issued at t=0 should finish at 1,2,3s.
        for name in ["r1", "r2", "r3"] {
            sim.use_resource(disk, SECOND, move |s, w| w.log.push((s.now(), name)));
        }
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![(SECOND, "r1"), (2 * SECOND, "r2"), (3 * SECOND, "r3")]
        );
        assert_eq!(sim.resource_completions(disk), 3);
        assert_eq!(sim.resource_busy_time(disk), 3 * SECOND);
        // r2 waited 1s, r3 waited 2s.
        assert_eq!(sim.resource_queue_wait(disk), 3 * SECOND);
    }

    #[test]
    fn multi_server_resource_runs_in_parallel() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let cpu = sim.add_resource("cpu", 2);
        for name in ["a", "b", "c"] {
            sim.use_resource(cpu, SECOND, move |s, w| w.log.push((s.now(), name)));
        }
        sim.run(&mut w);
        // a,b finish at 1s; c queued behind and finishes at 2s.
        assert_eq!(w.log[0].0, SECOND);
        assert_eq!(w.log[1].0, SECOND);
        assert_eq!(w.log[2], (2 * SECOND, "c"));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.after(secs(1.0), |s, w| w.log.push((s.now(), "early")));
        sim.after(secs(10.0), |s, w| w.log.push((s.now(), "late")));
        let drained = sim.run_until(&mut w, secs(5.0));
        assert!(!drained);
        assert_eq!(w.log.len(), 1);
        assert_eq!(sim.now(), secs(5.0));
        sim.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_past_deadline_never_rewinds_clock() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.after(secs(3.0), |s, w| w.log.push((s.now(), "a")));
        sim.after(secs(10.0), |s, w| w.log.push((s.now(), "late")));
        let drained = sim.run_until(&mut w, secs(4.0));
        assert!(!drained);
        assert_eq!(sim.now(), secs(4.0));
        // Deadline earlier than the current clock: a no-op, not a rewind.
        let drained = sim.run_until(&mut w, secs(2.0));
        assert!(!drained);
        assert_eq!(sim.now(), secs(4.0), "clock must not move backwards");
        sim.run(&mut w);
        assert_eq!(sim.now(), secs(10.0));
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn schedule_after_partial_run_until_fires_in_order() {
        // Regression for the calendar window: peeking a far-future event
        // jumps the ring forward; a later schedule between `now` and that
        // event must still fire first (window rewind).
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.after(secs(100.0), |s, w| w.log.push((s.now(), "far")));
        let drained = sim.run_until(&mut w, secs(1.0));
        assert!(!drained);
        sim.after(secs(1.0), |s, w| w.log.push((s.now(), "near")));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(secs(2.0), "near"), (secs(100.0), "far")]);
    }

    #[test]
    fn tagged_requests_served_round_robin_across_clients() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        // Client 0 floods the disk with four requests at t=0; client 1
        // submits a single request at the same instant, after the burst.
        // Round-robin dispatch must serve client 1 second, not fifth.
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        for name in ["a1", "a2", "a3", "a4"] {
            let o = order.clone();
            sim.request_as(
                disk,
                SECOND,
                0,
                Box::new(move |_, _| o.borrow_mut().push(name)),
            );
        }
        let o = order.clone();
        sim.request_as(
            disk,
            SECOND,
            1,
            Box::new(move |_, _| o.borrow_mut().push("b1")),
        );
        sim.run(&mut w);
        assert_eq!(*order.borrow(), vec!["a1", "b1", "a2", "a3", "a4"]);
    }

    #[test]
    fn untagged_requests_stay_strict_fifo() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        for name in ["r1", "r2", "r3", "r4"] {
            let o = order.clone();
            sim.request(
                disk,
                SECOND,
                Box::new(move |_, _| o.borrow_mut().push(name)),
            );
        }
        sim.run(&mut w);
        assert_eq!(*order.borrow(), vec!["r1", "r2", "r3", "r4"]);
    }

    #[test]
    fn untagged_sorts_after_tagged_clients() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        // First request (untagged) occupies the server; then one untagged
        // and one tagged request queue. The tagged one is served first
        // even though it enqueued later: untagged sorts as tag u32::MAX.
        for name in ["u0", "u1"] {
            let o = order.clone();
            sim.request(
                disk,
                SECOND,
                Box::new(move |_, _| o.borrow_mut().push(name)),
            );
        }
        let o = order.clone();
        sim.request_as(
            disk,
            SECOND,
            7,
            Box::new(move |_, _| o.borrow_mut().push("t7")),
        );
        sim.run(&mut w);
        assert_eq!(*order.borrow(), vec!["u0", "t7", "u1"]);
    }

    #[test]
    fn pending_wait_counts_still_queued_requests() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        // One 10s request holds the server; two more enqueue at t=0 and
        // are still waiting at the t=4s snapshot, having accrued 4s each.
        for _ in 0..3 {
            sim.use_resource(disk, secs(10.0), |_, _| {});
        }
        sim.run_until(&mut w, secs(4.0));
        assert_eq!(sim.resource_queue_len(disk), 2);
        assert_eq!(sim.resource_pending_wait(disk), 2 * secs(4.0));
        // Started-but-unfinished service contributes nothing extra.
        assert_eq!(sim.resource_queue_wait(disk), 0);
        // Drained run: pending wait collapses to zero and the accrued wait
        // moves into the completed-request total (10s + 20s).
        sim.run(&mut w);
        assert_eq!(sim.resource_pending_wait(disk), 0);
        assert_eq!(sim.resource_queue_wait(disk), secs(30.0));
    }

    #[test]
    fn resource_requests_issued_later_queue_behind_earlier() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 1);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (o1, o2) = (order.clone(), order.clone());
        sim.use_resource(disk, secs(5.0), move |_, _| o1.borrow_mut().push("long"));
        sim.after(secs(1.0), move |s, _| {
            let o2 = o2.clone();
            s.use_resource(disk, secs(1.0), move |_, _| o2.borrow_mut().push("short"));
        });
        sim.run(&mut w);
        assert_eq!(*order.borrow(), vec!["long", "short"]);
        assert_eq!(sim.now(), secs(6.0));
    }

    #[test]
    fn arena_stays_flat_across_sequential_events() {
        // A self-rescheduling timer fires 10_000 times but only ever has
        // one pending event: the arena must not grow past the peak.
        fn tick(s: &mut Sim<World>, remaining: u32) {
            if remaining > 0 {
                s.after(1_000, move |s, _| tick(s, remaining - 1));
            }
        }
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        tick(&mut sim, 10_000);
        sim.run(&mut w);
        assert_eq!(sim.events_executed(), 10_000);
        assert_eq!(sim.arena_capacity(), 1, "one pending event at a time");
        assert_eq!(sim.pending_events(), 0);
    }
}
