//! Property-based tests of the DES kernel: causal ordering, FIFO resource
//! algebra, latch counting, and seeded replay of a mixed workload.

use proptest::prelude::*;
use simkit::probe::{Probe, ProbeEvent};
use simkit::{Latch, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

type S = Sim<()>;

proptest! {
    /// Events fire in non-decreasing time order, with FIFO tie-breaking.
    #[test]
    fn events_fire_in_causal_order(delays in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut sim: S = Sim::new();
        let fired: Rc<RefCell<Vec<(SimTime, usize)>>> = Rc::default();
        for (i, &d) in delays.iter().enumerate() {
            let f = fired.clone();
            sim.after(d, move |s, _| f.borrow_mut().push((s.now(), i)));
        }
        sim.run(&mut ());
        let log = fired.borrow();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                // Same instant → scheduling (index) order.
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// A single-server resource is work-conserving: makespan == total work
    /// when all requests arrive at t=0, and completions preserve order.
    #[test]
    fn single_server_is_work_conserving(services in proptest::collection::vec(1u64..1_000, 1..60)) {
        let mut sim: S = Sim::new();
        let r = sim.add_resource("r", 1);
        let completions: Rc<RefCell<Vec<(usize, SimTime)>>> = Rc::default();
        for (i, &svc) in services.iter().enumerate() {
            let c = completions.clone();
            sim.use_resource(r, svc, move |s, _| c.borrow_mut().push((i, s.now())));
        }
        let end = sim.run(&mut ());
        let total: u64 = services.iter().sum();
        prop_assert_eq!(end, total);
        let log = completions.borrow();
        // FIFO: completion order == submission order, at prefix sums.
        let mut acc = 0;
        for (pos, &(idx, at)) in log.iter().enumerate() {
            prop_assert_eq!(idx, pos);
            acc += services[pos];
            prop_assert_eq!(at, acc);
        }
    }

    /// k servers: makespan within [total/k, total/k + max] (list scheduling
    /// bound) and never less than the longest single request.
    #[test]
    fn multi_server_makespan_bounds(
        services in proptest::collection::vec(1u64..1_000, 1..60),
        k in 1u32..8,
    ) {
        let mut sim: S = Sim::new();
        let r = sim.add_resource("r", k);
        for &svc in &services {
            sim.use_resource(r, svc, |_, _| {});
        }
        let end = sim.run(&mut ());
        let total: u64 = services.iter().sum();
        let max = *services.iter().max().unwrap();
        let lower = (total / k as u64).max(max);
        prop_assert!(end >= lower.min(total), "makespan {end} below bound {lower}");
        prop_assert!(end <= total, "makespan {end} above serial time {total}");
    }

    /// A latch fires exactly when the last of n contributors finishes.
    #[test]
    fn latch_fires_at_max_delay(delays in proptest::collection::vec(1u64..10_000, 1..50)) {
        let mut sim: S = Sim::new();
        let fired: Rc<RefCell<Option<SimTime>>> = Rc::default();
        let f = fired.clone();
        let latch = Latch::with(delays.len() as u64, move |s: &mut S, _| {
            *f.borrow_mut() = Some(s.now());
        });
        for &d in &delays {
            let l = latch.clone();
            sim.after(d, move |s, _| l.count_down(s));
        }
        sim.run(&mut ());
        prop_assert_eq!(*fired.borrow(), Some(*delays.iter().max().unwrap()));
    }
}

proptest! {
    /// Arena recycling: however many events flow through the kernel, the
    /// arena's high-water mark tracks the peak number *simultaneously*
    /// pending, not the total. Waves of events run back-to-back (each
    /// wave scheduled from within the previous wave's last event, so the
    /// kernel never goes idle) must leave capacity at the widest wave.
    #[test]
    fn arena_capacity_tracks_peak_not_total(
        waves in proptest::collection::vec(1usize..40, 1..12),
    ) {
        let mut sim: S = Sim::new();
        let waves = Rc::new(waves);
        let fired = Rc::new(RefCell::new(0u64));
        fn launch(sim: &mut S, waves: Rc<Vec<usize>>, wave: usize, fired: Rc<RefCell<u64>>) {
            let Some(&n) = waves.get(wave) else { return };
            for i in 0..n {
                let waves = waves.clone();
                let fired = fired.clone();
                sim.after(10 + i as u64, move |s, _| {
                    *fired.borrow_mut() += 1;
                    // Last event of the wave launches the next wave.
                    if i + 1 == n {
                        launch(s, waves, wave + 1, fired);
                    }
                });
            }
        }
        launch(&mut sim, waves.clone(), 0, fired.clone());
        sim.run(&mut ());
        let total: usize = waves.iter().sum();
        prop_assert_eq!(*fired.borrow() as usize, total);
        // +1: the launching event of the next wave may still be live
        // while it schedules its successors.
        let peak = waves.iter().copied().max().unwrap_or(0) + 1;
        prop_assert!(
            sim.arena_capacity() <= peak,
            "arena grew to {} slots for peak concurrency {}",
            sim.arena_capacity(), peak
        );
        prop_assert_eq!(sim.arena_live(), 0);
    }

    /// Slot recycling never confuses identities: interleaved schedule /
    /// fire traffic (a sliding window of pending events) delivers every
    /// payload exactly once, in time order.
    #[test]
    fn recycled_slots_deliver_every_payload_once(
        delays in proptest::collection::vec(1u64..500, 1..120),
    ) {
        let mut sim: S = Sim::new();
        let seen: Rc<RefCell<Vec<usize>>> = Rc::default();
        // Chain: event i schedules event i+1 (slot of i is recycled for
        // i+1), with a decoy event in between so the freelist is
        // exercised out of order.
        fn chain(sim: &mut S, delays: Rc<Vec<u64>>, i: usize, seen: Rc<RefCell<Vec<usize>>>) {
            let Some(&d) = delays.get(i) else { return };
            sim.after(d, {
                let seen2 = seen.clone();
                let delays = delays.clone();
                move |s, _| {
                    seen2.borrow_mut().push(i);
                    s.after(0, |_, _| {}); // decoy occupying a slot
                    chain(s, delays, i + 1, seen2.clone());
                }
            });
        }
        let n = delays.len();
        chain(&mut sim, Rc::new(delays), 0, seen.clone());
        sim.run(&mut ());
        let seen = seen.borrow();
        prop_assert_eq!(seen.clone(), (0..n).collect::<Vec<_>>());
        prop_assert_eq!(sim.arena_live(), 0);
    }

    /// S2 invariant: merging per-shard histograms then asking for a
    /// quantile equals recording the concatenated sample stream into one
    /// histogram. Bucketing is deterministic, so this is exact equality,
    /// not approximate.
    #[test]
    fn merged_histogram_quantiles_match_concatenated_stream(
        shards in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000_000, 0..80),
            1..6,
        ),
        q_mille in 0u64..=1000,
    ) {
        use simkit::stats::LatencyHistogram;
        let mut merged = LatencyHistogram::new();
        let mut concat = LatencyHistogram::new();
        for samples in &shards {
            let mut shard = LatencyHistogram::new();
            for &v in samples {
                shard.record(v);
                concat.record(v);
            }
            merged.merge(&shard);
        }
        prop_assert_eq!(merged.count(), concat.count());
        prop_assert_eq!(merged.max(), concat.max());
        prop_assert_eq!(merged.mean().to_bits(), concat.mean().to_bits());
        let q = q_mille as f64 / 1000.0;
        prop_assert_eq!(merged.quantile(q), concat.quantile(q));
        for fixed in [0.5, 0.95, 0.99] {
            prop_assert_eq!(merged.quantile(fixed), concat.quantile(fixed));
        }
    }
}

/// splitmix64 finalizer — deterministic pseudo-random integers.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Probe that renders every event to a line; streams compare with `==`.
#[derive(Default)]
struct RecordingProbe(Vec<String>);

impl Probe for RecordingProbe {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        self.0.push(format!("{ev:?}"));
    }
}

/// Number of one-shot timers [`run_mixed`] schedules; their log ids are
/// `0..ONE_SHOTS`.
const ONE_SHOTS: u64 = 500;

/// Delay of one-shot timer `i` under `seed`: 64 distinct instants for 500
/// timers, so same-instant FIFO ties are dense.
fn one_shot_delay(seed: u64, i: u64) -> SimTime {
    mix(seed ^ i) % 64
}

/// A mixed workload driven by `seed`: clustered one-shot timers,
/// self-rescheduling timers, and two FIFO resources. Returns the firing
/// log `(time, id)`, the probe stream, the final clock and the event count.
fn run_mixed(seed: u64) -> (Vec<(SimTime, u64)>, Vec<String>, SimTime, u64) {
    let mut sim: Sim<Vec<(SimTime, u64)>> = Sim::new();
    let probe = Rc::new(RefCell::new(RecordingProbe::default()));
    sim.set_probe(Some(probe.clone()));
    let mut w: Vec<(SimTime, u64)> = Vec::new();

    for i in 0..ONE_SHOTS {
        sim.after(one_shot_delay(seed, i), move |s, w: &mut Vec<_>| {
            w.push((s.now(), i))
        });
    }
    // Self-rescheduling timers: events scheduled *from* events, far apart.
    for i in 0..50u64 {
        fn tick(sim: &mut Sim<Vec<(SimTime, u64)>>, seed: u64, i: u64, left: u32) {
            let d = mix(seed.wrapping_mul(31).wrapping_add(i)) % 10_000 + 1;
            sim.after(d, move |s, w: &mut Vec<_>| {
                w.push((s.now(), 1_000 + i));
                if left > 0 {
                    tick(s, seed.wrapping_add(left as u64), i, left - 1);
                }
            });
        }
        tick(&mut sim, seed, i, 8);
    }
    // Two FIFO resources fed with pseudo-random service demands.
    let disk = sim.add_resource("disk", 2);
    let cpu = sim.add_resource("cpu", 4);
    for i in 0..200u64 {
        let h = mix(seed.rotate_left(17) ^ i);
        let r = if h.is_multiple_of(2) { disk } else { cpu };
        let service = (h >> 8) % 5_000 + 1;
        sim.use_resource(r, service, move |s, w: &mut Vec<_>| {
            w.push((s.now(), 2_000 + i));
        });
    }

    let end = sim.run(&mut w);
    let lines = std::mem::take(&mut probe.borrow_mut().0);
    (w, lines, end, sim.events_executed())
}

/// Same seed, same run; firing times never decrease; and the one-shot
/// timers, read out of the log, fire in `(delay, i)` order — the sorted
/// reference for same-instant FIFO ties at the `Sim` level.
#[test]
fn mixed_workload_replays_and_fires_ties_fifo() {
    for seed in [7, 1_234, 0xDEAD_BEEF, u64::MAX / 3] {
        let run = run_mixed(seed);
        assert_eq!(run, run_mixed(seed), "seed {seed} did not replay");
        let (log, ..) = run;
        assert!(
            log.windows(2).all(|p| p[0].0 <= p[1].0),
            "time went backwards (seed {seed})"
        );
        let fired: Vec<u64> = log
            .iter()
            .filter(|&&(_, id)| id < ONE_SHOTS)
            .map(|&(_, id)| id)
            .collect();
        let mut want: Vec<u64> = (0..ONE_SHOTS).collect();
        want.sort_by_key(|&i| (one_shot_delay(seed, i), i));
        assert_eq!(
            fired, want,
            "one-shot timers out of (delay, i) order (seed {seed})"
        );
    }
}
