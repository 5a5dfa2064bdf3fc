//! The event queue and the event arena.
//!
//! The kernel's hot loop is "pop the earliest event, run it, repeat" — at
//! the 16 TB scale factors and million-user serving scenarios the ROADMAP
//! targets, hundreds of millions of events flow through it, so both the
//! *queue discipline* and the *allocation pattern* matter:
//!
//! * **Arena (slab) storage.** Every scheduled action lives in a recycled
//!   slot of a `Arena`: the priority structure itself holds only `Copy`
//!   `Entry` triples `(at, seq, slot)` — 24 bytes, no destructor — so
//!   bucket operations are plain memmoves and the slab's free list
//!   recycles slots instead of round-tripping the allocator per event.
//!   The slab grows to the peak number of *concurrently pending* events
//!   and then stays flat (see the arena-recycling property test).
//!
//! * **Calendar queue** (`CalendarQueue`): a ring of time buckets of
//!   power-of-two width. Push indexes straight into a bucket (O(1)); a
//!   search scans the small current bucket for its minimum time.
//!   Events beyond the ring's horizon wait in a spill heap and are claimed
//!   by the same year check every search performs, so ordering is exact
//!   while the common case never pays an O(log n) sift. The ring resizes
//!   (deterministically, from event count and measured scan work) as the
//!   pending population changes, and takes its bucket width from the
//!   dense part of the pending set: a few far timers wait in the spill
//!   heap instead of widening every bucket.
//!
//! * **Same-instant lane.** A search moves *every* entry at the minimum
//!   time `t` — from its bucket and from the spill heap — into a FIFO
//!   lane, sorted by `seq`, and remembers `t`. Later pops take the lane's
//!   front without searching, and a push at exactly `t` appends to it:
//!   `seq` is monotone, so append order is `(at, seq)` order. The lane
//!   time stays set after the lane drains, so the zero-delay
//!   continuations an event schedules at `now` never touch a bucket, and
//!   k ties at one instant cost one search instead of k²/2 scanned
//!   entries. No bucket or spill entry is ever at the lane time; a push
//!   *before* it (possible only after a peek) puts the lane back into the
//!   ring and clears it. Resizing never sees the lane, so a pile of ties
//!   does not set the bucket width.
//!
//! Ordering contract: strictly increasing `(at, seq)` — earliest time
//! first, FIFO among equal times via the monotone sequence number. This is
//! the determinism contract every byte-diffed artifact in `results/` rests
//! on. The unit tests check it with a property test that replays generated
//! push/pop/peek sequences — zero-delay continuations, ties, peeks
//! followed by earlier pushes among them — against a sorted `BTreeSet`
//! model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::resource::ResourceId;
use crate::sim::{Event, SimTime};

/// What a scheduled event *does* when it fires. `Call` is a user closure;
/// `Completion` is a kernel-native resource-service completion, which the
/// old kernel modelled as a second `Box` wrapped around the user's `done`
/// closure — one allocation per resource request that the arena kills.
pub(crate) enum Action<W> {
    Call(Event<W>),
    Completion {
        res: ResourceId,
        req: u64,
        ctx: Option<u64>,
        client: Option<u32>,
        done: Event<W>,
    },
}

/// Recycling slab of pending [`Action`]s. Slots freed by fired events are
/// reused before the slab grows, so capacity tracks *peak concurrency*,
/// not total event count.
pub(crate) struct Arena<W> {
    slots: Vec<Option<Action<W>>>,
    free: Vec<u32>,
}

impl<W> Arena<W> {
    pub(crate) fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, action: Action<W>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(action);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX events concurrently pending");
                self.slots.push(Some(action));
                slot
            }
        }
    }

    pub(crate) fn take(&mut self, slot: u32) -> Action<W> {
        let action = self.slots[slot as usize]
            .take()
            .expect("event slot fired twice or never filled");
        self.free.push(slot);
        action
    }

    /// Total slots ever allocated — the peak-concurrency high-water mark.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently holding a pending event.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Queue entry: the full ordering key plus the arena slot. `Copy`, no
/// destructor — the queue shuffles only these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Entry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

/// Initial ring size; grows (powers of two) as the pending set grows.
const INITIAL_BUCKETS: usize = 256;
/// Initial bucket width exponent: 2^17 ns ≈ 131 µs. Resizes re-derive the
/// width from the pending events, so this only seeds small sims.
const INITIAL_SHIFT: u32 = 17;
/// Ring size cap: beyond this, extra events deepen buckets instead.
/// 2^21 buckets ≈ 50 MB of bucket headers — large enough that
/// multi-million-event populations keep buckets short (the pop scan is
/// the calendar's only super-constant work), small enough to stay a
/// rounding error next to the events themselves.
const MAX_BUCKETS: usize = 1 << 21;
/// Bucket width ceiling: 2^40 ns (~18 min of sim time) per bucket keeps
/// window jumps cheap. No floor: nanosecond-dense workloads want
/// single-nanosecond buckets.
const MAX_SHIFT: u32 = 40;
/// Recalibration cadence: every this-many pops, compare the measured
/// pop work against the thresholds below and re-derive the bucket width
/// if the ring is mis-tuned for the current event density. A check that
/// trips costs O(buckets + events), so the next check then waits at least
/// that many pops: recalibration stays amortised O(1) per pop however
/// large the pending set.
const RECAL_PERIOD: u64 = 4096;
/// Width too *wide*: pops scan more than this many bucket entries on
/// average (entries pile into few long buckets). Public so the bench
/// validator holds the kernel bench's [`QueueWork::scan_per_pop`] to the
/// same bound.
pub const MAX_SCAN_PER_POP: u64 = 16;
/// Width too *narrow*: pops step over more than this many empty buckets
/// on average.
const MAX_ADVANCE_PER_POP: u64 = 6;
/// The width comes from the pending times up to this percentile: the
/// dense part of the pending set. A sparse tail of far timers lies past
/// the window that part sets and waits in the overflow heap.
const DENSE_PERCENTILE: usize = 90;

/// Cumulative work of the queue's pop loop: a read-only diagnostic (see
/// [`crate::Sim::queue_work`]) that nothing in dispatch reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueWork {
    /// Pops that searched the queue (a pop of the entry a peek's search
    /// found was counted at the peek).
    pub pops: u64,
    /// Bucket entries those pops scanned.
    pub scanned: u64,
    /// Empty buckets those pops stepped over.
    pub advances: u64,
    /// Searches that took entries from the overflow heap.
    pub spilled: u64,
    /// Pops the same-instant lane answered without a search: the other
    /// ties a search gathered, and events pushed at the lane's time.
    pub laned: u64,
}

impl QueueWork {
    /// Mean bucket entries scanned per pop (0 before the first pop).
    pub fn scan_per_pop(&self) -> f64 {
        self.scanned as f64 / self.pops.max(1) as f64
    }

    fn add(&mut self, w: QueueWork) {
        self.pops += w.pops;
        self.scanned += w.scanned;
        self.advances += w.advances;
        self.spilled += w.spilled;
        self.laned += w.laned;
    }
}

/// A calendar queue: `nb` buckets (power of two) of `2^shift` ns each,
/// covering a rolling window ("year" per bucket) of `nb << shift` ns from
/// `ring_start`. Events beyond the window spill to an overflow heap.
///
/// Buckets are unsorted: push is a pure append (one streamed write) and
/// pop scans the small current bucket for its minimum — cheaper than
/// keeping buckets sorted as long as buckets stay short, which the width
/// tuning guarantees. Besides growing with the pending population, the
/// queue counts the work its pops actually do — bucket entries scanned
/// (width too wide: everything piles into few long buckets), empty
/// buckets stepped over (width too narrow) and pops the overflow heap
/// answered (window too short) — and re-derives the width from the dense
/// part of the pending set whenever a [`RECAL_PERIOD`] window shows the
/// ring mis-tuned. Every trigger depends only on event data, so resizing
/// is deterministic.
///
/// Invariants: `ring_start <= at` for every stored event — maintained by
/// the search (which advances the window only past empty-or-future
/// buckets) and by push (which *rewinds* the window when handed an earlier
/// event, legal precisely because such an event is a new global minimum).
/// While `lane_at` is set, every ring and overflow event is later than it,
/// and the lane holds every pending event at `lane_at`, in `seq` order.
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    mask: usize,
    shift: u32,
    /// Index of the bucket whose year starts at `ring_start`.
    cur: usize,
    /// Start time of the current bucket's year (multiple of bucket width).
    ring_start: SimTime,
    /// Events stored in the ring (the overflow heap is counted separately).
    ring_len: usize,
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Every pending event at `lane_at`, in `seq` order.
    lane: VecDeque<Entry>,
    /// The time of the last search's minimum, until an earlier push.
    lane_at: Option<SimTime>,
    /// The lane's front is the entry the last search found, so popping it
    /// is that search's pop, not a laned one.
    front_searched: bool,
    /// Pop work since the last recalibration check.
    window: QueueWork,
    /// Pop work of every earlier window.
    past: QueueWork,
    /// Pops the current window lasts before the next check.
    recal_at: u64,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            mask: INITIAL_BUCKETS - 1,
            shift: INITIAL_SHIFT,
            cur: 0,
            ring_start: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_at: None,
            front_searched: false,
            window: QueueWork::default(),
            past: QueueWork::default(),
            recal_at: RECAL_PERIOD,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + self.lane.len()
    }

    /// Pop work since the queue was created.
    pub(crate) fn work(&self) -> QueueWork {
        let mut w = self.past;
        w.add(self.window);
        w
    }

    #[inline]
    fn width(&self) -> SimTime {
        1u64 << self.shift
    }

    #[inline]
    fn span(&self) -> SimTime {
        (self.buckets.len() as u64)
            .checked_shl(self.shift)
            .unwrap_or(u64::MAX)
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at >> self.shift) as usize) & self.mask
    }

    #[inline]
    fn year_start(&self, at: SimTime) -> SimTime {
        (at >> self.shift) << self.shift
    }

    // `Sim<W>` is generic, so its dispatch loop is compiled in the
    // caller's crate; `#[inline]` on push/pop/peek_time lets them inline
    // there instead of costing a cross-crate call per event.
    #[inline]
    pub(crate) fn push(&mut self, e: Entry) {
        if let Some(t) = self.lane_at {
            if e.at == t {
                self.lane.push_back(e);
                return;
            }
            if e.at < t {
                self.flush_lane();
            }
        }
        self.raw_push(e);
        self.maybe_grow();
    }

    fn raw_push(&mut self, e: Entry) {
        if e.at < self.ring_start {
            // Rewind: every stored event is >= ring_start > e.at, so `e`
            // is the new global minimum and moving the window back to its
            // year preserves the scan order exactly.
            self.cur = self.bucket_of(e.at);
            self.ring_start = self.year_start(e.at);
        }
        if e.at - self.ring_start < self.span() {
            let b = self.bucket_of(e.at);
            self.buckets[b].push(e);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((e.at, e.seq, e.slot)));
        }
    }

    /// An earlier push after a peek: the lane's events are no longer the
    /// minimum, so they go back into the ring and the lane time clears.
    fn flush_lane(&mut self) {
        self.lane_at = None;
        self.front_searched = false;
        while let Some(e) = self.lane.pop_front() {
            self.raw_push(e);
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        match self.lane.pop_front() {
            Some(e) => {
                if !std::mem::take(&mut self.front_searched) {
                    self.window.laned += 1;
                }
                Some(e)
            }
            None => self.search(),
        }
    }

    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.lane.is_empty() {
            let e = self.search()?;
            self.lane.push_front(e);
            self.front_searched = true;
        }
        self.lane.front().map(|e| e.at)
    }

    /// Search for the earliest pending time `t`, make it the lane time and
    /// return the first event at `t`; the (empty) lane takes the others.
    fn search(&mut self) -> Option<Entry> {
        if self.ring_len + self.overflow.len() == 0 {
            return None;
        }
        self.window.pops += 1;
        if self.window.pops >= self.recal_at {
            self.maybe_recalibrate();
        }
        let (t, only) = self.seek_min();
        self.lane_at = Some(t);
        if let Some(i) = only {
            self.ring_len -= 1;
            return Some(self.buckets[self.cur].swap_remove(i));
        }
        self.gather(t)
    }

    /// Move every event at `t` from the current bucket and the overflow
    /// heap into the lane, in `seq` order, and pop the first. Out of line:
    /// a search that finds one event at `t` never gets here.
    #[inline(never)]
    fn gather(&mut self, t: SimTime) -> Option<Entry> {
        let bucket = &mut self.buckets[self.cur];
        // Back to front: `swap_remove` fills each hole with an entry
        // already passed over, which is not at `t`.
        for i in (0..bucket.len()).rev() {
            if bucket[i].at == t {
                self.lane.push_back(bucket.swap_remove(i));
                self.ring_len -= 1;
            }
        }
        let mut spilled = false;
        while let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
            if at != t {
                break;
            }
            self.overflow.pop();
            self.lane.push_back(Entry { at, seq, slot });
            spilled = true;
        }
        self.window.spilled += u64::from(spilled);
        self.lane.make_contiguous().sort_unstable_by_key(|e| e.seq);
        self.lane.pop_front()
    }

    /// Move the window to the year of the earliest pending time `t` and
    /// return `t` (the queue is not empty), with the index of the current
    /// bucket's entry at `t` if it is the only pending event at `t`.
    fn seek_min(&mut self) -> (SimTime, Option<usize>) {
        if self.ring_len == 0 {
            // Ring empty: the overflow heap holds the global minimum.
            let Reverse((t, ..)) = *self.overflow.peek().expect("a pending event");
            self.cur = self.bucket_of(t);
            self.ring_start = self.year_start(t);
            return (t, None);
        }
        let mut steps = 0usize;
        loop {
            // Inclusive: `ring_start` is width-aligned, so this never
            // overflows, and an event at `SimTime::MAX` still falls inside
            // the last year (an exclusive, saturating end would skip it
            // forever).
            let year_last = self.ring_start + (self.width() - 1);
            // Earliest in-year time from a scan of the current bucket
            // (buckets are short by construction — the scan IS the width
            // tuning signal), and whether another entry shares it...
            let bucket = &self.buckets[self.cur];
            self.window.scanned += bucket.len() as u64;
            let (mut best, mut tie) = (None, false);
            for (i, e) in bucket.iter().enumerate() {
                match best {
                    Some((_, t)) if e.at > t => {}
                    Some((_, t)) if e.at == t => tie = true,
                    None if e.at > year_last => {}
                    _ => (best, tie) = (Some((i, e.at)), false),
                }
            }
            // ...competing with the overflow head if it entered the year.
            let over = self
                .overflow
                .peek()
                .map(|&Reverse((at, ..))| at)
                .filter(|&at| at <= year_last);
            match (best, over) {
                (Some((i, t)), o) if o.is_none_or(|o| t < o) => return (t, (!tie).then_some(i)),
                (_, Some(o)) => return (o, None),
                _ => {}
            }
            steps += 1;
            if steps > self.buckets.len() {
                self.jump_to_min();
                steps = 0;
                continue;
            }
            self.window.advances += 1;
            self.cur = (self.cur + 1) & self.mask;
            self.ring_start = year_last + 1;
        }
    }

    /// A full rotation without an in-year event: everything left in the
    /// ring aliases a later year. Jump the window straight to the ring's
    /// earliest event.
    #[cold]
    fn jump_to_min(&mut self) {
        let min_at = self
            .buckets
            .iter()
            .flatten()
            .map(|e| e.at)
            .min()
            .expect("ring_len > 0 guarantees a ring event");
        self.cur = self.bucket_of(min_at);
        self.ring_start = self.year_start(min_at);
    }

    /// Grow resize: when the pending set outgrows one-event-per-bucket,
    /// rebuild with headroom (load factor ~0.5) and a re-derived width.
    /// Purely a constant-factor change — order is unaffected — and driven
    /// only by event data, so it is deterministic.
    fn maybe_grow(&mut self) {
        let total = self.ring_len + self.overflow.len();
        if total <= self.buckets.len() * 2 || self.buckets.len() >= MAX_BUCKETS {
            return;
        }
        let nb = total
            .next_power_of_two()
            .clamp(INITIAL_BUCKETS, MAX_BUCKETS);
        self.rebuild(nb);
    }

    /// Work-driven recalibration (every [`RECAL_PERIOD`] pops at least):
    /// if pops scanned too many bucket entries (buckets too long → width
    /// too wide), stepped over too many empty buckets (width too narrow)
    /// or were mostly answered by the overflow heap (window too short for
    /// where events are pushed), re-derive the width from the dense part
    /// of the pending set at the current ring size.
    #[cold]
    fn maybe_recalibrate(&mut self) {
        let w = std::mem::take(&mut self.window);
        self.past.add(w);
        self.recal_at = RECAL_PERIOD;
        if w.scanned <= w.pops * MAX_SCAN_PER_POP
            && w.advances <= w.pops * MAX_ADVANCE_PER_POP
            && w.spilled * 2 <= w.pops
        {
            return;
        }
        let total = self.ring_len + self.overflow.len();
        if total < 2 {
            return;
        }
        // What follows is O(buckets + events); waiting as many pops before
        // the next check keeps it amortised O(1) per pop.
        self.recal_at = RECAL_PERIOD.max((self.buckets.len() + total) as u64);
        // Hysteresis: rebuild only if the re-derived width actually
        // differs — a workload sitting at a work threshold (say, many
        // same-instant ties, which no width splits) must not pay an O(n)
        // rebuild into the same geometry every window.
        let mut pending: Vec<Entry> = self
            .buckets
            .iter()
            .flatten()
            .copied()
            .chain(
                self.overflow
                    .iter()
                    .map(|&Reverse((at, seq, slot))| Entry { at, seq, slot }),
            )
            .collect();
        if dense_geometry(&mut pending, self.buckets.len()).1 == self.shift {
            return;
        }
        self.rebuild(self.buckets.len());
    }

    /// Re-bucket every stored event into `nb` buckets (power of two) with
    /// a width from the dense part of the pending set (see
    /// [`dense_geometry`]). No-op on ordering; the lane is untouched.
    fn rebuild(&mut self, nb: usize) {
        let total = self.ring_len + self.overflow.len();
        let mut entries: Vec<Entry> = Vec::with_capacity(total);
        for b in &mut self.buckets {
            entries.append(b);
        }
        for Reverse((at, seq, slot)) in self.overflow.drain() {
            entries.push(Entry { at, seq, slot });
        }
        if entries.is_empty() {
            return;
        }
        let (min_at, shift) = dense_geometry(&mut entries, nb);
        self.shift = shift;
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        self.mask = self.buckets.len() - 1;
        self.ring_len = 0;
        self.cur = self.bucket_of(min_at);
        self.ring_start = self.year_start(min_at);
        for e in entries {
            self.raw_push(e);
        }
    }
}

/// The earliest pending time, and the width exponent for `nb` buckets,
/// from the dense part of `pending`: the span from its earliest time to
/// its [`DENSE_PERCENTILE`]th-percentile time. The `nb`-bucket window
/// covers four to eight times that span, so steady-state pushes land in
/// the ring, while a sparse tail of far timers (stats ticks out to the end
/// of a run, checkpoints scheduled up front) waits in the overflow heap
/// instead of stretching every bucket. Reorders `pending`; expected O(len).
fn dense_geometry(pending: &mut [Entry], nb: usize) -> (SimTime, u32) {
    let k = (pending.len() - 1) * DENSE_PERCENTILE / 100;
    let (below, kth, _) = pending.select_nth_unstable_by_key(k, |e| e.at);
    let dense_end = kth.at;
    let min_at = below.iter().map(|e| e.at).min().unwrap_or(dense_end);
    let target_width = ((dense_end - min_at).saturating_mul(4) / nb as u64).max(1);
    (min_at, (64 - target_width.leading_zeros()).min(MAX_SHIFT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn entry(at: SimTime, seq: u64) -> Entry {
        Entry {
            at,
            seq,
            slot: seq as u32,
        }
    }

    /// splitmix64 finalizer: deterministic spreading of generated salts.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// One step of a generated queue workload. Push times are relative to
    /// the clock (the last popped time), the way `Sim` schedules them.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// `count` events at one instant `delay` ns ahead: same-instant ties.
        Tie {
            delay: u64,
            count: u64,
        },
        /// One event `2^exp + jitter` ns ahead (saturating; `exp` 64 is
        /// `SimTime::MAX`): far-future overflow.
        Far {
            exp: u32,
            jitter: u64,
        },
        /// One event `years` ring spans plus `off` ns past the start of
        /// the queue's current window (never before the clock). Year 0
        /// lands in the ring, later years alias the same bucket; after a
        /// peek has moved the window ahead, an earlier push rewinds it
        /// and leaves these ring events a year or more out.
        Alias {
            years: u64,
            off: u64,
        },
        /// `n` events spread over `2^spread` ns: forces the ring to grow.
        Burst {
            n: u64,
            spread: u32,
            salt: u64,
        },
        /// `n` times: pop, then push an event under `2^spread` ns after
        /// it. Holds the population steady, dense or sparse enough for
        /// the scan/advance counters to force a recalibration.
        Hold {
            n: u64,
            spread: u32,
            salt: u64,
        },
        /// `far` timers at 1, 2, … `far` times `2^(spread + 12)` ns ahead,
        /// then a `Burst` of `n` events under `2^spread` ns ahead, held by
        /// `4n` `Hold` steps: a closed loop kept dense next to a sparse
        /// tail of far timers, which must not set the bucket width.
        DenseTail {
            n: u64,
            far: u64,
            spread: u32,
            salt: u64,
        },
        /// Peek, then push an event between the clock and the peeked time.
        PeekThenEarlier {
            frac: u64,
        },
        /// Pop, then push `count` events at the clock: the zero-delay
        /// continuations an event schedules at `now`.
        Now {
            count: u64,
        },
        /// `count` events `2^exp` ns ahead, then a peek, which fills the
        /// lane with the ties at the minimum time. An event between the
        /// clock and the peeked time flushes the lane; then `count` more
        /// events at the peeked time tie with the flushed ones, in the
        /// ring or, once the window has rewound a span or more, in the
        /// overflow heap.
        TieFlush {
            exp: u32,
            count: u64,
            frac: u64,
        },
        Peek,
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..64, 1u64..9).prop_map(|(delay, count)| Op::Tie { delay, count }),
            (18u32..65, 0u64..1_000).prop_map(|(exp, jitter)| Op::Far { exp, jitter }),
            (0u64..4, any::<u64>()).prop_map(|(years, off)| Op::Alias { years, off }),
            (1u64..1_500, 0u32..40, any::<u64>()).prop_map(|(n, spread, salt)| Op::Burst {
                n,
                spread,
                salt
            }),
            (1u64..6_000, 0u32..24, any::<u64>()).prop_map(|(n, spread, salt)| Op::Hold {
                n,
                spread,
                salt
            }),
            (1u64..1_000, 1u64..9, 0u32..26, any::<u64>()).prop_map(|(n, far, spread, salt)| {
                Op::DenseTail {
                    n,
                    far,
                    spread,
                    salt,
                }
            }),
            any::<u64>().prop_map(|frac| Op::PeekThenEarlier { frac }),
            (1u64..9).prop_map(|count| Op::Now { count }),
            (0u32..40, 2u64..9, any::<u64>()).prop_map(|(exp, count, frac)| Op::TieFlush {
                exp,
                count,
                frac
            }),
            Just(Op::Peek),
            // Pops weighted three to one so queues drain as well as fill.
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    /// Which queue regimes a replay reached.
    #[derive(Default, Debug, PartialEq)]
    struct Reached {
        tie: bool,
        overflow: bool,
        alias: bool,
        grow: bool,
        recalibrate: bool,
        rewind: bool,
        earlier_after_peek: bool,
        far_tail: bool,
        /// A pop the lane answered without a search.
        lane: bool,
        /// An earlier push put a lane of two or more ties back.
        flush: bool,
    }

    /// A `CalendarQueue` driven in lockstep with the sorted reference
    /// model: every pop and peek must return the model's minimum and
    /// every `len()` the model's size.
    struct Oracle {
        q: CalendarQueue,
        model: BTreeSet<(SimTime, u64)>,
        seq: u64,
        clock: SimTime,
        reached: Reached,
    }

    impl Oracle {
        fn push(&mut self, at: SimTime) -> Result<(), String> {
            let (nb, shift, start) = (self.q.buckets.len(), self.q.shift, self.q.ring_start);
            let laned = self.q.lane.len();
            self.q.push(entry(at, self.seq));
            self.reached.flush |= laned > 1 && self.q.lane.is_empty();
            self.model.insert((at, self.seq));
            self.seq += 1;
            self.reached.grow |= self.q.buckets.len() > nb;
            self.reached.recalibrate |= self.q.buckets.len() == nb && self.q.shift != shift;
            self.reached.rewind |= self.q.ring_start < start;
            self.reached.overflow |= !self.q.overflow.is_empty();
            self.note_rebuild(nb, shift);
            self.check_len()
        }

        fn pop(&mut self) -> Result<(), String> {
            let (nb, shift, laned) = (self.q.buckets.len(), self.q.shift, self.q.work().laned);
            let got = self.q.pop();
            let want = self.model.pop_first().map(|(at, seq)| entry(at, seq));
            if got != want {
                return Err(format!("pop returned {got:?}, model holds {want:?} next"));
            }
            self.reached.recalibrate |= self.q.buckets.len() == nb && self.q.shift != shift;
            self.reached.lane |= self.q.work().laned > laned;
            self.note_rebuild(nb, shift);
            if let Some(e) = got {
                self.reached.tie |= self.model.first().is_some_and(|&(at, _)| at == e.at);
                self.clock = e.at;
            }
            self.check_len()
        }

        fn peek(&mut self) -> Result<Option<SimTime>, String> {
            let got = self.q.peek_time();
            let want = self.model.first().map(|&(at, _)| at);
            if got != want {
                return Err(format!("peek_time returned {got:?}, model min {want:?}"));
            }
            self.check_len()?;
            Ok(got)
        }

        /// A rebuild (new ring size or width) that leaves the ring in use
        /// and, in the overflow heap, an event that a window of the widest
        /// buckets would have held: the width came from the dense part of
        /// the pending set, not from its far tail.
        fn note_rebuild(&mut self, nb: usize, shift: u32) {
            let q = &self.q;
            if (q.buckets.len(), q.shift) == (nb, shift) || q.ring_len == 0 {
                return;
            }
            let widest = (q.buckets.len() as u64) << MAX_SHIFT;
            self.reached.far_tail |= q
                .overflow
                .peek()
                .is_some_and(|Reverse((at, ..))| at - q.ring_start < widest);
        }

        fn check_len(&self) -> Result<(), String> {
            if self.q.len() != self.model.len() {
                return Err(format!(
                    "len {} but model holds {}",
                    self.q.len(),
                    self.model.len()
                ));
            }
            Ok(())
        }

        fn apply(&mut self, op: Op) -> Result<(), String> {
            let now = self.clock;
            match op {
                Op::Tie { delay, count } => {
                    for _ in 0..count {
                        self.push(now.saturating_add(delay))?;
                    }
                }
                Op::Far { exp, jitter } => {
                    let ahead = 1u64.checked_shl(exp).unwrap_or(SimTime::MAX);
                    self.push(now.saturating_add(ahead).saturating_add(jitter))?;
                }
                Op::Alias { years, off } => {
                    let span = self.q.span();
                    let at = self
                        .q
                        .ring_start
                        .saturating_add(years.saturating_mul(span))
                        .saturating_add(off % span);
                    self.push(at.max(now))?;
                }
                Op::Burst { n, spread, salt } => {
                    for i in 0..n {
                        self.push(now.saturating_add(mix(salt ^ i) % (1 << spread)))?;
                    }
                }
                Op::Hold { n, spread, salt } => {
                    for i in 0..n {
                        if self.model.is_empty() {
                            self.push(self.clock)?;
                        }
                        self.pop()?;
                        self.push(self.clock.saturating_add(mix(salt ^ i) % (1 << spread)))?;
                    }
                }
                Op::DenseTail {
                    n,
                    far,
                    spread,
                    salt,
                } => {
                    for i in 1..=far {
                        self.push(now.saturating_add(i << (spread + 12)))?;
                    }
                    self.apply(Op::Burst { n, spread, salt })?;
                    self.apply(Op::Hold {
                        n: 4 * n,
                        spread,
                        salt: !salt,
                    })?;
                }
                Op::PeekThenEarlier { frac } => {
                    if let Some(t) = self.peek()? {
                        self.reached.earlier_after_peek |= t > now;
                        // Saturating: `t - now` is `u64::MAX` when the
                        // clock is 0 and the peeked event is at `SimTime::MAX`.
                        self.push(now + frac % (t - now).saturating_add(1))?;
                    }
                }
                Op::Now { count } => {
                    if self.model.is_empty() {
                        self.push(now)?;
                    }
                    self.pop()?;
                    for _ in 0..count {
                        self.push(self.clock)?;
                    }
                }
                Op::TieFlush { exp, count, frac } => {
                    for _ in 0..count {
                        self.push(now.saturating_add(1 << exp))?;
                    }
                    if let Some(t) = self.peek()? {
                        if t > now {
                            self.push(now + frac % (t - now))?;
                        }
                        for _ in 0..count {
                            self.push(t)?;
                        }
                    }
                }
                Op::Peek => {
                    self.peek()?;
                }
                Op::Pop => self.pop()?,
            }
            // A ring event a span or more past the window start shares its
            // bucket with the window's own year.
            let (start, span) = (self.q.ring_start, self.q.span());
            self.reached.alias |= self
                .q
                .buckets
                .iter()
                .flatten()
                .any(|e| e.at - start >= span);
            Ok(())
        }
    }

    /// Replay `ops`, then drain, checking every step against the model.
    fn replay(ops: &[Op]) -> Result<Reached, String> {
        let mut o = Oracle {
            q: CalendarQueue::new(),
            model: BTreeSet::new(),
            seq: 0,
            clock: 0,
            reached: Reached::default(),
        };
        for (i, &op) in ops.iter().enumerate() {
            o.apply(op)
                .map_err(|why| format!("op {i} ({op:?}): {why}"))?;
        }
        while !o.model.is_empty() {
            o.pop().map_err(|why| format!("final drain: {why}"))?;
        }
        if o.q.pop().is_some() {
            return Err("queue outlived its model".into());
        }
        Ok(o.reached)
    }

    proptest! {
        /// The queue pops in exactly the order of a sorted `(at, seq)`
        /// set, and its length tracks the set, over generated mixes of
        /// same-instant ties, zero-delay continuations, far-future
        /// overflow, same-bucket aliasing, growth bursts, recalibrating
        /// holds, dense loops next to a far tail, earlier-than-peeked
        /// pushes and lanes of ties they flush. `Sim` fires events in pop
        /// order, so this is the kernel's whole ordering contract.
        #[test]
        fn pops_match_a_sorted_reference_model(
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            prop_assert_eq!(replay(&ops).map(|_| ()), Ok(()));
        }
    }

    #[test]
    fn events_at_the_end_of_time_pop() {
        // Once the window reaches the last year of `SimTime`, an event at
        // `SimTime::MAX` must still count as in-year.
        let end = Op::Far { exp: 64, jitter: 0 };
        replay(&[
            end,
            Op::Peek,
            end,
            Op::Pop,
            end,
            Op::Tie { delay: 0, count: 2 },
        ])
        .expect("queue agrees with the model");
    }

    #[test]
    fn earlier_push_under_an_event_at_the_end_of_time() {
        // The widest peek-then-earlier gap: clock 0, peeked event at
        // `SimTime::MAX`.
        let end = Op::Far { exp: 64, jitter: 0 };
        for frac in [0, 1, u64::MAX - 1, u64::MAX] {
            replay(&[end, Op::PeekThenEarlier { frac }]).expect("queue agrees with the model");
        }
    }

    #[test]
    fn op_vocabulary_reaches_every_regime() {
        // Peek a far event so the window jumps ahead, fill that window,
        // then push before the peeked event so the window rewinds under
        // it. Ties a peek gathered go back to the ring under an earlier
        // push, and zero-delay pushes join the lane a pop left. Then burst
        // into one bucket and hold it dense until the scan counter
        // recalibrates (pops the lane answers are not searches, so the
        // hold runs long enough for 4096 searches), and grow past the
        // initial ring. Holding a dense loop while far events wait sets
        // the width from the dense part and leaves the far tail in the
        // overflow heap.
        let ops = [
            Op::Far { exp: 30, jitter: 0 },
            Op::Peek,
            Op::Alias {
                years: 0,
                off: 3 << 20,
            },
            Op::PeekThenEarlier { frac: 12_345 },
            Op::Pop,
            Op::Tie { delay: 5, count: 4 },
            Op::TieFlush {
                exp: 12,
                count: 3,
                frac: 99,
            },
            Op::Now { count: 3 },
            Op::Burst {
                n: 400,
                spread: 10,
                salt: 1,
            },
            Op::Hold {
                n: 8_000,
                spread: 10,
                salt: 2,
            },
            Op::Burst {
                n: 1_200,
                spread: 30,
                salt: 3,
            },
            Op::Alias { years: 2, off: 77 },
            Op::Hold {
                n: 2_000,
                spread: 20,
                salt: 4,
            },
            Op::Far { exp: 64, jitter: 0 },
            Op::DenseTail {
                n: 800,
                far: 8,
                spread: 25,
                salt: 5,
            },
        ];
        let reached = replay(&ops).expect("queue agrees with the model");
        assert_eq!(
            reached,
            Reached {
                tie: true,
                overflow: true,
                alias: true,
                grow: true,
                recalibrate: true,
                rewind: true,
                earlier_after_peek: true,
                far_tail: true,
                lane: true,
                flush: true,
            }
        );
    }

    #[test]
    fn far_timers_leave_a_dense_closed_loop_short_buckets() {
        // The serving shape: a few timers seconds ahead (stats ticks out to
        // the end of the run) scheduled first, then ~800 closed-loop
        // clients within ~40 ms of the clock, each pushed again as soon as
        // it pops. Sizing buckets from the whole span put all 800 into a
        // handful of buckets and scanned hundreds of entries per pop.
        const MS: SimTime = 1_000_000;
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue, at: SimTime| {
            q.push(entry(at, seq));
            seq += 1;
        };
        for s in 2..=9 {
            push(&mut q, s * 1_000 * MS);
        }
        for i in 0..800 {
            push(&mut q, mix(i) % (40 * MS));
        }
        let mut hold = |q: &mut CalendarQueue, pops: u64| {
            for _ in 0..pops {
                let e = q.pop().expect("the loop holds its population");
                push(q, e.at + mix(e.seq) % (40 * MS));
            }
        };
        hold(&mut q, RECAL_PERIOD);
        let first_window = q.work();
        hold(&mut q, 8 * RECAL_PERIOD);
        let w = q.work();
        let (pops, scanned) = (w.pops - first_window.pops, w.scanned - first_window.scanned);
        assert!(
            scanned <= pops * MAX_SCAN_PER_POP,
            "{scanned} entries scanned over {pops} pops"
        );
    }

    #[test]
    fn a_width_set_by_same_instant_ties_widens_again() {
        // A rebuild while same-instant ties make up the dense part of the
        // pending set gives 2 ns buckets. Once the ties drain, every push
        // lands past the window and the overflow heap answers every pop,
        // scanning no bucket and stepping over none: only the count of
        // heap-answered pops can show the ring mis-tuned.
        const MS: SimTime = 1_000_000;
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..120 {
            let at = if i < 110 { MS } else { MS + mix(i) % MS };
            q.push(entry(at, seq));
            seq += 1;
        }
        q.rebuild(q.buckets.len());
        assert_eq!(q.shift, 1, "the ties set the width");
        for _ in 0..3 * RECAL_PERIOD {
            let e = q.pop().expect("the loop holds its population");
            q.push(entry(e.at + mix(e.seq) % MS, seq));
            seq += 1;
        }
        let before = q.work();
        for _ in 0..RECAL_PERIOD {
            let e = q.pop().expect("the loop holds its population");
            q.push(entry(e.at + mix(e.seq) % MS, seq));
            seq += 1;
        }
        let w = q.work();
        let (pops, spilled) = (w.pops - before.pops, w.spilled - before.spilled);
        assert!(
            spilled * 10 < pops,
            "{spilled} of {pops} pops answered by the overflow heap"
        );
    }

    /// Oracle check: any push sequence drains in exact (at, seq) order.
    fn drains_sorted(mut q: CalendarQueue, mut entries: Vec<Entry>) {
        for e in &entries {
            q.push(*e);
        }
        entries.sort_by_key(|e| (e.at, e.seq));
        for want in entries {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn orders_dense_same_bucket_and_ties() {
        let es = vec![
            entry(5, 3),
            entry(5, 1),
            entry(4, 2),
            entry(5, 0),
            entry(0, 4),
        ];
        drains_sorted(CalendarQueue::new(), es);
    }

    #[test]
    fn orders_across_years_and_overflow() {
        // Mix of near events, far events (beyond the initial window), and
        // events that alias the same bucket from different years.
        let width = 1u64 << INITIAL_SHIFT;
        let span = width * INITIAL_BUCKETS as u64;
        let mut es = Vec::new();
        for i in 0..50u64 {
            es.push(entry(i * width * 3, i)); // walks past several buckets
            es.push(entry(i * span + 7, 100 + i)); // same bucket, year i
            es.push(entry(10 * span + i, 200 + i)); // deep overflow
        }
        drains_sorted(CalendarQueue::new(), es);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut state = 0x243F6A8885A308D3u64; // deterministic LCG-ish walk
        let mut next = |lo: u64, hi: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (state >> 33) % (hi - lo)
        };
        let mut now = 0u64;
        let mut pending = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            if pending.is_empty() || next(0, 3) > 0 {
                let at = now + next(0, 1 << 22);
                q.push(entry(at, seq));
                pending.insert((at, seq));
                seq += 1;
            } else {
                let want = *pending.iter().next().expect("non-empty");
                pending.remove(&want);
                let got = q.pop().expect("queue tracks the model");
                assert_eq!((got.at, got.seq), want);
                now = got.at;
            }
        }
        while let Some(got) = q.pop() {
            let want = *pending.iter().next().expect("model has it");
            pending.remove(&want);
            assert_eq!((got.at, got.seq), want);
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn peek_then_earlier_push_reorders() {
        let mut q = CalendarQueue::new();
        q.push(entry(1_000_000_000, 0));
        assert_eq!(q.peek_time(), Some(1_000_000_000));
        // Window has jumped to the peeked event's year; an earlier push
        // must rewind and still come out first.
        q.push(entry(500, 1));
        assert_eq!(q.pop(), Some(entry(500, 1)));
        assert_eq!(q.pop(), Some(entry(1_000_000_000, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn the_lane_answers_ties_and_zero_delay_pushes_without_a_search() {
        let mut q = CalendarQueue::new();
        for seq in 0..3 {
            q.push(entry(7, seq));
        }
        q.push(entry(9, 3));
        assert_eq!(q.pop(), Some(entry(7, 0)));
        // Continuations at the popped time join the lane behind the ties.
        q.push(entry(7, 4));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, [entry(7, 1), entry(7, 2), entry(7, 4), entry(9, 3)]);
        let w = q.work();
        assert_eq!((w.pops, w.laned), (2, 3), "one search per instant");
    }

    #[test]
    fn grow_preserves_order() {
        // Enough events to force several rebuilds.
        let mut es = Vec::new();
        for i in 0..5_000u64 {
            es.push(entry((i * 7919) % 1_000_000_000, i));
        }
        drains_sorted(CalendarQueue::new(), es);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a: Arena<()> = Arena::new();
        let s0 = a.insert(Action::Call(Box::new(|_, _| {})));
        let s1 = a.insert(Action::Call(Box::new(|_, _| {})));
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.live(), 2);
        a.take(s0);
        let s2 = a.insert(Action::Call(Box::new(|_, _| {})));
        assert_eq!(s2, s0, "freed slot is reused before the slab grows");
        assert_eq!(a.capacity(), 2);
        a.take(s1);
        a.take(s2);
        assert_eq!(a.live(), 0);
    }
}
