//! Pending-event set implementations for the discrete-event engines.
//!
//! Both engines in this workspace ([`crate::sim`] and the serving
//! runtime in `respect_serve`) drain a priority queue of timestamped
//! events, totally ordered by `(time, insertion sequence)` with
//! [`f64::total_cmp`] on the time — the ordering that makes every run
//! bitwise deterministic. This module extracts that queue behind the
//! [`EventQueue`] trait so the engines can swap implementations without
//! touching event semantics:
//!
//! * [`BinaryHeapQueue`] — the seed implementation, a
//!   `BinaryHeap<Reverse<_>>`. `O(log n)` per operation with `~2 log n`
//!   entry moves per pop.
//! * [`CalendarQueue`] — the production queue. Up to 32 live events
//!   sit in one sorted array (a push is a binary search and a short
//!   `memmove`, a pop is `Vec::pop`); past that the queue switches to a
//!   calendar queue (Brown 1988): time is divided into fixed-width
//!   *years* mapped onto a power-of-two ring of buckets, and a cursor
//!   walks the ring popping the current year's events. DES time
//!   advances almost monotonically, so pushes append at bucket tails
//!   and pops peel from bucket heads — amortized `O(1)` each, and the
//!   entries of the near future stay hot in cache. When the ring drains
//!   to 8 live events they move back into the array.
//!
//! The switch points come from `examples/queue_micro.rs` (two runs in
//! a 2-core container, ns per pop with its pushes). From 2 to 9 live
//! events the array beats the heap on both of its stream shapes: 36–61
//! against 42–75 ns on the DES-like one, 17–35 against 25–55 ns on the
//! fleet-like one. From 16 to 32 the shapes disagree: the DES-like
//! stream still favours the array over the ring (71–82 against
//! 87–98 ns), the fleet-like one favours the ring (31–44 against
//! 38–46 ns). The array's binary search and insert `memmove` grow with
//! occupancy, so it hands over at 32, near the fleet-like crossover. It
//! takes the set back at 8, where it wins on both shapes; the 4× band
//! between the two points keeps an occupancy that hovers near either
//! one from migrating on every operation.
//!
//! Both modes are differential-tested against the heap to produce
//! *identical* pop sequences on random streams — including ties, dense
//! same-time bursts, `+inf` timestamps, pushes behind the cursor, and
//! occupancy that crosses both switch points many times — in
//! `crates/tpu/tests/event_queue_props.rs`. Engines select an
//! implementation via [`QueueKind`]; the calendar queue is the default.
//!
//! Timestamps must not be `NaN` (debug-asserted): a `NaN` deadline is
//! always an upstream bug, and the engines validate their inputs before
//! any event is scheduled.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Which [`EventQueue`] implementation an engine runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// The seed `BinaryHeap<Reverse<_>>` implementation.
    BinaryHeap,
    /// The production queue (default): a sorted array for up to 32
    /// live events, a calendar ring beyond.
    #[default]
    Calendar,
}

/// A priority queue of `(time, payload)` events, popped in
/// `(time, insertion sequence)` order with [`f64::total_cmp`] on the
/// time.
///
/// The insertion sequence is assigned internally: the `i`-th push ever
/// made gets sequence `i`, so ties in time pop in push order (FIFO).
/// Every implementation must produce the exact same pop sequence for
/// the same push/pop interleaving — the engines' bitwise-determinism
/// guarantee rests on it.
pub trait EventQueue<K>: Default {
    /// Schedules `kind` at time `t`. `t` must not be `NaN`.
    fn push(&mut self, t: f64, kind: K);

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(f64, K)>;

    /// Pending events.
    fn len(&self) -> usize;

    /// Whether no event is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One scheduled event in the heap: the explicit insertion sequence
/// breaks time ties, because a binary heap is not insertion-stable.
#[derive(Debug, Clone, Copy)]
struct HeapEntry<K> {
    t: f64,
    seq: u64,
    kind: K,
}

impl<K> HeapEntry<K> {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// [`EventQueue`] over `std::collections::BinaryHeap` — the seed
/// engine's implementation, kept as the differential baseline.
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<K> {
    heap: BinaryHeap<Reverse<HeapOrd<K>>>,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct HeapOrd<K>(HeapEntry<K>);

impl<K> PartialEq for HeapOrd<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_key(&other.0) == Ordering::Equal
    }
}

impl<K> Eq for HeapOrd<K> {}

impl<K> PartialOrd for HeapOrd<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for HeapOrd<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_key(&other.0)
    }
}

impl<K> Default for BinaryHeapQueue<K> {
    fn default() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<K> EventQueue<K> for BinaryHeapQueue<K> {
    #[inline]
    fn push(&mut self, t: f64, kind: K) {
        debug_assert!(!t.is_nan(), "event time must not be NaN");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapOrd(HeapEntry { t, seq, kind })));
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, K)> {
        self.heap.pop().map(|Reverse(HeapOrd(e))| (e.t, e.kind))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Ring size the calendar starts with and never shrinks below.
const MIN_BUCKETS: usize = 16;
/// Ring size cap: beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 16;
/// Entries per bucket (on average) that trigger a ring growth.
const GROW_PER_BUCKET: usize = 4;
/// Year width the queue starts with, seconds. Recalibrated from the
/// live entry distribution at every rebuild.
const INITIAL_WIDTH_S: f64 = 1e-4;
/// Pops between cursor-efficiency checks.
const CALIBRATE_POPS: u32 = 1024;
/// Most live entries the sorted array holds: the push that would make
/// it `SMALL_UP + 1` moves the set onto the ring.
const SMALL_UP: usize = 32;
/// Live entries at which a ring pop moves the set back into the
/// sorted array. Well below [`SMALL_UP`], so an occupancy that hovers
/// near one switch point does not migrate back and forth.
const SMALL_DOWN: usize = 8;

/// One scheduled event in the calendar. No sequence number: FIFO tie
/// order falls out structurally. In the sorted array a push lands in
/// front of every equal-time entry, so ties pop oldest first. On the
/// ring, equal times map to the same epoch and therefore the same
/// bucket, inserts past equal-time entries keep buckets
/// insertion-stable, and [`CalendarQueue::rebuild`] uses a stable sort.
/// Both migrations move entries in pop order. So ties always sit in
/// push order. Keeping the entry at `16 + size_of::<K>()` bytes
/// matters: at fleet scale the pending set outgrows L1 and queue
/// throughput is memory-bound.
#[derive(Debug, Clone, Copy)]
struct CalEntry<K> {
    t: f64,
    kind: K,
}

/// One bucket of the calendar ring: entries ascending by time
/// (insertion-stable on ties), with the first `head` slots already
/// popped.
///
/// The front entry's time is mirrored into the header (`front_t`) so
/// cursor walks over not-yet-due buckets and [`CalendarQueue`]'s
/// earliest-entry scans read only the header cache line, never the
/// heap-allocated entry storage.
#[derive(Debug, Clone)]
struct Bucket<K> {
    head: usize,
    /// `items[head].t`; meaningless while the bucket is empty.
    front_t: f64,
    items: Vec<CalEntry<K>>,
}

impl<K> Default for Bucket<K> {
    fn default() -> Self {
        Bucket {
            head: 0,
            front_t: 0.0,
            items: Vec::new(),
        }
    }
}

impl<K: Copy> Bucket<K> {
    #[inline]
    fn is_empty(&self) -> bool {
        // `head == len` only happens at `0 == 0`: draining pops reset
        // the bucket as soon as the last entry leaves
        self.head == self.items.len()
    }

    /// Drops the popped prefix when `items` is full and at least half
    /// of it is popped, so the next insert reuses those slots instead
    /// of growing the allocation. A bucket that never drains (pushes
    /// keep landing in it while it is being popped) would otherwise
    /// keep every entry it ever held. Amortized `O(1)`: the live
    /// entries moved are at most the pushes since the last compaction,
    /// and capacity stays below twice the bucket's peak live count.
    #[inline]
    fn make_room(&mut self) {
        if self.items.len() == self.items.capacity()
            && self.head > 0
            && 2 * self.head >= self.items.len()
        {
            self.items.drain(..self.head);
            self.head = 0;
        }
    }

    /// Removes the front entry; the bucket must be non-empty.
    #[inline]
    fn pop_front(&mut self) -> CalEntry<K> {
        let e = self.items[self.head];
        self.head += 1;
        if self.head == self.items.len() {
            self.head = 0;
            self.items.clear();
        } else {
            self.front_t = self.items[self.head].t;
        }
        e
    }
}

/// [`EventQueue`] with two modes: a sorted array for small pending
/// sets and a calendar queue for large ones.
///
/// **Small mode.** Up to `SMALL_UP` (32) live entries sit in one
/// `Vec`, sorted descending by time with the newest entry first among
/// ties, so a pop is `Vec::pop` and a push is a binary search plus an
/// insert. The DES engines of this workspace run a handful of tenants
/// with 3–7 live events, where this beats both the heap and the ring.
///
/// **Ring mode.** The push that would make the array hold more than
/// `SMALL_UP` entries moves them, in pop order, into the ring; a pop
/// that finds `SMALL_DOWN` (8) or fewer entries on the ring moves them
/// back. Both switches depend only on the live count, so the pop
/// sequence is a function of the push/pop interleaving alone, as it is
/// for the heap. In ring mode the array is empty, and the only cost of
/// the small mode is one predictable branch per operation.
///
/// The ring is a power-of-two array of buckets, each covering one
/// fixed-width *year* of simulated time per lap of the cursor. An entry
/// at time `t` lives in bucket `epoch(t) & mask` where
/// `epoch(t) = t / width` truncated, kept sorted ascending by time —
/// in the DES workload pushes are near-monotone in time, so insertion
/// is almost always an append. The cursor `cur_epoch` maintains the
/// invariant that no live entry has an earlier year; the head of the
/// cursor's bucket is therefore the global minimum whenever its year
/// matches, making pops `O(1)`. When the current year is exhausted the
/// cursor steps forward bucket-by-bucket; after a full fruitless lap
/// (a long empty gap in simulated time) it jumps straight to the
/// earliest bucket head. Non-finite and far-future times saturate into
/// the last year and are found by the same jump, so `+inf` deadlines
/// are legal.
///
/// Epochs are recomputed from `t` wherever needed rather than stored:
/// the width only changes when the ring is refilled, which re-buckets
/// every live entry under the new width, so the mapping is consistent
/// across an entry's whole lifetime.
///
/// The ring grows when occupancy passes a per-bucket threshold, and the
/// year width is re-estimated from the live entry spacing whenever the
/// ring is refilled: at every growth, at every switch out of the small
/// mode, and whenever the cursor spends most of its time stepping over
/// empty buckets. All adaptation depends only on the operation
/// sequence, preserving bitwise determinism.
///
/// ```
/// use respect_tpu::event_queue::{CalendarQueue, EventQueue};
/// let mut q = CalendarQueue::default();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-tie");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-tie")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<K> {
    /// Small mode: the live entries, descending by time, newest first
    /// among ties. Empty in ring mode.
    small: Vec<CalEntry<K>>,
    buckets: Vec<Bucket<K>>,
    /// `buckets.len() - 1` (power-of-two ring).
    mask: u64,
    /// Year width, seconds.
    width: f64,
    /// `1.0 / width`, cached so the per-push year computation is a
    /// multiply instead of a divide.
    inv_width: f64,
    /// The cursor: no live entry has `epoch < cur_epoch`.
    cur_epoch: u64,
    /// Live entries on the ring; `0` exactly in small mode (a ring pop
    /// hands the set back to the array before it empties).
    len: usize,
    /// Live entries at which the next push triggers a ring growth.
    grow_at: usize,
    /// Pops since the last cursor-efficiency check.
    pops_tick: u32,
    /// Cursor steps over empty/future buckets since the last check.
    steps_tick: u32,
}

impl<K> Default for CalendarQueue<K> {
    fn default() -> Self {
        CalendarQueue {
            small: Vec::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: INITIAL_WIDTH_S,
            inv_width: 1.0 / INITIAL_WIDTH_S,
            cur_epoch: 0,
            len: 0,
            grow_at: MIN_BUCKETS * GROW_PER_BUCKET,
            pops_tick: 0,
            steps_tick: 0,
        }
    }
}

impl<K: Copy> CalendarQueue<K> {
    /// Year index of time `t`: `t / width` truncated (computed as a
    /// multiply by the cached reciprocal), clamping negative times to
    /// year 0 and saturating non-finite/far-future times into the last
    /// year. Multiplication by a positive constant is monotone
    /// non-decreasing under rounding, so a bucket sorted by time is
    /// also sorted by epoch — the only property pops rely on.
    #[inline]
    fn epoch_of(&self, t: f64) -> u64 {
        epoch_for(self.inv_width, t)
    }

    #[inline]
    fn push_entry(&mut self, e: CalEntry<K>) {
        let epoch = self.epoch_of(e.t);
        if epoch < self.cur_epoch {
            // a push behind the cursor (legal for arbitrary streams):
            // move the cursor back so the entry is not popped a lap late
            self.cur_epoch = epoch;
        }
        let b = &mut self.buckets[(epoch & self.mask) as usize];
        b.make_room();
        match b.items.last() {
            // strictly-later tail: sort the entry in; on a time tie the
            // new entry appends AFTER the tail, keeping FIFO order
            Some(last) if last.t.total_cmp(&e.t) == Ordering::Greater => {
                let pos =
                    b.items[b.head..].partition_point(|x| x.t.total_cmp(&e.t) != Ordering::Greater);
                if pos == 0 {
                    b.front_t = e.t;
                }
                b.items.insert(b.head + pos, e);
            }
            _ => {
                if b.is_empty() {
                    b.front_t = e.t;
                }
                b.items.push(e);
            }
        }
        self.len += 1;
    }

    /// Rebuilds the ring with `target_buckets` buckets, re-estimating
    /// the year width from the live entry spacing.
    fn rebuild(&mut self, target_buckets: usize) {
        let mut live: Vec<CalEntry<K>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            live.extend(b.items.drain(b.head..));
            b.head = 0;
            b.items.clear();
        }
        // stable: time ties stay in collection order, which is their
        // push order (ties always share one bucket)
        live.sort_by(|a, b| a.t.total_cmp(&b.t));
        self.refill(target_buckets, &mut live);
    }

    /// Moves `live` — ascending by time, ties in push order — onto the
    /// empty ring, resized to `target_buckets` buckets (clamped and
    /// rounded to a power of two), with the year width re-estimated
    /// from the entry spacing. Leaves `live` empty.
    fn refill(&mut self, target_buckets: usize, live: &mut Vec<CalEntry<K>>) {
        let n = target_buckets
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        if let Some(w) = estimate_width(live) {
            self.width = w;
            self.inv_width = 1.0 / w;
        }
        if self.buckets.len() != n {
            self.buckets.resize_with(n, Bucket::default);
            self.mask = (n - 1) as u64;
        }
        self.grow_at = n * GROW_PER_BUCKET;
        self.len = 0;
        // epochs are monotone in time: the first entry's is the least
        self.cur_epoch = live.first().map_or(0, |e| self.epoch_of(e.t));
        for e in live.drain(..) {
            // ascending time order makes every re-insert an append
            self.push_entry(e);
        }
    }

    /// Small → ring: moves the full array onto a minimum-size ring.
    #[cold]
    #[inline(never)]
    fn grow_into_ring(&mut self) {
        let mut live = std::mem::take(&mut self.small);
        // descending, newest first on ties → ascending, push order
        live.reverse();
        self.refill(MIN_BUCKETS, &mut live);
        // keep the array's allocation for the way back
        self.small = live;
    }

    /// Ring → small: pops the remaining ring entries into the array.
    #[cold]
    #[inline(never)]
    fn shrink_into_small(&mut self) {
        while self.len > 0 {
            let e = self.ring_pop();
            self.small.push(e);
        }
        // pop order is ascending, oldest first on ties: reversed, it is
        // the array's order
        self.small.reverse();
    }

    /// Pops the head of the bucket holding the globally earliest entry
    /// and jumps the cursor to its year. `O(buckets)`; the escape hatch
    /// for long empty stretches of simulated time. No cross-bucket time
    /// tie exists (equal times share a bucket), so comparing bucket
    /// heads by time alone finds a unique minimum.
    fn pop_earliest(&mut self) -> CalEntry<K> {
        let idx = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .min_by(|(_, a), (_, b)| a.front_t.total_cmp(&b.front_t))
            .map(|(i, _)| i)
            .expect("pop_earliest on non-empty queue");
        let e = self.buckets[idx].pop_front();
        self.cur_epoch = self.epoch_of(e.t);
        self.len -= 1;
        e
    }

    /// Pops the earliest ring entry; the ring must be non-empty.
    #[inline]
    fn ring_pop(&mut self) -> CalEntry<K> {
        let mut steps = 0u32;
        let inv_width = self.inv_width;
        let out = loop {
            if steps as usize > self.buckets.len() {
                // a full fruitless lap: jump straight to the earliest
                break self.pop_earliest();
            }
            let idx = (self.cur_epoch & self.mask) as usize;
            let b = &mut self.buckets[idx];
            if !b.is_empty() && epoch_for(inv_width, b.front_t) <= self.cur_epoch {
                self.len -= 1;
                break b.pop_front();
            }
            self.cur_epoch = self.cur_epoch.saturating_add(1);
            steps += 1;
        };
        self.pops_tick += 1;
        self.steps_tick = self.steps_tick.saturating_add(steps);
        if self.pops_tick >= CALIBRATE_POPS {
            // cursor mostly stepping over empty buckets: years are too
            // narrow for the live event density — re-estimate the width
            if self.steps_tick > 4 * CALIBRATE_POPS && self.len >= 2 {
                self.rebuild(self.buckets.len());
            }
            self.pops_tick = 0;
            self.steps_tick = 0;
        }
        out
    }

    /// Total `Vec` capacity held by the ring's buckets, in entries.
    #[cfg(test)]
    fn bucket_capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.items.capacity()).sum()
    }
}

/// Year index of time `t` under reciprocal width `inv_width`:
/// `t / width` truncated, clamping negative times to year 0 and
/// saturating non-finite/far-future times into the last year (`as`
/// saturates, so huge and `+inf` times land in `u64::MAX`).
/// Multiplication by a positive constant is monotone non-decreasing
/// under rounding, so a bucket sorted by time is also sorted by epoch
/// — the only property pops rely on.
#[inline]
fn epoch_for(inv_width: f64, t: f64) -> u64 {
    if t <= 0.0 {
        0
    } else {
        (t * inv_width) as u64
    }
}

/// Year width from the spacing of (up to 64 of) the earliest live
/// entries: twice their mean gap, so a year holds a couple of events.
/// `None` when the sample is too small or degenerate (all ties,
/// non-finite span) — the caller keeps its current width.
fn estimate_width<K>(sorted_live: &[CalEntry<K>]) -> Option<f64> {
    let mut first = f64::NAN;
    let mut last = f64::NAN;
    let mut n = 0usize;
    for e in sorted_live {
        if e.t.is_finite() {
            if n == 0 {
                first = e.t;
            }
            last = e.t;
            n += 1;
            if n == 64 {
                break;
            }
        }
    }
    if n < 2 {
        return None;
    }
    let span = last - first;
    if span > 0.0 && span.is_finite() {
        Some((2.0 * span / (n - 1) as f64).max(1e-12))
    } else {
        None
    }
}

impl<K: Copy> EventQueue<K> for CalendarQueue<K> {
    #[inline]
    fn push(&mut self, t: f64, kind: K) {
        debug_assert!(!t.is_nan(), "event time must not be NaN");
        let e = CalEntry { t, kind };
        if self.len == 0 {
            if self.small.len() < SMALL_UP {
                // after every later entry, before every entry at or
                // before `t`: descending, with the newest tie first
                let pos = self
                    .small
                    .partition_point(|x| x.t.total_cmp(&t) == Ordering::Greater);
                self.small.insert(pos, e);
                return;
            }
            self.grow_into_ring();
        } else if self.len >= self.grow_at && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
        self.push_entry(e);
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, K)> {
        let e = if self.len <= SMALL_DOWN {
            if self.len > 0 {
                self.shrink_into_small();
            }
            self.small.pop()?
        } else {
            self.ring_pop()
        };
        Some((e.t, e.kind))
    }

    fn len(&self) -> usize {
        self.len + self.small.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives both implementations through the same operation sequence
    /// and asserts identical pop streams (bitwise on times).
    fn differential(ops: impl Iterator<Item = Option<f64>> + Clone) {
        let mut heap = BinaryHeapQueue::default();
        let mut cal = CalendarQueue::default();
        let mut tag = 0u32;
        for op in ops {
            match op {
                Some(t) => {
                    heap.push(t, tag);
                    cal.push(t, tag);
                    tag += 1;
                }
                None => {
                    let (a, b) = (heap.pop(), cal.pop());
                    match (a, b) {
                        (Some((ta, ka)), Some((tb, kb))) => {
                            assert_eq!(ta.to_bits(), tb.to_bits());
                            assert_eq!(ka, kb);
                        }
                        (None, None) => {}
                        _ => panic!("pop mismatch: heap {a:?} vs calendar {b:?}"),
                    }
                }
            }
            assert_eq!(heap.len(), cal.len());
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(
                a.map(|(t, k)| (t.to_bits(), k)),
                b.map(|(t, k)| (t.to_bits(), k))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q: CalendarQueue<&str> = CalendarQueue::default();
        q.push(5.0e-3, "c");
        q.push(1.0e-3, "a");
        q.push(1.0e-3, "b");
        q.push(0.0, "zero");
        assert_eq!(q.pop(), Some((0.0, "zero")));
        assert_eq!(q.pop(), Some((1.0e-3, "a")));
        assert_eq!(q.pop(), Some((1.0e-3, "b")));
        assert_eq!(q.pop(), Some((5.0e-3, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn infinity_sorts_last_and_negative_zero_first() {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        q.push(f64::INFINITY, 0);
        q.push(0.0, 1);
        q.push(-0.0, 2);
        q.push(3.0, 3);
        // total_cmp: -0.0 < 0.0 < 3.0 < +inf
        assert_eq!(q.pop(), Some((-0.0, 2)));
        assert_eq!(q.pop(), Some((0.0, 1)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((f64::INFINITY, 0)));
    }

    #[test]
    fn long_empty_gaps_jump_instead_of_stepping_forever() {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        // gap of ~10^9 years at the default width
        q.push(0.0, 0);
        q.push(1.0e5, 1);
        assert_eq!(q.pop(), Some((0.0, 0)));
        assert_eq!(q.pop(), Some((1.0e5, 1)));
    }

    #[test]
    fn dense_same_time_burst_pops_in_push_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        for i in 0..10_000 {
            q.push(1.0, i);
        }
        for i in 0..10_000 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn differential_on_mixed_streams() {
        // deterministic pseudo-random push/pop interleavings with ties,
        // bursts, +inf, and pushes behind the already-advanced cursor
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let ops: Vec<Option<f64>> = (0..20_000)
            .map(|_| {
                let r = step();
                if r % 3 == 0 {
                    None
                } else {
                    Some(match r % 11 {
                        0 => f64::INFINITY,
                        1 => 0.0,
                        2 => 1.0e-3,                  // a recurring tie
                        3 => (r >> 8) as f64 * 1e300, // far future
                        _ => ((r >> 8) % 100_000) as f64 * 1e-6,
                    })
                }
            })
            .collect();
        differential(ops.iter().copied());
    }

    #[test]
    fn undrained_bucket_keeps_capacity_proportional_to_live() {
        // more live entries than the array holds, so the set is on the
        // ring; every push lands at t = 0, the bucket being popped, so
        // that bucket never empties
        const LIVE: usize = 3 * SMALL_UP;
        let mut heap = BinaryHeapQueue::default();
        let mut cal = CalendarQueue::default();
        for tag in 0..LIVE as u64 {
            let t = if tag % 2 == 0 { 0.0 } else { 1.0 + tag as f64 };
            heap.push(t, tag);
            cal.push(t, tag);
        }
        for tag in LIVE as u64..200_000 {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(
                a.map(|(t, k)| (t.to_bits(), k)),
                b.map(|(t, k)| (t.to_bits(), k))
            );
            heap.push(0.0, tag);
            cal.push(0.0, tag);
            assert!(
                cal.bucket_capacity() <= 4 * LIVE + 4 * MIN_BUCKETS,
                "bucket capacity {} for {LIVE} live entries",
                cal.bucket_capacity()
            );
        }
        assert_eq!(heap.len(), cal.len());
    }

    #[test]
    fn differential_on_monotone_des_like_stream() {
        // emulate engine behavior: time ratchets forward from the last
        // pop, several near-future pushes per pop
        let mut heap = BinaryHeapQueue::default();
        let mut cal = CalendarQueue::default();
        let mut x = 42u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tag = 0u64;
        heap.push(0.0, tag);
        cal.push(0.0, tag);
        tag += 1;
        for _ in 0..50_000 {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(
                a.map(|(t, k)| (t.to_bits(), k)),
                b.map(|(t, k)| (t.to_bits(), k))
            );
            let Some((now, _)) = a else { break };
            for _ in 0..(step() % 3) {
                let dt = (step() % 1_000) as f64 * 1e-6;
                heap.push(now + dt, tag);
                cal.push(now + dt, tag);
                tag += 1;
            }
        }
    }
}
