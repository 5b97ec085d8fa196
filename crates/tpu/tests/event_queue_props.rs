//! Property tests of the calendar queue against the binary heap.
//!
//! The calendar queue is only admissible as the default pending-event
//! set if it is *indistinguishable* from the seed binary heap: every
//! pop must return bitwise the same `(time, payload)` pair, in the same
//! order, under any interleaving of pushes and pops the engines can
//! produce. These properties drive both implementations with one
//! operation stream and compare pop-for-pop, covering the regimes that
//! break naive bucket queues:
//!
//! * exact time ties (resolved by insertion sequence),
//! * dense same-time bursts (thousands of entries in one bucket),
//! * `+∞` deadlines and huge-magnitude times (epoch saturation),
//! * pushes behind the current cursor (cursor reset),
//! * sparse horizons with long empty gaps (lap detection), and
//! * monotone near-future pushes (the DES steady state that the
//!   width calibration is tuned for), and
//! * occupancy that crosses the calendar's switch points between its
//!   sorted small-set array (up to 32 live entries) and its ring (back
//!   to the array at 8), with ties, `+∞` entries and pushes behind the
//!   cursor carried through each migration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respect_tpu::event_queue::{BinaryHeapQueue, CalendarQueue, EventQueue};

/// The calendar queue's switch points: the push that makes 33 live
/// entries moves the array onto the ring, and a pop that finds 8 moves
/// them back. The streams below swing well past both.
const UP: usize = 32;
const DOWN: usize = 8;

/// A stream whose occupancy swings from at most `DOWN` to more than
/// `UP` and back, `cycles` times, drawing push times from `time`.
/// Each swing overshoots by a random margin and a few pops ride along
/// with the pushes (and vice versa), so a migration can happen on
/// either kind of operation.
fn oscillating(
    rng: &mut StdRng,
    cycles: usize,
    mut time: impl FnMut(&mut StdRng) -> f64,
) -> Vec<Option<f64>> {
    let mut ops = Vec::new();
    let mut live = 0usize;
    for _ in 0..cycles {
        let high = UP + rng.gen_range(1usize..40);
        while live < high {
            if live > 0 && rng.gen_range(0u32..4) == 0 {
                ops.push(None);
                live -= 1;
            } else {
                ops.push(Some(time(rng)));
                live += 1;
            }
        }
        let low = rng.gen_range(0usize..=DOWN);
        while live > low {
            if rng.gen_range(0u32..4) == 0 {
                ops.push(Some(time(rng)));
                live += 1;
            } else {
                ops.push(None);
                live -= 1;
            }
        }
    }
    ops
}

/// Drives both queues with the same op stream; pops must agree bitwise.
///
/// `ops` yields `Some(t)` to push at time `t` and `None` to pop; a
/// trailing drain compares whatever is left.
fn differential(ops: impl IntoIterator<Item = Option<f64>>) {
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::default();
    let mut cal: CalendarQueue<u64> = CalendarQueue::default();
    let mut pushed = 0u64;
    let mut popped = 0u64;
    for op in ops {
        match op {
            Some(t) => {
                heap.push(t, pushed);
                cal.push(t, pushed);
                pushed += 1;
            }
            None => {
                compare(heap.pop(), cal.pop(), popped);
                popped += 1;
            }
        }
        prop_assert_eq!(heap.len(), cal.len());
    }
    loop {
        let h = heap.pop();
        let done = h.is_none();
        compare(h, cal.pop(), popped);
        popped += 1;
        if done {
            break;
        }
    }
}

fn compare(h: Option<(f64, u64)>, c: Option<(f64, u64)>, nth: u64) {
    match (h, c) {
        (None, None) => {}
        (Some((ht, hk)), Some((ct, ck))) => {
            prop_assert_eq!(
                ht.to_bits(),
                ct.to_bits(),
                "pop {nth}: heap t={ht} calendar t={ct}"
            );
            prop_assert_eq!(hk, ck, "pop {nth}: payloads diverge");
        }
        (h, c) => {
            prop_assert!(false, "pop {nth}: heap {h:?} vs calendar {c:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings over a wide dynamic range of times,
    /// including ties, `+∞`, and pushes far behind the cursor.
    #[test]
    fn random_interleavings_pop_identically(seed in 0u64..1 << 48, len in 1usize..4000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<Option<f64>> = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0..=5 => Some(match rng.gen_range(0u32..20) {
                    0 => f64::INFINITY,
                    1 => 0.0,
                    2 => 1e300,
                    3 => 1e-300,
                    _ => rng.gen_range(0.0f64..2.0) * 10f64.powi(rng.gen_range(-6i32..4)),
                }),
                _ => None,
            })
            .collect();
        differential(ops);
    }

    /// Exact-tie storms: many entries at few distinct times must pop in
    /// insertion order within each time.
    #[test]
    fn dense_ties_pop_in_insertion_order(seed in 0u64..1 << 48, times in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let distinct: Vec<f64> = (0..times).map(|_| rng.gen_range(0.0f64..1.0)).collect();
        let ops: Vec<Option<f64>> = (0..3000)
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    None
                } else {
                    Some(distinct[rng.gen_range(0usize..times)])
                }
            })
            .collect();
        differential(ops);
    }

    /// The DES steady state: pops interleaved with near-future monotone
    /// pushes, plus occasional long empty gaps (idle horizons) that
    /// force the calendar to jump rather than step bucket by bucket.
    #[test]
    fn monotone_streams_with_sparse_gaps(seed in 0u64..1 << 48, gap_exp in 0i32..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let mut ops = Vec::with_capacity(6000);
        for _ in 0..2000 {
            let burst = rng.gen_range(1usize..4);
            for _ in 0..burst {
                let dt = if rng.gen_range(0u32..50) == 0 {
                    rng.gen_range(1.0f64..10.0) * 10f64.powi(gap_exp)
                } else {
                    rng.gen_range(0.0f64..1e-3)
                };
                ops.push(Some(now + dt));
            }
            ops.push(None);
            // advance "now" like an event loop would: roughly follow
            // the minimum of what was pushed
            now += rng.gen_range(0.0f64..1e-3);
        }
        differential(ops);
    }

    /// Occupancy oscillating across both switch points many times,
    /// over DES-like near-future times.
    #[test]
    fn occupancy_oscillating_across_switch_points_pops_identically(
        seed in 0u64..1 << 48,
        cycles in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let ops = oscillating(&mut rng, cycles, |rng| {
            now += rng.gen_range(0.0f64..1e-4);
            now + rng.gen_range(0.0f64..1e-3)
        });
        differential(ops);
    }

    /// Exact ties on both sides of every migration: few distinct
    /// times, so the array hands the ring runs of equal-time entries
    /// and the ring hands them back.
    #[test]
    fn ties_straddling_migrations_pop_in_insertion_order(
        seed in 0u64..1 << 48,
        times in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let distinct: Vec<f64> = (0..times).map(|_| rng.gen_range(0.0f64..1e-3)).collect();
        let ops = oscillating(&mut rng, 20, |rng| distinct[rng.gen_range(0..times)]);
        differential(ops);
    }

    /// `+∞` and far-future entries pop last, so they stay live through
    /// many migrations in both directions.
    #[test]
    fn infinite_and_far_future_entries_survive_migrations(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = oscillating(&mut rng, 20, |rng| match rng.gen_range(0u32..12) {
            0 => f64::INFINITY,
            1 => f64::MAX,
            2 => 1e300,
            _ => rng.gen_range(0.0f64..1.0),
        });
        differential(ops);
    }

    /// Right after the array moves onto the ring, a few pops advance
    /// the cursor and then pushes land behind it, down to `t = 0`.
    #[test]
    fn pushes_behind_the_cursor_after_migrating_into_the_ring(
        seed in 0u64..1 << 48,
        pops in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        for _ in 0..10 {
            let base = rng.gen_range(1.0f64..100.0);
            // fill to the upper switch point, then one more push migrates
            for _ in 0..=UP {
                ops.push(Some(base + rng.gen_range(0.0f64..1.0)));
            }
            for _ in 0..pops {
                ops.push(None);
            }
            for _ in 0..rng.gen_range(1usize..30) {
                ops.push(Some(match rng.gen_range(0u32..3) {
                    0 => 0.0,
                    1 => base * rng.gen_range(0.0f64..1.0),
                    _ => base + rng.gen_range(0.0f64..0.5),
                }));
            }
            // drain most of it, crossing back into the array
            for _ in 0..rng.gen_range(UP..2 * UP) {
                ops.push(None);
            }
        }
        differential(ops);
    }
}
