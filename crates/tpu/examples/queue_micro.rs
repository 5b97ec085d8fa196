//! Microbenchmark of the pending-event-set implementations.
//!
//! Replays two synthetic streams through each [`EventQueue`] and prints
//! ns per pop (each pop is followed by its pushes):
//!
//! * `fleet`: `N` persistent timers spread over seconds plus a
//!   sub-millisecond in-service churn, one push per pop, so occupancy
//!   stays at exactly `N`.
//! * `des`: the engines' shape — a pop, then 0–2 near-future pushes,
//!   steered so occupancy stays within `N - 1 ..= N + 1`.
//!
//! [`CalendarQueue`] keeps up to 32 live events in a sorted array and
//! moves them onto its ring past that; the ring hands them back once it
//! drains to 8. The small-occupancy rows therefore time the array, and
//! rows marked `via-ring` first fill the queue to 34 entries and pop
//! down to `N`, so the same occupancy is timed on the ring. Comparing
//! the two at 9–32 live events is what places the switch points.
//!
//! ```text
//! cargo run --release -p respect_tpu --example queue_micro
//! ```

use std::time::Instant;

use respect_tpu::{BinaryHeapQueue, CalendarQueue, EventQueue};

#[derive(Clone, Copy, Default)]
struct Payload {
    _w: usize,
    _j: usize,
    _k: usize,
    _tag: u8,
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Fleet,
    Des,
}

/// Entries a `via-ring` row pushes before popping down to its
/// occupancy: past the calendar's upper switch point.
const RING_FILL: usize = 34;

fn drive<K: Copy + Default, Q: EventQueue<K>>(
    label: &str,
    shape: Shape,
    residents: usize,
    via_ring: bool,
    ops: usize,
) {
    let mut q = Q::default();
    // simple xorshift for deterministic jitter
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s >> 11
    };
    let unit = |r: u64| r as f64 / (1u64 << 53) as f64;
    // resident timers: spread over ~10 s like open-loop arrival events
    let fill = if via_ring {
        residents.max(RING_FILL)
    } else {
        residents
    };
    for _ in 0..fill {
        q.push(unit(rnd()) * 10.0, K::default());
    }
    while q.len() > residents {
        q.pop();
    }
    let (mut lo, mut hi) = (usize::MAX, 0);
    let t0 = Instant::now();
    let mut now = 0.0f64;
    for i in 0..ops {
        let n = q.len();
        lo = lo.min(n);
        hi = hi.max(n);
        let (t, p) = q.pop().expect("residents keep the queue non-empty");
        now = t;
        match shape {
            Shape::Fleet => {
                // 1:1 replacement: mostly sub-ms in-service events,
                // occasionally a fresh far-future timer
                let dt = if i % 16 == 0 {
                    unit(rnd()) * 10.0
                } else {
                    unit(rnd()) * 1e-3
                };
                q.push(now + dt, p);
            }
            Shape::Des => {
                // 0–2 pushes, clamped so occupancy stays near `residents`
                let k = (rnd() % 3) as usize;
                let k = k.clamp(residents.saturating_sub(n), residents + 2 - n);
                for _ in 0..k {
                    q.push(now + unit(rnd()) * 1e-3, p);
                }
            }
        }
    }
    let per_pop_ns = t0.elapsed().as_secs_f64() / ops as f64 * 1e9;
    let shape = if shape == Shape::Fleet {
        "fleet"
    } else {
        "des"
    };
    let path = if via_ring { "via-ring" } else { "" };
    println!(
        "{label:<14} {shape:<5} residents={residents:<5} occ={lo}..{hi:<6} {path:<8} \
         {per_pop_ns:7.1} ns/pop (now={now:.3})"
    );
}

fn main() {
    const OPS: usize = 4_000_000;
    // 2/4/8: the engines' few-tenant regime; then each switch point and
    // just above it (`des` occupancy swings by one, so its array row
    // below the upper switch point is 31: it peaks at 32)
    for (shape, sizes) in [
        (Shape::Des, [2usize, 4, 8, 9, 16, 31, 33, 64]),
        (Shape::Fleet, [2, 4, 8, 9, 16, 32, 33, 64]),
    ] {
        for residents in sizes {
            drive::<Payload, BinaryHeapQueue<Payload>>("binary-heap", shape, residents, false, OPS);
            drive::<Payload, CalendarQueue<Payload>>("calendar", shape, residents, false, OPS);
            if (10..=32).contains(&residents) {
                drive::<Payload, CalendarQueue<Payload>>("calendar", shape, residents, true, OPS);
            }
        }
    }
    for residents in [1024usize, 8192] {
        drive::<Payload, BinaryHeapQueue<Payload>>(
            "binary-heap",
            Shape::Fleet,
            residents,
            false,
            OPS,
        );
        drive::<Payload, CalendarQueue<Payload>>("calendar", Shape::Fleet, residents, false, OPS);
    }
    // payload-size sensitivity: a 4-byte payload shrinks Entry 56B -> 32B
    for residents in [1024usize, 8192] {
        drive::<u32, BinaryHeapQueue<u32>>("heap/small-K", Shape::Fleet, residents, false, OPS);
        drive::<u32, CalendarQueue<u32>>("cal/small-K", Shape::Fleet, residents, false, OPS);
    }
}
