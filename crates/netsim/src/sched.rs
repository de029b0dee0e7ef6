//! The simulator's event scheduler: a binary heap popping in `(time, prio)`
//! ascending order.
//!
//! `prio` is a globally-stable priority assigned by the simulator: the high
//! bits are a per-creator-node schedule counter and the low bits the creator
//! node id, which makes the order independent of *when* an event was pushed
//! relative to events created by other nodes. That independence is what lets
//! the parallel engine replay the exact sequential order: each partition
//! pushes its events whenever its thread gets to them, yet `(time, prio)`
//! sorts them into the same sequence a single-threaded run produces.
//! Priorities within a timestamp may therefore arrive in any order.
//!
//! The heap's backing buffer only grows, so once a run has reached its peak
//! occupancy the push/pop cycle performs no heap allocation
//! (`tests/alloc_gate.rs`). There is one scheduler on purpose: see
//! DESIGN.md §10 for the measurement that retired the timing wheel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queued item: `(time, prio)` carries the total order, `item` rides
/// along.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    prio: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.prio == other.prio
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.prio).cmp(&(other.time, other.prio))
    }
}

/// The simulator's event queue.
#[derive(Debug)]
pub struct EventQueue<T>(BinaryHeap<Reverse<Entry<T>>>);

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self(BinaryHeap::new())
    }

    /// Queues `item` at `time` with priority `prio`.
    pub fn push(&mut self, time: u64, prio: u64, item: T) {
        self.0.push(Reverse(Entry { time, prio, item }));
    }

    /// Removes and returns the earliest `(time, prio, item)` in `(time,
    /// prio)` order.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.0.pop().map(|Reverse(e)| (e.time, e.prio, e.item))
    }

    /// Timestamp of the earliest queued event without removing it. Used by
    /// the parallel engine to publish each partition's local lower bound.
    pub fn next_time(&self) -> Option<u64> {
        self.0.peek().map(|Reverse(e)| e.time)
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Drives the queue with a simulation-shaped push/pop schedule and
    /// checks every pop against a `Vec` kept sorted by `(time, prio)`.
    /// Delays span zero-delay reschedules to far-future timers; pops
    /// interleave with pushes, and priorities are deliberately
    /// non-monotone in push order (shuffled within bursts), including
    /// several per timestamp.
    #[test]
    fn pops_in_time_prio_order_like_a_sorted_vec() {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64, u64)> = Vec::new();
            let (mut prio, mut now, mut popped) = (0u64, 0u64, 0usize);
            let check_pop = |q: &mut EventQueue<u64>, reference: &mut Vec<_>| {
                reference.sort_unstable();
                assert_eq!(q.next_time(), reference.first().map(|e: &(u64, _, _)| e.0));
                assert_eq!(q.is_empty(), reference.is_empty());
                let got = q.pop();
                let want = (!reference.is_empty()).then(|| reference.remove(0));
                assert_eq!(got, want, "seed {seed}: diverged from the sorted reference");
                got
            };
            while popped < 5_000 {
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let delay = match rng.gen_range(0..10) {
                        0 | 1 => 0,                            // zero-delay reschedule
                        2..=6 => rng.gen_range(0..2_000),      // serialization/propagation
                        7 | 8 => rng.gen_range(2_000..65_536), // CNP/alpha timers
                        _ => rng.gen_range(65_536..1_500_000), // rate timers, flow starts
                    };
                    prio += 1;
                    batch.push((now + delay, prio));
                }
                // Push in shuffled order — priorities need not be monotone.
                while !batch.is_empty() {
                    let (t, p) = batch.swap_remove(rng.gen_range(0..batch.len()));
                    q.push(t, p, p ^ seed);
                    reference.push((t, p, p ^ seed));
                }
                if let Some((t, _, _)) = check_pop(&mut q, &mut reference) {
                    assert!(t >= now, "time went backwards");
                    now = t;
                    popped += 1;
                }
            }
            // Drain the rest — the tail must match too, down to `None`.
            while check_pop(&mut q, &mut reference).is_some() {}
        }
    }
}
