//! The simulator's event scheduler: pops in `(time, prio)` ascending order.
//!
//! `prio` is a globally-stable priority assigned by the simulator: the high
//! bits are a per-creator-node schedule counter and the low bits the creator
//! node id, which makes the order independent of *when* an event was pushed
//! relative to events created by other nodes. That independence is what lets
//! the parallel engine replay the exact sequential order: each partition
//! pushes its events whenever its thread gets to them, yet `(time, prio)`
//! sorts them into the same sequence a single-threaded run produces.
//! Priorities within a timestamp may therefore arrive in any order. The
//! simulator never gives two events the same `prio`, so the order is total.
//!
//! A pending event waits in one of three places, and a sift only ever moves
//! 24-byte keys:
//!
//! * **The key heap.** A binary heap of `(time, prio, node, lane)` keys. The
//!   payload of an event pushed with [`EventQueue::push`] sits still in a
//!   slab node; the slab's free list only grows.
//! * **The initial run.** Events pushed with [`EventQueue::push_init`]
//!   before the first pop (the simulator's flow starts and failure
//!   schedule) are sorted once by [`EventQueue::seal_init`] and consumed
//!   from the end of one `Vec`; they never enter the heap.
//! * **Lanes.** An event pushed with [`EventQueue::push_lane`] joins the
//!   FIFO of its lane, a chain of slab nodes, whose `(time, prio)` must
//!   strictly increase in push order. Only a lane's head has a key in the
//!   heap; popping it replaces that key in place with the next node's. A
//!   lane owns no buffer: all lanes share the slab, which grows to the peak
//!   of their sum, not the sum of their peaks.
//!
//! `pop` and `next_time` merge the heap top with the run's next entry. Every
//! buffer only grows, so once a run has reached its peak occupancy the
//! push/pop cycle performs no heap allocation (`tests/alloc_gate.rs`). There
//! is one scheduler on purpose: see DESIGN.md §10 for the measurements.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// No slab node: the end of a lane's chain, an empty lane's tail, or the
/// lane of a key pushed with `push`.
const NIL: u32 = u32::MAX;

/// A heap key: `(time, prio)` carries the total order; `node` is the slab
/// index of the payload and `lane` its lane (`NIL` outside lanes).
#[derive(Debug, Clone, Copy)]
struct Key {
    time: u64,
    prio: u64,
    node: u32,
    lane: u32,
}

impl Key {
    /// `(time, prio)` as one integer: a sift then compares without a
    /// branch per field (measured ~10 % of an event, DESIGN.md §10).
    #[inline]
    fn order(&self) -> u128 {
        order(self.time, self.prio)
    }
}

#[inline]
fn order(time: u64, prio: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(prio)
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.order() < other.order()
    }
    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.order() <= other.order()
    }
    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.order() > other.order()
    }
    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.order() >= other.order()
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order().cmp(&other.order())
    }
}

/// A slab node: a pending payload, its `(time, prio)` and the next node of
/// its lane (`NIL` at a lane's end and outside lanes).
#[derive(Debug)]
struct Node<T> {
    time: u64,
    prio: u64,
    next: u32,
    item: Option<T>,
}

/// The simulator's event queue.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Every pending payload but the initial run's.
    slab: Vec<Node<T>>,
    free: Vec<u32>,
    /// Initial events, sorted descending by `seal_init`: the next one is
    /// the last.
    run: Vec<(u64, u64, T)>,
    /// False between a `push_init` and the `seal_init` that sorts it.
    run_sorted: bool,
    /// Per lane, the slab index of its last node; `NIL` when empty.
    tails: Vec<u32>,
}

impl<T> EventQueue<T> {
    /// An empty queue with lanes `0..lanes`.
    pub fn new(lanes: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            run: Vec::new(),
            run_sorted: true,
            tails: vec![NIL; lanes],
        }
    }

    /// Parks `item` in a free slab node and returns its index.
    fn alloc(&mut self, time: u64, prio: u64, item: T) -> u32 {
        let node = Node {
            time,
            prio,
            next: NIL,
            item: Some(item),
        };
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = node;
                idx
            }
            None => {
                self.slab.push(node);
                u32::try_from(self.slab.len() - 1).expect("slab index fits u32")
            }
        }
    }

    /// Queues `item` at `time` with priority `prio`.
    pub fn push(&mut self, time: u64, prio: u64, item: T) {
        let node = self.alloc(time, prio, item);
        self.heap.push(Reverse(Key {
            time,
            prio,
            node,
            lane: NIL,
        }));
    }

    /// Queues `item` at the back of `lane`. The lane's `(time, prio)` must
    /// strictly increase in push order (debug-asserted): the lane is a
    /// FIFO, and only its front is ever compared with other events.
    pub fn push_lane(&mut self, lane: usize, time: u64, prio: u64, item: T) {
        let node = self.alloc(time, prio, item);
        match self.tails[lane] {
            NIL => self.heap.push(Reverse(Key {
                time,
                prio,
                node,
                lane: u32::try_from(lane).expect("lane id fits u32"),
            })),
            tail => {
                let last = &mut self.slab[tail as usize];
                debug_assert!(
                    order(last.time, last.prio) < order(time, prio),
                    "lane {lane}: ({time}, {prio}) pushed behind ({}, {})",
                    last.time,
                    last.prio
                );
                last.next = node;
            }
        }
        self.tails[lane] = node;
    }

    /// Adds `item` to the initial run. Call [`EventQueue::seal_init`] before
    /// the next `pop` or `next_time`.
    pub fn push_init(&mut self, time: u64, prio: u64, item: T) {
        self.run.push((time, prio, item));
        self.run_sorted = false;
    }

    /// Sorts the initial run once seeding is done.
    pub fn seal_init(&mut self) {
        self.run
            .sort_unstable_by_key(|&(t, p, _)| Reverse(order(t, p)));
        self.run_sorted = true;
    }

    /// Where the next event waits: `Some(true)` in the heap, `Some(false)`
    /// in the initial run, `None` if the queue is empty.
    fn heap_first(&self) -> Option<bool> {
        debug_assert!(self.run_sorted, "push_init without seal_init");
        match (self.heap.peek(), self.run.last()) {
            (Some(Reverse(k)), Some(&(t, p, _))) => Some(k.order() < order(t, p)),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest `(time, prio, item)` in `(time,
    /// prio)` order.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.heap_first()? {
            return self.run.pop();
        }
        let mut top = self.heap.peek_mut().expect("heap_first saw a key");
        let Key {
            time,
            prio,
            node,
            lane,
        } = top.0;
        self.free.push(node);
        let done = &mut self.slab[node as usize];
        let item = done.item.take().expect("a keyed slab node is full");
        match done.next {
            NIL => {
                if lane != NIL {
                    self.tails[lane as usize] = NIL;
                }
                PeekMut::pop(top);
            }
            // The lane's next node takes the key in place: the drop of
            // `top` sifts it down.
            next => {
                let head = &self.slab[next as usize];
                top.0 = Key {
                    time: head.time,
                    prio: head.prio,
                    node: next,
                    lane,
                };
            }
        }
        Some((time, prio, item))
    }

    /// Timestamp of the earliest queued event without removing it. Used by
    /// the parallel engine to publish each partition's local lower bound.
    pub fn next_time(&self) -> Option<u64> {
        match self.heap_first()? {
            true => self.heap.peek().map(|Reverse(k)| k.time),
            false => self.run.last().map(|e| e.0),
        }
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const LANES: usize = 6;

    /// Drives the queue with a simulation-shaped push/pop schedule and
    /// checks every pop against a `Vec` kept sorted by `(time, prio)`.
    ///
    /// * An initial run of events (several per timestamp, ties with later
    ///   heap and lane pushes) is pushed in shuffled order and sealed.
    /// * Heap delays span zero-delay reschedules to far-future timers; pops
    ///   interleave with pushes, and priorities are deliberately
    ///   non-monotone in push order (shuffled within bursts), including
    ///   several per timestamp and zero-delay pushes whose prio is below the
    ///   last pop's.
    /// * Each lane has one fixed delay (one of them zero) and its own prio
    ///   counter, as a link has its latency and one sender; its times land
    ///   on the same coarse grid as heap and run entries, so lane heads tie
    ///   in time with both. Lanes are pushed in bursts and drained between
    ///   them, so they empty and refill.
    #[test]
    fn pops_in_time_prio_order_like_a_sorted_vec() {
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut q = EventQueue::new(LANES);
            let mut reference: Vec<(u64, u64, u64)> = Vec::new();
            let (mut now, mut popped, mut last_prio) = (0u64, 0usize, 0u64);
            let mut prio = 1u64 << 40;
            let check_pop = |q: &mut EventQueue<u64>, reference: &mut Vec<_>| {
                reference.sort_unstable();
                assert_eq!(q.next_time(), reference.first().map(|e: &(u64, _, _)| e.0));
                assert_eq!(q.is_empty(), reference.is_empty());
                let got = q.pop();
                let want = (!reference.is_empty()).then(|| reference.remove(0));
                assert_eq!(got, want, "seed {seed}: diverged from the sorted reference");
                got
            };

            let mut init: Vec<(u64, u64)> = (0..300u64)
                .map(|i| (rng.gen_range(0..40) * 500, (i << 8) | 0xff))
                .collect();
            while !init.is_empty() {
                let (t, p) = init.swap_remove(rng.gen_range(0..init.len()));
                q.push_init(t, p, p ^ seed);
                reference.push((t, p, p ^ seed));
            }
            q.seal_init();

            let delays: [u64; LANES] = [0, 500, 1_000, 1_000, 1_500, 2_000];
            let mut lane_prio = [0u64; LANES];
            let (mut lane_pushes, mut refills) = (0usize, 0usize);
            while popped < 5_000 {
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let delay = match rng.gen_range(0..10) {
                        0 | 1 => 0,                            // zero-delay reschedule
                        2..=6 => rng.gen_range(0..2_000),      // serialization/propagation
                        7 | 8 => rng.gen_range(2_000..65_536), // CNP/alpha timers
                        _ => rng.gen_range(65_536..1_500_000), // rate timers, flow starts
                    };
                    // Zero-delay pushes sometimes carry a prio below the one
                    // just popped: another creator's counter.
                    // (Their low byte 0xfe keeps them apart from every other
                    // source's prios; a pending duplicate is skipped.)
                    let p = if delay == 0 && rng.gen_bool(0.5) {
                        let below = (last_prio >> 8).saturating_sub(rng.gen_range(1..1_000));
                        (below << 8) | 0xfe
                    } else {
                        prio += 256;
                        prio
                    };
                    if p & 0xff != 0xfe || !reference.iter().any(|e| e.1 == p) {
                        batch.push((now + delay, p));
                    }
                }
                // Push in shuffled order — priorities need not be monotone.
                while !batch.is_empty() {
                    let (t, p) = batch.swap_remove(rng.gen_range(0..batch.len()));
                    q.push(t, p, p ^ seed);
                    reference.push((t, p, p ^ seed));
                }
                // Lane pushes land on a 500 ns grid. Every 400 pops the
                // queue pops until every lane is empty, so lanes refill.
                if rng.gen_bool(0.6) {
                    let lane = rng.gen_range(0..LANES);
                    if q.tails[lane] == NIL && lane_prio[lane] > 0 {
                        refills += 1;
                    }
                    let t = (now / 500 + 1) * 500 + delays[lane];
                    lane_prio[lane] += 1;
                    let p = (lane_prio[lane] << 8) | lane as u64;
                    q.push_lane(lane, t, p, p ^ seed);
                    reference.push((t, p, p ^ seed));
                    lane_pushes += 1;
                }
                let drain = popped % 400 == 399;
                while let Some((t, p, _)) = check_pop(&mut q, &mut reference) {
                    assert!(t >= now, "time went backwards");
                    now = t;
                    last_prio = p;
                    popped += 1;
                    if !drain || q.tails.iter().all(|&t| t == NIL) {
                        break;
                    }
                }
            }
            assert!(lane_pushes > 1_000, "seed {seed}: lanes barely used");
            assert!(
                refills > 20,
                "seed {seed}: lanes never emptied and refilled"
            );
            // Drain the rest — the tail must match too, down to `None`.
            while check_pop(&mut q, &mut reference).is_some() {}
        }
    }
}
