//! A stable discrete-event queue.
//!
//! [`EventQueue`] orders events by [`SimTime`]; events scheduled for the
//! same instant are delivered in insertion order (FIFO), which keeps
//! simulations deterministic without relying on heap tie-breaking.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry; ordered so the `BinaryHeap` becomes a min-heap on
/// `(time, seq)`.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue with a monotone virtual clock.
///
/// Popping an event advances the clock to the event's timestamp.
/// Scheduling an event before the clock is rejected (see
/// [`EventQueue::push`]).
///
/// # Examples
///
/// ```
/// use trustex_netsim::event::EventQueue;
/// use trustex_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(10), 'b');
/// q.push(SimTime::from_millis(10), 'c'); // same instant: FIFO
/// q.push(SimTime::from_millis(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — discrete-event
    /// simulations must never schedule into the past.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn counters_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_micros(1), ());
        q.push(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.len(), 1);
        // The clock is still at zero: an earlier event is accepted.
        q.push(SimTime::from_micros(1), ());
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), ())));
    }

    /// Fault-plane reorder determinism: messages delayed by the plane's
    /// hash-uniform jitter drain in exactly the same order no matter
    /// what order they were pushed in (distinct timestamps), and the
    /// drained sequence is reproducible run-to-run because the jitter
    /// itself is a pure function of the message sequence number.
    #[test]
    fn jitter_reorder_is_deterministic_across_insertion_orders() {
        use crate::fault::{FaultConfig, FaultFate, FaultPlane};
        let plane = FaultPlane::new(
            0x0E0E,
            FaultConfig {
                // A wide jitter band over a distinct-per-message base
                // guarantees genuine reordering with unique timestamps.
                extra_delay_max_us: 10_000,
                ..FaultConfig::default()
            },
        );
        let arrivals: Vec<(SimTime, u64)> = (0..64u64)
            .map(|seq| {
                let extra = match plane.decide(0, 1, seq, SimTime::ZERO) {
                    FaultFate::Deliver { extra_delay } => extra_delay,
                    other => panic!("unexpected fate {other:?}"),
                };
                (SimTime::from_micros(seq * 1_000) + extra, seq)
            })
            .collect();
        // Jitter (≤10ms) dwarfs the send spacing (1ms), so arrivals
        // genuinely reorder; distinct timestamps keep FIFO tie-breaking
        // out of the picture so every insertion order must agree.
        let mut times: Vec<SimTime> = arrivals.iter().map(|&(t, _)| t).collect();
        times.sort();
        times.dedup();
        assert_eq!(times.len(), arrivals.len(), "timestamp collision");
        assert!(
            arrivals.windows(2).any(|w| w[0].0 > w[1].0),
            "no reordering happened"
        );
        let drain = |order: &[usize]| -> Vec<u64> {
            let mut q = EventQueue::new();
            for &i in order {
                q.push(arrivals[i].0, arrivals[i].1);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        let forward: Vec<usize> = (0..arrivals.len()).collect();
        let backward: Vec<usize> = (0..arrivals.len()).rev().collect();
        let strided: Vec<usize> = (0..arrivals.len())
            .map(|i| (i * 7) % arrivals.len())
            .collect();
        let reference = drain(&forward);
        assert_eq!(drain(&backward), reference);
        assert_eq!(drain(&strided), reference);
        // And the reference really is a time-sort of the arrivals.
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(
            reference,
            sorted.iter().map(|&(_, s)| s).collect::<Vec<_>>()
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(30), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop(), None);
    }
}
