//! Thread-safe counter storage.
//!
//! The FMM's instrumentation pass is single-threaded: the cache
//! simulator and the per-interaction instruction charges add to one set
//! per phase, and reads (profile extraction) happen after the phase.
//! Increments are relaxed atomics, so a set can still be shared across
//! threads (`merge`, concurrent adds) without losing updates.

use crate::events::{CounterEvent, TABLE3_EVENTS};
use std::sync::atomic::{AtomicU64, Ordering};

/// One set of Table III counters.
#[derive(Debug, Default)]
pub struct CounterSet {
    values: [AtomicU64; 17],
}

impl Clone for CounterSet {
    /// A new set holding this one's current values.
    fn clone(&self) -> Self {
        CounterSet { values: self.snapshot().map(AtomicU64::new) }
    }
}

impl CounterSet {
    /// A fresh all-zero counter set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Adds `n` to `event`.
    #[inline]
    pub fn add(&self, event: CounterEvent, n: u64) {
        self.values[event.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `event`.
    pub fn get(&self, event: CounterEvent) -> u64 {
        self.values[event.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters in Table III order.
    pub fn snapshot(&self) -> [u64; 17] {
        std::array::from_fn(|i| self.values[i].load(Ordering::Relaxed))
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for v in &self.values {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// Accumulates another set into this one.
    pub fn merge(&self, other: &CounterSet) {
        for e in TABLE3_EVENTS {
            self.add(e, other.get(e));
        }
    }

    /// Sum of DRAM read sectors across both sub-partitions.
    pub fn dram_read_sectors(&self) -> u64 {
        self.get(CounterEvent::fb_subp0_read_sectors)
            + self.get(CounterEvent::fb_subp1_read_sectors)
    }

    /// Sum of L1→L2 read hit sectors across the four slices.
    pub fn l2_read_hit_sectors(&self) -> u64 {
        self.get(CounterEvent::l2_subp0_read_l1_hit_sectors)
            + self.get(CounterEvent::l2_subp1_read_l1_hit_sectors)
            + self.get(CounterEvent::l2_subp2_read_l1_hit_sectors)
            + self.get(CounterEvent::l2_subp3_read_l1_hit_sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_and_get() {
        let c = CounterSet::new();
        c.add(CounterEvent::flops_dp_fma, 10);
        c.add(CounterEvent::flops_dp_fma, 5);
        assert_eq!(c.get(CounterEvent::flops_dp_fma), 15);
        assert_eq!(c.get(CounterEvent::inst_integer), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = CounterSet::new();
        c.add(CounterEvent::gld_request, 3);
        c.reset();
        assert_eq!(c.snapshot(), [0; 17]);
    }

    #[test]
    fn merge_accumulates() {
        let a = CounterSet::new();
        let b = CounterSet::new();
        a.add(CounterEvent::gst_request, 1);
        b.add(CounterEvent::gst_request, 2);
        a.merge(&b);
        assert_eq!(a.get(CounterEvent::gst_request), 3);
    }

    #[test]
    fn dram_and_l2_aggregates() {
        let c = CounterSet::new();
        c.add(CounterEvent::fb_subp0_read_sectors, 4);
        c.add(CounterEvent::fb_subp1_read_sectors, 6);
        c.add(CounterEvent::l2_subp0_read_l1_hit_sectors, 1);
        c.add(CounterEvent::l2_subp3_read_l1_hit_sectors, 2);
        assert_eq!(c.dram_read_sectors(), 10);
        assert_eq!(c.l2_read_hit_sectors(), 3);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = Arc::new(CounterSet::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(CounterEvent::inst_integer, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(CounterEvent::inst_integer), 80_000);
    }
}
