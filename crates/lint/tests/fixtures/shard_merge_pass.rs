//! Sharded-queue fixture: the deterministic merge idiom. Shard heads are
//! scanned in `Vec` index order, the actor directory is only probed by
//! key, and hash-ordered entries are laundered (sorted, reduced with an
//! order-insensitive terminal, or collected into an `(at, seq)`-ordered
//! `BinaryHeap`) before they can steer pop order. Expected: zero findings.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Virtual time, then a sequence number unique across shards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    at: u64,
    seq: u64,
}

pub struct Mailroom {
    shards: Vec<BinaryHeap<Reverse<EventKey>>>,
    directory: HashMap<u64, usize>,
}

impl Mailroom {
    /// Index-order scan over `Vec` shard heads: the winner is the global
    /// `(at, seq)` minimum, independent of the scan order, because `seq`
    /// is unique across shards.
    pub fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(EventKey, usize)> = None;
        for (slot, heap) in self.shards.iter().enumerate() {
            if let Some(&Reverse(head)) = heap.peek() {
                if best.is_none_or(|(b, _)| head < b) {
                    best = Some((head, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Keyed probing never observes the directory's iteration order.
    pub fn shard_of(&self, actor: u64) -> Option<usize> {
        self.directory.get(&actor).copied()
    }

    /// Order-insensitive terminal: the count is the same in any order.
    pub fn tracked(&self) -> usize {
        self.directory.values().copied().count()
    }

    /// Collecting into a binary heap defines the order: pops come out in
    /// `(at, seq)` order no matter how the hash map interleaved the
    /// pushes.
    pub fn requeue(&self, pending: &HashMap<usize, EventKey>) -> BinaryHeap<Reverse<EventKey>> {
        pending
            .iter()
            .map(|(_, &key)| Reverse(key))
            .collect::<BinaryHeap<_>>()
    }

    /// Collect-then-sort launders the directory's hash order.
    pub fn census(&self) -> Vec<u64> {
        let mut actors: Vec<u64> = self.directory.keys().copied().collect();
        actors.sort_unstable();
        actors
    }
}
