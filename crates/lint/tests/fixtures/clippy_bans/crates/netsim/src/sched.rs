//! Fixture scheduler built on a heap beside the event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A comparison-ordered scheduler.
#[derive(Default)]
pub struct Sched {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Sched {
    /// Queue an item at a time.
    pub fn push(&mut self, at: u64, item: u32) {
        self.heap.push(Reverse((at, item)));
    }
}

/// A heap reached through its full path.
pub fn depth() -> usize {
    std::collections::BinaryHeap::<u32>::new().len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_covered_too() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(1u8);
        assert_eq!(h.len(), 1);
    }
}
