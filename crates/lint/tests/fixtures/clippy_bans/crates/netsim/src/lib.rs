//! Fixture sim crate with worker threads and a heap scheduler.

pub mod pool;
pub mod sched;
pub mod shard;
