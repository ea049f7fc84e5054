//! # bench — benchmark support
//!
//! The benchmarks live in `benches/`:
//!
//! * `figures` — one Criterion group per paper table/figure, running
//!   the corresponding experiment end-to-end at reduced scale (the
//!   printable, full-scale versions are the `exp-*` binaries in the
//!   `experiments` crate).
//! * `crypto` — throughput of the from-scratch primitives.
//! * `substrate` — netsim event-loop and connection throughput.
//! * `detector` — GFW component costs: passive scoring, scheduling,
//!   Bloom filters, reaction classification.
//!
//! This library only hosts shared helpers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random payload for benchmarks.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = vec![0u8; len];
    rng.fill(&mut p[..]);
    p
}
