//! Fixture crypto crate with hash-ordered helpers (reachable -> R1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// The first slot of a keyed table, in whatever order the hash yields.
pub fn first_slot() -> u64 {
    let slots: HashMap<u64, u64> = (0..4).map(|k| (k, k * 10)).collect();
    slots.values().copied().next().unwrap_or(0)
}

/// Diagnostic-only dump, waived with a justification.
pub fn trace_slots() -> Vec<u64> {
    let slots: HashMap<u64, u64> = HashMap::new();
    // gfwlint: allow(R1) -- diagnostic trace only, never in sim output
    slots.keys().copied().collect()
}
