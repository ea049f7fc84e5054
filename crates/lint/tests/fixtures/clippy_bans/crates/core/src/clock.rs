//! Event stamps from the host clock, which the clock bans forbid.

use std::time::Instant as Clock;

/// Stamp an event with wall-clock time.
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// Time a step through a renamed import, which a token scan misses.
pub fn elapsed_ns() -> u128 {
    let t = Clock::now();
    t.elapsed().as_nanos()
}

/// Strings and comments never trip a ban: "Instant::now".
pub fn doc_only() -> &'static str {
    "SystemTime::now is fine inside a string"
}
