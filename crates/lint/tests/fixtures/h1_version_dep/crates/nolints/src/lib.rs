//! A crate whose manifest opts out of the workspace lints.

/// Nothing interesting.
pub fn noop() {}
