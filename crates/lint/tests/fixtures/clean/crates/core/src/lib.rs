//! Fixture sim crate: clean under every rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;

/// Test-rig glue, deliberately exempted from the panic budget.
pub fn rig_port(s: &str) -> u16 {
    s.parse().unwrap() // gfwlint: allow(P1)
}

/// Strings and comments never count: ".unwrap()" / panic!.
pub fn doc_only() -> &'static str {
    "x.unwrap() is fine inside a string"
}
