//! A minimal JSON object writer for the one-line repetition record.
//!
//! The record is flat enough that a string builder beats pulling a JSON
//! crate into the benchmark's own workspace.

use std::fmt::Write;

/// Builds one JSON object, field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write!(self.body, "\"{k}\":").expect("writing to a String cannot fail");
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v:e}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// An unsigned integer.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    /// A boolean.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// A string without characters that need escaping.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        debug_assert!(!v.contains(['"', '\\', '\n']), "unescaped string {v:?}");
        self.key(k);
        write!(self.body, "\"{v}\"").expect("writing to a String cannot fail");
        self
    }

    /// An array of numbers.
    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            write!(self.body, "{v:e}").expect("writing to a String cannot fail");
        }
        self.body.push(']');
        self
    }

    /// A nested object.
    pub fn obj(&mut self, k: &str, v: Obj) -> &mut Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    /// The rendered object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}
