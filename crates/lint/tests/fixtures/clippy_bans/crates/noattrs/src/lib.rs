//! A crate with no lint attributes of its own: the workspace lints
//! still reach it through `[lints] workspace = true`.

pub fn undocumented() {}

/// Reads through a raw pointer.
pub fn read(x: &u8) -> u8 {
    unsafe { *(x as *const u8) }
}
