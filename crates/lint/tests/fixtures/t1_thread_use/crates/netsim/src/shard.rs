//! Fixture shard executor inside a sim crate — T1 forbids this too:
//! whole simulators per worker belong in `experiments::runner`.

/// Advance a batch of cells on scoped worker threads.
pub fn run_cells(cells: Vec<fn()>) {
    std::thread::scope(|s| {
        for cell in cells {
            s.spawn(cell);
        }
    });
}
