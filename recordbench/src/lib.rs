//! The PRIMACY benchmark of record.
//!
//! Three workloads — `checkpoint`, `incompressible` and `serve` — are run
//! through the program's public entry points by the `recordbench-e2e`
//! binary; the `recordbench-layers` binary replays the same inputs through
//! the stage functions to split the time and bytes into layers. Everything
//! both binaries share lives here: the seeded inputs ([`inputs`]), the
//! archive phases ([`archive`]), the server process and its closed-loop
//! load ([`serve`]) and the report format ([`report`]).

pub mod archive;
pub mod inputs;
pub mod report;
pub mod serve;

/// Times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 11;

/// Worker threads and connections the load uses: the machine's parallelism.
pub fn nproc() -> usize {
    primacy_core::resolve_threads(0)
}
