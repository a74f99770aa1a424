//! End-to-end runs of the benchmark of record (tracing off).
//!
//! ```text
//! recordbench-e2e --workload checkpoint|incompressible|serve --seed N
//!                 --seconds S [--server-bin PATH]
//! ```
//!
//! Prints a provenance line, the attempted/failed count of every operation
//! kind, and as its last line the result object with every end-to-end
//! metric. Exits non-zero, without a result line, when the run cannot be
//! completed.

use primacy_recordbench::report::{self, Outcome};
use primacy_recordbench::{archive, serve};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match report::parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recordbench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match archive::Workload::from_name(&args.workload) {
        Some(w) => archive::run(w, &args),
        None if args.workload == "serve" => serve::run(&args),
        None => Err(format!("unknown workload {:?}", args.workload)),
    };
    match outcome.and_then(|o| report::print_outcome("e2e", &args, &o, started.elapsed())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("recordbench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
