//! The paper's evaluation (§6) as one checked reproduction: every figure
//! and table of `rld_bench::reproduce`, its §6 claims checked against the
//! rows, all written to the committed `REPRODUCTION.json`.
//!
//! ```text
//! cargo run -p rld-bench --release --bin reproduce
//! cargo run -p rld-bench --release --bin reproduce -- --check
//! ```
//!
//! `--check` gates the run against the committed `REPRODUCTION.json` before
//! overwriting it.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => rld_bench::reproduce::run(false),
        [flag] if flag == "--check" => rld_bench::reproduce::run(true),
        _ => {
            eprintln!("usage: reproduce [--check]");
            ExitCode::from(2)
        }
    }
}
