//! Helper crate for the workspace's runnable examples.
//!
//! The example programs sit next to this file and are registered as
//! `[[example]]` targets in this package's `Cargo.toml`, so each runs with
//! `cargo run --release --example <name>`:
//!
//! * `quickstart` — the whole RLD pipeline (parameter space → robust
//!   logical solution → robust physical plan → simulated run) in ~50 lines.
//! * `stock_monitoring` — the paper's running example: Q1 under
//!   bullish/bearish regime switches (Example 1).
//! * `sensor_network` — an n-way join over diurnally fluctuating sensor
//!   streams.
//! * `baseline_comparison` — RLD vs ROD vs DYN vs HYB on the same workload
//!   via the scenario layer, the
//!   §6.5 comparison in miniature.
//! * `live_pipeline` — the same robust deployment on both execution
//!   backends: modelled on the simulator, then live on the executor with
//!   real stock-tick tuples, wall-clock latencies and observed
//!   selectivities.
//!
//! This library target is intentionally empty; it exists so the example
//! files have a package to hang off and so shared helpers can be added here
//! later.

#![forbid(unsafe_code)]
