//! # rld-analysis
//!
//! The workspace invariant auditor. The reproduction's headline correctness
//! property is **bit-determinism**: the simulator, the row executor and the
//! columnar backend — at every shard count — must produce identical traces
//! (the `columnar_oracle` differential tests). The rules that make that true
//! used to be tribal knowledge; this crate machine-checks them:
//!
//! * a self-contained Rust [`lexer`] and token-tree scanner (no external
//!   dependencies — the build environment is offline),
//! * four named, waivable [`rules`] with `file:line` spans — **D1** (no hash
//!   iteration on result paths), **D2** (wall clock only in the timing
//!   surface), **U1** (no `unsafe` anywhere), **L1** (lock discipline),
//! * `// rld-allow(<rule>): <reason>` inline waivers, counted in the
//!   [`report`], and
//! * a machine-readable `ANALYSIS.json` report, which also carries each
//!   crate's non-test line and `pub` item counts (the size trend as a diff
//!   of a committed file).
//!
//! Run it with `cargo run -p rld-analysis -- check` (exit 0 = clean tree;
//! CI gates on it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{CrateSize, Report};
pub use rules::{analyze_source, Diagnostic, FileReport, RuleId, Waiver};
pub use workspace::Workspace;
