//! # perfbench — end-to-end wall-clock benchmark
//!
//! Generated `.mj` source → parse → extract → collapse → schedule →
//! threaded solve → answers, checked against the `parcfl-check` oracle,
//! on three workloads (see `README.md`). `main.rs` is the command line;
//! the library is what the self-test drives.

#![warn(missing_docs)]

pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;
