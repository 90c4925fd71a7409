//! Benchmark harness for the Sprite migration reproduction.
//!
//! Every table and figure of the paper's evaluation has an experiment
//! module under [`experiments`] (E1-E12; see DESIGN.md for the index).
//! `cargo run -p sprite-bench --release --bin experiments` prints all the
//! reproduction tables — add `--jobs N` to spread the independent units
//! (whole experiments, E10 cells, E11 replications) over worker threads
//! with byte-identical output, and `--json` for a machine-readable timing
//! sidecar. `cargo bench -p sprite-bench` runs the std-only microbenches
//! over the core operations and the event engine.

#![warn(missing_docs)]

pub mod audit;
pub mod experiments;
pub mod runner;
pub mod support;
