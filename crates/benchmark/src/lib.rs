//! The repository's one benchmark.
//!
//! Five named workloads run under one single-threaded, seeded,
//! tick-scheduled open-loop driver. Eight end-to-end metrics are
//! measured on the live `FabricNetwork` with tracing off; a per-layer
//! cost ledger is taken from outside, by composing the same pipeline
//! from public calls into each layer with a span around each call. See
//! the crate's `README.md` for the metric glossary and the baseline.

pub mod driver;
pub mod json;
pub mod measure;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod verify;
pub mod workload;
