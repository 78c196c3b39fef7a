//! # ocin-perfbench — the ocin benchmark
//!
//! Measures what the simulator costs on the host (host time) and what
//! the modelled chip would do (simulated metrics, exact for a seed) on
//! four named workloads, driving the library only through its public
//! API: `Simulation`, `Network`, `LoadSweep`/`SimPool`,
//! `WorkloadGenerator` and `ProbeConfig`. See `README.md` beside this
//! crate for the workloads, the metrics and the layer table.

pub mod calib;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;
