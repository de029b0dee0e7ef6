//! One pipeline benchmark for the μMon reproduction: six workloads, every
//! layer timed from outside. See `README.md` beside this package for the
//! workload table, the metric definitions and how to read a trace file;
//! `spec` holds the same tables `BENCHMARK.json` states.

pub mod env;
pub mod orchestrate;
pub mod plane;
pub mod run;
pub mod spec;
pub mod stats;
pub mod synth;
pub mod trace;
pub mod workloads;
