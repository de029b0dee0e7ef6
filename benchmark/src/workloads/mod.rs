//! The six workloads. `host` serves `host_bursty` and `host_paced`,
//! `collect` serves `collect_clean` and `collect_lossy`.

pub mod collect;
pub mod fabric;
pub mod host;
pub mod query;
