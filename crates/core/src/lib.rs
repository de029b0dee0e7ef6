#![warn(missing_docs)]

//! # WaveSketch — in-dataplane wavelet compression of flow-rate curves
//!
//! This crate implements the core contribution of *μMon: Empowering
//! Microsecond-level Network Monitoring with Wavelets* (SIGCOMM 2024, §4):
//! a sketch that measures per-flow rate curves at microsecond granularity and
//! compresses them online with a Haar-variant discrete wavelet transform.
//!
//! ## Layout
//!
//! * [`haar`] — the offline reference transform and its inverse (the
//!   unnormalized Haar variant of §4.2 that needs only add/sub).
//! * [`streaming`] — the online per-bucket transform of Algorithm 1: a window
//!   counter is folded into the approximation array and per-level partial
//!   detail coefficients as soon as it closes.
//! * [`select`] — coefficient selection: the ideal weighted top-k of
//!   Appendix A and the hardware (PISA) approximation of §4.3 with
//!   parity-split shift weights and a calibrated threshold.
//! * [`arena`] — the counter buckets (`w0, i, c, A, D`) tying counting,
//!   transformation and compression together, as flat preallocated
//!   multi-bucket storage: allocation-free updates, in-place evictions,
//!   drains equal to the per-bucket reference's (retained details as a
//!   set). A stand-alone bucket is a one-bucket arena.
//! * [`reconstruct`] — the analyzer-side reconstruction of Algorithm 2.
//! * [`basic`] — the basic WaveSketch: a Count-Min-style `d × w` bucket array.
//! * [`full`] — the full WaveSketch: majority-vote heavy part + light part.
//! * [`batch`] — burst ingest behind `update_batch`: one staged AVX-512
//!   pipeline (pack → hash 8 keys wide → derive → prefetched fold) where the
//!   CPU has it, the per-record `update` loop everywhere else.
//! * [`hw`] — hardware implementation model: approximate selection knobs,
//!   threshold calibration from traces, and the PISA pipeline resource model
//!   used to reproduce Table 1.
//! * [`report`] — the wire format a host ships to the μMon analyzer and its
//!   bandwidth accounting (`w0 + A + D`, §4.2 compression-ratio analysis).
//!
//! ## Quick start
//!
//! ```
//! use wavesketch::{BasicWaveSketch, FlowKey, SketchConfig};
//!
//! let config = SketchConfig::builder()
//!     .rows(3)
//!     .width(256)
//!     .levels(8)
//!     .topk(32)
//!     .max_windows(2048)
//!     .build();
//! let mut sketch = BasicWaveSketch::new(config);
//!
//! let flow = FlowKey::from_v4([10, 0, 0, 1], [10, 0, 0, 2], 4791, 4791, 17);
//! // Three packets of 1500 B in windows 100, 100 and 103.
//! sketch.update(&flow, 100, 1500);
//! sketch.update(&flow, 100, 1500);
//! sketch.update(&flow, 103, 1500);
//!
//! let curve = sketch.query(&flow).expect("flow was recorded");
//! assert_eq!(curve.at(100), 3000.0);
//! assert_eq!(curve.at(101), 0.0);
//! assert_eq!(curve.at(103), 1500.0);
//! ```

pub mod arena;
pub mod basic;
pub mod batch;
pub mod config;
pub mod flow;
pub mod full;
pub mod haar;
pub mod hw;
pub mod reconstruct;
pub mod report;
pub mod select;
pub mod streaming;

pub use arena::BucketArena;
pub use basic::BasicWaveSketch;
pub use batch::{active_kernel, BatchKernel};
pub use config::{Placement, SketchConfig, SketchConfigBuilder};
pub use flow::FlowKey;
pub use full::FullWaveSketch;
pub use hw::{HwSelectorConfig, PipelineBudget, ResourceUsage};
pub use reconstruct::ReconstructScratch;
pub use report::{
    BucketReport, DetailRecord, EncodedEpoch, EpochSource, ReportTable, SketchReport,
};
pub use select::{CoeffSelector, HwThresholdSelector, IdealTopK, Selector, SelectorKind};

/// The paper's reference window length: 8.192 μs, chosen so the window id is
/// the nanosecond timestamp right-shifted by 13 bits (§7.1).
pub const DEFAULT_WINDOW_SHIFT: u32 = 13;

/// Nanoseconds per window for [`DEFAULT_WINDOW_SHIFT`] (8192 ns = 8.192 μs).
pub const DEFAULT_WINDOW_NS: u64 = 1 << DEFAULT_WINDOW_SHIFT;

/// Converts a nanosecond timestamp to a global window id using the default
/// 8.192 μs window.
#[inline]
pub fn window_of_ns(ts_ns: u64) -> u64 {
    ts_ns >> DEFAULT_WINDOW_SHIFT
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn window_id_is_timestamp_shift() {
        assert_eq!(window_of_ns(0), 0);
        assert_eq!(window_of_ns(8191), 0);
        assert_eq!(window_of_ns(8192), 1);
        assert_eq!(window_of_ns(10 * 8192 + 5), 10);
    }
}
