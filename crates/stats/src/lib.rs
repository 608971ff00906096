//! # mq-stats — the statistics substrate
//!
//! Everything the optimizer and the Dynamic Re-Optimization machinery
//! know about data distributions comes from this crate:
//!
//! * [`reservoir::Reservoir`] — Vitter's Algorithm R, the single-pass
//!   sampler the paper cites (\[24\]) for building runtime histograms
//!   without I/O (§2.2, §3.1);
//! * [`histogram::Histogram`] — equi-width, equi-depth, MaxDiff(V,A)
//!   and end-biased ("serial") histograms with equality, range and join
//!   selectivity estimation. The SCIA's inaccuracy-potential rules
//!   (§2.5) key off exactly these histogram classes;
//! * [`distinct::FmSketch`] — Flajolet–Martin probabilistic counting
//!   (\[6\]), used to estimate the number of unique values of group-by
//!   attributes at run time;
//! * [`zipf::Zipf`] — the generalized Zipfian generator used to skew
//!   the TPC-D data for the Figure 12 experiment;
//! * [`accumulator::StreamStats`] — the one-pass statistics recipe
//!   (row count, average row width, and a
//!   [`accumulator::ColumnAccumulator`] per watched column) shared by
//!   ANALYZE, materialization and the runtime statistics-collector
//!   operator.

pub mod accumulator;
pub mod distinct;
pub mod histogram;
pub mod reservoir;
pub mod zipf;

pub use accumulator::{
    ColumnAccumulator, ObservedColumn, StreamStats, HISTOGRAM_BUCKETS, RESERVOIR_SIZE,
};
pub use distinct::FmSketch;
pub use histogram::{Bucket, Histogram, HistogramKind};
pub use reservoir::Reservoir;
pub use zipf::Zipf;
