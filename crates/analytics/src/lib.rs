//! # heap-analytics
//!
//! Result-analysis utilities for the HEAP reproduction: empirical CDFs (the
//! paper's favourite plot), descriptive statistics, per-class summaries,
//! plain-text tables/series for the benchmark harness output, bounded-memory
//! bucketed time series ([`BucketSeries`]) and a Prometheus-style text
//! exposition ([`expo::Exposition`]) for the stream-health observability
//! layer.
//!
//! The crate is deliberately free of any protocol knowledge: it consumes
//! plain numbers produced by `heap-workloads` and formats them the way the
//! paper's figures and tables do.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cdf;
pub mod expo;
pub mod series;
pub mod summary;
pub mod table;

pub use cdf::EmpiricalCdf;
pub use expo::{Exposition, MetricKind};
pub use series::{BucketSeries, BucketStats, Series};
pub use summary::{summarize, ClassSummary, Summary};
pub use table::TextTable;
