//! # heap-analytics
//!
//! Result-analysis utilities for the HEAP reproduction: empirical CDFs (the
//! paper's favourite plot), plain-text tables/series for the figure output,
//! bounded-memory bucketed time series ([`BucketSeries`]) and a
//! Prometheus-style text exposition ([`expo::Exposition`]) for the
//! stream-health observability layer, and the mean-field gossip coverage
//! ([`fixed_point`]) that simulated dissemination is checked against.
//!
//! The crate is deliberately free of any protocol knowledge: it consumes
//! plain numbers produced by `heap-workloads` and formats them the way the
//! paper's figures and tables do.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cdf;
pub mod epidemic;
pub mod expo;
pub mod series;
pub mod table;

pub use cdf::EmpiricalCdf;
pub use epidemic::fixed_point;
pub use expo::{Exposition, MetricKind};
pub use series::{BucketSeries, BucketStats, Series};
pub use table::TextTable;
