//! # heap — Heterogeneous Gossip (HEAP, Middleware 2009) reproduction
//!
//! Facade crate re-exporting the public API of every crate in the workspace.
//! See the individual crates for details:
//!
//! * [`gossip`] — the paper's contribution: three-phase gossip with
//!   capability-proportional fanout adaptation (HEAP) plus the standard
//!   homogeneous baseline.
//! * [`simnet`] — deterministic discrete-event network simulator.
//! * [`membership`] — peer sampling and churn schedules.
//! * [`fec`] — systematic Reed–Solomon forward error correction.
//! * [`streaming`] — the video-streaming application substrate.
//! * [`analytics`] — CDFs, percentiles, text tables and series.
//! * [`workloads`] — scenario definitions reproducing every figure and table.

#![forbid(unsafe_code)]

pub use heap_analytics as analytics;
pub use heap_fec as fec;
pub use heap_gossip as gossip;
pub use heap_membership as membership;
pub use heap_simnet as simnet;
pub use heap_streaming as streaming;
pub use heap_workloads as workloads;
