//! # heap-workloads
//!
//! Experiment definitions and runners reproducing every figure and table of
//! the HEAP paper's evaluation (§3) on top of the simulated substrate.
//!
//! * [`bandwidth_dist`] — the upload-capability distributions of Table 1
//!   (ref-691, ref-724, ms-691), the uniform "dist2" of Fig. 2 and the
//!   unconstrained baseline of Fig. 1,
//! * [`scenario`] — a declarative description of one experiment run
//!   (distribution, protocol, stream length, churn, seed),
//! * [`runner`] — executes a scenario on the discrete-event simulator in
//!   phases ([`ScenarioRun`]: set-up, run, collection) and collects
//!   per-node results,
//! * [`experiments`] — one module per paper figure/table turning runs into
//!   printable [`Series`](heap_analytics::Series) and
//!   [`TextTable`](heap_analytics::TextTable)s,
//! * [`health_export`] — Prometheus-style text export of run results (the
//!   stream-health observability layer),
//! * [`scale`] — experiment sizing (full paper scale vs. scaled-down runs for
//!   quick iteration and CI).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bandwidth_dist;
pub mod experiments;
pub mod health_export;
pub mod runner;
pub mod scale;
pub mod scenario;

pub use bandwidth_dist::{BandwidthClass, BandwidthDistribution};
pub use heap_gossip::ConfigError;
pub use runner::{
    run_scenario, run_scenarios_parallel, run_scenarios_pooled, ExperimentResult, NetTotals,
    NodeResult, ScenarioRun,
};
pub use scale::Scale;
pub use scenario::{
    ChurnSpec, MembershipChoice, ProtocolChoice, ResultDetail, Scenario, ShardingChoice,
};
