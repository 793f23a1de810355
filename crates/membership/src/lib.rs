//! # heap-membership
//!
//! Peer-sampling and churn substrate for the HEAP reproduction.
//!
//! Gossip dissemination (both the standard baseline and HEAP) relies on each
//! node being able to pick `fanout` communication partners *uniformly at
//! random* among the live nodes. The paper runs a full-membership deployment
//! of ~270 nodes; this crate provides:
//!
//! * [`view::MembershipView`] — a full membership view with crash/join
//!   tracking, the configuration used in the paper's experiments;
//! * [`sampler::UniformSampler`] — uniform selection of `f` distinct targets
//!   (excluding the selector), the `selectNodes(f)` primitive of Algorithm 1;
//! * [`partial::PartialView`] — a Cyclon-style partial view with periodic
//!   shuffles, provided to show that HEAP does not depend on full membership
//!   (used by ablation benches);
//! * [`churn::ChurnSchedule`] — scripted failure scenarios, including the
//!   catastrophic 20 % / 50 % crashes of §3.6.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod churn;
pub mod partial;
pub mod sampler;
pub mod view;

pub use churn::{ChurnEvent, ChurnSchedule, ContinuousChurn, JoinEvent};
pub use partial::PartialView;
pub use sampler::{Targets, UniformSampler};
pub use view::MembershipView;
