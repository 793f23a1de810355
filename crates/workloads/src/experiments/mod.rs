//! One module per paper figure/table.
//!
//! Every function here takes a [`Scale`](crate::scale::Scale) (and whatever
//! pre-computed runs it can reuse), executes the necessary scenarios and
//! returns a [`Figure`]: named series and/or tables that print the same rows
//! and curves the paper reports. The `repro` binary in `heap-bench` calls
//! each of them in turn; the README section "Reproducing the paper" maps
//! each to the paper artefact and claim it reproduces.

pub mod adversarial;
pub mod common;
pub mod fig10_churn;
pub mod fig1_unconstrained;
pub mod fig2_fanout_sweep;
pub mod fig3_heap_dist1;
pub mod fig4_bandwidth_usage;
pub mod fig5_6_jitter_free;
pub mod fig7_jitter_cdf;
pub mod fig8_lag_by_class;
pub mod fig9_lag_cdf;
pub mod partial_view;
pub mod scale_campaign;
pub mod stream_health;
pub mod table1_distributions;
pub mod table2_jittered_delivery;
pub mod table3_jitter_free_nodes;

pub use common::{Figure, StandardRuns};
