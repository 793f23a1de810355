//! # heap-streaming
//!
//! The video-streaming application substrate of the HEAP reproduction.
//!
//! The paper disseminates a live video stream of 1316-byte packets produced
//! at 551 kbps (600 kbps including FEC overhead), grouped into FEC windows of
//! 101 source + 9 parity packets. A window is *viewable* ("jitter-free") for
//! a given **stream lag** if at least 101 of its packets have arrived by the
//! time the window is played out. This crate provides:
//!
//! * [`packet`] — stream packet/window identifiers and descriptors,
//! * [`source`] — the deterministic publication schedule of the stream
//!   source ([`source::StreamSchedule`]),
//! * [`receiver`] — the per-node receive log recording when every packet
//!   arrived ([`receiver::ReceiverLog`]) and the payload reassembly pipeline
//!   ([`receiver::StreamReassembler`]) decoding each FEC window with a
//!   [`heap_fec::WindowDecoder`],
//! * [`metrics`] — per-node stream-quality metrics (stream lag for 99 %
//!   delivery, per-window decode lags, jitter percentage at a given lag,
//!   delivery ratios inside jittered windows) computed from a receive log,
//! * [`health`] — the *live* counterpart of [`metrics`]: incremental
//!   per-receiver drift/cadence/freeze tracking and a weighted 0–100 health
//!   score, updated in O(1) per delivery with no per-event allocation
//!   ([`health::ReceiverHealth`]).
//!
//! The gossip protocols in `heap-gossip` move packet *identifiers* and
//! payload *sizes* around; actual FEC encode/decode lives in `heap-fec` and is
//! exercised by the examples and tests rather than inside the hot simulation
//! loop, which only needs arrival counts per window.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod health;
pub mod metrics;
pub mod packet;
pub mod receiver;
pub mod source;

pub use health::{HealthConfig, HealthReport, ReceiverHealth};
pub use metrics::{CompactNodeMetrics, NodeMetrics, NodeStreamMetrics};
pub use packet::{PacketId, StreamPacket, WindowId};
pub use receiver::{DecodedWindow, ReceiverLog, StreamReassembler};
pub use source::{StreamConfig, StreamSchedule};
