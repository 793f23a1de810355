//! Protocol configuration.

use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the gossip dissemination protocol.
///
/// The defaults reproduce the paper's experimental setup (§3.1): 200 ms gossip
/// period, average fanout 7, 200 ms aggregation period exchanging the 10
/// freshest capability samples, and application-level retransmission on top of
/// unreliable (UDP-like) transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Interval between gossip (propose) rounds.
    pub gossip_period: SimDuration,
    /// Average fanout `f = ln(n) + c`; the paper uses 7 for ~270 nodes.
    pub fanout: f64,
    /// Interval between aggregation rounds.
    pub aggregation_period: SimDuration,
    /// Number of peers an aggregation message is sent to each round.
    pub aggregation_fanout: usize,
    /// Number of freshest capability samples included in each aggregation
    /// message.
    pub aggregation_freshest: usize,
    /// How long to wait for a [Serve] after sending a [Request] before
    /// re-requesting the missing packets.
    ///
    /// [Serve]: crate::message::GossipMessage::Serve
    /// [Request]: crate::message::GossipMessage::Request
    pub retransmit_period: SimDuration,
    /// Maximum number of re-requests per proposal (0 disables retransmission).
    pub max_retransmits: u32,
    /// Serve-side duplicate suppression: a node refuses to re-serve the same
    /// packet to the same requester if it already served it less than this
    /// long ago. A requester cannot tell a *lost* [Serve] from one that is
    /// merely sitting in a congested upload queue, so without this guard a
    /// retransmitted [Request] duplicates payload traffic exactly when the
    /// system can least afford it (congestion collapse). `None` disables the
    /// guard (ablation).
    ///
    /// [Serve]: crate::message::GossipMessage::Serve
    /// [Request]: crate::message::GossipMessage::Request
    pub serve_dedup_window: Option<SimDuration>,
    /// Fixed per-message overhead (UDP/IP headers plus protocol framing), in
    /// bytes, added to every message.
    pub header_bytes: usize,
    /// Bytes used to encode one packet id in [Propose]/[Request] messages.
    ///
    /// [Propose]: crate::message::GossipMessage::Propose
    /// [Request]: crate::message::GossipMessage::Request
    pub id_bytes: usize,
    /// Bytes used to encode one capability sample in [Aggregation] messages.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub capability_sample_bytes: usize,
}

impl GossipConfig {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper() -> Self {
        GossipConfig {
            gossip_period: SimDuration::from_millis(200),
            fanout: 7.0,
            aggregation_period: SimDuration::from_millis(200),
            aggregation_fanout: 1,
            aggregation_freshest: 10,
            retransmit_period: SimDuration::from_millis(2_000),
            max_retransmits: 2,
            serve_dedup_window: Some(SimDuration::from_millis(1_500)),
            header_bytes: 28,
            id_bytes: 8,
            capability_sample_bytes: 10,
        }
    }

    /// Overrides the average fanout, keeping everything else.
    pub fn with_fanout(mut self, fanout: f64) -> Self {
        self.fanout = fanout;
        self
    }

    /// Disables retransmission (an ablation configuration).
    pub fn without_retransmission(mut self) -> Self {
        self.max_retransmits = 0;
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns an error string if a period is zero, the fanout is not
    /// positive, or aggregation parameters are degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.gossip_period.is_zero() {
            return Err("gossip_period must be positive".into());
        }
        if self.fanout <= 0.0 || self.fanout.is_nan() {
            return Err(format!("fanout must be positive, got {}", self.fanout));
        }
        if self.aggregation_period.is_zero() {
            return Err("aggregation_period must be positive".into());
        }
        if self.aggregation_freshest == 0 {
            return Err("aggregation_freshest must be at least 1".into());
        }
        if self.max_retransmits > 0 && self.retransmit_period.is_zero() {
            return Err("retransmit_period must be positive when retransmission is enabled".into());
        }
        Ok(())
    }

    /// The wire size of a [Propose] or [Request] message carrying `n_ids`
    /// packet identifiers.
    ///
    /// [Propose]: crate::message::GossipMessage::Propose
    /// [Request]: crate::message::GossipMessage::Request
    pub fn control_message_bytes(&self, n_ids: usize) -> usize {
        self.header_bytes + n_ids * self.id_bytes
    }

    /// The wire size of a [Serve] message carrying payloads totalling
    /// `payload_bytes` bytes.
    ///
    /// [Serve]: crate::message::GossipMessage::Serve
    pub fn serve_message_bytes(&self, payload_bytes: usize) -> usize {
        self.header_bytes + payload_bytes
    }

    /// The wire size of an [Aggregation] message carrying `n_samples`
    /// capability samples.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub fn aggregation_message_bytes(&self, n_samples: usize) -> usize {
        self.header_bytes + n_samples * self.capability_sample_bytes
    }

    /// Approximate control-plane overhead rate (bits per second) generated by
    /// the aggregation protocol with these parameters — the paper reports
    /// ~1 KB/s, marginal compared to the 600 kbps stream.
    pub fn aggregation_overhead(&self) -> Bandwidth {
        let bytes_per_round =
            self.aggregation_message_bytes(self.aggregation_freshest) * self.aggregation_fanout;
        let rounds_per_sec = 1.0 / self.aggregation_period.as_secs_f64();
        Bandwidth::from_bps((bytes_per_round as f64 * 8.0 * rounds_per_sec) as u64)
    }
}

/// Parameters of the Cyclon-style partial membership mode (see
/// [`GossipNodeBuilder::partial_membership`]).
///
/// The paper's deployment gives every node full membership knowledge; this
/// mode replaces it with a bounded partial view refreshed by periodic
/// shuffles, showing that HEAP's fanout adaptation does not depend on full
/// membership.
///
/// [`GossipNodeBuilder::partial_membership`]: crate::node::GossipNodeBuilder::partial_membership
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialMembershipConfig {
    /// Maximum number of peer descriptors a node holds.
    pub view_size: usize,
    /// Number of descriptors exchanged per shuffle.
    pub shuffle_size: usize,
    /// Interval between shuffle rounds.
    pub shuffle_period: SimDuration,
}

impl PartialMembershipConfig {
    /// Cyclon-like defaults sized for a few hundred nodes: 16-entry views,
    /// 8-entry exchanges, one shuffle per second.
    pub fn cyclon() -> Self {
        PartialMembershipConfig {
            view_size: 16,
            shuffle_size: 8,
            shuffle_period: SimDuration::from_secs(1),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error string if the view is empty, the exchange is empty
    /// or the shuffle period is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.view_size == 0 {
            return Err("view_size must be at least 1".into());
        }
        if self.shuffle_size == 0 {
            return Err("shuffle_size must be at least 1".into());
        }
        if self.shuffle_period.is_zero() {
            return Err("shuffle_period must be positive".into());
        }
        Ok(())
    }
}

impl Default for PartialMembershipConfig {
    fn default() -> Self {
        PartialMembershipConfig::cyclon()
    }
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3_1() {
        let c = GossipConfig::paper();
        assert_eq!(c.gossip_period, SimDuration::from_millis(200));
        assert_eq!(c.fanout, 7.0);
        assert_eq!(c.aggregation_period, SimDuration::from_millis(200));
        assert_eq!(c.aggregation_freshest, 10);
        assert!(c.validate().is_ok());
        assert_eq!(GossipConfig::default(), c);
    }

    #[test]
    fn aggregation_overhead_is_marginal() {
        // The paper reports ~1 KB/s of aggregation traffic; our defaults stay
        // in that ballpark and far below the 600 kbps stream rate.
        let overhead = GossipConfig::paper().aggregation_overhead();
        assert!(overhead.as_bps() < 20_000, "overhead {overhead}");
        assert!(overhead.as_bps() > 1_000);
    }

    #[test]
    fn message_size_helpers() {
        let c = GossipConfig::paper();
        assert_eq!(c.control_message_bytes(0), 28);
        assert_eq!(c.control_message_bytes(11), 28 + 88);
        assert_eq!(c.serve_message_bytes(1316), 28 + 1316);
        assert_eq!(c.aggregation_message_bytes(10), 28 + 100);
    }

    #[test]
    fn builders_and_validation() {
        let c = GossipConfig::paper().with_fanout(15.0);
        assert_eq!(c.fanout, 15.0);
        let c = GossipConfig::paper().without_retransmission();
        assert_eq!(c.max_retransmits, 0);
        assert!(c.validate().is_ok());

        let mut bad = GossipConfig::paper();
        bad.fanout = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = GossipConfig::paper();
        bad.gossip_period = SimDuration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = GossipConfig::paper();
        bad.aggregation_freshest = 0;
        assert!(bad.validate().is_err());
        let mut bad = GossipConfig::paper();
        bad.retransmit_period = SimDuration::ZERO;
        assert!(bad.validate().is_err());
        let mut ok = GossipConfig::paper();
        ok.retransmit_period = SimDuration::ZERO;
        ok.max_retransmits = 0;
        assert!(ok.validate().is_ok());
        let mut bad = GossipConfig::paper();
        bad.aggregation_period = SimDuration::ZERO;
        assert!(bad.validate().is_err());
    }
}
