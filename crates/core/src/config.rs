//! Protocol configuration, and [`ConfigError`], the one error type every
//! configuration check returns.

use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a configuration cannot run: the field at fault (the first element of
/// every variant) and the rule it breaks. Returned by
/// [`GossipConfig::validate`], [`PartialMembershipConfig::validate`] and
/// `heap_workloads::Scenario::validate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Fewer nodes than a source and one receiver.
    TooFewNodes(&'static str, usize),
    /// A stream of no windows.
    NoWindows(&'static str),
    /// A value (a duration in seconds) that is not positive and finite.
    NotPositive(&'static str, f64),
    /// A fraction outside its range, `"[0, 1]"` or `"[0, 1)"`.
    NotAFraction(&'static str, f64, &'static str),
    /// A rate per minute that is negative, not finite, or so high that its
    /// arrivals come less than a microsecond apart.
    NotARate(&'static str, f64),
    /// An instant or delay, in seconds, outside `[0, MAX_SECS]`.
    NotAnInstant(&'static str, f64),
    /// An empty window or range `(start, end)`; a window of time must end
    /// after it starts in whole microseconds.
    EmptyWindow(&'static str, f64, f64),
    /// A list that needs at least one entry has none.
    EmptyList(&'static str),
    /// A fault region at or past the region count `(region, regions)`.
    RegionOutOfRange(&'static str, u32, usize),
    /// A run of more than 2³² `(requester, packet)` pairs, `(nodes,
    /// packets)`: see [`pair_space`](Self::pair_space).
    TooManyPairs(&'static str, usize, u64),
}

impl ConfigError {
    /// The latest instant, and the longest delay, a configuration may name:
    /// 10⁹ s keeps set-up's sums far inside the 64-bit microsecond clock.
    pub const MAX_SECS: f64 = 1e9;

    /// `Err(error)` unless `ok`.
    pub fn ensure(ok: bool, error: Self) -> Result<(), Self> {
        ok.then_some(()).ok_or(error)
    }

    /// Checks that `got` is positive and finite.
    pub fn positive(field: &'static str, got: f64) -> Result<(), Self> {
        Self::ensure(got > 0.0 && got.is_finite(), Self::NotPositive(field, got))
    }

    /// Checks that `got` is in `[0, 1]`, or in `[0, 1)` when `below_one`.
    pub fn fraction(field: &'static str, got: f64, below_one: bool) -> Result<(), Self> {
        let (fits, range) = match below_one {
            true => ((0.0..1.0).contains(&got), "[0, 1)"),
            false => ((0.0..=1.0).contains(&got), "[0, 1]"),
        };
        Self::ensure(fits, Self::NotAFraction(field, got, range))
    }

    /// Checks that a rate per minute is non-negative and at most one
    /// arrival per microsecond (6·10⁷) on average.
    pub fn rate(field: &'static str, got: f64) -> Result<(), Self> {
        Self::ensure((0.0..=6e7).contains(&got), Self::NotARate(field, got))
    }

    /// Checks that a run of `nodes` nodes streaming `packets` packets has at
    /// most 2³² `(requester, packet)` pairs, so that every pair has its own
    /// 32-bit serve-dedup key and every packet id fits 32 bits. A run past
    /// it would hold more than 16 GiB of 4-byte receive-log entries.
    pub fn pair_space(field: &'static str, nodes: usize, packets: u64) -> Result<(), Self> {
        let fits = nodes as u128 * u128::from(packets) <= 1 << 32;
        Self::ensure(fits, Self::TooManyPairs(field, nodes, packets))
    }

    /// Checks that an instant or delay, in seconds, is within `[0, MAX_SECS]`.
    pub fn instant(field: &'static str, got: f64) -> Result<(), Self> {
        let fits = (0.0..=Self::MAX_SECS).contains(&got);
        Self::ensure(fits, Self::NotAnInstant(field, got))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConfigError::*;
        match *self {
            TooFewNodes(field, n) => {
                write!(f, "{field} is {n}: need at least a source and one receiver")
            }
            NoWindows(field) => write!(f, "{field} is 0: a run streams at least one window"),
            NotPositive(field, got) => write!(f, "{field} must be positive and finite, got {got}"),
            NotAFraction(field, got, range) => write!(f, "{field} must be in {range}, got {got}"),
            NotARate(field, got) => write!(f, "{field} must be in [0, 1 per µs], got {got}/min"),
            NotAnInstant(field, got) => {
                let max = Self::MAX_SECS;
                write!(f, "{field} must be in [0, {max}] seconds, got {got}")
            }
            EmptyWindow(field, start, end) => write!(f, "{field} {start}..{end} is empty"),
            EmptyList(field) => write!(f, "{field} must not be empty"),
            RegionOutOfRange(field, region, n) => write!(f, "{field} {region} is not below {n}"),
            TooManyPairs(field, nodes, packets) => write!(
                f,
                "{field} is {nodes} nodes × {packets} packets: more than 2^32 (requester, packet) pairs"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

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

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: a period that is zero, a fanout that
    /// is not positive and finite, or no capability samples per aggregation
    /// message.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        E::positive("gossip_period", self.gossip_period.as_secs_f64())?;
        E::positive("fanout", self.fanout)?;
        E::positive("aggregation_period", self.aggregation_period.as_secs_f64())?;
        E::positive("aggregation_freshest", self.aggregation_freshest as f64)?;
        if self.max_retransmits > 0 {
            E::positive("retransmit_period", self.retransmit_period.as_secs_f64())?;
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
    /// Returns the first problem found: an empty view, an empty exchange or
    /// a zero shuffle period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        E::positive("view_size", self.view_size as f64)?;
        E::positive("shuffle_size", self.shuffle_size as f64)?;
        E::positive("shuffle_period", self.shuffle_period.as_secs_f64())
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
    fn pair_space_ends_at_2_pow_32_pairs() {
        let check = |nodes, packets| ConfigError::pair_space("f", nodes, packets);
        for (nodes, packets) in [(1 << 16, 1 << 16), (2, 1 << 31), (1, 1 << 32), (1 << 32, 1)] {
            assert_eq!(check(nodes, packets), Ok(()), "{nodes} × {packets}");
        }
        for (nodes, packets) in [
            (1 << 16, (1 << 16) + 1),
            (2, 1 << 32),
            (usize::MAX, u64::MAX),
        ] {
            let refused = ConfigError::TooManyPairs("f", nodes, packets);
            assert_eq!(check(nodes, packets), Err(refused), "{nodes} × {packets}");
        }
    }

    #[test]
    fn builders_and_validation() {
        let c = GossipConfig::paper().with_fanout(15.0);
        assert_eq!(c.fanout, 15.0);
        let c = GossipConfig::paper().without_retransmission();
        assert_eq!(c.max_retransmits, 0);
        assert!(c.validate().is_ok());

        let rejects = |field: &'static str, edit: fn(&mut GossipConfig)| {
            let mut bad = GossipConfig::paper();
            edit(&mut bad);
            assert_eq!(bad.validate(), Err(ConfigError::NotPositive(field, 0.0)));
        };
        rejects("fanout", |c| c.fanout = 0.0);
        rejects("gossip_period", |c| c.gossip_period = SimDuration::ZERO);
        rejects("aggregation_freshest", |c| c.aggregation_freshest = 0);
        rejects("retransmit_period", |c| {
            c.retransmit_period = SimDuration::ZERO
        });
        rejects("aggregation_period", |c| {
            c.aggregation_period = SimDuration::ZERO
        });
        let mut ok = GossipConfig::paper();
        ok.retransmit_period = SimDuration::ZERO;
        ok.max_retransmits = 0;
        assert!(ok.validate().is_ok());
    }
}
