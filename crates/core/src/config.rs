//! Protocol configuration, and [`ConfigError`], the one error type every
//! configuration check returns.

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
    /// A value that must equal another field's, `(got, other field, its
    /// value)`.
    Disagrees(&'static str, f64, &'static str, f64),
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
            Disagrees(field, got, other, want) => {
                write!(f, "{field} is {got} but {other} is {want}: they must be equal")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Interval between gossip (propose) rounds (§3.1). Sensitivity: its row of
/// `docs/ARCHITECTURE.md`, "protocol constants".
pub const GOSSIP_PERIOD: SimDuration = SimDuration::from_millis(200);

/// Interval between aggregation rounds (§3.1). Sensitivity: its row of
/// `docs/ARCHITECTURE.md`, "protocol constants".
pub const AGGREGATION_PERIOD: SimDuration = SimDuration::from_millis(200);

/// Number of peers an aggregation message is sent to each round (not set by
/// the paper). Sensitivity: its row of `docs/ARCHITECTURE.md`, "protocol
/// constants".
pub const AGGREGATION_FANOUT: usize = 1;

/// Number of freshest capability samples included in each aggregation
/// message (§3.1). Sensitivity: its row of `docs/ARCHITECTURE.md`,
/// "protocol constants"; at 2× it moved one Table 3 cell past 4 pp.
pub const AGGREGATION_FRESHEST: usize = 10;

/// Parameters of the gossip dissemination protocol that an experiment or a
/// test varies; the rest of the paper's setup is the constants above and the
/// wire format in [`message`](crate::message).
///
/// With those constants, the defaults reproduce the paper's experimental
/// setup (§3.1): 200 ms gossip period, average fanout 7, 200 ms aggregation
/// period exchanging the 10 freshest capability samples, and
/// application-level retransmission on top of unreliable (UDP-like)
/// transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Average fanout `f = ln(n) + c`; the paper uses 7 for ~270 nodes. No
    /// node reads it (a scenario's fanout is its protocol's); kept because
    /// `benchmark/` compiles against it, until ROADMAP item 2(b).
    pub fanout: f64,
    /// How long to wait for a [Serve] after sending a [Request] before
    /// re-requesting the missing packets.
    ///
    /// [Serve]: crate::message::GossipMessage::Serve
    /// [Request]: crate::message::GossipMessage::Request
    pub retransmit_period: SimDuration,
    /// Maximum number of re-requests per proposal (0 disables retransmission).
    pub max_retransmits: u32,
}

impl GossipConfig {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper() -> Self {
        GossipConfig {
            fanout: 7.0,
            retransmit_period: SimDuration::from_millis(2_000),
            max_retransmits: 2,
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
    /// Returns the first problem found: a fanout that is not positive and
    /// finite, or a zero retransmission period with retransmission on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        E::positive("fanout", self.fanout)?;
        if self.max_retransmits > 0 {
            E::positive("retransmit_period", self.retransmit_period.as_secs_f64())?;
        }
        Ok(())
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
        assert_eq!(GOSSIP_PERIOD, SimDuration::from_millis(200));
        assert_eq!(c.fanout, 7.0);
        assert_eq!(AGGREGATION_PERIOD, SimDuration::from_millis(200));
        assert_eq!(AGGREGATION_FRESHEST, 10);
        assert!(c.validate().is_ok());
        assert_eq!(GossipConfig::default(), c);
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
        rejects("retransmit_period", |c| {
            c.retransmit_period = SimDuration::ZERO
        });
        let mut ok = GossipConfig::paper();
        ok.retransmit_period = SimDuration::ZERO;
        ok.max_retransmits = 0;
        assert!(ok.validate().is_ok());
    }
}
