//! Declarative description of one experiment run.

use crate::bandwidth_dist::BandwidthDistribution;
use crate::scale::Scale;
use heap_gossip::config::{ConfigError, GossipConfig};
use heap_gossip::fanout::FanoutPolicy;
use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::fault::RegionPolicy;
use heap_simnet::latency::LatencyModel;
use heap_simnet::loss::LossModel;
use heap_simnet::time::SimDuration;
use heap_streaming::source::StreamConfig;
use serde::Serialize;

/// Which dissemination protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ProtocolChoice {
    /// Standard homogeneous gossip with the given fanout.
    Standard {
        /// The fanout every node uses.
        fanout: f64,
    },
    /// HEAP with the given *average* fanout and the gossip-based capability
    /// estimate.
    Heap {
        /// The average fanout.
        fanout: f64,
    },
    /// HEAP with an oracle average capability (ablation).
    HeapOracle {
        /// The average fanout.
        fanout: f64,
    },
}

impl ProtocolChoice {
    /// A short label for figure legends.
    pub fn label(&self) -> String {
        match self {
            ProtocolChoice::Standard { fanout } => format!("standard f={fanout}"),
            ProtocolChoice::Heap { fanout } => format!("HEAP f={fanout}"),
            ProtocolChoice::HeapOracle { fanout } => format!("HEAP-oracle f={fanout}"),
        }
    }

    /// The reference fanout of the protocol.
    pub fn fanout(&self) -> f64 {
        match self {
            ProtocolChoice::Standard { fanout }
            | ProtocolChoice::Heap { fanout }
            | ProtocolChoice::HeapOracle { fanout } => *fanout,
        }
    }

    /// Resolves the choice into a [`FanoutPolicy`], given the distribution's
    /// true average capability (only used by the oracle variant).
    pub fn policy(&self, true_average: Option<Bandwidth>) -> FanoutPolicy {
        match *self {
            ProtocolChoice::Standard { fanout } => FanoutPolicy::fixed(fanout),
            ProtocolChoice::Heap { fanout } => FanoutPolicy::heap(fanout),
            ProtocolChoice::HeapOracle { fanout } => FanoutPolicy::heap_oracle(
                fanout,
                true_average.unwrap_or_else(|| Bandwidth::from_kbps(691)),
            ),
        }
    }
}

/// How nodes learn about their peers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum MembershipChoice {
    /// Full membership knowledge, the paper's deployment assumption.
    Full,
    /// Cyclon-style partial views refreshed by periodic shuffles
    /// ([`heap_gossip::PartialMembershipConfig`]); gossip and aggregation
    /// targets are drawn from the bounded view.
    Cyclon {
        /// Partial-view capacity per node.
        view_size: usize,
        /// Entries exchanged per shuffle.
        shuffle_size: usize,
        /// Interval between shuffle rounds, in milliseconds.
        shuffle_period_ms: u64,
    },
}

impl MembershipChoice {
    /// The default Cyclon parameterisation
    /// ([`heap_gossip::PartialMembershipConfig::cyclon`]).
    pub fn cyclon() -> Self {
        let config = heap_gossip::PartialMembershipConfig::cyclon();
        MembershipChoice::Cyclon {
            view_size: config.view_size,
            shuffle_size: config.shuffle_size,
            shuffle_period_ms: config.shuffle_period.as_millis(),
        }
    }

    /// A short label for figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            MembershipChoice::Full => "full membership",
            MembershipChoice::Cyclon { .. } => "cyclon",
        }
    }

    /// The partial-membership configuration to install on each node, if any.
    pub fn partial_config(&self) -> Option<heap_gossip::PartialMembershipConfig> {
        match *self {
            MembershipChoice::Full => None,
            MembershipChoice::Cyclon {
                view_size,
                shuffle_size,
                shuffle_period_ms,
            } => Some(heap_gossip::PartialMembershipConfig {
                view_size,
                shuffle_size,
                shuffle_period: SimDuration::from_millis(shuffle_period_ms),
            }),
        }
    }
}

/// One execution shape, kept for the repo benchmark until ROADMAP item 2(b) removes it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum ShardingChoice {
    /// The one partition every scenario runs on.
    #[default]
    Single,
}

/// Churn injected during a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ChurnSpec {
    /// No churn.
    None,
    /// The catastrophic-failure scenario of §3.6: `fraction` of the nodes
    /// crash simultaneously at `at_secs` seconds, survivors detect each crash
    /// after ~`detection_secs` seconds on average.
    Catastrophic {
        /// Fraction of nodes that crash (0.2 and 0.5 in the paper).
        fraction: f64,
        /// When the crash happens, in seconds from the start.
        at_secs: u64,
        /// Mean failure-detection delay, in seconds.
        detection_secs: u64,
    },
    /// Continuous churn: a Poisson join/leave arrival process over the
    /// streaming window ([`ChurnPlan::continuous`]). A fraction of the
    /// receivers starts on *standby* (offline), joins arrive at
    /// `joins_per_min` activating standby nodes, and leaves arrive at
    /// `leaves_per_min` crashing online nodes — the fig. 10 extension from
    /// one catastrophic event to ongoing membership turnover.
    ///
    /// [`ChurnPlan::continuous`]: heap_membership::churn::ChurnPlan::continuous
    Continuous {
        /// Fraction of receivers held back as the standby join pool.
        standby_fraction: f64,
        /// Poisson join arrivals per minute.
        joins_per_min: f64,
        /// Poisson leave (crash) arrivals per minute.
        leaves_per_min: f64,
        /// Mean failure-detection delay for leaves, in seconds.
        detection_secs: u64,
    },
    /// A flash crowd ([`ChurnPlan::flash_crowd`]): a fraction of the
    /// receivers starts on standby and stampedes into the stream in one
    /// burst — every standby node joins at a uniformly drawn instant within
    /// `spread_secs` seconds of the burst start. Nobody leaves.
    ///
    /// [`ChurnPlan::flash_crowd`]: heap_membership::churn::ChurnPlan::flash_crowd
    FlashCrowd {
        /// Fraction of receivers held back for the join burst.
        fraction: f64,
        /// When the burst starts, in seconds from the stream start.
        at_secs: u64,
        /// Width of the burst window, in seconds.
        spread_secs: u64,
    },
}

impl ChurnSpec {
    /// Returns `true` if the spec injects no churn.
    pub fn is_none(&self) -> bool {
        matches!(self, ChurnSpec::None)
    }
}

/// One network-partition window: the fault regions are mutually unreachable
/// from `start_secs` to `end_secs` (seconds from the stream start), then the
/// partition heals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PartitionWindow {
    /// Partition onset, in seconds from the stream start.
    pub start_secs: f64,
    /// Heal instant, in seconds from the stream start.
    pub end_secs: f64,
}

/// A correlated regional failure: every receiver of one fault region crashes
/// at the same instant (a rack/AZ outage, not independent churn).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RegionalCrash {
    /// Which fault region crashes.
    pub region: u32,
    /// When, in seconds from the stream start.
    pub at_secs: f64,
    /// Mean failure-detection delay for the survivors, in seconds.
    pub detection_secs: u64,
}

/// Diurnal bandwidth cycling: actual upload capacity is scaled by a repeating
/// factor pattern ([`FaultPlan::diurnal`](heap_simnet::FaultPlan::diurnal)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiurnalSpec {
    /// Length of one full cycle, in seconds.
    pub period_secs: f64,
    /// Capacity multipliers, one per equal slice of the period.
    pub factors: Vec<f64>,
}

/// Declarative fault injection layered on a scenario, compiled by the runner
/// into a seed-deterministic [`FaultPlan`](heap_simnet::FaultPlan).
///
/// Fault *regions* are derived by grouping the node population with
/// `region_policy`. The grouping is data: it decides which nodes a partition
/// window separates and which die together in a regional crash, and nothing
/// about how the simulator executes the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Number of fault regions the population is split into.
    pub regions: usize,
    /// How nodes map onto fault regions.
    pub region_policy: RegionPolicy,
    /// Partition/heal windows (all regions mutually isolated while open).
    pub partitions: Vec<PartitionWindow>,
    /// Correlated regional crashes.
    pub regional_crashes: Vec<RegionalCrash>,
    /// Optional diurnal bandwidth cycling (applies to every node).
    pub diurnal: Option<DiurnalSpec>,
}

impl FaultSpec {
    /// A fault spec with `regions` contiguous fault regions and no faults
    /// yet; chain the builder methods to add them. Set-up checks the spec
    /// ([`Scenario::validate`]), not the builders.
    pub fn regions(regions: usize) -> Self {
        FaultSpec {
            regions,
            region_policy: RegionPolicy::Contiguous,
            partitions: Vec::new(),
            regional_crashes: Vec::new(),
            diurnal: None,
        }
    }

    /// Sets the region-assignment policy.
    pub fn with_region_policy(mut self, policy: RegionPolicy) -> Self {
        self.region_policy = policy;
        self
    }

    /// Adds a partition window (seconds from the stream start).
    pub fn partition(mut self, start_secs: f64, end_secs: f64) -> Self {
        self.partitions.push(PartitionWindow {
            start_secs,
            end_secs,
        });
        self
    }

    /// Adds a correlated crash of one fault region.
    pub fn regional_crash(mut self, region: u32, at_secs: f64, detection_secs: u64) -> Self {
        self.regional_crashes.push(RegionalCrash {
            region,
            at_secs,
            detection_secs,
        });
        self
    }

    /// Sets diurnal bandwidth cycling.
    pub fn diurnal(mut self, period_secs: f64, factors: Vec<f64>) -> Self {
        self.diurnal = Some(DiurnalSpec {
            period_secs,
            factors,
        });
        self
    }

    /// Returns `true` if any fault needs the region assignment (partitions
    /// and regional crashes do; diurnal cycling applies globally).
    pub fn needs_regions(&self) -> bool {
        !self.partitions.is_empty() || !self.regional_crashes.is_empty()
    }

    /// The fault half of [`Scenario::validate`].
    fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        E::positive("fault.regions", self.regions as f64)?;
        for window in &self.partitions {
            let (start, end) = (window.start_secs, window.end_secs);
            E::instant("fault.partitions.start_secs", start)?;
            E::instant("fault.partitions.end_secs", end)?;
            let heals = SimDuration::from_secs_f64(end) > SimDuration::from_secs_f64(start);
            E::ensure(heals, E::EmptyWindow("fault.partitions", start, end))?;
        }
        for crash in &self.regional_crashes {
            let (region, regions) = (crash.region, self.regions);
            let out_of_range =
                E::RegionOutOfRange("fault.regional_crashes.region", region, regions);
            E::ensure((region as usize) < regions, out_of_range)?;
            E::instant("fault.regional_crashes.at_secs", crash.at_secs)?;
            let detection = crash.detection_secs as f64;
            E::instant("fault.regional_crashes.detection_secs", detection)?;
        }
        if let Some(diurnal) = &self.diurnal {
            let (field, period) = ("fault.diurnal.period_secs", diurnal.period_secs);
            E::instant(field, period)?;
            // The simulator's clock ticks in whole microseconds.
            let ticks = !SimDuration::from_secs_f64(period).is_zero();
            E::ensure(ticks, E::NotPositive(field, period))?;
            let factors = &diurnal.factors;
            E::ensure(!factors.is_empty(), E::EmptyList("fault.diurnal.factors"))?;
            for &factor in factors {
                E::positive("fault.diurnal.factors", factor)?;
            }
        }
        Ok(())
    }
}

/// A free-rider adversary population: a fraction of the receivers advertises
/// an inflated capability (attracting the fanout a strong node would get)
/// while actually uploading at `actual` and serving only `serve_fraction` of
/// each retransmission request ([`GossipNodeBuilder::serve_fraction`]).
///
/// [`GossipNodeBuilder::serve_fraction`]: heap_gossip::node::GossipNodeBuilder::serve_fraction
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FreeRiderSpec {
    /// Fraction of receivers that free-ride.
    pub fraction: f64,
    /// Capability the free-riders *claim* (drives peers' fanout towards
    /// them).
    pub advertised: Bandwidth,
    /// Upload capacity they actually dedicate.
    pub actual: Bandwidth,
    /// Fraction of each retransmission request they actually serve.
    pub serve_fraction: f64,
}

impl FreeRiderSpec {
    /// The default adversary: 20 % of receivers claim 1024 kbps, upload at
    /// 128 kbps, and serve 30 % of what they are asked for.
    pub fn default_adversary() -> Self {
        FreeRiderSpec {
            fraction: 0.2,
            advertised: Bandwidth::from_kbps(1024),
            actual: Bandwidth::from_kbps(128),
            serve_fraction: 0.3,
        }
    }
}

/// How much per-node detail the runner retains in the result.
///
/// The knob never changes what is *simulated* — only what survives
/// collection. Full detail keeps each node's arrival column, 4 bytes per
/// stream packet, from which every per-packet and per-window-source lag is
/// derived (`O(total_packets)`); compact detail collapses each node to
/// [`CompactNodeMetrics`](heap_streaming::CompactNodeMetrics)
/// (`O(n_windows)`) and folds the per-packet lag distribution into one
/// run-level [`BucketSeries`](heap_analytics::BucketSeries), which is what
/// makes 10⁵–10⁶-receiver campaigns fit in memory. Every figure query the
/// reproduction uses answers bit-identically in either mode (asserted in
/// tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum ResultDetail {
    /// Keep the full [`NodeStreamMetrics`](heap_streaming::NodeStreamMetrics)
    /// per node (the default).
    #[default]
    Full,
    /// Keep `O(n_windows)` aggregates per node plus one run-level packet-lag
    /// histogram.
    Compact,
}

impl ResultDetail {
    /// A short label for logs and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            ResultDetail::Full => "full",
            ResultDetail::Compact => "compact",
        }
    }
}

/// A complete, reproducible description of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Human-readable name (used in logs and result labels).
    pub name: String,
    /// Experiment size and seed.
    pub scale: Scale,
    /// Upload-capability distribution of the receivers.
    pub distribution: BandwidthDistribution,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Gossip parameters (period, retransmission, aggregation).
    pub gossip: GossipConfig,
    /// Link-latency model.
    pub latency: LatencyModel,
    /// Message-loss model.
    pub loss: LossModel,
    /// Churn injected during the run.
    pub churn: ChurnSpec,
    /// How nodes learn about their peers (default: full membership).
    pub membership: MembershipChoice,
    /// Upload capability of the stream source (the paper's source is a
    /// well-provisioned node; it is excluded from all per-class metrics).
    pub source_capability: Bandwidth,
    /// Fraction of receivers whose *actual* capacity is halved relative to
    /// their advertised capability, emulating the overloaded PlanetLab nodes
    /// the paper mentions (5–7 % of nodes under-contribute). Defaults to 6 %.
    pub straggler_fraction: f64,
    /// Maximum upload-queue backlog before a node starts dropping outgoing
    /// messages (the finite application/UDP send buffer of the paper's
    /// rate limiter). `None` = unbounded queue (ablation).
    pub upload_queue_limit: Option<SimDuration>,
    /// Always [`ShardingChoice::Single`]; ROADMAP item 2(b) removes it.
    pub sharding: ShardingChoice,
    /// When set, the runner samples every live receiver's health score at
    /// this interval and folds the samples into a bounded-memory
    /// [`BucketSeries`](heap_analytics::BucketSeries) on the result
    /// (`None`, the default, skips sampling entirely).
    pub health_series: Option<SimDuration>,
    /// Declarative fault injection (partitions, regional crashes, diurnal
    /// cycling); `None`, the default, injects nothing and draws no setup
    /// randomness.
    pub fault: Option<FaultSpec>,
    /// Free-rider adversary population; `None`, the default, makes every
    /// node honest and draws no setup randomness.
    pub free_riders: Option<FreeRiderSpec>,
    /// How much per-node detail the result retains (default: full). Compact
    /// detail is the memory knob for large-scale campaigns; it never changes
    /// what is simulated.
    pub detail: ResultDetail,
}

impl Scenario {
    /// A scenario with the paper's default parameters for the given
    /// distribution and protocol.
    pub fn new(
        name: impl Into<String>,
        scale: Scale,
        distribution: BandwidthDistribution,
        protocol: ProtocolChoice,
    ) -> Self {
        let gossip = GossipConfig::paper().with_fanout(protocol.fanout());
        Scenario {
            name: name.into(),
            scale,
            distribution,
            protocol,
            gossip,
            latency: LatencyModel::planetlab_like(),
            loss: LossModel::bernoulli(0.01),
            churn: ChurnSpec::None,
            membership: MembershipChoice::Full,
            source_capability: Bandwidth::from_mbps(5),
            straggler_fraction: 0.06,
            upload_queue_limit: Some(SimDuration::from_secs(4)),
            sharding: ShardingChoice::Single,
            health_series: None,
            fault: None,
            free_riders: None,
            detail: ResultDetail::default(),
        }
    }

    /// Sets the result-detail level.
    pub fn with_detail(mut self, detail: ResultDetail) -> Self {
        self.detail = detail;
        self
    }

    /// Sets the churn spec.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the membership mode.
    pub fn with_membership(mut self, membership: MembershipChoice) -> Self {
        self.membership = membership;
        self
    }

    /// Sets the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the gossip configuration.
    pub fn with_gossip(mut self, gossip: GossipConfig) -> Self {
        self.gossip = gossip;
        self
    }

    /// Sets the straggler fraction.
    pub fn with_stragglers(mut self, fraction: f64) -> Self {
        self.straggler_fraction = fraction;
        self
    }

    /// Sets (or removes) the upload-queue backlog limit.
    pub fn with_queue_limit(mut self, limit: Option<SimDuration>) -> Self {
        self.upload_queue_limit = limit;
        self
    }

    /// Enables periodic health-score sampling with the given bucket width.
    pub fn with_health_series(mut self, bucket: SimDuration) -> Self {
        self.health_series = Some(bucket);
        self
    }

    /// Sets the fault-injection spec.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the free-rider adversary spec.
    pub fn with_free_riders(mut self, free_riders: FreeRiderSpec) -> Self {
        self.free_riders = Some(free_riders);
        self
    }

    /// How long the simulation must run to let the stream finish and the
    /// tail of the dissemination settle: stream duration plus a drain margin.
    pub fn run_duration(&self) -> SimDuration {
        let stream = StreamConfig::paper(self.scale.n_windows).stream_duration();
        stream + SimDuration::from_secs(60)
    }

    /// Decides whether the scenario can run: the one check between a
    /// caller's input and the simulator, made first by
    /// [`ScenarioRun::setup`](crate::runner::ScenarioRun::setup).
    ///
    /// # Errors
    ///
    /// The first field at fault (`docs/ARCHITECTURE.md`, "Input boundary").
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        let n = self.scale.n_nodes;
        E::ensure(n >= 2, E::TooFewNodes("scale.n_nodes", n))?;
        let windows = self.scale.n_windows;
        E::ensure(windows >= 1, E::NoWindows("scale.n_windows"))?;
        let per_window = StreamConfig::paper(windows).window.total_packets() as u64;
        E::pair_space("scale", n, windows.saturating_mul(per_window))?;
        match &self.distribution {
            BandwidthDistribution::Unconstrained => {}
            BandwidthDistribution::Classes { classes, .. } => {
                E::ensure(!classes.is_empty(), E::EmptyList("distribution.classes"))?;
                for class in classes {
                    E::fraction("distribution.classes.fraction", class.fraction, false)?;
                    E::positive("distribution.classes.capability", bps(class.capability))?;
                }
            }
            BandwidthDistribution::Uniform { min, max, .. } => {
                E::positive("distribution.min", bps(*min))?;
                E::ensure(
                    min <= max,
                    E::EmptyWindow("distribution", bps(*min), bps(*max)),
                )?;
            }
        }
        E::positive("source_capability", bps(self.source_capability))?;
        self.validate_network()?;
        E::positive("protocol.fanout", self.protocol.fanout())?;
        self.gossip.validate()?;
        if let Some(partial) = self.membership.partial_config() {
            partial.validate()?;
        }
        E::fraction("straggler_fraction", self.straggler_fraction, false)?;
        if let Some(bucket) = self.health_series {
            E::positive("health_series", bucket.as_secs_f64())?;
        }
        if let Some(spec) = self.free_riders {
            E::fraction("free_riders.fraction", spec.fraction, false)?;
            E::fraction("free_riders.serve_fraction", spec.serve_fraction, false)?;
            E::positive("free_riders.advertised", bps(spec.advertised))?;
            E::positive("free_riders.actual", bps(spec.actual))?;
        }
        // The fractions, rates and instants the churn plan draws from.
        match self.churn {
            ChurnSpec::None => {}
            ChurnSpec::Catastrophic {
                fraction,
                at_secs,
                detection_secs,
            } => {
                E::fraction("churn.fraction", fraction, true)?;
                E::instant("churn.at_secs", at_secs as f64)?;
                E::instant("churn.detection_secs", detection_secs as f64)?;
            }
            ChurnSpec::Continuous {
                standby_fraction,
                joins_per_min,
                leaves_per_min,
                detection_secs,
            } => {
                E::fraction("churn.standby_fraction", standby_fraction, true)?;
                E::rate("churn.joins_per_min", joins_per_min)?;
                E::rate("churn.leaves_per_min", leaves_per_min)?;
                E::instant("churn.detection_secs", detection_secs as f64)?;
            }
            ChurnSpec::FlashCrowd {
                fraction,
                at_secs,
                spread_secs,
            } => {
                E::fraction("churn.fraction", fraction, true)?;
                E::instant("churn.at_secs", at_secs as f64)?;
                E::instant("churn.spread_secs", spread_secs as f64)?;
            }
        }
        self.fault.as_ref().map_or(Ok(()), FaultSpec::validate)
    }

    /// The latency and loss checks of [`Scenario::validate`]: the variants are
    /// `pub`, so their constructors' checks can be skipped.
    fn validate_network(&self) -> Result<(), ConfigError> {
        use ConfigError as E;
        let secs = SimDuration::as_secs_f64;
        match self.latency {
            LatencyModel::Constant { delay } => E::instant("latency.delay", secs(delay))?,
            LatencyModel::Uniform { min, max } => {
                E::instant("latency.max", secs(max))?;
                let ordered = min <= max;
                E::ensure(ordered, E::EmptyWindow("latency", secs(min), secs(max)))?;
            }
            // The jitter draw scales the mean by up to ~36, so both stay far
            // inside the clock.
            LatencyModel::BaseplusExp { base, mean_jitter } => {
                E::instant("latency.base", secs(base))?;
                E::instant("latency.mean_jitter", secs(mean_jitter))?;
            }
        }
        match self.loss {
            LossModel::None => {}
            LossModel::Bernoulli { p } => E::fraction("loss.p", p, false)?,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                p_good,
                p_bad,
            } => {
                E::fraction("loss.p_good_to_bad", p_good_to_bad, false)?;
                E::fraction("loss.p_bad_to_good", p_bad_to_good, false)?;
                E::fraction("loss.p_good", p_good, false)?;
                E::fraction("loss.p_bad", p_bad, false)?;
            }
        }
        Ok(())
    }
}

/// A bandwidth in bits per second, as a checked value.
fn bps(bandwidth: Bandwidth) -> f64 {
    bandwidth.as_bps() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_labels_and_policies() {
        let s = ProtocolChoice::Standard { fanout: 7.0 };
        assert_eq!(s.label(), "standard f=7");
        assert_eq!(s.fanout(), 7.0);
        assert!(!s.policy(None).is_adaptive());

        let h = ProtocolChoice::Heap { fanout: 7.0 };
        assert_eq!(h.label(), "HEAP f=7");
        assert!(h.policy(None).is_adaptive());

        let o = ProtocolChoice::HeapOracle { fanout: 7.0 };
        assert!(o.label().contains("oracle"));
        assert!(o.policy(Some(Bandwidth::from_kbps(691))).is_adaptive());
        assert!(o.policy(None).is_adaptive());
    }

    #[test]
    fn membership_choice_resolves_to_partial_config() {
        assert_eq!(MembershipChoice::Full.partial_config(), None);
        assert_eq!(MembershipChoice::Full.label(), "full membership");
        let cyclon = MembershipChoice::cyclon();
        assert_eq!(cyclon.label(), "cyclon");
        let config = cyclon.partial_config().expect("cyclon has a config");
        assert_eq!(
            config,
            heap_gossip::PartialMembershipConfig::cyclon(),
            "round-trips through the scenario representation"
        );
        assert!(config.validate().is_ok());
    }

    #[test]
    fn churn_spec_flags() {
        assert!(ChurnSpec::None.is_none());
        assert!(!ChurnSpec::Catastrophic {
            fraction: 0.2,
            at_secs: 60,
            detection_secs: 10
        }
        .is_none());
    }

    #[test]
    fn fault_spec_builders_accumulate() {
        let spec = FaultSpec::regions(3)
            .with_region_policy(RegionPolicy::RoundRobin)
            .partition(30.0, 60.0)
            .partition(90.0, 95.0)
            .regional_crash(2, 120.0, 10)
            .diurnal(40.0, vec![1.0, 0.5]);
        assert_eq!(spec.regions, 3);
        assert_eq!(spec.partitions.len(), 2);
        assert_eq!(spec.regional_crashes.len(), 1);
        assert!(spec.needs_regions());
        assert_eq!(spec.diurnal.as_ref().unwrap().factors.len(), 2);
        // Diurnal-only specs don't need the region assignment.
        assert!(!FaultSpec::regions(1)
            .diurnal(10.0, vec![0.5])
            .needs_regions());
    }

    #[test]
    fn scenario_carries_fault_and_free_rider_specs() {
        let sc = Scenario::new(
            "adv",
            Scale::test(),
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 7.0 },
        );
        assert!(sc.fault.is_none());
        assert!(sc.free_riders.is_none());
        let sc = sc
            .with_fault(FaultSpec::regions(2).partition(30.0, 60.0))
            .with_free_riders(FreeRiderSpec::default_adversary());
        assert_eq!(sc.fault.as_ref().unwrap().regions, 2);
        let riders = sc.free_riders.unwrap();
        assert!(riders.advertised > riders.actual);
        assert!(riders.serve_fraction < 1.0);
    }

    #[test]
    fn scenario_defaults_follow_the_paper() {
        let sc = Scenario::new(
            "test",
            Scale::test(),
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 7.0 },
        );
        assert_eq!(sc.gossip.fanout, 7.0);
        assert!(sc.churn.is_none());
        assert_eq!(sc.straggler_fraction, 0.06);
        assert!(sc.run_duration() > SimDuration::from_secs(60));
        // Builders.
        let sc = sc
            .with_churn(ChurnSpec::Catastrophic {
                fraction: 0.5,
                at_secs: 60,
                detection_secs: 10,
            })
            .with_loss(LossModel::none())
            .with_latency(LatencyModel::constant(SimDuration::from_millis(10)))
            .with_stragglers(0.06)
            .with_gossip(GossipConfig::paper().with_fanout(15.0));
        assert!(!sc.churn.is_none());
        assert_eq!(sc.gossip.fanout, 15.0);
        assert_eq!(sc.straggler_fraction, 0.06);
        assert_eq!(sc.upload_queue_limit, Some(SimDuration::from_secs(4)));
        let sc = sc.with_queue_limit(None);
        assert_eq!(sc.upload_queue_limit, None);
    }
}
