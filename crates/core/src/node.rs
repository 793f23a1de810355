//! [`GossipNode`]: the protocol actor binding the dissemination engine, the
//! fanout policy, the aggregation protocol and the retransmission tracker to
//! the simulator's [`Protocol`] trait.
//!
//! [`Context`] commands take effect eagerly, while the callback runs.
//! `GossipNode` would be indifferent to deferring them: every callback reads
//! only its own state plus the callback's arguments, draws randomness
//! exclusively from [`Context::rng`]'s per-node stream, and never depends on
//! *when* its issued sends are charged to the network. The differential
//! tests in `heap-simnet` pin the engine to its binary-heap reference core
//! bit for bit.

use crate::aggregation::CapabilityAggregator;
use crate::config::{
    ConfigError, GossipConfig, PartialMembershipConfig, AGGREGATION_FANOUT, AGGREGATION_FRESHEST,
    AGGREGATION_PERIOD, GOSSIP_PERIOD,
};
use crate::engine::DisseminationEngine;
use crate::fanout::FanoutPolicy;
use crate::message::{serve_message_bytes, GossipMessage};
use crate::packet_ids::PacketIds;
use crate::retransmit::{PendingRequest, RetransmitTracker, RETRANSMIT_TAG_BASE};
use crate::serve_dedup::ServeDedup;
use heap_membership::partial::PartialView;
use heap_membership::sampler::{Targets, UniformSampler};
use heap_membership::view::MembershipView;
use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::node::NodeId;
use heap_simnet::sim::{Context, Protocol, TimerId};
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::packet::PacketId;
use heap_streaming::receiver::ReceiverLog;
use heap_streaming::source::StreamSchedule;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Timer tag of the periodic gossip (propose) round.
pub const TAG_GOSSIP: u64 = 0;
/// Timer tag of the periodic aggregation round.
pub const TAG_AGGREGATION: u64 = 1;
/// Timer tag of the source's next packet publication.
pub const TAG_SOURCE: u64 = 2;
/// Timer tag of the periodic Cyclon shuffle (partial membership mode).
pub const TAG_SHUFFLE: u64 = 3;
/// Timer tag of a standby node's deferred join (continuous-churn workloads):
/// fired once at the node's scheduled join instant, after which the node
/// arms its regular periodic timers and starts participating.
pub const TAG_JOIN: u64 = 4;

/// Whether a node produces the stream or only relays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The single stream source: publishes packets according to the schedule
    /// and gossips their ids immediately.
    Source,
    /// A regular participant: receives, relays and plays the stream.
    Receiver,
}

/// Message counters of one node, used by the evaluation to measure each
/// node's contribution (Fig. 4 reports upload usage per capability class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolStats {
    /// [Propose] messages sent.
    ///
    /// [Propose]: GossipMessage::Propose
    pub proposals_sent: u64,
    /// [Propose] messages received.
    ///
    /// [Propose]: GossipMessage::Propose
    pub proposals_received: u64,
    /// [Request] messages sent (first requests).
    ///
    /// [Request]: GossipMessage::Request
    pub requests_sent: u64,
    /// [Request] messages received.
    ///
    /// [Request]: GossipMessage::Request
    pub requests_received: u64,
    /// [Serve] messages sent.
    ///
    /// [Serve]: GossipMessage::Serve
    pub serves_sent: u64,
    /// Stream packets contained in the [Serve] messages sent.
    ///
    /// [Serve]: GossipMessage::Serve
    pub packets_served: u64,
    /// [Serve] messages received.
    ///
    /// [Serve]: GossipMessage::Serve
    pub serves_received: u64,
    /// Re-issued [Request] messages (retransmissions).
    ///
    /// [Request]: GossipMessage::Request
    pub retransmit_requests: u64,
    /// [Aggregation] messages sent.
    ///
    /// [Aggregation]: GossipMessage::Aggregation
    pub aggregation_sent: u64,
    /// [Aggregation] messages received.
    ///
    /// [Aggregation]: GossipMessage::Aggregation
    pub aggregation_received: u64,
    /// Sum of the fanouts drawn at each gossip emission (divide by
    /// `gossip_emissions` for the achieved average fanout).
    pub fanout_sum: u64,
    /// Number of gossip emissions (rounds in which the node had ids to
    /// propose, plus immediate source publications).
    pub gossip_emissions: u64,
    /// [Shuffle] messages sent (partial membership mode only).
    ///
    /// [Shuffle]: GossipMessage::Shuffle
    pub shuffles_sent: u64,
    /// [Shuffle] messages received.
    ///
    /// [Shuffle]: GossipMessage::Shuffle
    pub shuffles_received: u64,
}

impl ProtocolStats {
    /// The average fanout actually used by this node.
    pub fn average_fanout(&self) -> f64 {
        if self.gossip_emissions == 0 {
            0.0
        } else {
            self.fanout_sum as f64 / self.gossip_emissions as f64
        }
    }
}

/// Builder for [`GossipNode`] (see [`GossipNode::builder`]).
#[derive(Debug, Clone)]
pub struct GossipNodeBuilder {
    id: NodeId,
    n: usize,
    schedule: StreamSchedule,
    config: GossipConfig,
    policy: FanoutPolicy,
    capability: Bandwidth,
    role: Role,
    partial: Option<PartialMembershipConfig>,
    join_at: Option<SimTime>,
    serve_fraction: f64,
}

impl GossipNodeBuilder {
    /// Sets the protocol configuration (default: [`GossipConfig::paper`]).
    pub fn config(mut self, config: GossipConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the fanout policy (default: fixed at the config's fanout, i.e.
    /// standard gossip).
    pub fn fanout(mut self, policy: FanoutPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the node's advertised upload capability (default: 100 Mbps,
    /// effectively unconstrained).
    pub fn capability(mut self, capability: Bandwidth) -> Self {
        self.capability = capability;
        self
    }

    /// Sets the node's role (default: [`Role::Receiver`]).
    pub fn role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }

    /// Makes the node a *free-rider*: it answers only the given fraction of
    /// the packet ids requested from it, silently ignoring the rest — while
    /// still advertising whatever [`capability`](Self::capability) says. The
    /// combination of an inflated advertised capability and a small serve
    /// fraction is the adversary HEAP's capability-proportional fanout is
    /// most exposed to: honest nodes route extra first-hand proposals to a
    /// peer that then under-serves the follow-up requests. The default of
    /// `1.0` serves everything and changes no behaviour; [`build`](Self::build)
    /// panics outside `[0, 1]`.
    pub fn serve_fraction(mut self, fraction: f64) -> Self {
        self.serve_fraction = fraction;
        self
    }

    /// Defers the node's participation until `at`: a *standby joiner* of the
    /// continuous-churn workloads. Until its join instant the node arms no
    /// periodic timers and ignores incoming traffic (a host that has not
    /// started yet); at `at` it runs its regular start-up sequence —
    /// randomised timer phases, aggregation seeding — and participates
    /// normally from then on.
    pub fn join_at(mut self, at: SimTime) -> Self {
        self.join_at = Some(at);
        self
    }

    /// Replaces full membership knowledge with a Cyclon-style partial view:
    /// gossip and aggregation targets are drawn from a bounded view that is
    /// refreshed by periodic shuffles instead of from the full node list.
    /// The view is bootstrapped with the node's `view_size` ring successors.
    pub fn partial_membership(mut self, config: PartialMembershipConfig) -> Self {
        self.partial = Some(config);
        self
    }

    /// Builds the node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GossipConfig::validate`], the
    /// serve fraction is not within `[0, 1]` or the run has more than 2³²
    /// `(requester, packet)` pairs ([`ConfigError::pair_space`]).
    pub fn build(self) -> GossipNode {
        // Preconditions for direct callers; scenarios are validated before set-up.
        if let Err(e) = self.config.validate() {
            panic!("invalid gossip configuration: {e}");
        }
        let packets = self.schedule.total_packets();
        if let Err(e) = ConfigError::pair_space("n", self.n, packets) {
            panic!("invalid run: {e}");
        }
        assert!(
            (0.0..=1.0).contains(&self.serve_fraction),
            "serve fraction must be in [0,1], got {}",
            self.serve_fraction
        );
        let partial = self.partial.map(|config| {
            if let Err(e) = config.validate() {
                panic!("invalid partial membership configuration: {e}");
            }
            // Bootstrap with the ring successors, a deterministic connected
            // overlay the shuffles then randomise.
            let mut view = PartialView::new(self.id, config.view_size);
            let seeds: Vec<NodeId> = (1..=config.view_size as u32)
                .map(|d| NodeId::new((self.id.as_u32() + d) % self.n as u32))
                .collect();
            view.seed(&seeds);
            Box::new(PartialState { view, config })
        });
        GossipNode {
            id: self.id,
            role: self.role,
            policy: self.policy,
            capability: self.capability,
            view: MembershipView::full(self.n, self.id),
            partial,
            engine: DisseminationEngine::new(self.schedule),
            aggregator: CapabilityAggregator::new(self.id, self.capability),
            retransmit: RetransmitTracker::new(),
            stats: ProtocolStats::default(),
            served: ServeDedup::new(packets),
            config: self.config,
            next_source_seq: 0,
            serve_fraction: self.serve_fraction,
            join_at: self.join_at,
            joined: self.join_at.is_none(),
            gossip_idle_at: None,
        }
    }
}

/// The Cyclon-style partial view and its parameters (partial membership
/// mode).
#[derive(Debug, Clone)]
struct PartialState {
    view: PartialView,
    config: PartialMembershipConfig,
}

/// A node running the three-phase gossip protocol — standard gossip or HEAP
/// depending on its [`FanoutPolicy`].
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct GossipNode {
    id: NodeId,
    role: Role,
    config: GossipConfig,
    policy: FanoutPolicy,
    capability: Bandwidth,
    view: MembershipView,
    /// Boxed: most runs have full membership, and every node pays for the
    /// inline size.
    partial: Option<Box<PartialState>>,
    engine: DisseminationEngine,
    aggregator: CapabilityAggregator,
    retransmit: RetransmitTracker,
    stats: ProtocolStats,
    next_source_seq: u64,
    /// Fraction of requested packet ids the node actually serves (1.0 =
    /// honest; below = free-rider, see [`GossipNodeBuilder::serve_fraction`]).
    serve_fraction: f64,
    /// The deferred join instant of a standby node (`None` = present from
    /// the start).
    join_at: Option<SimTime>,
    /// Whether the node participates yet (always `true` without `join_at`).
    joined: bool,
    /// Serve-side duplicate suppression over `SERVE_DEDUP_WINDOW`.
    served: ServeDedup,
    /// The instant of the gossip tick that found nothing to propose and so
    /// left the gossip timer unarmed; `None` while the timer is armed (or
    /// before the node participates).
    gossip_idle_at: Option<SimTime>,
}

// Nodes sit side by side in the simulator's node table, and a delivery
// touches one of them: keep the struct at its measured 840 B, so that bytes
// moved out of it (such as the protocol constants) cannot quietly return.
const _: () = assert!(std::mem::size_of::<GossipNode>() <= 840);

impl GossipNode {
    /// Starts building a node with identifier `id` in a system of `n` nodes
    /// following the given stream schedule.
    pub fn builder(id: NodeId, n: usize, schedule: StreamSchedule) -> GossipNodeBuilder {
        GossipNodeBuilder {
            id,
            n,
            schedule,
            config: GossipConfig::paper(),
            policy: FanoutPolicy::fixed(GossipConfig::paper().fanout),
            join_at: None,
            capability: Bandwidth::from_mbps(100),
            role: Role::Receiver,
            partial: None,
            serve_fraction: 1.0,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// `true` if this node is the stream source.
    pub fn is_source(&self) -> bool {
        self.role == Role::Source
    }

    /// The deferred join instant, if this node is a standby joiner.
    pub fn join_at(&self) -> Option<SimTime> {
        self.join_at
    }

    /// The node's advertised upload capability.
    pub fn capability(&self) -> Bandwidth {
        self.capability
    }

    /// The fanout policy in use.
    pub fn fanout_policy(&self) -> FanoutPolicy {
        self.policy
    }

    /// The receive log (arrival time of every delivered stream packet).
    pub fn receiver_log(&self) -> &ReceiverLog {
        self.engine.receiver_log()
    }

    /// Moves the receive log out once the run is over; see
    /// [`DisseminationEngine::take_receiver_log`].
    pub fn take_receiver_log(&mut self) -> ReceiverLog {
        self.engine.take_receiver_log()
    }

    /// The dissemination engine (exposes `eRequested`/`eDelivered` state).
    pub fn engine(&self) -> &DisseminationEngine {
        &self.engine
    }

    /// The live stream-health tracker (drift slope, cadence variance, freeze
    /// detection, 0–100 score), fed on every first packet delivery.
    pub fn health(&self) -> &heap_streaming::health::ReceiverHealth {
        self.engine.health()
    }

    /// The capability aggregator (exposes the average-capability estimate).
    pub fn aggregator(&self) -> &CapabilityAggregator {
        &self.aggregator
    }

    /// The node's membership view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// The node's Cyclon partial view, if it runs in partial membership mode.
    pub fn partial_view(&self) -> Option<&PartialView> {
        self.partial.as_ref().map(|p| &p.view)
    }

    /// Message counters.
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    /// The fanout the node is currently targeting (before stochastic
    /// rounding), i.e. `f · b_p / b̄` for HEAP and `f` for standard gossip.
    pub fn current_target_fanout(&self) -> f64 {
        self.policy
            .target_fanout(self.capability, self.aggregator.estimated_average())
    }

    /// Informs the node that `peer` has failed (the simulated failure
    /// detector of §3.6: surviving nodes learn about a crash ~10 s after it
    /// happens). The peer is removed from the membership view, its capability
    /// sample is dropped and pending retransmissions towards it are cancelled.
    pub fn notify_failure(&mut self, peer: NodeId, noticed_at: SimTime) {
        self.view.mark_dead_at(peer, noticed_at);
        self.aggregator.forget(peer);
        self.retransmit.forget_proposer(peer);
        if let Some(partial) = self.partial.as_mut() {
            partial.view.remove(peer);
        }
    }

    /// Advertises a new upload capability (feeds the aggregation protocol).
    pub fn set_capability(&mut self, capability: Bandwidth, now: SimTime) {
        self.capability = capability;
        self.aggregator.set_own_capability(capability, now);
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Draws up to `fanout` gossip targets: uniformly from the full view, or
    /// from the Cyclon partial view in partial membership mode. The full
    /// view's draw stays on the stack.
    fn select_targets(&self, fanout: usize, rng: &mut rand::rngs::SmallRng) -> Targets {
        match &self.partial {
            Some(partial) => {
                UniformSampler::select_from(&partial.view.peers(), self.id, fanout, rng).into()
            }
            None => {
                let mut targets = Targets::new();
                UniformSampler::select_into(&self.view, fanout, rng, &mut targets);
                targets
            }
        }
    }

    /// Sends a [Propose] for `ids` to a freshly drawn set of gossip targets.
    ///
    /// [Propose]: GossipMessage::Propose
    fn gossip_ids(&mut self, ctx: &mut Context<'_, GossipMessage>, ids: PacketIds) {
        if ids.is_empty() {
            return;
        }
        let fanout = self.policy.sample_fanout(
            self.capability,
            self.aggregator.estimated_average(),
            ctx.rng(),
        );
        self.stats.fanout_sum += fanout as u64;
        self.stats.gossip_emissions += 1;
        if fanout == 0 {
            return;
        }
        let targets = self.select_targets(fanout, ctx.rng());
        self.stats.proposals_sent += targets.len() as u64;
        send_to_each(ctx, &targets, GossipMessage::propose(ids, &self.config));
    }

    fn arm_gossip_timer(&self, ctx: &mut Context<'_, GossipMessage>, delay: SimDuration) {
        ctx.set_timer(delay, TAG_GOSSIP);
    }

    fn arm_aggregation_timer(&self, ctx: &mut Context<'_, GossipMessage>, delay: SimDuration) {
        ctx.set_timer(delay, TAG_AGGREGATION);
    }

    fn arm_source_timer(&self, ctx: &mut Context<'_, GossipMessage>, at: SimTime) {
        let delay = at.saturating_since(ctx.now());
        ctx.set_timer(delay, TAG_SOURCE);
    }

    /// One gossip round. A round with nothing to propose leaves the timer
    /// unarmed until a fresh packet arrives (see `wake_gossip_timer`); it
    /// draws no randomness either way.
    fn on_gossip_round(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let ids = self.engine.take_proposals();
        if ids.is_empty() {
            self.gossip_idle_at = Some(ctx.now());
            return;
        }
        self.gossip_ids(ctx, ids);
        self.arm_gossip_timer(ctx, GOSSIP_PERIOD);
    }

    /// Re-arms an idle gossip timer for the next instant of its grid, the
    /// idle tick plus a whole number of periods, so the node's phase and
    /// period are those of a timer that never stopped.
    fn wake_gossip_timer(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let Some(idle_at) = self.gossip_idle_at.take() else {
            return;
        };
        let period = GOSSIP_PERIOD.as_micros();
        let since = ctx.now().saturating_since(idle_at).as_micros();
        // The tick at `idle_at` itself has run: an arrival at that instant
        // waits a full period, as it would behind a re-armed timer.
        let next = since.div_ceil(period).max(1) * period;
        self.arm_gossip_timer(ctx, SimDuration::from_micros(next - since));
    }

    fn arm_retransmit_timer(&self, ctx: &mut Context<'_, GossipMessage>, due: SimTime) {
        ctx.set_timer(due.saturating_since(ctx.now()), RETRANSMIT_TAG_BASE);
    }

    /// One aggregation round; the timer is armed on adaptive nodes only (see
    /// `start_participation`).
    fn on_aggregation_round(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let samples = self
            .aggregator
            .freshest_samples(AGGREGATION_FRESHEST, ctx.now());
        let targets = self.select_targets(AGGREGATION_FANOUT, ctx.rng());
        self.stats.aggregation_sent += targets.len() as u64;
        send_to_each(
            ctx,
            &targets,
            GossipMessage::aggregation(samples, &self.config),
        );
        self.arm_aggregation_timer(ctx, AGGREGATION_PERIOD);
    }

    /// One Cyclon round: evict the oldest peer from the view, age the rest,
    /// send it a sample (plus a fresh self-descriptor) and re-arm the
    /// shuffle timer.
    ///
    /// Evicting the partner up front is what Cyclon does and is what makes
    /// the view self-healing: a live partner re-enters later through the
    /// age-0 self-descriptors its own shuffle initiations circulate, while
    /// a crashed one is gone for good instead of being re-selected as
    /// "oldest" round after round until the failure detector notices it.
    fn on_shuffle_round(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let Some(partial) = self.partial.as_mut() else {
            return;
        };
        let period = partial.config.shuffle_period;
        let shuffle_size = partial.config.shuffle_size;
        if let Some(partner) = partial.view.oldest_peer() {
            partial.view.remove(partner);
            let entries = partial.view.start_shuffle(shuffle_size, ctx.rng());
            ctx.send(
                partner,
                GossipMessage::shuffle(entries, false, &self.config),
            );
            self.stats.shuffles_sent += 1;
        }
        ctx.set_timer(period, TAG_SHUFFLE);
    }

    fn on_source_tick(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let schedule = *self.engine.schedule();
        let id = PacketId::new(self.next_source_seq);
        if let Some(packet) = schedule.packet(id) {
            let published = self.engine.publish(&packet, ctx.now());
            // Algorithm 1 line 5: fresh ids are gossiped immediately.
            self.gossip_ids(ctx, PacketIds::from(&[published][..]));
            self.next_source_seq += 1;
            if let Some(next_time) = schedule.publish_time(PacketId::new(self.next_source_seq)) {
                self.arm_source_timer(ctx, next_time);
            }
        }
    }

    /// Re-examines every request due by now, then re-arms the timer at the
    /// deadline of the oldest request still unanswered.
    fn on_retransmit_timer(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        let now = ctx.now();
        while let Some(pending) = self.retransmit.pop_due(now) {
            let missing = self.engine.still_missing(&pending.ids);
            if missing.is_empty() {
                continue;
            }
            // Give up on this proposer — because it failed or because every
            // retransmission towards it was exhausted — and clear eRequested
            // so a later proposal from another peer can pull the packets
            // instead.
            if pending.retries_left == 0 || !self.view.is_live(pending.proposer) {
                self.engine.unrequest(&missing);
                continue;
            }
            ctx.send(
                pending.proposer,
                GossipMessage::request(missing.clone(), &self.config),
            );
            self.stats.retransmit_requests += 1;
            // Always re-queue: the follow-up deadline either retries again
            // or, once retries are exhausted, releases the ids via
            // `unrequest`. The firing timer covers it; `rearm` re-arms.
            let _ = self.retransmit.push(
                pending.proposer,
                missing,
                pending.retries_left - 1,
                now + self.config.retransmit_period,
                |p| answered(&self.engine, p),
            );
        }
        if let Some(due) = self.retransmit.rearm(|p| answered(&self.engine, p)) {
            self.arm_retransmit_timer(ctx, due);
        }
    }
}

/// Whether every id of `request` has been delivered. A delivered packet
/// stays delivered, so an answered request would only ever be discarded when
/// it falls due; the tracker discards it earlier instead. Every queued id
/// lies in the stream (`handle_propose` drops the rest), so "answered" is
/// "every id delivered".
fn answered(engine: &DisseminationEngine, request: &PendingRequest) -> bool {
    request.ids.iter().all(|id| engine.is_delivered(id))
}

/// Sends `msg` to every target: a clone to all but the last, which takes the
/// original. A clone of an id list copies it or bumps its reference count;
/// the vector of an aggregation round, which has one target, is never
/// copied.
fn send_to_each(ctx: &mut Context<'_, GossipMessage>, targets: &[NodeId], msg: GossipMessage) {
    let Some((&last, rest)) = targets.split_last() else {
        return;
    };
    for &target in rest {
        ctx.send(target, msg.clone());
    }
    ctx.send(last, msg);
}

impl Protocol for GossipNode {
    type Message = GossipMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        if let Some(at) = self.join_at {
            if !self.joined {
                // Standby joiner: sleep until the scheduled join instant; no
                // periodic timers, no participation until then.
                ctx.set_timer(at.saturating_since(ctx.now()), TAG_JOIN);
                return;
            }
        }
        self.start_participation(ctx, false);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, GossipMessage>,
        from: NodeId,
        msg: GossipMessage,
    ) {
        if !self.joined {
            // A standby joiner is indistinguishable from a host that has not
            // started: traffic addressed to it goes unanswered.
            return;
        }
        self.handle_message(ctx, from, msg);
    }

    /// Hints the first id's `eRequested` word and receive-log slot for the
    /// three dissemination phases.
    #[inline]
    fn prefetch(&self, msg: &GossipMessage) {
        if let GossipMessage::Propose { ids, .. }
        | GossipMessage::Request { ids, .. }
        | GossipMessage::Serve { ids, .. } = msg
        {
            if let Some(first) = ids.iter().next() {
                self.engine.prefetch(first.seq());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMessage>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_JOIN => {
                self.joined = true;
                self.start_participation(ctx, true);
            }
            TAG_GOSSIP => self.on_gossip_round(ctx),
            TAG_AGGREGATION => self.on_aggregation_round(ctx),
            TAG_SOURCE => self.on_source_tick(ctx),
            TAG_SHUFFLE => self.on_shuffle_round(ctx),
            RETRANSMIT_TAG_BASE => self.on_retransmit_timer(ctx),
            other => debug_assert!(false, "unknown timer tag {other}"),
        }
    }

    /// The dissemination engine (receive log, `eRequested`, proposal
    /// queue), the serve-dedup tables, the retransmission queue, the
    /// aggregator, the membership view and the partial view.
    fn heap_bytes(&self) -> usize {
        let partial = self.partial.as_ref().map_or(0, |partial| {
            std::mem::size_of::<PartialState>() + partial.view.heap_bytes()
        });
        self.engine.heap_bytes()
            + self.served.heap_bytes()
            + self.retransmit.heap_bytes()
            + self.aggregator.heap_bytes()
            + self.view.heap_bytes()
            + partial
    }
}

impl GossipNode {
    /// Whether a received Serve is one this node could have built: ids of
    /// its stream, each of its schedule's packet size. The message carries
    /// no descriptors, so the receiver rebuilds them from its own schedule,
    /// which every node of a run shares.
    fn serve_fits_schedule(&self, ids: &PacketIds, wire_bytes: u32) -> bool {
        let schedule = self.engine.schedule();
        let payload = ids.len() * schedule.config().window.packet_bytes;
        ids.iter().all(|id| id.seq() < schedule.total_packets())
            && wire_bytes == serve_message_bytes(payload)
    }

    /// The regular start-up sequence: randomised periodic-timer phases and,
    /// for the source, the first publication tick. Runs from `on_start` for
    /// ordinary nodes (`mid_run == false`) and from the `TAG_JOIN` timer for
    /// standby joiners (`mid_run == true` — even a joiner scheduled at time
    /// zero fires inside a regular timer callback).
    fn start_participation(&mut self, ctx: &mut Context<'_, GossipMessage>, mid_run: bool) {
        // De-synchronise the periodic timers across nodes with a random phase,
        // as real deployments (and PlanetLab nodes started at different
        // instants) naturally are. A *mid-run* joiner floors its phases to
        // one calendar bucket (the RNG draws themselves are unchanged). The
        // engine needs no such floor; it stays because it is part of the
        // pinned continuous-churn and flash-crowd fingerprints, and dropping
        // it means deliberately re-pinning them.
        let min_phase = if mid_run {
            SimDuration::from_micros(heap_simnet::event::BUCKET_WIDTH_MICROS)
        } else {
            SimDuration::ZERO
        };
        let gossip_phase =
            SimDuration::from_micros(ctx.rng().gen_range(0..=GOSSIP_PERIOD.as_micros()))
                .max(min_phase);
        self.arm_gossip_timer(ctx, gossip_phase);
        let agg_phase =
            SimDuration::from_micros(ctx.rng().gen_range(0..=AGGREGATION_PERIOD.as_micros()))
                .max(min_phase);
        // Standard gossip never gossips capabilities, so it arms no
        // aggregation timer; the phase is drawn regardless so every node's
        // RNG stream is the same under either policy.
        if self.policy.is_adaptive() {
            self.arm_aggregation_timer(ctx, agg_phase);
        }
        if let Some(partial) = &self.partial {
            let shuffle_phase = SimDuration::from_micros(
                ctx.rng()
                    .gen_range(0..=partial.config.shuffle_period.as_micros()),
            )
            .max(min_phase);
            ctx.set_timer(shuffle_phase, TAG_SHUFFLE);
        }
        if self.is_source() {
            let start = self.engine.schedule().start();
            self.arm_source_timer(ctx, start);
        }
    }

    fn handle_message(
        &mut self,
        ctx: &mut Context<'_, GossipMessage>,
        from: NodeId,
        msg: GossipMessage,
    ) {
        match msg {
            GossipMessage::Propose { ids, .. } => {
                self.stats.proposals_received += 1;
                let wanted = self.engine.handle_propose(&ids);
                if !wanted.is_empty() {
                    ctx.send(from, GossipMessage::request(wanted.clone(), &self.config));
                    self.stats.requests_sent += 1;
                    if self.config.max_retransmits > 0 {
                        let due = ctx.now() + self.config.retransmit_period;
                        let retries = self.config.max_retransmits;
                        if let Some(due) = self
                            .retransmit
                            .push(from, wanted, retries, due, |p| answered(&self.engine, p))
                        {
                            self.arm_retransmit_timer(ctx, due);
                        }
                    }
                }
            }
            GossipMessage::Request { ids, .. } => {
                self.stats.requests_received += 1;
                // Drop ids we already served to this requester very recently: a
                // re-request whose answer is still queued must not double the
                // payload traffic (see `serve_dedup::SERVE_DEDUP_WINDOW`).
                let now = ctx.now();
                let mut fresh_ids: PacketIds = ids
                    .iter()
                    .filter(|&id| !self.served.recently_served(from, id, now))
                    .collect();
                // A free-rider quietly drops part of the request before it
                // reaches the engine, so its serve counters reflect what it
                // actually shipped (see `GossipNodeBuilder::serve_fraction`).
                if self.serve_fraction < 1.0 {
                    let keep = (fresh_ids.len() as f64 * self.serve_fraction).floor() as usize;
                    fresh_ids = fresh_ids.iter().take(keep).collect();
                }
                let served = self.engine.handle_request(&fresh_ids);
                if !served.is_empty() {
                    for id in &served {
                        self.served.mark_served(from, id);
                    }
                    self.stats.serves_sent += 1;
                    self.stats.packets_served += served.len() as u64;
                    let packet_bytes = self.engine.schedule().config().window.packet_bytes;
                    ctx.send(
                        from,
                        GossipMessage::serve_ids(served, packet_bytes, &self.config),
                    );
                }
            }
            GossipMessage::Serve { ids, wire_bytes } => {
                self.stats.serves_received += 1;
                debug_assert!(
                    self.serve_fits_schedule(&ids, wire_bytes),
                    "a Serve of {ids:?} ({wire_bytes} B) from a node with another stream schedule"
                );
                if self.engine.handle_serve(&ids, ctx.now()) > 0 {
                    self.wake_gossip_timer(ctx);
                }
            }
            GossipMessage::Aggregation { samples, .. } => {
                self.stats.aggregation_received += 1;
                self.aggregator.merge(&samples);
            }
            GossipMessage::Shuffle { entries, reply, .. } => {
                self.stats.shuffles_received += 1;
                if let Some(partial) = self.partial.as_mut() {
                    let shuffle_size = partial.config.shuffle_size;
                    if !reply {
                        let response = partial.view.sample_entries(shuffle_size, ctx.rng());
                        ctx.send(from, GossipMessage::shuffle(response, true, &self.config));
                        self.stats.shuffles_sent += 1;
                    }
                    partial.view.merge(&entries);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_simnet::bandwidth::UploadCapacity;
    use heap_simnet::latency::LatencyModel;
    use heap_simnet::loss::LossModel;
    use heap_simnet::sim::{Simulator, SimulatorBuilder};
    use heap_streaming::source::StreamConfig;

    fn schedule(windows: u64) -> StreamSchedule {
        StreamSchedule::new(StreamConfig::small(windows), SimTime::ZERO)
    }

    fn build_sim(
        n: usize,
        seed: u64,
        windows: u64,
        loss: LossModel,
        policy: impl Fn(NodeId) -> FanoutPolicy,
        capability: impl Fn(NodeId) -> Bandwidth,
    ) -> Simulator<GossipNode> {
        build_wrapped_sim(n, seed, windows, loss, policy, capability, |node| node)
    }

    /// `build_sim` with every node passed through `wrap` (e.g. a timer spy).
    fn build_wrapped_sim<P: Protocol<Message = GossipMessage>>(
        n: usize,
        seed: u64,
        windows: u64,
        loss: LossModel,
        policy: impl Fn(NodeId) -> FanoutPolicy,
        capability: impl Fn(NodeId) -> Bandwidth,
        wrap: impl Fn(GossipNode) -> P,
    ) -> Simulator<P> {
        let sched = schedule(windows);
        SimulatorBuilder::new(n, seed)
            .latency(LatencyModel::uniform(
                SimDuration::from_millis(10),
                SimDuration::from_millis(60),
            ))
            .loss(loss)
            .capacities(
                (0..n)
                    .map(|i| UploadCapacity::Limited(capability(NodeId::new(i as u32))))
                    .collect(),
            )
            .build(|id| {
                wrap(
                    GossipNode::builder(id, n, sched)
                        .config(GossipConfig::paper().with_fanout(5.0))
                        .fanout(policy(id))
                        .capability(capability(id))
                        .role(if id.index() == 0 {
                            Role::Source
                        } else {
                            Role::Receiver
                        })
                        .build(),
                )
            })
    }

    /// Records every timer that fires on the wrapped node: its tag, instant
    /// and the ids queued for proposal when it fired.
    struct TimerSpy {
        node: GossipNode,
        fired: Vec<(u64, SimTime, usize)>,
    }

    impl TimerSpy {
        fn wrap(node: GossipNode) -> Self {
            TimerSpy {
                node,
                fired: Vec::new(),
            }
        }

        /// `(instant, ids to propose)` of each gossip tick.
        fn gossip_ticks(&self) -> impl Iterator<Item = (SimTime, usize)> + '_ {
            self.fired
                .iter()
                .filter(|&&(tag, ..)| tag == TAG_GOSSIP)
                .map(|&(_, at, queued)| (at, queued))
        }
    }

    impl Protocol for TimerSpy {
        type Message = GossipMessage;

        fn on_start(&mut self, ctx: &mut Context<'_, GossipMessage>) {
            self.node.on_start(ctx);
        }

        fn on_message(
            &mut self,
            ctx: &mut Context<'_, GossipMessage>,
            from: NodeId,
            msg: GossipMessage,
        ) {
            self.node.on_message(ctx, from, msg);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, GossipMessage>, timer: TimerId, tag: u64) {
            let queued = self.node.engine().pending_proposals();
            self.fired.push((tag, ctx.now(), queued));
            self.node.on_timer(ctx, timer, tag);
        }
    }

    /// A lossy run of HEAP over a 512 kbps–3 Mbps mix, every node spied on.
    fn lossy_spied_sim(n: usize, seed: u64, windows: u64) -> Simulator<TimerSpy> {
        build_wrapped_sim(
            n,
            seed,
            windows,
            LossModel::bernoulli(0.05),
            |_| FanoutPolicy::heap(5.0),
            |id| Bandwidth::from_kbps([512, 768, 3_000][id.index() % 3]),
            TimerSpy::wrap,
        )
    }

    #[test]
    fn gossip_ticks_stay_on_the_node_grid() {
        let mut sim = lossy_spied_sim(30, 8, 3);
        sim.run_until(SimTime::from_secs(20));
        let period = GOSSIP_PERIOD.as_micros();
        let mut woken = 0;
        for (id, spy) in sim.iter_nodes() {
            let ticks: Vec<SimTime> = spy.gossip_ticks().map(|(at, _)| at).collect();
            // The first tick fires at the node's phase.
            let phase = ticks[0].as_micros();
            assert!(phase <= period, "{id:?} phase {phase}");
            for at in &ticks {
                let since = at.as_micros() - phase;
                assert_eq!(since % period, 0, "{id:?} ticked off its grid at {at}");
            }
            woken += ticks
                .windows(2)
                .filter(|w| w[1] - w[0] > SimDuration::from_micros(period))
                .count();
        }
        assert!(woken > 0, "no timer went idle and woke again");
    }

    #[test]
    fn an_idle_stretch_costs_one_empty_tick() {
        let mut sim = lossy_spied_sim(30, 8, 3);
        sim.run_until(SimTime::from_secs(20));
        for (id, spy) in sim.iter_nodes() {
            let ticks: Vec<(SimTime, usize)> = spy.gossip_ticks().collect();
            for pair in ticks.windows(2) {
                assert!(
                    pair[0].1 > 0 || pair[1].1 > 0,
                    "{id:?} ticked empty at {} and again at {}",
                    pair[0].0,
                    pair[1].0
                );
            }
            // The stream ended long ago: the node's last tick found nothing
            // and left the timer unarmed.
            assert_eq!(ticks.last().unwrap().1, 0, "{id:?}");
        }
        // The source publishes without queueing: its first tick is empty and
        // it never ticks again.
        assert_eq!(sim.node(NodeId::new(0)).gossip_ticks().count(), 1);
    }

    #[test]
    fn armed_timers_stay_a_handful_per_node() {
        // Per node: gossip, aggregation and one retransmission timer, plus
        // the source's publication timer.
        let n = 40;
        let mut sim = lossy_spied_sim(n, 3, 10);
        let mut peak = 0;
        for step in 1..=80 {
            sim.run_until(SimTime::from_millis(step * 100));
            peak = peak.max(sim.armed_timers());
            assert!(
                sim.armed_timers() <= 4 * n,
                "{} timers armed at {} ms",
                sim.armed_timers(),
                step * 100
            );
        }
        // The run did request under loss and so did arm retransmissions.
        let retransmit_fires: usize = sim
            .iter_nodes()
            .map(|(_, spy)| {
                spy.fired
                    .iter()
                    .filter(|f| f.0 == RETRANSMIT_TAG_BASE)
                    .count()
            })
            .sum();
        assert!(
            retransmit_fires > 0 && peak > 2 * n,
            "peak {peak}, fires {retransmit_fires}"
        );
    }

    #[test]
    fn lossless_dissemination_reaches_everyone() {
        // Full coverage by pure infect-and-die gossip is probabilistic: with
        // fanout f on n nodes, a node misses a given id with probability
        // ≈ e^-(f - ln n) (the paper's FEC windows absorb exactly those
        // misses). The simulator is deterministic, so this test pins a seed
        // for which coverage is complete; the stronger always-true properties
        // (no duplicate payloads, full source publication) hold for any seed.
        let mut sim = build_sim(
            25,
            0,
            2,
            LossModel::none(),
            |_| FanoutPolicy::fixed(5.0),
            |_| Bandwidth::from_mbps(100),
        );
        sim.run_until(SimTime::from_secs(20));
        for (id, node) in sim.iter_nodes() {
            assert_eq!(
                node.receiver_log().delivery_ratio(),
                1.0,
                "node {id} missed packets"
            );
            assert_eq!(node.engine().stats().duplicate_payloads, 0, "node {id}");
        }
        // The source actually produced the whole stream.
        assert_eq!(
            sim.node(NodeId::new(0)).next_source_seq,
            sim.node(NodeId::new(0)).engine().schedule().total_packets()
        );
    }

    #[test]
    fn partial_membership_disseminates_and_shuffles() {
        let n = 25;
        let sched = schedule(2);
        let mut sim = SimulatorBuilder::new(n, 4)
            .latency(LatencyModel::uniform(
                SimDuration::from_millis(10),
                SimDuration::from_millis(60),
            ))
            .build(|id| {
                GossipNode::builder(id, n, sched)
                    .config(GossipConfig::paper().with_fanout(5.0))
                    .fanout(FanoutPolicy::fixed(5.0))
                    .partial_membership(PartialMembershipConfig {
                        view_size: 8,
                        shuffle_size: 4,
                        shuffle_period: SimDuration::from_millis(500),
                    })
                    .role(if id.index() == 0 {
                        Role::Source
                    } else {
                        Role::Receiver
                    })
                    .build()
            });
        sim.run_until(SimTime::from_secs(20));
        let mut total_delivery = 0.0;
        for (id, node) in sim.iter_nodes() {
            let view = node.partial_view().expect("partial mode");
            assert!(!view.is_empty(), "node {id} view collapsed");
            assert!(view.len() <= 8);
            assert!(node.stats().shuffles_sent > 0, "node {id} never shuffled");
            assert_eq!(node.engine().stats().duplicate_payloads, 0);
            if id.index() != 0 {
                total_delivery += node.receiver_log().delivery_ratio();
            }
        }
        let mean = total_delivery / (n - 1) as f64;
        assert!(
            mean > 0.95,
            "partial-view dissemination only delivered {mean}"
        );
    }

    #[test]
    fn payload_is_never_received_twice() {
        // The three-phase protocol guarantees at most one payload delivery per
        // packet per node, even under loss with retransmissions.
        let mut sim = build_sim(
            20,
            11,
            2,
            LossModel::bernoulli(0.10),
            |_| FanoutPolicy::fixed(5.0),
            |_| Bandwidth::from_mbps(100),
        );
        sim.run_until(SimTime::from_secs(20));
        for (id, node) in sim.iter_nodes() {
            assert_eq!(
                node.engine().stats().duplicate_payloads,
                0,
                "node {id} received duplicate payloads"
            );
        }
    }

    #[test]
    fn retransmission_recovers_losses() {
        // With 10% loss and no retransmission some packets are lost for good;
        // with retransmission enabled delivery should be near perfect. Gossip
        // coverage itself misses a few nodes on some seeds (see the note in
        // `lossless_dissemination_reaches_everyone`), so the bar is a mean
        // over 30 seeds.
        let run = |seed: u64, retransmits: u32| -> f64 {
            let sched = schedule(2);
            let n = 20;
            let mut sim = SimulatorBuilder::new(n, seed)
                .latency(LatencyModel::constant(SimDuration::from_millis(20)))
                .loss(LossModel::bernoulli(0.10))
                .build(|id| {
                    let mut cfg = GossipConfig::paper().with_fanout(6.0);
                    cfg.max_retransmits = retransmits;
                    GossipNode::builder(id, n, sched)
                        .config(cfg)
                        .fanout(FanoutPolicy::fixed(6.0))
                        .role(if id.index() == 0 {
                            Role::Source
                        } else {
                            Role::Receiver
                        })
                        .build()
                });
            sim.run_until(SimTime::from_secs(30));
            let total: f64 = sim
                .iter_nodes()
                .skip(1)
                .map(|(_, node)| node.receiver_log().delivery_ratio())
                .sum();
            total / (n - 1) as f64
        };
        let mean = |retransmits| (0..30).map(|seed| run(seed, retransmits)).sum::<f64>() / 30.0;
        let (without, with) = (mean(0), mean(3));
        assert!(
            with > without,
            "retransmission must help: {with} vs {without}"
        );
        assert!(with >= 0.98, "with retransmission delivery was only {with}");
    }

    #[test]
    fn heap_nodes_adapt_fanout_to_capability() {
        // Heterogeneous capabilities: node 1 is rich (3 Mbps), nodes 2.. are
        // poor (512 kbps). With the HEAP policy the rich node must end up
        // using a larger fanout and serving more packets than a poor node.
        let n = 30;
        let cap = |id: NodeId| {
            if id.index() == 0 {
                Bandwidth::from_mbps(10) // source
            } else if id.index() <= 3 {
                Bandwidth::from_mbps(3)
            } else {
                Bandwidth::from_kbps(512)
            }
        };
        let mut sim = build_sim(
            n,
            13,
            3,
            LossModel::none(),
            |_| FanoutPolicy::heap(5.0),
            cap,
        );
        sim.run_until(SimTime::from_secs(40));

        let rich = sim.node(NodeId::new(1));
        let poor = sim.node(NodeId::new(10));
        assert!(
            rich.current_target_fanout() > 2.0 * poor.current_target_fanout(),
            "rich target fanout {} vs poor {}",
            rich.current_target_fanout(),
            poor.current_target_fanout()
        );
        assert!(
            rich.stats().average_fanout() > poor.stats().average_fanout(),
            "rich avg fanout {} vs poor {}",
            rich.stats().average_fanout(),
            poor.stats().average_fanout()
        );
        assert!(
            rich.stats().packets_served > poor.stats().packets_served,
            "rich served {} vs poor {}",
            rich.stats().packets_served,
            poor.stats().packets_served
        );
        // Aggregation gave every node a reasonable estimate of the average.
        let true_avg = (3.0 * 3000.0 + 26.0 * 512.0 + 10_000.0) / 30.0;
        for (id, node) in sim.iter_nodes() {
            let est = node.aggregator().estimated_average().as_kbps();
            assert!(
                (est - true_avg).abs() / true_avg < 0.5,
                "node {id} estimate {est} vs true {true_avg}"
            );
            assert!(
                node.aggregator().known_nodes() > n / 2,
                "node {id} knows too few peers"
            );
        }
    }

    #[test]
    fn standard_gossip_does_not_send_aggregation_traffic() {
        let spied = |policy: FanoutPolicy| {
            let mut sim = build_wrapped_sim(
                10,
                5,
                1,
                LossModel::none(),
                |_| policy,
                |_| Bandwidth::from_mbps(100),
                TimerSpy::wrap,
            );
            sim.run_until(SimTime::from_secs(10));
            sim
        };
        for (id, spy) in spied(FanoutPolicy::fixed(4.0)).iter_nodes() {
            assert_eq!(spy.node.stats().aggregation_sent, 0);
            assert_eq!(spy.node.stats().aggregation_received, 0);
            let aggregation_fires = spy.fired.iter().filter(|f| f.0 == TAG_AGGREGATION).count();
            assert_eq!(aggregation_fires, 0, "{id:?} ran an aggregation timer");
            // Nor did its aggregator ever allocate.
            assert_eq!(spy.node.aggregator().heap_bytes(), 0, "{id:?}");
        }
        // The spy does see the timer where it is armed, and the accounting
        // the table it fills.
        for (id, spy) in spied(FanoutPolicy::heap(4.0)).iter_nodes() {
            let aggregation_fires = spy.fired.iter().filter(|f| f.0 == TAG_AGGREGATION).count();
            assert!(
                aggregation_fires >= 40,
                "{id:?} fired {aggregation_fires} in 10 s"
            );
            assert!(spy.node.aggregator().heap_bytes() > 0, "{id:?}");
        }
    }

    #[test]
    fn notify_failure_prunes_state() {
        let sched = schedule(1);
        let mut node = GossipNode::builder(NodeId::new(0), 5, sched)
            .capability(Bandwidth::from_kbps(512))
            .build();
        assert!(node.view().is_live(NodeId::new(3)));
        node.notify_failure(NodeId::new(3), SimTime::from_secs(70));
        assert!(!node.view().is_live(NodeId::new(3)));
        assert_eq!(
            node.view().death_noticed_at(NodeId::new(3)),
            Some(SimTime::from_secs(70))
        );
    }

    #[test]
    fn notify_failure_forgets_the_sample_until_a_merge_readmits_it() {
        use crate::aggregation::CapabilitySample;
        let peer = NodeId::new(3);
        let peers_sample = CapabilitySample {
            node: peer,
            capability: Bandwidth::from_mbps(3),
            timestamp: SimTime::from_secs(60),
        };
        let mut node = GossipNode::builder(NodeId::new(0), 5, schedule(1))
            .capability(Bandwidth::from_kbps(512))
            .build();
        let payload_has_peer = |node: &mut GossipNode, secs| {
            let payload = node
                .aggregator
                .freshest_samples(10, SimTime::from_secs(secs));
            payload.iter().any(|s| s.node == peer)
        };
        node.aggregator.merge(&[peers_sample]);
        assert!(payload_has_peer(&mut node, 69));
        assert_eq!(
            node.aggregator().estimated_average(),
            Bandwidth::from_kbps((512 + 3000) / 2)
        );

        node.notify_failure(peer, SimTime::from_secs(70));
        assert!(!payload_has_peer(&mut node, 70));
        assert_eq!(
            node.aggregator().estimated_average(),
            Bandwidth::from_kbps(512)
        );
        assert_eq!(node.aggregator().known_nodes(), 1);

        // No tombstone: the very same (now older) sample, relayed by a peer
        // that has not noticed the failure yet, brings the node back.
        assert_eq!(node.aggregator.merge(&[peers_sample]), 1);
        assert!(payload_has_peer(&mut node, 71));
        assert_eq!(
            node.aggregator().estimated_average(),
            Bandwidth::from_kbps((512 + 3000) / 2)
        );
    }

    #[test]
    fn builder_accessors_and_capability_update() {
        let sched = schedule(1);
        let mut node = GossipNode::builder(NodeId::new(2), 10, sched)
            .fanout(FanoutPolicy::heap(7.0))
            .capability(Bandwidth::from_kbps(768))
            .role(Role::Receiver)
            .build();
        assert_eq!(node.id(), NodeId::new(2));
        assert_eq!(node.role(), Role::Receiver);
        assert!(!node.is_source());
        assert_eq!(node.capability(), Bandwidth::from_kbps(768));
        assert!(node.fanout_policy().is_adaptive());
        assert!((node.current_target_fanout() - 7.0).abs() < 1e-9);
        node.set_capability(Bandwidth::from_mbps(2), SimTime::from_secs(1));
        assert_eq!(node.capability(), Bandwidth::from_mbps(2));
        assert_eq!(node.aggregator().own_capability(), Bandwidth::from_mbps(2));
        assert_eq!(node.stats(), ProtocolStats::default());
    }

    #[test]
    #[should_panic(expected = "invalid gossip configuration")]
    fn builder_rejects_invalid_config() {
        let mut cfg = GossipConfig::paper();
        cfg.fanout = 0.0;
        let _ = GossipNode::builder(NodeId::new(0), 5, schedule(1))
            .config(cfg)
            .build();
    }

    #[test]
    #[should_panic(expected = "invalid run: n is 357913942 nodes × 12 packets")]
    fn builder_rejects_more_than_2_pow_32_pairs() {
        // A window of 12 packets: one node more than 2³² pairs allow.
        let n = (1 << 32) / 12 + 1;
        let _ = GossipNode::builder(NodeId::new(0), n, schedule(1)).build();
    }

    #[test]
    fn average_fanout_statistic_reflects_policy() {
        let mut sim = build_sim(
            15,
            21,
            2,
            LossModel::none(),
            |_| FanoutPolicy::fixed(5.0),
            |_| Bandwidth::from_mbps(100),
        );
        sim.run_until(SimTime::from_secs(20));
        for (_, node) in sim.iter_nodes() {
            if node.stats().gossip_emissions > 0 {
                assert!((node.stats().average_fanout() - 5.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn free_riders_underserve_requests() {
        // Nodes 1..=5 are free-riders that advertise a rich capability but
        // serve only 30% of the ids requested from them; everyone else is
        // honest. The free-riders must end up serving disproportionately few
        // packets relative to their requests, and the honest majority still
        // carries the stream.
        let n = 25;
        let sched = schedule(2);
        let mut sim = SimulatorBuilder::new(n, 6)
            .latency(LatencyModel::uniform(
                SimDuration::from_millis(10),
                SimDuration::from_millis(60),
            ))
            .build(|id| {
                let mut b = GossipNode::builder(id, n, sched)
                    .config(GossipConfig::paper().with_fanout(5.0))
                    .fanout(FanoutPolicy::fixed(5.0))
                    .role(if id.index() == 0 {
                        Role::Source
                    } else {
                        Role::Receiver
                    });
                if (1..=5).contains(&id.index()) {
                    b = b.serve_fraction(0.3);
                }
                b.build()
            });
        sim.run_until(SimTime::from_secs(20));
        let mut rider_ratio = 0.0;
        let mut honest_ratio = 0.0;
        let mut honest_count = 0.0;
        for (id, node) in sim.iter_nodes() {
            let s = node.stats();
            if s.requests_received == 0 {
                continue;
            }
            let served_per_request = s.packets_served as f64 / s.requests_received as f64;
            if (1..=5).contains(&id.index()) {
                rider_ratio += served_per_request / 5.0;
            } else {
                honest_ratio += served_per_request;
                honest_count += 1.0;
            }
        }
        honest_ratio /= honest_count;
        assert!(
            rider_ratio < 0.6 * honest_ratio,
            "free-riders served {rider_ratio:.2} per request vs honest {honest_ratio:.2}"
        );
        // Retransmission re-routes around the riders: the honest majority
        // still receives most of the stream (degraded — that is the attack —
        // but nowhere near collapsed).
        let honest_delivery: f64 = sim
            .iter_nodes()
            .filter(|(id, _)| id.index() > 5)
            .map(|(_, node)| node.receiver_log().delivery_ratio())
            .sum::<f64>()
            / (n - 6) as f64;
        assert!(
            honest_delivery > 0.8,
            "honest delivery under free-riding was {honest_delivery}"
        );
    }

    #[test]
    fn serve_fraction_of_one_is_byte_identical_to_default() {
        let fingerprint = |explicit: bool| {
            let n = 15;
            let sched = schedule(1);
            let mut sim = SimulatorBuilder::new(n, 3)
                .latency(LatencyModel::constant(SimDuration::from_millis(20)))
                .loss(LossModel::bernoulli(0.05))
                .build(|id| {
                    let mut b = GossipNode::builder(id, n, sched)
                        .config(GossipConfig::paper().with_fanout(5.0))
                        .role(if id.index() == 0 {
                            Role::Source
                        } else {
                            Role::Receiver
                        });
                    if explicit {
                        b = b.serve_fraction(1.0);
                    }
                    b.build()
                });
            sim.run_until(SimTime::from_secs(15));
            sim.iter_nodes()
                .map(|(_, node)| (node.stats(), node.receiver_log().received_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(false), fingerprint(true));
    }

    #[test]
    #[should_panic(expected = "serve fraction")]
    fn builder_rejects_out_of_range_serve_fraction() {
        let _ = GossipNode::builder(NodeId::new(0), 5, schedule(1))
            .serve_fraction(1.5)
            .build();
    }

    #[test]
    fn crashed_source_stops_the_stream() {
        let mut sim = build_sim(
            10,
            2,
            4,
            LossModel::none(),
            |_| FanoutPolicy::fixed(4.0),
            |_| Bandwidth::from_mbps(100),
        );
        // Crash the source almost immediately: nobody should get much.
        sim.schedule_crash(NodeId::new(0), SimTime::from_millis(100));
        sim.run_until(SimTime::from_secs(20));
        for (_, node) in sim.iter_nodes().skip(1) {
            assert!(node.receiver_log().delivery_ratio() < 0.2);
        }
    }
}
