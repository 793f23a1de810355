//! Executes a [`Scenario`] on the simulator and collects per-node results,
//! in the three phases of a [`ScenarioRun`]: **set-up** draws every random
//! choice about the population from one set-up stream (capabilities,
//! stragglers, free-riders, the churn plan, failure-detector instants),
//! compiles the fault spec, builds the simulator and schedules every crash;
//! **run** stops at each health-sample instant and failure-detector
//! notification (samples first at equal instants); **collection** runs the
//! remainder and reads every receiver's results. The stops are the run's
//! own, so however a caller slices the run, the result is the same to the
//! byte. Set-up first asks [`Scenario::validate`] whether the scenario can
//! run, and returns its [`ConfigError`] if not. [`run_scenario`] is set-up
//! followed by collection.

use crate::scenario::{ChurnSpec, ResultDetail, Scenario};
use heap_analytics::BucketSeries;
use heap_gossip::fanout::FanoutPolicy;
use heap_gossip::node::{GossipNode, GossipNodeBuilder, ProtocolStats, Role};
use heap_gossip::{ConfigError, GossipMessage};
use heap_membership::churn::{detection_time, ChurnPlan};
use heap_simnet::bandwidth::{Bandwidth, UploadCapacity};
use heap_simnet::fault::FaultPlan;
use heap_simnet::node::NodeId;
use heap_simnet::rng::stream_rng;
use heap_simnet::sim::{Protocol, Simulator, SimulatorBuilder};
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::health::HealthReport;
use heap_streaming::metrics::{CompactNodeMetrics, NodeMetrics, NodeStreamMetrics};
use heap_streaming::source::{StreamConfig, StreamSchedule};
use rand::Rng;
use std::borrow::BorrowMut;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How long the system runs before the source starts streaming, giving the
/// aggregation protocol a few rounds to seed its capability estimates (the
/// paper's deployment similarly runs the aggregation protocol continuously).
pub const WARMUP: SimDuration = SimDuration::from_secs(5);

/// Results collected for one receiving node.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// The node.
    pub node: NodeId,
    /// Class label under the scenario's bandwidth distribution.
    pub class: &'static str,
    /// Advertised upload capability (`None` = unconstrained).
    pub capability: Option<Bandwidth>,
    /// Whether the node crashed during the run (churn scenarios).
    pub crashed: bool,
    /// When the node joined, if it started on standby (continuous churn);
    /// `None` for nodes present from the start. Standby nodes that never
    /// joined report `Some(SimTime::MAX)`.
    pub joined_at: Option<SimTime>,
    /// Whether the node was a free-rider adversary
    /// ([`Scenario::free_riders`]); its `capability` is the *inflated*
    /// advertised one.
    pub free_rider: bool,
    /// Stream-quality metrics derived from the node's receive log — full
    /// whole-run vectors or `O(n_windows)` compact aggregates, per the
    /// scenario's [`ResultDetail`].
    pub metrics: NodeMetrics,
    /// Stream-health report (drift, cadence, freezes, 0–100 score) snapshotted
    /// at the end of the run from the node's incremental
    /// [`ReceiverHealth`](heap_streaming::health::ReceiverHealth) tracker.
    pub health: HealthReport,
    /// Fraction of the node's upload capacity actually used during the
    /// streaming phase (capped at 1; `None` for unconstrained nodes).
    pub upload_utilization: Option<f64>,
    /// Raw achieved upload rate during the streaming phase, in kbps
    /// (includes data still queued at the end for saturated nodes).
    pub upload_rate_kbps: f64,
    /// Protocol message counters.
    pub protocol_stats: ProtocolStats,
}

/// Network-level traffic totals of one run, read from the simulator's
/// [`NetStats`](heap_simnet::stats::NetStats) accumulator (sums over its
/// per-node rows). Complements the per-node
/// [`ProtocolStats`]: these counters see every wire message — including
/// aggregation and membership traffic — plus the transport-level drops that
/// no protocol counter observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetTotals {
    /// Messages handed to upload queues, network-wide.
    pub messages_sent: u64,
    /// Messages delivered, network-wide.
    pub messages_delivered: u64,
    /// Messages dropped by the (lossy) network.
    pub messages_lost: u64,
    /// Messages dropped at the sender because its upload backlog was full.
    pub queue_drops: u64,
    /// Sum of upload queueing delays over all departed messages.
    pub total_queueing_delay: SimDuration,
}

/// The outcome of running one scenario.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Name of the scenario that produced this result.
    pub scenario_name: String,
    /// The stream schedule used (needed to interpret per-window metrics).
    pub schedule: StreamSchedule,
    /// Per-receiver results (the source is excluded, as in the paper).
    pub nodes: Vec<NodeResult>,
    /// Number of receivers that crashed during the run.
    pub crashed_count: usize,
    /// Network-level traffic totals over the whole run.
    pub net: NetTotals,
    /// Bucketed mean-health-over-time samples, present when the scenario set
    /// [`Scenario::health_series`] (x = seconds since stream start).
    pub health_series: Option<BucketSeries>,
    /// Run-level packet-lag distribution (x = arrival lag in seconds,
    /// bucketed at 0.5 s — the grid of the paper's lag figures), present in
    /// [`ResultDetail::Compact`] runs, where it replaces the dropped
    /// per-node per-packet lag vectors as the whole-run distribution view.
    pub packet_lag_series: Option<BucketSeries>,
}

impl ExperimentResult {
    /// Receivers that survived the whole run.
    pub fn survivors(&self) -> impl Iterator<Item = &NodeResult> {
        self.nodes.iter().filter(|n| !n.crashed)
    }

    /// The distinct class labels present, ordered by increasing capability.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut seen: Vec<(&'static str, u64)> = Vec::new();
        for n in &self.nodes {
            let cap = n.capability.map(|c| c.as_bps()).unwrap_or(u64::MAX);
            if !seen.iter().any(|(label, _)| *label == n.class) {
                seen.push((n.class, cap));
            }
        }
        seen.sort_by_key(|&(_, cap)| cap);
        seen.into_iter().map(|(label, _)| label).collect()
    }

    /// Surviving receivers of one class.
    pub fn class_survivors<'a>(
        &'a self,
        class: &'a str,
    ) -> impl Iterator<Item = &'a NodeResult> + 'a {
        self.survivors().filter(move |n| n.class == class)
    }

    /// Collapses the result into a 64-bit fingerprint covering every
    /// per-node field via the `Debug` rendering. The single definition
    /// behind all bit-identity checks (parallel-vs-sequential sweeps, seed
    /// determinism), so they cannot drift apart.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        format!("{self:?}").hash(&mut hasher);
        hasher.finish()
    }
}

/// Runs a scenario to completion and collects per-node results: set-up,
/// then collection ([`ScenarioRun`]).
///
/// The simulation is fully deterministic for a given scenario (including its
/// [`Scale::seed`](crate::scale::Scale)).
///
/// # Panics
///
/// Panics with the [`ConfigError`] if the scenario fails
/// [`Scenario::validate`]; [`ScenarioRun::setup`] is the `Result` form.
pub fn run_scenario(scenario: &Scenario) -> ExperimentResult {
    match ScenarioRun::setup(scenario) {
        Ok(run) => run.collect(),
        Err(e) => panic!("invalid scenario '{}': {e}", scenario.name),
    }
}

/// One scenario run between its phases (see the [module docs](self)):
/// built by [`setup`](Self::setup), advanced by [`run_until`](Self::run_until)
/// in whatever slices the caller picks, finished by [`collect`](Self::collect).
///
/// `P` is the node protocol: [`GossipNode`] itself, or a wrapper around one
/// that a caller builds with [`setup_with`](Self::setup_with).
pub struct ScenarioRun<'s, P: Protocol = GossipNode> {
    scenario: &'s Scenario,
    sim: Simulator<P>,
    schedule: StreamSchedule,
    advertised: Vec<Option<Bandwidth>>,
    join_at: Vec<Option<SimTime>>,
    free_rider: Vec<bool>,
    /// Failure-detector notifications (instant, crashed node), one per
    /// crash, sorted by instant; the first `notified` are delivered, and any
    /// due after the end is delivered at the end.
    notifications: Vec<(SimTime, NodeId)>,
    notified: usize,
    /// The health series and the instant of its next sample.
    health: Option<(BucketSeries, SimTime)>,
}

impl<'s> ScenarioRun<'s> {
    /// Sets `scenario` up on plain [`GossipNode`]s.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of [`Scenario::validate`].
    pub fn setup(scenario: &'s Scenario) -> Result<Self, ConfigError> {
        Self::setup_with(scenario, GossipNodeBuilder::build)
    }
}

impl<'s, P> ScenarioRun<'s, P>
where
    P: Protocol<Message = GossipMessage> + BorrowMut<GossipNode>,
{
    /// Sets `scenario` up, before its first event: `make_node` receives each
    /// node's configured builder and finishes it, so a caller can time
    /// construction or wrap the node.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of [`Scenario::validate`], checked before
    /// anything is drawn or built.
    pub fn setup_with(
        scenario: &'s Scenario,
        mut make_node: impl FnMut(GossipNodeBuilder) -> P,
    ) -> Result<Self, ConfigError> {
        scenario.validate()?;
        let scale = scenario.scale;
        let n = scale.n_nodes;
        let mut setup_rng = stream_rng(scale.seed, 0xC0FF_EE00);

        // --- Capabilities -------------------------------------------------
        // Node 0 is the source; receivers get capabilities from the distribution.
        let receiver_caps = scenario.distribution.assign(n - 1, &mut setup_rng);
        let mut advertised: Vec<Option<Bandwidth>> = Vec::with_capacity(n);
        advertised.push(Some(scenario.source_capability));
        advertised.extend(receiver_caps.iter().copied());

        // Stragglers: a fraction of receivers whose *actual* capacity is half
        // of what they advertise (overloaded PlanetLab nodes).
        let mut actual: Vec<Option<Bandwidth>> = advertised.clone();
        if scenario.straggler_fraction > 0.0 {
            for slot in actual.iter_mut().skip(1) {
                if let Some(cap) = slot {
                    if setup_rng.gen_bool(scenario.straggler_fraction) {
                        *slot = Some(Bandwidth::from_bps((cap.as_bps() / 2).max(1)));
                    }
                }
            }
        }
        // Free-riders: a fraction of receivers advertises an inflated
        // capability (attracting the fanout a strong relay would get) while
        // actually uploading at a trickle and serving only part of each
        // retransmission request. The selection draws from `setup_rng` only
        // when the spec is present, so honest scenarios keep their exact
        // draw sequence.
        let mut free_rider: Vec<bool> = vec![false; n];
        if let Some(spec) = scenario.free_riders {
            use rand::seq::SliceRandom;
            let mut ids: Vec<usize> = (1..n).collect();
            ids.shuffle(&mut setup_rng);
            let count = (((n - 1) as f64) * spec.fraction).round() as usize;
            for &i in ids.iter().take(count.min(n - 1)) {
                free_rider[i] = true;
                advertised[i] = Some(spec.advertised);
                actual[i] = Some(spec.actual);
            }
        }
        let capacities: Vec<UploadCapacity> = actual
            .iter()
            .map(|c| {
                c.map(UploadCapacity::Limited)
                    .unwrap_or(UploadCapacity::Unlimited)
            })
            .collect();

        // --- Stream and churn plan ----------------------------------------
        let stream_config = StreamConfig::paper(scale.n_windows);
        let schedule = StreamSchedule::new(stream_config, SimTime::ZERO + WARMUP);
        let from_start = |secs| schedule.start() + SimDuration::from_secs(secs);
        // Joins (standby nodes are configured at construction), crashes, and
        // the failure detector's mean delay in seconds.
        let (churn, detection_secs) = match scenario.churn {
            ChurnSpec::None => (ChurnPlan::default(), 0),
            ChurnSpec::Catastrophic {
                fraction,
                at_secs,
                detection_secs,
            } => {
                let at = from_start(at_secs);
                let plan = ChurnPlan::catastrophic(n, fraction, at, &mut setup_rng);
                (plan, detection_secs)
            }
            ChurnSpec::Continuous {
                standby_fraction,
                joins_per_min,
                leaves_per_min,
                detection_secs,
            } => {
                let window = (
                    schedule.start(),
                    schedule.start() + stream_config.stream_duration(),
                );
                let plan = ChurnPlan::continuous(
                    n,
                    standby_fraction,
                    joins_per_min,
                    leaves_per_min,
                    window,
                    &mut setup_rng,
                );
                (plan, detection_secs)
            }
            // A flash crowd only joins; nobody leaves.
            ChurnSpec::FlashCrowd {
                fraction,
                at_secs,
                spread_secs,
            } => {
                let (at, spread) = (from_start(at_secs), SimDuration::from_secs(spread_secs));
                let plan = ChurnPlan::flash_crowd(n, fraction, at, spread, &mut setup_rng);
                (plan, 0)
            }
        };
        // Standby nodes that never join stay offline forever.
        let mut join_at: Vec<Option<SimTime>> = vec![None; n];
        for id in &churn.standby {
            join_at[id.index()] = Some(SimTime::MAX);
        }
        for join in &churn.joins {
            join_at[join.node.index()] = Some(join.at);
        }
        // Every crash as (instant, victim, mean detection delay): the churn
        // crashes, then the regional ones in the order the spec lists them.
        let churn_mean = SimDuration::from_secs(detection_secs);
        let mut crashes: Vec<(SimTime, NodeId, SimDuration)> = churn
            .crashes
            .iter()
            .map(|c| (c.at, c.node, churn_mean))
            .collect();

        // --- Faults -------------------------------------------------------
        let mut fault_plan = FaultPlan::new();
        if let Some(spec) = &scenario.fault {
            // Fault regions come from the spec's region policy over the
            // population.
            let regions = spec.region_policy.assign(n, spec.regions, &capacities);
            for window in &spec.partitions {
                fault_plan = fault_plan.partition(
                    schedule.start() + SimDuration::from_secs_f64(window.start_secs),
                    schedule.start() + SimDuration::from_secs_f64(window.end_secs),
                );
            }
            for crash in &spec.regional_crashes {
                let at = schedule.start() + SimDuration::from_secs_f64(crash.at_secs);
                let detection = SimDuration::from_secs(crash.detection_secs);
                // The source (node 0) is exempt: the stream must survive the
                // outage for "degrade and recover" to be observable at all.
                for i in (1..n).filter(|&i| regions[i] == crash.region) {
                    crashes.push((at, NodeId::new(i as u32), detection));
                }
            }
            if let Some(diurnal) = &spec.diurnal {
                fault_plan = fault_plan.diurnal(
                    SimDuration::from_secs_f64(diurnal.period_secs),
                    diurnal.factors.clone(),
                );
            }
            if spec.needs_regions() {
                fault_plan = fault_plan.with_groups(regions);
            }
        }

        // --- Build ----------------------------------------------------------
        let mut builder = SimulatorBuilder::new(n, scale.seed)
            .latency(scenario.latency.clone())
            .loss(scenario.loss.clone())
            .capacities(capacities);
        if !fault_plan.is_inert() {
            builder = builder.fault_plan(fault_plan);
        }
        if let Some(limit) = scenario.upload_queue_limit {
            builder = builder.upload_queue_limit(limit);
        }
        let policy = scenario.protocol.policy(scenario.distribution.average());
        let partial_membership = scenario.membership.partial_config();
        let mut sim = builder.build(|id| {
            let capability = advertised[id.index()].unwrap_or_else(|| Bandwidth::from_mbps(100));
            let (role, node_policy) = if id.index() == 0 {
                // The source always gossips with the reference fanout: its
                // job is to inject each packet, not to carry the relay load,
                // and letting it scale its fanout with its (large) capability
                // would make it the target of most first-hand requests.
                (Role::Source, FanoutPolicy::fixed(scenario.gossip.fanout))
            } else {
                (Role::Receiver, policy)
            };
            let mut node = GossipNode::builder(id, n, schedule)
                .config(scenario.gossip.clone())
                .fanout(node_policy)
                .capability(capability)
                .role(role);
            if let Some(partial) = partial_membership {
                node = node.partial_membership(partial);
            }
            if let Some(at) = join_at[id.index()] {
                node = node.join_at(at);
            }
            if free_rider[id.index()] {
                let spec = scenario.free_riders.expect("free-riders marked from spec");
                node = node.serve_fraction(spec.serve_fraction);
            }
            make_node(node)
        });

        // --- Crashes --------------------------------------------------------
        // Each crash is scheduled, and every surviving node learns about it
        // after ~its mean detection delay (one instant per crash, shared by
        // all survivors — the simulated failure detector). Regional crashes
        // draw after every churn crash, so fault-free runs are unperturbed.
        // The list needs no sort by time: a crash only marks its node dead,
        // and these pushes take one contiguous block of sequence numbers.
        let mut notifications: Vec<(SimTime, NodeId)> = Vec::with_capacity(crashes.len());
        for (at, node, mean) in crashes {
            sim.schedule_crash(node, at);
            notifications.push((detection_time(at, mean, &mut setup_rng), node));
        }
        notifications.sort_by_key(|&(at, _)| at);

        let health = scenario.health_series.map(|bucket| {
            (
                BucketSeries::new("mean health score", bucket.as_secs_f64()),
                schedule.start() + bucket,
            )
        });
        Ok(ScenarioRun {
            scenario,
            sim,
            schedule,
            advertised,
            join_at,
            free_rider,
            notifications,
            notified: 0,
            health,
        })
    }

    /// When the run ends: the stream's end plus the scenario's drain time.
    pub fn end(&self) -> SimTime {
        self.schedule.start() + self.scenario.run_duration()
    }

    /// The simulator, for reading between slices.
    pub fn sim(&self) -> &Simulator<P> {
        &self.sim
    }

    /// Advances the run to `target` (never past [`end`](Self::end)). On the
    /// way it stops at every health-sample instant and failure-detector
    /// notification due by `target`: a sample folds every live receiver's
    /// score into the bucket it closes, a notification tells every live node
    /// about the crash; at equal instants the sample goes first. A target
    /// already passed is a no-op.
    pub fn run_until(&mut self, target: SimTime) {
        let (end, target) = (self.end(), target.min(self.end()));
        let n = self.scenario.scale.n_nodes;
        loop {
            let sample = self.health.as_ref().map_or(SimTime::MAX, |&(_, at)| at);
            let note = self
                .notifications
                .get(self.notified)
                .map_or(SimTime::MAX, |&(at, _)| at.min(end));
            let at = sample.min(note);
            if at > target {
                break;
            }
            self.sim.run_until(at);
            if sample <= note {
                let (series, next) = self.health.as_mut().expect("a sample is due");
                // Place the sample at the midpoint of the bucket it closes.
                let x = (at - self.schedule.start()).as_secs_f64() - series.width() / 2.0;
                for i in 1..n {
                    let id = NodeId::new(i as u32);
                    if self.sim.is_alive(id) {
                        series.record(x, self.sim.node(id).borrow().health().score(at));
                    }
                }
                *next = at + self.scenario.health_series.expect("sampling is on");
            } else {
                let crashed = self.notifications[self.notified].1;
                self.notified += 1;
                for i in 0..n {
                    let id = NodeId::new(i as u32);
                    if self.sim.is_alive(id) {
                        let node: &mut GossipNode = self.sim.node_mut(id).borrow_mut();
                        node.notify_failure(crashed, at);
                    }
                }
            }
        }
        self.sim.run_until(target);
    }

    /// Runs any remainder to [`end`](Self::end) and collects per-node results.
    pub fn collect(mut self) -> ExperimentResult {
        let end = self.end();
        self.run_until(end);
        let (scenario, schedule, sim) = (self.scenario, self.schedule, &mut self.sim);
        let crashed: HashSet<NodeId> = self.notifications.iter().map(|&(_, id)| id).collect();
        // Bandwidth usage is measured over the streaming phase (start of
        // stream to end of stream), the period Fig. 4 reports about.
        let streaming_span = schedule.config().stream_duration();
        let mut nodes = Vec::with_capacity(self.advertised.len() - 1);
        // Compact runs fold every received packet's lag into one run-level
        // histogram before the per-node vectors are dropped (0.5 s buckets,
        // the grid of the lag figures).
        let mut packet_lag_series = match scenario.detail {
            ResultDetail::Full => None,
            ResultDetail::Compact => Some(BucketSeries::new("packet lag distribution", 0.5)),
        };
        for (i, &advertised_cap) in self.advertised.iter().enumerate().skip(1) {
            let id = NodeId::new(i as u32);
            let node: &GossipNode = sim.node(id).borrow();
            let health = node.health().report(end);
            let protocol_stats = node.stats();
            let queue = sim.upload_queue(id);
            let upload_utilization = match queue.capacity() {
                UploadCapacity::Unlimited => None,
                UploadCapacity::Limited(_) => {
                    Some((queue.busy_time().as_secs_f64() / streaming_span.as_secs_f64()).min(1.0))
                }
            };
            let upload_rate_kbps = queue.achieved_rate_bps(streaming_span) / 1_000.0;
            // Everything else is read: the metrics take the log's arrival
            // column over instead of copying it while the node still holds it.
            let log = sim.node_mut(id).borrow_mut().take_receiver_log();
            let full_metrics = NodeStreamMetrics::from_log(&schedule, log);
            let metrics = match scenario.detail {
                ResultDetail::Full => NodeMetrics::Full(full_metrics),
                ResultDetail::Compact => {
                    let series = packet_lag_series.as_mut().expect("created above");
                    for lag in full_metrics.received_packet_lags() {
                        let secs = lag.as_secs_f64();
                        series.record(secs, secs);
                    }
                    NodeMetrics::Compact(CompactNodeMetrics::from_full(&full_metrics))
                }
            };
            // Simulated clocks cannot run backwards: any anomaly in a
            // simnet-driven run is a harness bug, not a measurement artefact.
            debug_assert_eq!(
                health.clock_anomalies, 0,
                "node {id} observed arrival-before-publish in simulation"
            );
            debug_assert_eq!(
                metrics.clock_anomalies(),
                0,
                "node {id} log contains arrival-before-publish in simulation"
            );
            nodes.push(NodeResult {
                node: id,
                class: scenario.distribution.class_label(advertised_cap),
                capability: advertised_cap,
                crashed: crashed.contains(&id),
                joined_at: self.join_at[i],
                free_rider: self.free_rider[i],
                metrics,
                health,
                upload_utilization,
                upload_rate_kbps,
                protocol_stats,
            });
        }

        let stats = sim.stats();
        let net = NetTotals {
            messages_sent: stats.total_messages_sent(),
            messages_delivered: stats.total_messages_delivered(),
            messages_lost: stats.total_messages_lost(),
            queue_drops: stats.total_queue_drops(),
            total_queueing_delay: stats.total_queueing_delay,
        };

        ExperimentResult {
            scenario_name: scenario.name.clone(),
            schedule,
            nodes,
            crashed_count: crashed.len(),
            net,
            health_series: self.health.map(|(series, _)| series),
            packet_lag_series,
        }
    }
}

/// Runs a batch of scenarios — on scoped threads when the host has spare
/// cores, inline otherwise — and returns the results in input order.
///
/// [`run_scenario`] is a pure function of its scenario — every random draw
/// derives from the scenario's [`Scale::seed`](crate::scale::Scale) — so the
/// results are bit-identical whichever execution strategy runs; the threads
/// change wall-clock time, never a byte of output (asserted in tests). This
/// is the shared engine behind the parallel per-figure sweeps (fig. 1, 2,
/// 10, the partial-view workload and the six baseline runs of
/// [`StandardRuns`](crate::experiments::StandardRuns)).
///
/// On a single-core host the batch runs inline: interleaving several
/// simulators on one core thrashes the cache of the (memory-bound) event
/// loop — `BENCH_3.json`'s 1-core container measured thread-per-scenario at
/// ~0.5× sequential at paper scale. Otherwise it runs on a pool of one
/// worker per core ([`run_scenarios_pooled`]).
pub fn run_scenarios_parallel(scenarios: &[Scenario]) -> Vec<ExperimentResult> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_scenarios_pooled(scenarios, cores)
}

/// Runs a scenario batch on a pool of `workers` scoped threads that claim
/// scenario indices from one shared cursor, in input order. A worker that
/// finishes claims the next unclaimed scenario, so no core sits idle while
/// unclaimed scenarios remain, however unevenly long they are (paper-scale
/// sweeps mix 10³- and 10⁴-node runs). The unit of work is one scenario: a
/// simulation runs on one thread.
///
/// Results are returned in input order and are bit-identical to the
/// sequential loop for any worker count ([`run_scenario`] is a pure
/// function of its scenario; asserted in tests).
pub fn run_scenarios_pooled(scenarios: &[Scenario], workers: usize) -> Vec<ExperimentResult> {
    let workers = workers.clamp(1, scenarios.len().max(1));
    if workers <= 1 {
        return scenarios.iter().map(run_scenario).collect();
    }
    let next = AtomicUsize::new(0);
    let next = &next;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut ran: Vec<(usize, ExperimentResult)> = Vec::new();
                    loop {
                        // Relaxed: the cursor only hands out indices; the
                        // results travel back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break ran;
                        };
                        ran.push((i, run_scenario(scenario)));
                    }
                })
            })
            .collect();
        let mut results: Vec<Option<ExperimentResult>> = scenarios.iter().map(|_| None).collect();
        for handle in handles {
            for (i, result) in handle.join().expect("worker thread panicked") {
                results[i] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every scenario was claimed exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth_dist::BandwidthDistribution;
    use crate::scale::Scale;
    use crate::scenario::{MembershipChoice, ProtocolChoice};
    use heap_simnet::latency::LatencyModel;
    use heap_simnet::loss::LossModel;

    fn quick_scenario(
        dist: BandwidthDistribution,
        protocol: ProtocolChoice,
        churn: ChurnSpec,
    ) -> Scenario {
        Scenario::new("test-run", Scale::test(), dist, protocol)
            .with_latency(LatencyModel::uniform(
                SimDuration::from_millis(10),
                SimDuration::from_millis(50),
            ))
            .with_loss(LossModel::none())
            .with_churn(churn)
    }

    #[test]
    fn unconstrained_standard_gossip_delivers_everything() {
        let scenario = quick_scenario(
            BandwidthDistribution::unconstrained(),
            ProtocolChoice::Standard { fanout: 6.0 },
            ChurnSpec::None,
        );
        let result = run_scenario(&scenario);
        assert_eq!(result.nodes.len(), Scale::test().n_receivers());
        assert_eq!(result.crashed_count, 0);
        assert_eq!(result.classes(), vec!["unconstrained"]);
        // Network totals are populated and self-consistent: a lossless run
        // delivers everything it sends (minus in-flight at the cutoff).
        assert!(result.net.messages_sent > 0);
        assert!(result.net.messages_delivered <= result.net.messages_sent);
        assert_eq!(result.net.messages_lost, 0);
        assert_eq!(result.net.queue_drops, 0);
        for node in &result.nodes {
            assert!(!node.crashed);
            assert_eq!(node.capability, None);
            assert_eq!(node.upload_utilization, None);
            assert!(
                node.metrics.delivery_ratio() > 0.99,
                "node {} delivered {}",
                node.node,
                node.metrics.delivery_ratio()
            );
            assert!(node.metrics.lag_for_full_delivery(0.99).is_some());
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        );
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        let ratios = |r: &ExperimentResult| -> Vec<f64> {
            r.nodes.iter().map(|n| n.metrics.delivery_ratio()).collect()
        };
        assert_eq!(ratios(&a), ratios(&b));
        let rates = |r: &ExperimentResult| -> Vec<u64> {
            r.nodes
                .iter()
                .map(|n| n.protocol_stats.packets_served)
                .collect()
        };
        assert_eq!(rates(&a), rates(&b));
    }

    #[test]
    fn constrained_run_reports_classes_and_utilization() {
        let scenario = quick_scenario(
            BandwidthDistribution::ms_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        );
        let result = run_scenario(&scenario);
        let classes = result.classes();
        assert_eq!(classes, vec!["512kbps", "1Mbps", "3Mbps"]);
        for node in &result.nodes {
            assert!(node.capability.is_some());
            let u = node
                .upload_utilization
                .expect("constrained node has utilization");
            assert!((0.0..=1.0).contains(&u));
            assert!(node.upload_rate_kbps >= 0.0);
        }
        // At least some dissemination happened everywhere.
        let mean_delivery: f64 = result
            .nodes
            .iter()
            .map(|n| n.metrics.delivery_ratio())
            .sum::<f64>()
            / result.nodes.len() as f64;
        assert!(mean_delivery > 0.8, "mean delivery {mean_delivery}");
    }

    #[test]
    fn health_reports_and_series_are_collected() {
        let base = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        );
        let plain = run_scenario(&base);
        assert!(plain.health_series.is_none(), "sampling is opt-in");
        let sampled = run_scenario(&base.clone().with_health_series(SimDuration::from_secs(5)));
        let series = sampled.health_series.as_ref().expect("sampling enabled");
        assert!(!series.is_empty());
        for (_, bucket) in series.buckets() {
            if bucket.count > 0 {
                assert!(bucket.min >= 0.0 && bucket.max <= 100.0);
            }
        }
        for node in &sampled.nodes {
            assert_eq!(node.health.clock_anomalies, 0);
            assert!((0.0..=100.0).contains(&node.health.score));
            assert!(node.health.samples > 0, "every receiver got packets");
        }
        // A well-provisioned lossless run is healthy on average.
        let mean: f64 =
            sampled.nodes.iter().map(|n| n.health.score).sum::<f64>() / sampled.nodes.len() as f64;
        assert!(mean > 60.0, "mean health {mean}");
        // Stopping the simulator at sample boundaries must not perturb the
        // simulation itself: per-node results match the unsampled run.
        let ratios = |r: &ExperimentResult| -> Vec<f64> {
            r.nodes.iter().map(|n| n.metrics.delivery_ratio()).collect()
        };
        assert_eq!(ratios(&plain), ratios(&sampled));
        let scores =
            |r: &ExperimentResult| -> Vec<f64> { r.nodes.iter().map(|n| n.health.score).collect() };
        assert_eq!(scores(&plain), scores(&sampled));
    }

    #[test]
    fn catastrophic_churn_crashes_the_requested_fraction() {
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::Catastrophic {
                fraction: 0.5,
                at_secs: 4,
                detection_secs: 5,
            },
        );
        let result = run_scenario(&scenario);
        let expected_crashes = (Scale::test().n_nodes as f64 * 0.5).round() as usize;
        assert_eq!(result.crashed_count, expected_crashes);
        assert_eq!(
            result.nodes.iter().filter(|n| n.crashed).count(),
            expected_crashes
        );
        // Survivors still make progress after the crash.
        let survivors: Vec<_> = result.survivors().collect();
        assert!(!survivors.is_empty());
        let mean_delivery: f64 = survivors
            .iter()
            .map(|n| n.metrics.delivery_ratio())
            .sum::<f64>()
            / survivors.len() as f64;
        assert!(
            mean_delivery > 0.6,
            "survivor mean delivery {mean_delivery}"
        );
        // class_survivors filters by class.
        for class in result.classes() {
            for n in result.class_survivors(class) {
                assert_eq!(n.class, class);
                assert!(!n.crashed);
            }
        }
    }

    #[test]
    fn straggler_fraction_halves_some_capacities() {
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Standard { fanout: 6.0 },
            ChurnSpec::None,
        )
        .with_stragglers(0.5);
        // The run must complete and keep advertised capabilities intact in the
        // results (stragglers only affect the *actual* simulated capacity).
        let result = run_scenario(&scenario);
        for node in &result.nodes {
            let cap = node.capability.unwrap();
            assert!(
                [256, 768, 2000].contains(&(cap.as_kbps() as u64)),
                "advertised capability unchanged, got {cap}"
            );
        }
    }

    #[test]
    fn cyclon_membership_runs_and_shuffles() {
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        )
        .with_membership(MembershipChoice::cyclon());
        let result = run_scenario(&scenario);
        assert_eq!(result.nodes.len(), Scale::test().n_receivers());
        let shuffles: u64 = result
            .nodes
            .iter()
            .map(|n| n.protocol_stats.shuffles_sent)
            .sum();
        assert!(shuffles > 0, "cyclon nodes must shuffle");
        let mean_delivery: f64 = result
            .nodes
            .iter()
            .map(|n| n.metrics.delivery_ratio())
            .sum::<f64>()
            / result.nodes.len() as f64;
        assert!(
            mean_delivery > 0.7,
            "partial views should still disseminate, got {mean_delivery}"
        );
    }

    #[test]
    fn pooled_runner_is_bit_identical_to_sequential() {
        // A mixed batch (distributions, protocols, churn and membership
        // modes) at worker counts below, at and above the batch size, so
        // real threads share the cursor even on one core.
        let scenarios = vec![
            quick_scenario(
                BandwidthDistribution::unconstrained(),
                ProtocolChoice::Standard { fanout: 6.0 },
                ChurnSpec::None,
            ),
            quick_scenario(
                BandwidthDistribution::ms_691(),
                ProtocolChoice::Heap { fanout: 6.0 },
                ChurnSpec::Catastrophic {
                    fraction: 0.2,
                    at_secs: 4,
                    detection_secs: 5,
                },
            ),
            quick_scenario(
                BandwidthDistribution::ref_691(),
                ProtocolChoice::Heap { fanout: 6.0 },
                ChurnSpec::None,
            )
            .with_membership(MembershipChoice::cyclon()),
        ];
        let sequential: Vec<ExperimentResult> = scenarios.iter().map(run_scenario).collect();
        for workers in [1, 2, 3, 8] {
            let pooled = run_scenarios_pooled(&scenarios, workers);
            assert_eq!(pooled.len(), sequential.len());
            for (p, s) in pooled.iter().zip(&sequential) {
                assert_eq!(p.scenario_name, s.scenario_name, "workers={workers}");
                assert_eq!(
                    p.fingerprint(),
                    s.fingerprint(),
                    "{} diverged with {workers} workers",
                    p.scenario_name
                );
            }
        }
    }

    /// A retransmit period of 0.5 ms arms timers from message handlers with
    /// less than one calendar bucket of delay. The engine runs it to the end
    /// like any other scenario.
    #[test]
    fn sub_bucket_retransmit_timers_run_to_completion() {
        let mut scenario = Scenario::new(
            "sub-bucket retransmit",
            Scale::test().with_seed(1),
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 7.0 },
        );
        scenario.gossip.retransmit_period = SimDuration::from_micros(500);
        assert!(run_scenario(&scenario).net.messages_sent > 100_000);
    }

    #[test]
    fn continuous_churn_joins_and_leaves_nodes() {
        let scenario = continuous_churn_scenario();
        let result = run_scenario(&scenario);
        // Leaves happened and are reported as crashes.
        assert!(result.crashed_count > 0, "poisson leaves must crash nodes");
        // Standby nodes exist; joiners are marked with their join instant.
        let standby: Vec<_> = result
            .nodes
            .iter()
            .filter(|n| n.joined_at.is_some())
            .collect();
        assert!(
            !standby.is_empty(),
            "a fifth of the receivers starts standby"
        );
        let joined: Vec<_> = standby
            .iter()
            .filter(|n| n.joined_at != Some(SimTime::MAX))
            .collect();
        assert!(!joined.is_empty(), "joins must activate standby nodes");
        // Nodes present from the start still receive the stream.
        let original_mean: f64 = {
            let o: Vec<_> = result
                .survivors()
                .filter(|n| n.joined_at.is_none())
                .collect();
            o.iter().map(|n| n.metrics.delivery_ratio()).sum::<f64>() / o.len() as f64
        };
        assert!(
            original_mean > 0.6,
            "original nodes keep receiving under continuous churn, got {original_mean}"
        );
        // A node that never joined must not have sent anything.
        for n in &result.nodes {
            if n.joined_at == Some(SimTime::MAX) {
                assert_eq!(n.protocol_stats.proposals_sent, 0);
                assert_eq!(n.metrics.delivery_ratio(), 0.0);
            }
        }
        // Determinism: the plan derives from the scenario seed.
        let again = run_scenario(&scenario);
        assert_eq!(result.fingerprint(), again.fingerprint());
    }

    #[test]
    fn flash_crowd_joins_arrive_in_one_burst() {
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::FlashCrowd {
                fraction: 0.3,
                at_secs: 4,
                spread_secs: 2,
            },
        );
        let result = run_scenario(&scenario);
        assert_eq!(result.crashed_count, 0, "a flash crowd only joins");
        let joiners: Vec<_> = result
            .nodes
            .iter()
            .filter(|n| n.joined_at.is_some())
            .collect();
        let expected = (Scale::test().n_nodes as f64 * 0.3).round() as usize;
        assert_eq!(joiners.len(), expected);
        let start = result.schedule.start();
        for node in &joiners {
            let at = node.joined_at.unwrap();
            assert!(
                at >= start + SimDuration::from_secs(4)
                    && at <= start + SimDuration::from_secs(6) + SimDuration::from_micros(1),
                "join at {at} outside the burst window"
            );
            // Every flash-crowd joiner eventually receives the stream.
            assert!(
                node.metrics.delivery_ratio() > 0.0,
                "joiner {} never received anything",
                node.node
            );
        }
        let again = run_scenario(&scenario);
        assert_eq!(result.fingerprint(), again.fingerprint());
    }

    #[test]
    fn free_riders_are_marked_and_inflate_their_capability() {
        use crate::scenario::FreeRiderSpec;
        let spec = FreeRiderSpec::default_adversary();
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        )
        .with_free_riders(spec);
        let result = run_scenario(&scenario);
        let riders: Vec<_> = result.nodes.iter().filter(|n| n.free_rider).collect();
        let expected = ((Scale::test().n_receivers()) as f64 * spec.fraction).round() as usize;
        assert_eq!(riders.len(), expected);
        for rider in &riders {
            assert_eq!(rider.capability, Some(spec.advertised));
        }
        // Honest nodes still disseminate despite the adversaries.
        let honest: Vec<_> = result.nodes.iter().filter(|n| !n.free_rider).collect();
        let honest_mean: f64 = honest
            .iter()
            .map(|n| n.metrics.delivery_ratio())
            .sum::<f64>()
            / honest.len() as f64;
        assert!(honest_mean > 0.6, "honest mean delivery {honest_mean}");
    }

    #[test]
    fn regional_crash_kills_exactly_one_region() {
        use crate::scenario::FaultSpec;
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::None,
        )
        .with_fault(FaultSpec::regions(4).regional_crash(3, 6.0, 5));
        let result = run_scenario(&scenario);
        // Contiguous 4-way split of 40 nodes: region 3 holds nodes 30..39,
        // none of which is the source.
        assert_eq!(result.crashed_count, 10);
        for node in &result.nodes {
            assert_eq!(node.crashed, node.node.index() >= 30, "node {}", node.node);
        }
        // Survivors keep streaming after the outage.
        let survivors: Vec<_> = result.survivors().collect();
        let mean: f64 = survivors
            .iter()
            .map(|n| n.metrics.delivery_ratio())
            .sum::<f64>()
            / survivors.len() as f64;
        assert!(mean > 0.6, "survivor mean delivery {mean}");
    }

    #[test]
    fn faulted_scenarios_are_deterministic() {
        use crate::scenario::{FaultSpec, FreeRiderSpec};
        // Pile every adversarial feature into one run: partition + heal,
        // a regional crash, diurnal cycling, bursty loss, a flash crowd and
        // free-riders — and require a second run to reproduce it bit for
        // bit.
        let scenario = quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::FlashCrowd {
                fraction: 0.2,
                at_secs: 6,
                spread_secs: 3,
            },
        )
        .with_loss(LossModel::bursty_default())
        .with_fault(
            FaultSpec::regions(2)
                .partition(10.0, 20.0)
                .regional_crash(1, 30.0, 5)
                .diurnal(25.0, vec![1.0, 0.6]),
        )
        .with_free_riders(FreeRiderSpec::default_adversary());
        assert_eq!(
            run_scenario(&scenario).fingerprint(),
            run_scenario(&scenario).fingerprint()
        );
    }

    fn continuous_churn_scenario() -> Scenario {
        quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::Continuous {
                standby_fraction: 0.2,
                joins_per_min: 30.0,
                leaves_per_min: 20.0,
                detection_secs: 5,
            },
        )
    }

    /// Two regional crashes listed out of time order, the later one sharing
    /// its instant with a catastrophic churn crash, beside a partition.
    fn faulted_crash_scenario() -> Scenario {
        use crate::scenario::FaultSpec;
        quick_scenario(
            BandwidthDistribution::ref_691(),
            ProtocolChoice::Heap { fanout: 6.0 },
            ChurnSpec::Catastrophic {
                fraction: 0.2,
                at_secs: 12,
                detection_secs: 5,
            },
        )
        .with_fault(
            FaultSpec::regions(4)
                .partition(4.0, 9.0)
                .regional_crash(3, 12.0, 5)
                .regional_crash(1, 7.5, 3),
        )
    }

    /// Pins the crashes of [`faulted_crash_scenario`]. The crash events are
    /// scheduled by time while the survivors' failure-detector draws stay in
    /// listed order; drawing them in time order instead moves the
    /// fingerprint.
    #[test]
    fn faulted_crash_order_matches_pinned_fingerprint() {
        let scenario = faulted_crash_scenario();
        assert_eq!(scenario.scale.n_nodes, 40);
        let result = run_scenario(&scenario);
        assert_eq!(result.crashed_count, 24, "two regions plus churn crash");
        assert_eq!(result.fingerprint(), 17598049625996853567);
    }

    /// One bad scenario per row, with the error set-up must return before
    /// drawing or building anything.
    #[test]
    fn setup_rejects_each_bad_scenario_with_its_error() {
        use crate::scenario::{FaultSpec, FreeRiderSpec, RegionalCrash};
        use ConfigError::*;
        let base = continuous_churn_scenario;
        let faulted = |spec: FaultSpec| base().with_fault(spec);
        let riders = |edit: fn(&mut FreeRiderSpec)| {
            let mut spec = FreeRiderSpec::default_adversary();
            edit(&mut spec);
            base().with_free_riders(spec)
        };
        let churned = |churn: ChurnSpec| base().with_churn(churn);
        let mut pushed = FaultSpec::regions(2);
        pushed.regional_crashes.push(RegionalCrash {
            region: 5,
            at_secs: 6.0,
            detection_secs: 5,
        });
        let (closed, below_one) = ("[0, 1]", "[0, 1)");
        let (ms, forever) = (SimDuration::from_millis, SimDuration::from_micros(u64::MAX));
        let windows = |n_windows| Scenario {
            scale: Scale::test().with_windows(n_windows),
            ..base()
        };
        // 40 nodes and 110 packets a window: the first window count past 2³²
        // (requester, packet) pairs.
        let too_many = (1u64 << 32) / (40 * 110) + 1;
        let rows: Vec<(Scenario, ConfigError)> = vec![
            (
                Scenario {
                    scale: Scale::test().with_nodes(1),
                    ..base()
                },
                TooFewNodes("scale.n_nodes", 1),
            ),
            (windows(0), NoWindows("scale.n_windows")),
            (
                base().with_stragglers(1.5),
                NotAFraction("straggler_fraction", 1.5, closed),
            ),
            (
                riders(|spec| spec.fraction = f64::NAN),
                NotAFraction("free_riders.fraction", f64::NAN, closed),
            ),
            (
                riders(|spec| spec.serve_fraction = 1.5),
                NotAFraction("free_riders.serve_fraction", 1.5, closed),
            ),
            (
                riders(|spec| spec.actual = Bandwidth::from_bps(0)),
                NotPositive("free_riders.actual", 0.0),
            ),
            (
                churned(ChurnSpec::Catastrophic {
                    fraction: 1.0,
                    at_secs: 4,
                    detection_secs: 5,
                }),
                NotAFraction("churn.fraction", 1.0, below_one),
            ),
            (
                churned(ChurnSpec::Continuous {
                    standby_fraction: 0.2,
                    joins_per_min: f64::INFINITY,
                    leaves_per_min: 20.0,
                    detection_secs: 5,
                }),
                NotARate("churn.joins_per_min", f64::INFINITY),
            ),
            (
                base().with_health_series(SimDuration::ZERO),
                NotPositive("health_series", 0.0),
            ),
            (
                faulted(FaultSpec::regions(0)),
                NotPositive("fault.regions", 0.0),
            ),
            (
                faulted(FaultSpec::regions(2).regional_crash(2, 60.0, 10)),
                RegionOutOfRange("fault.regional_crashes.region", 2, 2),
            ),
            (
                faulted(pushed),
                RegionOutOfRange("fault.regional_crashes.region", 5, 2),
            ),
            (
                faulted(FaultSpec::regions(2).partition(-1.0, 10.0)),
                NotAnInstant("fault.partitions.start_secs", -1.0),
            ),
            (
                faulted(FaultSpec::regions(2).partition(5.0, f64::INFINITY)),
                NotAnInstant("fault.partitions.end_secs", f64::INFINITY),
            ),
            (
                faulted(FaultSpec::regions(2).partition(5.0, 5.0000001)),
                EmptyWindow("fault.partitions", 5.0, 5.0000001),
            ),
            (
                faulted(FaultSpec::regions(2).regional_crash(1, -3.0, 10)),
                NotAnInstant("fault.regional_crashes.at_secs", -3.0),
            ),
            (
                faulted(FaultSpec::regions(2).regional_crash(1, f64::NAN, 10)),
                NotAnInstant("fault.regional_crashes.at_secs", f64::NAN),
            ),
            (
                faulted(FaultSpec::regions(1).diurnal(0.0, vec![1.0, 0.5])),
                NotPositive("fault.diurnal.period_secs", 0.0),
            ),
            (
                faulted(FaultSpec::regions(1).diurnal(-20.0, vec![1.0, 0.5])),
                NotAnInstant("fault.diurnal.period_secs", -20.0),
            ),
            (
                faulted(FaultSpec::regions(1).diurnal(f64::NAN, vec![1.0, 0.5])),
                NotAnInstant("fault.diurnal.period_secs", f64::NAN),
            ),
            (
                faulted(FaultSpec::regions(1).diurnal(10.0, vec![])),
                EmptyList("fault.diurnal.factors"),
            ),
            (
                faulted(FaultSpec::regions(1).diurnal(10.0, vec![1.0, 0.0])),
                NotPositive("fault.diurnal.factors", 0.0),
            ),
            (
                base().with_latency(LatencyModel::Uniform {
                    min: ms(20),
                    max: ms(10),
                }),
                EmptyWindow("latency", 0.02, 0.01),
            ),
            (
                base().with_latency(LatencyModel::BaseplusExp {
                    base: ms(25),
                    mean_jitter: forever,
                }),
                NotAnInstant("latency.mean_jitter", forever.as_secs_f64()),
            ),
            (
                base().with_loss(LossModel::Bernoulli { p: 1.5 }),
                NotAFraction("loss.p", 1.5, closed),
            ),
            (
                base().with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.01,
                    p_bad_to_good: 0.2,
                    p_good: 0.01,
                    p_bad: f64::NAN,
                }),
                NotAFraction("loss.p_bad", f64::NAN, closed),
            ),
            (windows(too_many), TooManyPairs("scale", 40, too_many * 110)),
            (windows(u64::MAX), TooManyPairs("scale", 40, u64::MAX)),
            (
                Scenario {
                    scale: Scale::test().with_nodes(1_000_000).with_windows(40_000),
                    ..base()
                },
                TooManyPairs("scale", 1_000_000, 4_400_000),
            ),
        ];
        for (scenario, expected) in rows {
            // Debug, not `==`: a NaN field must match a NaN row.
            let got = ScenarioRun::setup(&scenario)
                .err()
                .map(|e| format!("{e:?}"));
            assert_eq!(got, Some(format!("{expected:?}")));
        }
        assert_eq!(
            windows(too_many - 1).validate(),
            Ok(()),
            "4 096 pairs short of 2³²"
        );
    }

    type Ctx<'a> = heap_simnet::sim::Context<'a, GossipMessage>;

    /// A minimal wrapping protocol: delegates every callback to its node.
    struct Wrapped(GossipNode);

    impl Protocol for Wrapped {
        type Message = GossipMessage;
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.on_start(ctx)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: GossipMessage) {
            self.0.on_message(ctx, from, msg)
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: heap_simnet::sim::TimerId, tag: u64) {
            self.0.on_timer(ctx, timer, tag)
        }
        fn on_crash(&mut self, now: SimTime) {
            self.0.on_crash(now)
        }
    }

    impl std::borrow::Borrow<GossipNode> for Wrapped {
        fn borrow(&self) -> &GossipNode {
            &self.0
        }
    }

    impl BorrowMut<GossipNode> for Wrapped {
        fn borrow_mut(&mut self) -> &mut GossipNode {
            &mut self.0
        }
    }

    /// Runs `scenario` whole, in one-second slices, in irregular slices
    /// landing on every stop and a microsecond either side, and wrapped:
    /// every way must give the same bytes.
    fn assert_slicing_never_changes_a_byte(scenario: &Scenario) {
        let whole = run_scenario(scenario).fingerprint();
        let mut run = ScenarioRun::setup(scenario).expect("a valid scenario");
        let mut t = SimTime::ZERO;
        while t < run.end() {
            t += SimDuration::from_secs(1);
            run.run_until(t);
        }
        assert_eq!(run.collect().fingerprint(), whole, "one-second slices");

        let mut run = ScenarioRun::setup(scenario).expect("a valid scenario");
        let (start, bucket) = (run.schedule.start(), scenario.health_series.unwrap());
        let samples = (1..).map(|k| start + bucket * k);
        let mut stops: Vec<SimTime> = run.notifications.iter().map(|&(at, _)| at).collect();
        assert!(!stops.is_empty(), "the scenario must crash nodes");
        stops.extend(samples.take_while(|&at| at <= run.end()));
        stops.sort();
        let micro = SimDuration::from_micros(1);
        for at in stops {
            run.run_until(at - micro);
            run.run_until(at);
            run.run_until(at - micro);
            run.run_until(at + micro);
        }
        assert_eq!(run.collect().fingerprint(), whole, "irregular slices");

        let wrapped = ScenarioRun::setup_with(scenario, |node| Wrapped(node.build()));
        assert_eq!(
            wrapped.expect("a valid scenario").collect().fingerprint(),
            whole,
            "wrapped protocol"
        );
    }

    #[test]
    fn slicing_and_wrapping_never_change_a_byte() {
        use crate::scenario::FreeRiderSpec;
        let health = SimDuration::from_secs(5);
        let faulted = faulted_crash_scenario()
            .with_free_riders(FreeRiderSpec::default_adversary())
            .with_health_series(health);
        assert_slicing_never_changes_a_byte(&faulted);
        assert_slicing_never_changes_a_byte(
            &continuous_churn_scenario().with_health_series(health),
        );
    }
}
