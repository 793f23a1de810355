//! Differential property test of [`CapabilityAggregator`].
//!
//! The aggregator keeps a running capability sum and an incrementally
//! maintained cache of the freshest samples. This drives it and a naive model
//! (a plain table, a full sort per payload, a full sum per average) with the
//! same random operation sequences and asserts equal payload,
//! `estimated_average` and `known_nodes` after every step.
//!
//! Node ids and timestamps come from small ranges so that duplicates within
//! one payload, stale and equal timestamps, and timestamp ties broken by node
//! id are the common case rather than the rare one. The owner's id is inside
//! the node range, so merges and forgets aimed at it occur too. A second
//! property draws one id in eight from a range of thousands instead, so the
//! aggregator's dense table grows in jumps, forgets land beyond its end, and
//! now and then the owner itself sits far above everyone it hears of. The run
//! continues on a clone of the aggregator now and then, and every payload
//! check after a step works on a clone, as the benchmark probes do.

use heap_gossip::aggregation::{CapabilityAggregator, CapabilitySample};
use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::node::NodeId;
use heap_simnet::time::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const NODES: u32 = 24;
/// The occasional far id; no sample is ever drawn at or above it.
const FAR_NODES: u32 = 5_000;
/// Bytes per slot of the aggregator's table: the capability and the
/// timestamp; the slot's index names the node.
const SLOT_BYTES: usize = 16;
/// Bytes the payload cache may hold, whatever payload sizes were asked for.
const CACHE_BYTES: usize = 4 * 1024;

/// The aggregation state as the paper describes it, with nothing cached.
#[derive(Clone)]
struct Model {
    own: NodeId,
    own_capability: Bandwidth,
    samples: HashMap<NodeId, CapabilitySample>,
}

impl Model {
    fn new(own: NodeId, capability: Bandwidth) -> Self {
        let mut model = Model {
            own,
            own_capability: capability,
            samples: HashMap::new(),
        };
        model.write_own(SimTime::ZERO);
        model
    }

    fn write_own(&mut self, now: SimTime) {
        self.samples.insert(
            self.own,
            CapabilitySample {
                node: self.own,
                capability: self.own_capability,
                timestamp: now,
            },
        );
    }

    fn set_own_capability(&mut self, capability: Bandwidth, now: SimTime) {
        self.own_capability = capability;
        self.write_own(now);
    }

    fn merge(&mut self, received: &[CapabilitySample]) -> usize {
        let mut updated = 0;
        for sample in received {
            let fresher = self
                .samples
                .get(&sample.node)
                .is_none_or(|held| sample.timestamp > held.timestamp);
            if sample.node != self.own && fresher {
                self.samples.insert(sample.node, *sample);
                updated += 1;
            }
        }
        updated
    }

    fn forget(&mut self, node: NodeId) {
        if node != self.own {
            self.samples.remove(&node);
        }
    }

    fn freshest_samples(&mut self, n: usize, now: SimTime) -> Vec<CapabilitySample> {
        self.write_own(now);
        let mut all: Vec<CapabilitySample> = self.samples.values().copied().collect();
        all.sort_by(|a, b| b.timestamp.cmp(&a.timestamp).then(a.node.cmp(&b.node)));
        all.truncate(n);
        all
    }

    fn estimated_average(&self) -> Bandwidth {
        let sum: u64 = self.samples.values().map(|s| s.capability.as_bps()).sum();
        Bandwidth::from_bps(sum / self.samples.len() as u64)
    }
}

/// The random inputs of one run. Time mostly advances, as in the protocol,
/// so the cache lives long enough to be promoted into and served from; one
/// draw in four goes back in time instead.
struct Inputs {
    rng: SmallRng,
    clock_secs: u64,
    /// Whether one node id in eight is drawn below `FAR_NODES`, not `NODES`.
    far_ids: bool,
}

impl Inputs {
    fn now(&mut self) -> SimTime {
        if self.rng.gen_range(0u32..4) == 0 {
            return SimTime::from_secs(self.rng.gen_range(0..=self.clock_secs));
        }
        self.clock_secs += self.rng.gen_range(0..2);
        SimTime::from_secs(self.clock_secs)
    }

    fn node(&mut self) -> NodeId {
        let range = match self.far_ids && self.rng.gen_range(0u32..8) == 0 {
            true => FAR_NODES,
            false => NODES,
        };
        NodeId::new(self.rng.gen_range(0..range))
    }

    fn capability(&mut self) -> Bandwidth {
        Bandwidth::from_kbps(self.rng.gen_range(0..4_000))
    }

    /// A sample taken within a few seconds of the clock, either side: it
    /// contends for the payload and often ties with what is held.
    fn sample(&mut self) -> CapabilitySample {
        let newest = self.clock_secs + 1;
        CapabilitySample {
            node: self.node(),
            capability: self.capability(),
            timestamp: SimTime::from_secs(self.rng.gen_range(newest.saturating_sub(4)..=newest)),
        }
    }

    /// Payload sizes: the paper's 10 mostly, so the cache survives between
    /// payloads, and now and then empty, tiny, or larger than the table.
    fn payload_size(&mut self) -> usize {
        match self.rng.gen_range(0u32..10) {
            0 => 0,
            1 => self.rng.gen_range(1..4),
            2 => NODES as usize + 5,
            _ => 10,
        }
    }
}

/// One differential run: `ops` random operations derived from `seed`.
fn drive(seed: u64, ops: usize, far_ids: bool) {
    let mut inputs = Inputs {
        rng: SmallRng::seed_from_u64(seed),
        clock_secs: 0,
        far_ids,
    };
    let (own, capability) = (inputs.node(), inputs.capability());
    let mut aggregator = CapabilityAggregator::new(own, capability);
    let mut model = Model::new(own, capability);
    assert_eq!(aggregator.heap_bytes(), 0, "fresh aggregator");
    // The highest foreign id merged so far: what the table may span.
    let mut highest_heard: Option<usize> = None;
    let mut payload_taken = false;
    for step in 0..ops {
        let at = format!("step {step}");
        match inputs.rng.gen_range(0u32..20) {
            0..=9 => {
                let received: Vec<CapabilitySample> = (0..inputs.rng.gen_range(0..12))
                    .map(|_| inputs.sample())
                    .collect();
                let heard = received.iter().filter(|s| s.node != own);
                highest_heard = highest_heard.max(heard.map(|s| s.node.index()).max());
                assert_eq!(
                    aggregator.merge(&received),
                    model.merge(&received),
                    "merge count, {at}"
                );
            }
            10..=14 => {
                let (n, now) = (inputs.payload_size(), inputs.now());
                payload_taken = true;
                assert_eq!(
                    aggregator.freshest_samples(n, now),
                    model.freshest_samples(n, now),
                    "payload of {n} at {now:?}, {at}"
                );
            }
            15 | 16 => {
                // One forget in four is of an id nobody can have heard of.
                let node = match inputs.rng.gen_range(0u32..4) {
                    0 => NodeId::new(FAR_NODES + inputs.rng.gen_range(0..100)),
                    _ => inputs.node(),
                };
                aggregator.forget(node);
                model.forget(node);
            }
            17 | 18 => {
                // Half of the updates land on the instant of the held own
                // sample: same rank, new capability.
                let now = match inputs.rng.gen() {
                    true => model.samples[&own].timestamp,
                    false => inputs.now(),
                };
                let capability = inputs.capability();
                aggregator.set_own_capability(capability, now);
                model.set_own_capability(capability, now);
            }
            _ => aggregator = aggregator.clone(),
        }
        assert_eq!(
            aggregator.estimated_average(),
            model.estimated_average(),
            "average, {at}"
        );
        assert_eq!(
            aggregator.known_nodes(),
            model.samples.len(),
            "known nodes, {at}"
        );
        // The table spans the ids heard, never the owner's; nothing is
        // allocated before the first foreign sample or payload.
        let table_bytes = highest_heard.map_or(0, |highest| SLOT_BYTES * (highest + 1));
        let cache_bytes = if payload_taken { CACHE_BYTES } else { 0 };
        assert!(
            aggregator.heap_bytes() <= table_bytes + cache_bytes,
            "{} heap bytes with highest heard {highest_heard:?}, {at}",
            aggregator.heap_bytes()
        );
        // The payload, taken from clones so that checking it does not itself
        // refresh the own sample or rebuild the cache.
        let (n, now) = (inputs.payload_size(), inputs.now());
        assert_eq!(
            aggregator.clone().freshest_samples(n, now),
            model.clone().freshest_samples(n, now),
            "payload of {n} at {now:?} after the step, {at}"
        );
    }
}

/// An owner with a high id keeps its sample out of the table: neither its own
/// writes nor a relayed sample carrying its id allocate anything.
#[test]
fn the_owners_sample_never_touches_the_table() {
    let own = NodeId::new(FAR_NODES - 1);
    let mut aggregator = CapabilityAggregator::new(own, Bandwidth::from_kbps(512));
    let relayed = CapabilitySample {
        node: own,
        capability: Bandwidth::from_mbps(9),
        timestamp: SimTime::from_secs(50),
    };
    assert_eq!(aggregator.merge(&[relayed]), 0);
    aggregator.set_own_capability(Bandwidth::from_kbps(768), SimTime::from_secs(1));
    aggregator.forget(own);
    aggregator.forget(NodeId::new(3));
    assert_eq!(aggregator.heap_bytes(), 0);
    assert_eq!(aggregator.known_nodes(), 1);
    assert_eq!(aggregator.estimated_average(), Bandwidth::from_kbps(768));
    // The first foreign sample sizes the table by its id, not the owner's.
    let heard = CapabilitySample {
        node: NodeId::new(3),
        ..relayed
    };
    assert_eq!(aggregator.merge(&[heard]), 1);
    assert_eq!(aggregator.heap_bytes(), 4 * SLOT_BYTES);
    assert_eq!(aggregator.known_nodes(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached aggregator and the naive model agree after every step.
    #[test]
    fn aggregator_matches_naive_model(seed in 0u64..1_000_000) {
        drive(seed, 600, false);
    }
}

proptest! {
    // Every step clones and scans a table of thousands of slots.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same over ids in the thousands: the table grows as it hears them.
    #[test]
    fn aggregator_matches_naive_model_as_its_table_grows(seed in 0u64..1_000_000) {
        drive(seed, 600, true);
    }
}
