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
//! the node range, so merges and forgets aimed at it occur too. The run
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
        NodeId::new(self.rng.gen_range(0..NODES))
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

/// Prints the seed of a failing run, whichever assertion stopped it (the
/// aggregator's own debug oracle included).
struct ReportSeed(u64);

impl Drop for ReportSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: drive({}, ..)", self.0);
        }
    }
}

/// One differential run: `ops` random operations derived from `seed`.
fn drive(seed: u64, ops: usize) {
    let _report = ReportSeed(seed);
    let mut inputs = Inputs {
        rng: SmallRng::seed_from_u64(seed),
        clock_secs: 0,
    };
    let (own, capability) = (inputs.node(), inputs.capability());
    let mut aggregator = CapabilityAggregator::new(own, capability);
    let mut model = Model::new(own, capability);
    for step in 0..ops {
        let at = format!("step {step}");
        match inputs.rng.gen_range(0u32..20) {
            0..=9 => {
                let received: Vec<CapabilitySample> = (0..inputs.rng.gen_range(0..12))
                    .map(|_| inputs.sample())
                    .collect();
                assert_eq!(
                    aggregator.merge(&received),
                    model.merge(&received),
                    "merge count, {at}"
                );
            }
            10..=14 => {
                let (n, now) = (inputs.payload_size(), inputs.now());
                assert_eq!(
                    aggregator.freshest_samples(n, now),
                    model.freshest_samples(n, now),
                    "payload of {n} at {now:?}, {at}"
                );
            }
            15 | 16 => {
                let node = inputs.node();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached aggregator and the naive model agree after every step.
    #[test]
    fn aggregator_matches_naive_model(seed in 0u64..1_000_000) {
        drive(seed, 600);
    }
}
