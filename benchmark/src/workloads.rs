//! The five workloads, their end-to-end operation and their output checks.

use crate::alloc;
use crate::flood;
use heap_streaming::metrics::COMPACT_VIEW_LAG;
use heap_workloads::experiments::scale_campaign;
use heap_workloads::{
    run_scenario, BandwidthDistribution, ExperimentResult, NetTotals, ProtocolChoice, ResultDetail,
    Scale, Scenario,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One benchmark workload: its name, why it was chosen, and how many timed
/// reps the full set gives it.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub floor: Floor,
    /// Timed reps in a full-set run (the three short workloads get five, the
    /// two long ones three).
    pub full_set_reps: usize,
}

/// The sanity floor an operation of a workload must clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floor {
    /// At least 95 % of surviving receivers reach 99 % delivery.
    Delivery,
    /// Standard gossip collapses: the sender queues drop, and HEAP at the
    /// same seed and size keeps a larger jitter-free share at 10 s lag.
    Collapse,
    /// The event count equals the flood's closed formula.
    PinnedEvents,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "paper-heap",
        floor: Floor::Delivery,
        why: "ref-691, HEAP f=7, 271 nodes x 90 windows, full detail: the paper's headline run; gossip callbacks are ~92 % of it and HEAP's aggregation timer ~half",
        full_set_reps: 5,
    },
    Spec {
        name: "paper-std",
        floor: Floor::Collapse,
        why: "same with Standard f=7: congestion collapse, 1.2 M sender-queue drops and 2.6 M retransmit timers, idle aggregation; the largest bytes/node",
        full_set_reps: 5,
    },
    Spec {
        name: "mid-heap",
        floor: Floor::Delivery,
        why: "ref-691, HEAP f=7, 1000 nodes x 6 windows, compact: per-node state grows with n, so O(known nodes)-per-round work dominates (~93 % in one callback)",
        full_set_reps: 3,
    },
    Spec {
        name: "wide-std",
        floor: Floor::Delivery,
        why: "scale-campaign shape at 30000 nodes x 1 window (Standard f=7, unconstrained, compact): mostly idle ticks, so queue, timer table and standing bytes do the work",
        full_set_reps: 3,
    },
    Spec {
        name: "flood-10k",
        floor: Floor::PinnedEvents,
        why: "the benchmark's own stride-walk flood on 10^4 nodes: heap-simnet alone, every other layer bypassed; gossip, streaming and workloads changes must not move it",
        full_set_reps: 5,
    },
];

/// What a workload runs. A handful exist per invocation, so the size gap
/// between the variants costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
pub enum Shape {
    Gossip(Scenario),
    Flood { n: usize, seed: u64 },
}

/// Builds the named workload for `seed`; `smoke` shrinks it to 40–300 nodes
/// on the same code paths.
pub fn shape(name: &str, seed: u64, smoke: bool) -> Shape {
    let paper = |protocol| {
        let scale = if smoke {
            // The smallest round size at which Standard gossip still drops
            // at the sender queues, which `paper-std`'s floor requires.
            // About the smallest size at which Standard gossip still drops at
            // the sender queues and trails HEAP's jitter-free share on every
            // seed tried, which `paper-std`'s floor requires.
            Scale::paper().with_nodes(200).with_windows(20)
        } else {
            Scale::paper()
        };
        Scenario::new(
            name,
            scale.with_seed(seed),
            BandwidthDistribution::ref_691(),
            protocol,
        )
    };
    match name {
        "paper-heap" => Shape::Gossip(paper(ProtocolChoice::Heap { fanout: 7.0 })),
        "paper-std" => Shape::Gossip(paper(ProtocolChoice::Standard { fanout: 7.0 })),
        "mid-heap" => {
            let (nodes, windows) = if smoke { (300, 2) } else { (1000, 6) };
            Shape::Gossip(
                Scenario::new(
                    name,
                    Scale::paper()
                        .with_nodes(nodes)
                        .with_windows(windows)
                        .with_seed(seed),
                    BandwidthDistribution::ref_691(),
                    ProtocolChoice::Heap { fanout: 7.0 },
                )
                .with_detail(ResultDetail::Compact),
            )
        }
        "wide-std" => Shape::Gossip(scale_campaign::scenario(
            if smoke { 300 } else { 30_000 },
            1,
            seed,
        )),
        "flood-10k" => Shape::Flood {
            n: if smoke { 100 } else { 10_000 },
            seed,
        },
        other => panic!("unknown workload {other}"),
    }
}

impl Shape {
    pub fn n_nodes(&self) -> usize {
        match self {
            Shape::Gossip(scenario) => scenario.scale.n_nodes,
            Shape::Flood { n, .. } => *n,
        }
    }
}

/// The simulated statistics two runs of one workload must share exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub net: NetTotals,
    /// Per-receiver delivery ratios (empty for the flood).
    pub delivery: Vec<f64>,
    /// Events processed; `run_scenario` does not report them.
    pub events: Option<u64>,
}

impl Signature {
    /// Equality on what both sides know: a side without an event count
    /// (a `run_scenario` call) matches any count.
    pub fn agrees_with(&self, other: &Signature) -> bool {
        self.net == other.net
            && self.delivery == other.delivery
            && match (self.events, other.events) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// The modelled outcome rows of a gossip run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// Mean delivery ratio over surviving receivers, in percent.
    pub delivery_pct: f64,
    /// Mean share of jitter-free windows at 10 s lag, in percent.
    pub jitter_free_pct_lag10: f64,
    /// Median over receivers of the lag to 99 % delivery, in seconds; −1
    /// when fewer than half of them ever get there.
    pub lag99_p50_s: f64,
    /// Share of surviving receivers with at least 99 % delivery, in percent.
    pub receivers_at_99_pct: f64,
}

impl Modelled {
    pub fn of(result: &ExperimentResult) -> Self {
        let survivors: Vec<_> = result.survivors().collect();
        let n = survivors.len() as f64;
        let mean = |f: &dyn Fn(&heap_workloads::NodeResult) -> f64| {
            survivors.iter().map(|s| f(s)).sum::<f64>() / n
        };
        let mut lags: Vec<f64> = survivors
            .iter()
            .filter_map(|s| s.metrics.lag_for_full_delivery(0.99))
            .map(|lag| lag.as_secs_f64())
            .collect();
        lags.sort_by(f64::total_cmp);
        // The median over all receivers, those that never reach 99 % counting
        // as infinitely late.
        let lag99_p50_s = lags.get(survivors.len() / 2).copied().unwrap_or(-1.0);
        Modelled {
            delivery_pct: 100.0 * mean(&|s| s.metrics.delivery_ratio()),
            jitter_free_pct_lag10: 100.0
                * mean(&|s| s.metrics.jitter_free_fraction(COMPACT_VIEW_LAG)),
            lag99_p50_s,
            receivers_at_99_pct: 100.0
                * mean(&|s| f64::from(u8::from(s.metrics.delivery_ratio() >= 0.99))),
        }
    }
}

/// What one end-to-end operation produced.
pub struct Outcome {
    pub signature: Signature,
    /// `None` for the flood.
    pub result: Option<ExperimentResult>,
    pub modelled: Option<Modelled>,
    /// Nodes × simulated seconds covered.
    pub node_seconds: f64,
}

/// The measurements of one end-to-end operation.
pub struct Rep {
    pub wall_s: f64,
    pub peak_bytes: u64,
    /// Bytes still live when the operation returned (the result it holds).
    pub result_bytes: u64,
    /// `Err` carries the panic message.
    pub outcome: Result<Outcome, String>,
}

/// Runs one end-to-end operation of the workload — one `run_scenario` call,
/// or for the flood build plus `run_to_completion` — inside an allocator
/// window.
pub fn run_rep(shape: &Shape) -> Rep {
    let window = alloc::Window::open();
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match shape {
        Shape::Gossip(scenario) => {
            let result = run_scenario(scenario);
            let measured = (
                started.elapsed().as_secs_f64(),
                window.peak_bytes(),
                window.live_bytes(),
            );
            (measured, gossip_outcome(scenario, result))
        }
        Shape::Flood { n, seed } => {
            let mut sim = flood::build(*n, *seed);
            let events = sim.run_to_completion().map_err(|v| format!("{v:?}"));
            // The flood returns no result: nothing outlives the simulator.
            let measured = (started.elapsed().as_secs_f64(), window.peak_bytes(), 0);
            let outcome = events.map(|events| Outcome {
                signature: Signature {
                    net: crate::driver::net_totals(&sim),
                    delivery: Vec::new(),
                    events: Some(events),
                },
                result: None,
                modelled: None,
                node_seconds: *n as f64 * sim.now().as_secs_f64(),
            });
            (measured, outcome)
        }
    }));
    match outcome {
        Ok(((wall_s, peak_bytes, result_bytes), outcome)) => Rep {
            wall_s,
            peak_bytes,
            result_bytes,
            outcome,
        },
        Err(panic) => Rep {
            wall_s: started.elapsed().as_secs_f64(),
            peak_bytes: window.peak_bytes(),
            result_bytes: window.live_bytes(),
            outcome: Err(panic_message(panic)),
        },
    }
}

fn gossip_outcome(scenario: &Scenario, result: ExperimentResult) -> Result<Outcome, String> {
    let simulated = (result.schedule.start() + scenario.run_duration()).as_secs_f64();
    Ok(Outcome {
        signature: Signature {
            net: result.net,
            delivery: result
                .nodes
                .iter()
                .map(|n| n.metrics.delivery_ratio())
                .collect(),
            events: None,
        },
        modelled: Some(Modelled::of(&result)),
        node_seconds: scenario.scale.n_nodes as f64 * simulated,
        result: Some(result),
    })
}

pub fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// The workload's sanity floor; `Err` says which part broke. `heap_pair` is
/// the `paper-heap` outcome at the same seed and size, which `paper-std`
/// compares against when the invocation ran both.
pub fn check_floor(
    floor: Floor,
    shape: &Shape,
    outcome: &Outcome,
    heap_pair: Option<&Modelled>,
) -> Result<(), String> {
    match floor {
        Floor::Delivery => {
            let share = outcome
                .modelled
                .expect("gossip outcome")
                .receivers_at_99_pct;
            if share < 95.0 {
                return Err(format!(
                    "only {share:.1} % of receivers reach 99 % delivery (floor 95 %)"
                ));
            }
        }
        Floor::Collapse => {
            if outcome.signature.net.queue_drops == 0 {
                return Err("no sender-queue drops: the congestion collapse is gone".into());
            }
            if let Some(heap) = heap_pair {
                let std = outcome
                    .modelled
                    .expect("gossip outcome")
                    .jitter_free_pct_lag10;
                if heap.jitter_free_pct_lag10 <= std {
                    return Err(format!(
                        "HEAP's jitter-free share at 10 s lag ({:.1} %) does not exceed Standard's ({std:.1} %)",
                        heap.jitter_free_pct_lag10
                    ));
                }
            }
        }
        Floor::PinnedEvents => {
            let expected = flood::expected_events(shape.n_nodes());
            if outcome.signature.events != Some(expected) {
                return Err(format!(
                    "processed {:?} events, pinned {expected}",
                    outcome.signature.events
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_shapes_resolve() {
        for (i, spec) in SPECS.iter().enumerate() {
            assert!(SPECS[..i].iter().all(|s| s.name != spec.name));
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
            for smoke in [false, true] {
                let shape = shape(spec.name, 3, smoke);
                let n = shape.n_nodes();
                assert!(
                    if smoke {
                        (40..=300).contains(&n)
                    } else {
                        n >= 271
                    },
                    "{n}"
                );
            }
        }
    }

    #[test]
    fn signatures_compare_events_only_when_both_know_them() {
        let a = Signature {
            net: NetTotals::default(),
            delivery: vec![1.0, 0.5],
            events: None,
        };
        let mut b = a.clone();
        b.events = Some(9);
        assert!(a.agrees_with(&b));
        let mut c = b.clone();
        c.events = Some(10);
        assert!(!b.agrees_with(&c));
        c.events = Some(9);
        c.delivery[1] = 0.25;
        assert!(!b.agrees_with(&c));
    }

    #[test]
    fn a_panicking_operation_is_reported_not_propagated() {
        // `run_scenario` refuses a scale without a receiver.
        let Shape::Gossip(mut scenario) = shape("paper-heap", 1, true) else {
            unreachable!("paper-heap is a gossip workload");
        };
        scenario.scale = scenario.scale.with_nodes(1);
        let rep = run_rep(&Shape::Gossip(scenario));
        let message = rep.outcome.err().expect("the rep failed");
        assert!(
            message.contains("at least a source and one receiver"),
            "{message}"
        );
    }

    #[test]
    fn flood_floor_pins_the_event_count() {
        let shape = Shape::Flood { n: 100, seed: 4 };
        let rep = run_rep(&shape);
        let mut outcome = rep.outcome.expect("flood runs");
        assert!(check_floor(Floor::PinnedEvents, &shape, &outcome, None).is_ok());
        outcome.signature.events = outcome.signature.events.map(|e| e + 1);
        assert!(check_floor(Floor::PinnedEvents, &shape, &outcome, None).is_err());
    }
}
