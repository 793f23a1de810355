//! The engine-only workload: the benchmark's own copy of the stride-walk
//! flood, so `heap-simnet` runs with every other layer bypassed.
//!
//! Node 0 seeds [`CHAINS`] message chains per peer; every delivery forwards
//! the message one stride step around the node ring until its TTL expires.
//! Each node also ticks a 200 ms timer 50 times (each tick sends a
//! two-hop message) and keeps [`FAR_TIMERS`] standing 8–24 s timers that
//! re-arm twice each, the far-horizon population a calendar queue parks in
//! its outer wheel. Links are lossless and nothing is cancelled, so the
//! event count is a closed formula of `n` ([`expected_events`]) whatever the
//! seed; the seed only moves latencies and timer phases.

use heap_simnet::prelude::*;
use rand::Rng;

const CHAINS: u32 = 64;
const FAR_TIMERS: u32 = 64;
const FAR_REARMS: u32 = 2;
const TICKS: u32 = 50;
const TTL: u32 = 40;

pub struct Flood {
    n: u32,
    ticks_left: u32,
    far_budget: u32,
    /// Next forwarding target and the per-node stride that advances it:
    /// chains mix across the population without an RNG draw.
    target: u32,
    stride: u32,
}

#[derive(Clone, Debug)]
pub struct FloodMsg(u32);

impl WireSize for FloodMsg {
    fn wire_size(&self) -> usize {
        64
    }
}

impl Flood {
    fn next_target(&mut self) -> NodeId {
        let t = self.target;
        self.target += self.stride;
        if self.target >= self.n {
            self.target -= self.n;
        }
        NodeId::new(t)
    }

    /// A deterministic 8–24 s delay; advancing the stride walk spreads the
    /// standing population over the whole band instead of firing in lockstep.
    fn far_delay(&mut self) -> SimDuration {
        let step = u64::from(self.next_target().as_u32());
        SimDuration::from_millis(8_000 + (step * 37) % 16_000)
    }
}

impl Protocol for Flood {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        if ctx.node_id().index() == 0 {
            for _ in 0..CHAINS {
                for i in 1..self.n {
                    ctx.send(NodeId::new(i), FloodMsg(TTL));
                }
            }
        }
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..200_000u64));
        ctx.set_timer(phase, 0);
        for _ in 0..FAR_TIMERS {
            let delay = self.far_delay();
            ctx.set_timer(delay, 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FloodMsg>, _from: NodeId, msg: FloodMsg) {
        if msg.0 > 0 {
            let target = self.next_target();
            ctx.send(target, FloodMsg(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FloodMsg>, _timer: TimerId, tag: u64) {
        if tag == 1 {
            if self.far_budget > 0 {
                self.far_budget -= 1;
                let delay = self.far_delay();
                ctx.set_timer(delay, 1);
            }
        } else if self.ticks_left > 0 {
            self.ticks_left -= 1;
            let target = self.next_target();
            ctx.send(target, FloodMsg(1));
            ctx.set_timer(SimDuration::from_millis(200), 0);
        }
    }
}

/// Builds the flood on uniform 2–264 ms latency (a 2¹⁸ µs span keeps the
/// per-hop draw division-free and covers hundreds of calendar buckets) and
/// lossless links (loss would cut chains and unpin the event count).
pub fn build(n: usize, seed: u64) -> Simulator<Flood> {
    SimulatorBuilder::new(n, seed)
        .latency(LatencyModel::uniform(
            SimDuration::from_micros(2_000),
            SimDuration::from_micros(2_000 + ((1 << 18) - 1)),
        ))
        .loss(LossModel::none())
        .build(|id| Flood {
            n: n as u32,
            ticks_left: TICKS,
            far_budget: FAR_TIMERS * FAR_REARMS,
            target: id.as_u32(),
            stride: ((2 * id.as_u32() + 3) % n as u32).max(1),
        })
}

/// Events a complete `n`-node run processes: per chain `TTL + 1` deliveries;
/// per node `TICKS + 1` tick timers, two deliveries per tick, and
/// `FAR_TIMERS · (1 + FAR_REARMS)` far-timer firings.
pub fn expected_events(n: usize) -> u64 {
    let n = n as u64;
    let chains = u64::from(CHAINS) * (n - 1) * u64::from(TTL + 1);
    let per_node =
        u64::from(TICKS + 1) + 2 * u64::from(TICKS) + u64::from(FAR_TIMERS * (1 + FAR_REARMS));
    chains + n * per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_gives_the_count_pinned_in_bench_6_and_7() {
        assert_eq!(expected_events(10_000), 29_667_376);
    }

    #[test]
    fn a_small_run_processes_the_formula_count_for_any_seed() {
        for seed in [1, 2] {
            let mut sim = build(50, seed);
            let events = sim
                .run_to_completion()
                .expect("flat engine has no contract");
            assert_eq!(events, expected_events(50), "seed {seed}");
            assert_eq!(sim.pending_events(), 0);
        }
    }
}
