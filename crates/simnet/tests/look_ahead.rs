//! The engine's look-ahead contract: `Protocol::prefetch` names the delivery
//! that is dispatched exactly `LOOK_AHEAD` callbacks later, never the same
//! message twice, and reaches most deliveries of a dense run.
//!
//! A spy flood logs every hint and every callback in one shared log. Its
//! latencies and timer period exceed one calendar bucket, so no callback
//! pushes into the bucket being drained (no intrusions) and every callback
//! between a hint and its delivery is a batch dispatch.

use heap_simnet::prelude::*;
use heap_simnet::sim::LOOK_AHEAD;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

const NODES: u32 = 1000;
/// Each node's timer period; every tick starts a message of `HOPS` hops.
const PERIOD: SimDuration = SimDuration::from_millis(10);
const HOPS: u32 = 2;

#[derive(Clone, Debug)]
struct Msg {
    /// Unique per message: the sender's id above its send count.
    id: u64,
    hops: u32,
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    /// `prefetch` on `node` for message `id`.
    Hint { node: NodeId, id: u64 },
    /// `on_message` on `node` with message `id`.
    Message { node: NodeId, id: u64 },
    /// `on_timer` on `node`.
    Timer { node: NodeId },
}

struct Spy {
    id: NodeId,
    sent: u64,
    log: Rc<RefCell<Vec<Entry>>>,
}

impl Spy {
    fn send(&mut self, ctx: &mut Context<'_, Msg>, hops: u32) {
        let target = NodeId::new(ctx.rng().gen_range(0..NODES));
        let id = (u64::from(self.id.as_u32()) << 32) | self.sent;
        self.sent += 1;
        ctx.send(target, Msg { id, hops });
    }
}

impl Protocol for Spy {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let phase = ctx.rng().gen_range(0..PERIOD.as_micros());
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        self.log.borrow_mut().push(Entry::Message {
            node: self.id,
            id: msg.id,
        });
        if msg.hops > 0 {
            self.send(ctx, msg.hops - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, _tag: u64) {
        self.log.borrow_mut().push(Entry::Timer { node: self.id });
        self.send(ctx, HOPS);
        ctx.set_timer(PERIOD, 0);
    }

    fn prefetch(&self, msg: &Msg) {
        self.log.borrow_mut().push(Entry::Hint {
            node: self.id,
            id: msg.id,
        });
    }
}

/// The log of a 200 ms spy flood on the engine.
fn spy_log() -> Vec<Entry> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = SimulatorBuilder::new(NODES as usize, 42)
        .latency(LatencyModel::uniform(
            SimDuration::from_millis(2),
            SimDuration::from_millis(30),
        ))
        .build(|id| Spy {
            id,
            sent: 0,
            log: Rc::clone(&log),
        });
    sim.run_until(SimTime::from_millis(200));
    drop(sim);
    Rc::try_unwrap(log)
        .expect("the simulator is gone")
        .into_inner()
}

#[test]
fn each_hint_names_the_delivery_look_ahead_callbacks_later() {
    let log = spy_log();
    let callbacks: Vec<Entry> = log
        .iter()
        .filter(|entry| !matches!(entry, Entry::Hint { .. }))
        .copied()
        .collect();
    let deliveries = callbacks
        .iter()
        .filter(|entry| matches!(entry, Entry::Message { .. }))
        .count();
    assert!(deliveries > 10_000, "a dense run: {deliveries} deliveries");

    let mut done = 0;
    let mut hinted = HashSet::new();
    for &entry in &log {
        let Entry::Hint { node, id } = entry else {
            done += 1;
            continue;
        };
        // `done` callbacks have run: the next is callback `done`, and the
        // hinted one comes LOOK_AHEAD callbacks after it.
        assert_eq!(
            callbacks.get(done + LOOK_AHEAD),
            Some(&Entry::Message { node, id }),
            "the hint after {done} callbacks"
        );
        assert!(hinted.insert(id), "message {id:#x} hinted twice");
    }
    assert!(
        2 * hinted.len() > deliveries,
        "{} of {deliveries} deliveries hinted",
        hinted.len()
    );
}
