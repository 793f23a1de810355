//! Outside-in tracing: a `Protocol` wrapper that times every gossip callback
//! by kind, and an in-memory span store written out when the run ends.
//!
//! Known limit: `Context::send` transmits inline, so a callback's time
//! includes `heap-simnet`'s upload-queue, loss, latency and queue-push work
//! for every message it sends. Splitting that needs spans inside the
//! program, which is a later change.

use heap_gossip::node::{TAG_AGGREGATION, TAG_GOSSIP, TAG_SOURCE};
use heap_gossip::{GossipMessage, GossipNode, RetransmitTracker};
use heap_simnet::prelude::*;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// What a timed callback was doing, by message variant or timer tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OnPropose,
    OnRequest,
    OnServe,
    OnAggregation,
    /// Shuffle messages (partial membership; unused by the workloads).
    OnOtherMessage,
    TimerGossip,
    TimerAggregation,
    TimerSource,
    TimerRetransmit,
    /// Shuffle and join timers (unused by the workloads).
    TimerOther,
    /// `on_start` (runs inside `SimulatorBuilder::build`).
    Start,
}

impl Kind {
    pub const ALL: [Kind; 11] = [
        Kind::OnPropose,
        Kind::OnRequest,
        Kind::OnServe,
        Kind::OnAggregation,
        Kind::OnOtherMessage,
        Kind::TimerGossip,
        Kind::TimerAggregation,
        Kind::TimerSource,
        Kind::TimerRetransmit,
        Kind::TimerOther,
        Kind::Start,
    ];

    /// The span and metric stem of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OnPropose => "gossip.on_propose",
            Kind::OnRequest => "gossip.on_request",
            Kind::OnServe => "gossip.on_serve",
            Kind::OnAggregation => "gossip.on_aggregation",
            Kind::OnOtherMessage => "gossip.on_other_message",
            Kind::TimerGossip => "gossip.timer_gossip",
            Kind::TimerAggregation => "gossip.timer_aggregation",
            Kind::TimerSource => "gossip.timer_source",
            Kind::TimerRetransmit => "gossip.timer_retransmit",
            Kind::TimerOther => "gossip.timer_other",
            Kind::Start => "gossip.on_start",
        }
    }

    pub fn of_message(msg: &GossipMessage) -> Kind {
        match msg {
            GossipMessage::Propose { .. } => Kind::OnPropose,
            GossipMessage::Request { .. } => Kind::OnRequest,
            GossipMessage::Serve { .. } => Kind::OnServe,
            GossipMessage::Aggregation { .. } => Kind::OnAggregation,
            GossipMessage::Shuffle { .. } => Kind::OnOtherMessage,
        }
    }

    pub fn of_timer(tag: u64) -> Kind {
        match tag {
            TAG_GOSSIP => Kind::TimerGossip,
            TAG_AGGREGATION => Kind::TimerAggregation,
            TAG_SOURCE => Kind::TimerSource,
            t if RetransmitTracker::is_retransmit_tag(t) => Kind::TimerRetransmit,
            _ => Kind::TimerOther,
        }
    }
}

/// Busy nanoseconds and call count of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotal {
    pub ns: u64,
    pub n: u64,
}

/// Callback totals per kind, indexed by `Kind as usize`.
pub type KindTable = [KindTotal; Kind::ALL.len()];

thread_local! {
    // One table for all nodes of the (single-threaded) simulation: callbacks
    // are aggregated per slice and kind, never one span each.
    static CALLBACKS: RefCell<KindTable> = const { RefCell::new([KindTotal { ns: 0, n: 0 }; Kind::ALL.len()]) };
}

#[inline]
fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    CALLBACKS.with(|c| {
        let slot = &mut c.borrow_mut()[kind as usize];
        slot.ns += ns;
        slot.n += 1;
    });
    out
}

/// Returns the callback totals accumulated since the last call and clears
/// them.
pub fn take_callbacks() -> KindTable {
    CALLBACKS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// A gossip node whose callbacks are timed by kind.
pub struct Traced(pub GossipNode);

impl Protocol for Traced {
    type Message = GossipMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        timed(Kind::Start, || self.0.on_start(ctx))
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, GossipMessage>,
        from: NodeId,
        msg: GossipMessage,
    ) {
        timed(Kind::of_message(&msg), || self.0.on_message(ctx, from, msg))
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMessage>, timer: TimerId, tag: u64) {
        timed(Kind::of_timer(tag), || self.0.on_timer(ctx, timer, tag))
    }

    fn on_crash(&mut self, now: SimTime) {
        self.0.on_crash(now)
    }
}

/// Access to the gossip node behind a plain or traced simulator.
pub trait AsGossip {
    fn gossip(&self) -> &GossipNode;
}

impl AsGossip for GossipNode {
    fn gossip(&self) -> &GossipNode {
        self
    }
}

impl AsGossip for Traced {
    fn gossip(&self) -> &GossipNode {
        &self.0
    }
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One span: a named interval with the span that caused it. An *aggregate*
/// span stands for `count` short calls inside its parent: it starts at the
/// parent's start and lasts their summed busy time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Slice number for per-slice spans.
    pub index: Option<u32>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one rep, kept in memory until [`Tracer::to_json`].
pub struct Tracer {
    origin: Instant,
    /// Shared by every span of the rep.
    pub trace_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(trace_id: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        index: Option<u32>,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            parent,
            start_ns: now,
            end_ns: now,
            count: 1,
            aggregate: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `count` calls totalling `busy_ns` inside `parent`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: SpanId,
        busy_ns: u64,
        count: u64,
    ) -> SpanId {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            index: None,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + busy_ns,
            count,
            aggregate: true,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover. Children
    /// are sequential (or aggregates of sequential calls), so their covered
    /// part is the sum of their durations; a child sum beyond the parent
    /// (clock granularity) clamps to zero.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Summed self time of every span named `name`.
    pub fn self_ns_by_name(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// The trace as a JSON document; `header` is spliced in verbatim as
    /// leading object members (`"key": value, ...`).
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        let _ = write!(
            out,
            "{{{header}, \"trace_id\": {}, \"spans\": [",
            self.trace_id
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"index\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"count\": {}, \"aggregate\": {}}}",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.name,
                span.index.map_or("null".to_string(), |i| i.to_string()),
                span.start_ns,
                span.end_ns,
                self.self_ns(id),
                span.count,
                span.aggregate,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_gossip::node::{TAG_JOIN, TAG_SHUFFLE};
    use heap_gossip::GossipConfig;

    #[test]
    fn messages_classify_by_variant() {
        let config = GossipConfig::paper();
        let cases = [
            (GossipMessage::propose(vec![], &config), Kind::OnPropose),
            (GossipMessage::request(vec![], &config), Kind::OnRequest),
            (GossipMessage::serve(vec![], &config), Kind::OnServe),
            (
                GossipMessage::aggregation(vec![], &config),
                Kind::OnAggregation,
            ),
            (
                GossipMessage::shuffle(vec![], false, &config),
                Kind::OnOtherMessage,
            ),
        ];
        for (msg, kind) in cases {
            assert_eq!(Kind::of_message(&msg), kind, "{}", msg.kind());
        }
    }

    #[test]
    fn timers_classify_by_tag() {
        assert_eq!(Kind::of_timer(TAG_GOSSIP), Kind::TimerGossip);
        assert_eq!(Kind::of_timer(TAG_AGGREGATION), Kind::TimerAggregation);
        assert_eq!(Kind::of_timer(TAG_SOURCE), Kind::TimerSource);
        assert_eq!(Kind::of_timer(TAG_SHUFFLE), Kind::TimerOther);
        assert_eq!(Kind::of_timer(TAG_JOIN), Kind::TimerOther);
        let mut tracker = RetransmitTracker::new();
        let tag = tracker.register(NodeId::new(3), vec![], 2);
        assert_eq!(Kind::of_timer(tag), Kind::TimerRetransmit);
    }

    #[test]
    fn kind_table_is_indexed_by_discriminant() {
        for (i, kind) in Kind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn timed_accumulates_per_kind_and_take_clears() {
        let _ = take_callbacks();
        timed(Kind::OnServe, || std::hint::black_box(1 + 1));
        timed(Kind::OnServe, || std::hint::black_box(2 + 2));
        timed(Kind::TimerGossip, || ());
        let table = take_callbacks();
        assert_eq!(table[Kind::OnServe as usize].n, 2);
        assert_eq!(table[Kind::TimerGossip as usize].n, 1);
        assert_eq!(table[Kind::OnPropose as usize], KindTotal::default());
        assert_eq!(take_callbacks(), KindTable::default());
    }

    /// A tracer with hand-set times, so the arithmetic is exact.
    fn fixed(spans: &[(&'static str, Option<SpanId>, u64, u64, bool)]) -> Tracer {
        let mut t = Tracer::new(1);
        for &(name, parent, start_ns, end_ns, aggregate) in spans {
            t.spans.push(Span {
                name,
                index: None,
                parent,
                start_ns,
                end_ns,
                count: 1,
                aggregate,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixed(&[
            ("run", None, 0, 1000, false),
            ("slice", Some(0), 0, 600, false),
            ("slice", Some(0), 600, 1000, false),
            ("cb", Some(1), 0, 450, true),
            ("cb", Some(2), 600, 700, true),
        ]);
        assert_eq!(t.self_ns(0), 0, "slices tile the run");
        assert_eq!(t.self_ns(1), 150);
        assert_eq!(t.self_ns(2), 300);
        assert_eq!(t.self_ns(3), 450, "leaves keep their whole duration");
        assert_eq!(t.self_ns_by_name("slice"), 450);
        // Grandchildren do not count twice: run's children are the slices only.
        let accounted: u64 = (0..t.spans().len()).map(|i| t.self_ns(i)).sum();
        assert_eq!(
            accounted,
            t.spans()[0].duration_ns(),
            "self times partition the root"
        );
    }

    #[test]
    fn children_overrunning_the_parent_clamp_to_zero() {
        let t = fixed(&[
            ("slice", None, 0, 100, false),
            ("cb", Some(0), 0, 130, true),
        ]);
        assert_eq!(t.self_ns(0), 0);
    }

    #[test]
    fn aggregate_spans_start_with_their_parent() {
        let mut t = Tracer::new(7);
        let root = t.open("run", None, None);
        t.aggregate("gossip.on_serve", root, 250, 9);
        t.close(root);
        let agg = &t.spans()[1];
        assert_eq!(agg.parent, Some(root));
        assert_eq!(agg.start_ns, t.spans()[root].start_ns);
        assert_eq!(
            (agg.duration_ns(), agg.count, agg.aggregate),
            (250, 9, true)
        );
        let json = t.to_json("\"workload\": \"x\"");
        assert!(json.starts_with("{\"workload\": \"x\", \"trace_id\": 7, \"spans\": ["));
        assert!(json.contains("\"name\": \"gossip.on_serve\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
