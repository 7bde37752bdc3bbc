//! Per-thread self-time accounting for the traced run.
//!
//! Every timed boundary (a protocol handler, a scheduler call, the run
//! span itself) calls [`enter`] before forwarding and [`exit`] after. The
//! tracker keeps a stack of open layers and one clock mark: each boundary
//! reads the clock once and charges the interval since the previous
//! boundary to the layer on top of the stack. A layer's accumulated time is
//! therefore its *self* time — its span minus the spans of the layers it
//! called into — and the self times of every layer opened inside a run
//! span add up to that span.
//!
//! Nothing here touches the program: the spans are opened by the
//! delegating wrappers in [`crate::timed`] and by the harness around its
//! calls into the public API.

use std::cell::RefCell;
use std::time::Instant;

/// Base of the stack: time spent outside every span (never reported).
pub const OUTSIDE: usize = 0;
/// The run span (`Runner::enqueue_wake_all` + `Runner::run`): its self
/// time is the engine's — knowledge absorption, metering, link queues.
pub const ENGINE: usize = 1;
/// `Scheduler::choose`.
pub const SCHED_CHOOSE: usize = 2;
/// `Scheduler::note_send`.
pub const SCHED_SEND: usize = 3;
/// `Scheduler::note_wake`.
pub const SCHED_WAKE: usize = 4;
/// `Scheduler::note_tick`.
pub const SCHED_TICK: usize = 5;
/// The explorer hooks: `note_footprint`, `note_state_digest`,
/// `note_terminal_digest`.
pub const SCHED_OTHER: usize = 6;
/// The `Reliable` envelope: the outer protocol wrapper's self time.
pub const RELIABLE: usize = 7;
/// `ArdNode::on_wake`.
pub const NODE_WAKE: usize = 8;
/// `ArdNode` ticks, restarts and any message kind not listed in
/// [`NODE_KINDS`].
pub const NODE_OTHER: usize = 9;
/// First of the per-message-kind `ArdNode::on_message` layers, in
/// [`NODE_KINDS`] order.
pub const NODE_KIND0: usize = 10;

/// The message kinds `ArdNode` meters (`Envelope::kind`), paired with the
/// metric-name spelling used in the report.
pub const NODE_KINDS: [(&str, &str); 11] = [
    ("query", "query"),
    ("query reply", "query_reply"),
    ("search", "search"),
    ("release", "release"),
    ("merge accept", "merge_accept"),
    ("merge fail", "merge_fail"),
    ("info", "info"),
    ("conquer", "conquer"),
    ("more/done", "more_done"),
    ("probe", "probe"),
    ("probe reply", "probe_reply"),
];

/// Number of layers.
pub const LAYERS: usize = NODE_KIND0 + NODE_KINDS.len();

/// The node layer a delivered message of `kind` is charged to.
pub fn node_kind_layer(kind: &str) -> usize {
    NODE_KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .map_or(NODE_OTHER, |i| NODE_KIND0 + i)
}

/// Accumulated self time and span count per layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Self nanoseconds per layer.
    pub self_ns: [u64; LAYERS],
    /// Spans opened per layer.
    pub calls: [u64; LAYERS],
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Self nanoseconds summed over `layers`.
    pub fn ns(&self, layers: impl IntoIterator<Item = usize>) -> u64 {
        layers.into_iter().map(|l| self.self_ns[l]).sum()
    }

    /// Spans summed over `layers`.
    pub fn count(&self, layers: impl IntoIterator<Item = usize>) -> u64 {
        layers.into_iter().map(|l| self.calls[l]).sum()
    }

    /// Every node layer (handlers of the discovery protocol).
    pub fn node_layers() -> std::ops::Range<usize> {
        NODE_WAKE..LAYERS
    }

    /// Every scheduler layer.
    pub fn sched_layers() -> std::ops::Range<usize> {
        SCHED_CHOOSE..RELIABLE
    }

    /// Every layer that can open inside a run span.
    pub fn inner_layers() -> std::ops::Range<usize> {
        ENGINE..LAYERS
    }
}

struct Tracker {
    mark: Instant,
    stack: Vec<usize>,
    totals: Totals,
}

impl Tracker {
    fn boundary(&mut self) -> Instant {
        let now = Instant::now();
        let top = *self.stack.last().expect("stack keeps its base");
        self.totals.self_ns[top] += now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
        now
    }
}

thread_local! {
    static TRACKER: RefCell<Tracker> = RefCell::new(Tracker {
        mark: Instant::now(),
        stack: vec![OUTSIDE],
        totals: Totals::default(),
    });
}

/// Opens a span of `layer` on this thread.
#[inline]
pub fn enter(layer: usize) {
    TRACKER.with(|t| {
        let mut t = t.borrow_mut();
        t.boundary();
        t.totals.calls[layer] += 1;
        t.stack.push(layer);
    });
}

/// Closes the innermost open span on this thread.
#[inline]
pub fn exit() {
    TRACKER.with(|t| {
        let mut t = t.borrow_mut();
        t.boundary();
        assert!(t.stack.len() > 1, "span exit without a matching enter");
        t.stack.pop();
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: usize, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let r = f();
    exit();
    r
}

/// Takes this thread's totals and resets them. Must be called with no span
/// open.
pub fn take() -> Totals {
    TRACKER.with(|t| {
        let mut t = t.borrow_mut();
        assert_eq!(t.stack.len(), 1, "take() inside an open span");
        t.mark = Instant::now();
        std::mem::take(&mut t.totals)
    })
}
