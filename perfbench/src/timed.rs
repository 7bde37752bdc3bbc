//! Transparent timing wrappers at the program's public boundaries.
//!
//! [`Timed`] delegates every [`Protocol`] method to the node it wraps and
//! [`TimedScheduler`] every [`Scheduler`] method to its inner scheduler;
//! the only thing they add is a [`span`] around the forwarded call. A
//! wrapped run therefore executes the same events in the same order as a
//! bare one — same steps, same `Metrics`, same `state_digest` — which the
//! crate's tests pin.

use ard_core::node::ArdNode;
use ard_core::AsArdNode;
use ard_netsim::{Choice, Context, Footprint, NodeId, Protocol, Scheduler, SendToken, StateDigest};

use crate::span::{self, NODE_OTHER, NODE_WAKE, RELIABLE};

/// Which layer a [`Timed`] wrapper charges its spans to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The discovery protocol itself: handlers are split by message kind.
    Node,
    /// An envelope layer (the `Reliable` wrapper): every call is charged
    /// to [`RELIABLE`], minus the inner node spans it encloses.
    Reliable,
}

/// A delegating [`Protocol`] wrapper that times every handler call.
#[derive(Clone, Debug)]
pub struct Timed<P> {
    inner: P,
    role: Role,
}

impl<P> Timed<P> {
    /// Wraps `inner`, charging its spans to `role`.
    pub fn new(inner: P, role: Role) -> Self {
        Timed { inner, role }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn layer(&self, node_layer: usize) -> usize {
        match self.role {
            Role::Node => node_layer,
            Role::Reliable => RELIABLE,
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Message = P::Message;

    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>) {
        span::span(self.layer(NODE_WAKE), || self.inner.on_wake(ctx));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        use ard_netsim::Envelope;
        let layer = self.layer(span::node_kind_layer(msg.kind()));
        span::span(layer, || self.inner.on_message(from, msg, ctx));
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        span::span(self.layer(NODE_OTHER), || self.inner.on_tick(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        span::span(self.layer(NODE_OTHER), || self.inner.on_restart(ctx));
    }

    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        span::span(self.layer(NODE_OTHER), || self.inner.on_stale_restart(ctx));
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.inner.digest_state(d);
    }
}

impl<P: AsArdNode> AsArdNode for Timed<P> {
    fn ard(&self) -> &ArdNode {
        self.inner.ard()
    }
}

/// A delegating [`Scheduler`] wrapper that times the scheduling calls and
/// samples the pending-set size at every `choose`.
///
/// Every method is forwarded, including the explorer hooks
/// (`wants_footprints`, `note_footprint`, `wants_state_digest`,
/// `note_state_digest` and the terminal-digest pair): a wrapper that fell
/// back to the trait defaults would silently switch partial-order
/// reduction off.
#[derive(Debug)]
pub struct TimedScheduler<S> {
    inner: S,
    pending_max: usize,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            pending_max: 0,
        }
    }

    /// Largest pending-set size seen right after a `choose`, plus the
    /// chosen event.
    pub fn pending_max(&self) -> usize {
        self.pending_max
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn note_wake(&mut self, node: NodeId) {
        span::span(span::SCHED_WAKE, || self.inner.note_wake(node));
    }

    fn note_send(&mut self, token: SendToken) {
        span::span(span::SCHED_SEND, || self.inner.note_send(token));
    }

    fn note_tick(&mut self, node: NodeId) {
        span::span(span::SCHED_TICK, || self.inner.note_tick(node));
    }

    fn choose(&mut self) -> Option<Choice> {
        span::span(span::SCHED_CHOOSE, || {
            let choice = self.inner.choose();
            self.pending_max = self
                .pending_max
                .max(self.inner.pending() + usize::from(choice.is_some()));
            choice
        })
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }

    fn note_footprint(&mut self, choice: Choice, footprint: &Footprint) {
        span::span(span::SCHED_OTHER, || {
            self.inner.note_footprint(choice, footprint)
        });
    }

    fn wants_state_digest(&self) -> bool {
        self.inner.wants_state_digest()
    }

    fn note_state_digest(&mut self, digest: u64) {
        span::span(span::SCHED_OTHER, || self.inner.note_state_digest(digest));
    }

    fn wants_terminal_digest(&self) -> bool {
        self.inner.wants_terminal_digest()
    }

    fn note_terminal_digest(&mut self, digest: u64) {
        span::span(span::SCHED_OTHER, || {
            self.inner.note_terminal_digest(digest)
        });
    }
}
