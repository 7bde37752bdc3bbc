use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::envelope::Envelope;
use crate::scheduler::{Choice, Footprint, Scheduler, SendToken, StateDigest};
use crate::table::{Knowledge, NodeTable};
use crate::trace::{Trace, TraceEvent};
use crate::{Context, Metrics, NodeId};

/// Multiply-mix hasher for the link-slot map.
///
/// Keys are two dense node indices packed into one `u64`, hashed on every
/// send and delivery; SipHash's DoS resistance buys nothing for
/// deterministic simulation state, so a two-instruction mix is used
/// instead.
#[derive(Clone, Copy, Default)]
pub(crate) struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let mut x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        self.0 = x;
    }
}


/// Packs a directed link into the slot map's key.
pub(crate) fn link_key(src: NodeId, dst: NodeId) -> u64 {
    ((src.index() as u64) << 32) | dst.index() as u64
}

/// Compressed-sparse-row adjacency over the *initial* knowledge graph
/// `E₀ ∪ reverse(E₀)`, with a lazily interned link-slot per entry.
///
/// Most of a run's traffic flows over links both ends knew from the start,
/// so resolving `(src, dst)` to its queue slot is a binary search in a
/// short sorted row instead of a hash probe. Links learned at runtime (and
/// links of dynamically added nodes) miss the CSR and fall back to the
/// `link_slots` hash map.
#[derive(Clone, Default)]
struct Csr {
    /// Row boundaries: node `i`'s neighbors live in
    /// `targets[offsets[i]..offsets[i + 1]]`. Empty for networks built
    /// without up-front topology.
    offsets: Vec<u32>,
    /// Sorted, deduplicated neighbor indices per row.
    targets: Vec<u32>,
    /// Link slot per `targets` entry; `u32::MAX` until the first send
    /// interns a queue for the link.
    slots: Vec<u32>,
}

impl Csr {
    /// Builds the bidirectional adjacency from each node's initial
    /// out-edges. Rows are sorted and deduplicated — a duplicate entry
    /// would intern two queues for one link and silently break per-link
    /// FIFO.
    fn build<'a>(n: usize, neighbors: &impl Fn(NodeId) -> &'a [NodeId]) -> Csr {
        u32::try_from(n).expect("node count fits u32");
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            for &v in neighbors(NodeId::new(i)) {
                offsets[i + 1] += 1;
                offsets[v.index() + 1] += 1;
            }
        }
        for k in 1..=n {
            offsets[k] = offsets[k]
                .checked_add(offsets[k - 1])
                .expect("CSR entry count fits u32");
        }
        let total = offsets[n] as usize;
        let mut raw = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for i in 0..n {
            for &v in neighbors(NodeId::new(i)) {
                raw[cursor[i] as usize] = v.index() as u32;
                cursor[i] += 1;
                raw[cursor[v.index()] as usize] = i as u32;
                cursor[v.index()] += 1;
            }
        }
        let mut targets = Vec::with_capacity(total);
        let mut compact = vec![0u32; n + 1];
        for i in 0..n {
            let row = &mut raw[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            let mut prev = u32::MAX;
            for &t in row.iter() {
                if t != prev {
                    targets.push(t);
                    prev = t;
                }
            }
            compact[i + 1] = targets.len() as u32;
        }
        let slots = vec![u32::MAX; targets.len()];
        Csr {
            offsets: compact,
            targets,
            slots,
        }
    }

    /// Position of `(src, dst)` in `targets`/`slots`, if the link is part
    /// of the initial topology.
    #[inline]
    fn find(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let i = src.index();
        if i + 1 >= self.offsets.len() {
            return None;
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&(dst.index() as u32))
            .ok()
            .map(|p| lo + p)
    }
}

/// Behaviour of one node in the simulated network.
///
/// Handlers are *reactive*: a node acts only when it wakes up or receives a
/// message, and all sends happen through the provided [`Context`]. This is
/// the paper's model — after the steady state, "all nodes are awake, in a
/// state that will never send any more messages, and all message queues are
/// empty".
pub trait Protocol {
    /// The protocol's message type.
    type Message: Envelope;

    /// Called exactly once, when the node wakes up (either via an explicit
    /// wake-up event or on the first message it receives).
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Called for every delivered message, in per-link FIFO order.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a timer tick armed via [`Context::arm_tick`] fires.
    ///
    /// Ticks model scheduler-driven virtual time for timeout logic (e.g.
    /// retransmission). They may fire spuriously; the default does nothing.
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when the node restarts after a crash, with its protocol state
    /// intact (durable state model). The default does nothing.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when the node restarts after a crash with *stale* state
    /// ([`Choice::StaleRestart`] — a Byzantine deviation from the paper's
    /// durable-state model). Implementations should forget recent protocol
    /// state, e.g. reset to their boot state and re-run their wake logic.
    /// The default treats it like an ordinary restart.
    fn on_stale_restart(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.on_restart(ctx);
    }

    /// Mixes the node's protocol state into the runner's canonical state
    /// digest ([`Runner::state_digest`]), which the explorer's reduced mode
    /// uses to dedup converged branches and validate independence.
    ///
    /// The default mixes nothing. That is fine for protocols never searched
    /// with `--reduce` (the engine-level state — knowledge, flags, queues —
    /// is always digested), but a protocol explored under reduction should
    /// mix every field that can influence its future behaviour or its
    /// violation checks, or branches differing only in that field would
    /// wrongly dedup as equivalent.
    fn digest_state(&self, d: &mut StateDigest) {
        let _ = d;
    }
}

/// Error returned by [`Runner::run`] when the step budget is exhausted
/// before quiescence — i.e. a livelock or an unexpectedly expensive run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivelockError {
    /// Number of steps executed before giving up.
    pub steps: u64,
    /// Tokens still pending in the scheduler.
    pub pending: usize,
}

impl fmt::Display for LivelockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network failed to quiesce within {} steps ({} events still pending)",
            self.steps, self.pending
        )
    }
}

impl Error for LivelockError {}

/// One directed link's in-flight messages, each with its causal depth.
type LinkQueue<M> = VecDeque<(M, u64)>;

/// Where the sends and ticks a handler causes go. The per-event engine
/// queues each message on its link and hands the scheduler a token; the
/// FIFO loop carries the message inside its own event queue.
trait Outlet<M> {
    /// Puts `msg`, sent at causal depth `depth`, in flight on link `slot`
    /// and returns how many messages that link now has in flight.
    fn send(
        &mut self,
        links: &mut [LinkQueue<M>],
        slot: u32,
        token: SendToken,
        msg: M,
        depth: u64,
    ) -> usize;
    /// Schedules the timer tick `node` armed.
    fn tick(&mut self, node: NodeId);
}

impl<M> Outlet<M> for dyn Scheduler + '_ {
    fn send(
        &mut self,
        links: &mut [LinkQueue<M>],
        slot: u32,
        token: SendToken,
        msg: M,
        depth: u64,
    ) -> usize {
        let queue = &mut links[slot as usize];
        queue.push_back((msg, depth));
        self.note_send(token);
        queue.len()
    }
    fn tick(&mut self, node: NodeId) {
        self.note_tick(node);
    }
}

/// One pending event of the FIFO loop.
enum FifoEvent<M> {
    Wake(NodeId),
    /// Delivery of `msg` on `src → dst` (interned link `slot`), sent at
    /// causal depth `depth`.
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: M,
        depth: u64,
        slot: u32,
    },
    Tick(NodeId),
}

/// The FIFO loop's pending events, in execution order, plus per-slot
/// in-flight counts (what the link queues' lengths would be) for
/// [`Metrics::max_link_queue`].
struct FifoLoop<M> {
    events: VecDeque<FifoEvent<M>>,
    in_flight: Vec<u32>,
}

impl<M> Outlet<M> for FifoLoop<M> {
    fn send(
        &mut self,
        _links: &mut [LinkQueue<M>],
        slot: u32,
        token: SendToken,
        msg: M,
        depth: u64,
    ) -> usize {
        let i = slot as usize;
        if i >= self.in_flight.len() {
            self.in_flight.resize(i + 1, 0);
        }
        self.in_flight[i] += 1;
        self.events.push_back(FifoEvent::Deliver {
            src: token.src,
            dst: token.dst,
            msg,
            depth,
            slot,
        });
        self.in_flight[i] as usize
    }
    fn tick(&mut self, node: NodeId) {
        self.events.push_back(FifoEvent::Tick(node));
    }
}

/// The discrete-event simulation engine.
///
/// Owns the nodes, the per-link FIFO queues, each node's knowledge set and
/// the communication [`Metrics`]. Event *ordering* is delegated to a
/// [`Scheduler`]; the runner guarantees per-link FIFO delivery regardless of
/// the scheduler's choices.
///
/// Internally the engine is allocation-free per event: knowledge sets live
/// in a struct-of-arrays [`NodeTable`] (dense bitsets up to 8192 nodes,
/// interval-coded runs above), metering uses the non-allocating
/// [`Envelope`] visitor, and each directed link's queue is interned into a
/// dense slot on first send (so steady-state traffic reuses its queue) —
/// resolved through a CSR adjacency when the topology was known up front,
/// with a hash-map fallback for links learned at runtime.
///
/// See the [crate-level documentation](crate) for a complete example.
///
/// Cloning a runner (for `P: Clone`) deep-copies the whole network state —
/// nodes, knowledge, link queues, metrics — which is what the explorer's
/// checkpoint/fork machinery snapshots at DFS branch points.
#[derive(Clone)]
pub struct Runner<P: Protocol> {
    pub(crate) nodes: Vec<P>,
    /// Packed flags + knowledge sets, struct-of-arrays over node index.
    pub(crate) table: NodeTable,
    /// Initial-topology fast path for link-slot resolution.
    csr: Csr,
    /// Fallback interning of `(src, dst)` to a dense slot in `links`, for
    /// links outside the initial topology.
    link_slots: HashMap<u64, u32, BuildHasherDefault<LinkHasher>>,
    links: Vec<LinkQueue<P::Message>>,
    pub(crate) metrics: Metrics,
    pub(crate) seq: u64,
    pub(crate) steps: u64,
    pub(crate) trace: Option<Trace>,
    outbox: Vec<(NodeId, P::Message)>,
    /// Scratch footprint for the step being executed; populated by the
    /// mutation sites (link pops/pushes) only while `fp_on` is set.
    fp: Footprint,
    /// Whether the current step records its footprint (the scheduler asked
    /// via [`Scheduler::wants_footprints`]).
    fp_on: bool,
    /// Cumulative heap bytes of every enqueued message payload
    /// ([`Envelope::payload_heap_bytes`] at send time). Observability only.
    pub(crate) payload_bytes_sent: u64,
    /// Heap bytes of payloads currently sitting in link queues.
    pub(crate) payload_inflight: u64,
    /// High-water mark of [`payload_inflight`](Runner::payload_inflight).
    pub(crate) payload_peak: u64,
}

impl<P: Protocol> Runner<P> {
    /// Creates a network of `nodes`, where node `i` initially knows the ids
    /// in `initial_knowledge[i]` (the initial knowledge graph `E₀`).
    ///
    /// The id bit-width for metering defaults to `⌈log₂ n⌉` (minimum 1), as
    /// in the paper's model where ids have `O(log n)` bits.
    ///
    /// Prefer [`with_topology`](Runner::with_topology) when the edge lists
    /// already live somewhere borrowable — this convenience wrapper costs
    /// one temporary `Vec` per node.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors disagree in length or an initial edge
    /// points outside the node table.
    pub fn new(nodes: Vec<P>, initial_knowledge: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(
            nodes.len(),
            initial_knowledge.len(),
            "one knowledge set per node required"
        );
        Self::with_topology(nodes, |id| &initial_knowledge[id.index()][..])
    }

    /// Creates a network of `nodes` whose initial knowledge graph `E₀` is
    /// given by borrowed edge slices: node `id` initially knows
    /// `neighbors(id)`.
    ///
    /// This is the allocation-light constructor for large networks: no
    /// per-node temporary `Vec`s, knowledge sets pre-sized (and
    /// representation-selected) for `n`, and the CSR link-slot index built
    /// in the same pass. [`Runner::new`] delegates here.
    ///
    /// # Panics
    ///
    /// Panics if an initial edge points outside the node table.
    pub fn with_topology<'a>(
        nodes: Vec<P>,
        neighbors: impl Fn(NodeId) -> &'a [NodeId],
    ) -> Self {
        let n = nodes.len();
        let id_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as u64;
        let mut table = NodeTable::new(n);
        for i in 0..n {
            let me = NodeId::new(i);
            let mut set = Knowledge::for_network(n);
            for &v in neighbors(me) {
                assert!(
                    v.index() < n,
                    "initial edge {me} → {v} points outside the network"
                );
                set.insert(v.index());
            }
            set.insert(i);
            table.knowledge.push(set);
        }
        let csr = Csr::build(n, &neighbors);
        Runner {
            nodes,
            table,
            csr,
            link_slots: HashMap::default(),
            links: Vec::new(),
            metrics: Metrics::new(id_bits),
            seq: 0,
            steps: 0,
            trace: None,
            outbox: Vec::new(),
            fp: Footprint::new(),
            fp_on: false,
            payload_bytes_sent: 0,
            payload_inflight: 0,
            payload_peak: 0,
        }
    }

    /// Turns on event tracing (see [`crate::trace`]); subsequent wake-ups,
    /// sends and deliveries are logged. Idempotent.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::default());
        }
    }

    /// The event log, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Number of events executed so far (wake-ups + deliveries).
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Number of nodes in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in index order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::new)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's protocol state.
    ///
    /// Prefer [`exec`](Runner::exec) when the mutation needs to send
    /// messages.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.index()]
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The accumulated communication metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether node `u` has learned `v`'s id (knowledge-graph edge `u → v`).
    pub fn knows(&self, u: NodeId, v: NodeId) -> bool {
        self.table.knowledge[u.index()].contains(v.index())
    }

    /// Sum of heap bytes currently backing the per-node knowledge sets —
    /// the scale benchmarks report this as bytes/node.
    pub fn knowledge_bytes(&self) -> usize {
        self.table.knowledge_bytes()
    }

    /// Cumulative heap bytes of every message payload enqueued so far
    /// ([`Envelope::payload_heap_bytes`] measured at send time). Dividing
    /// by the executed step count gives the bench's bytes-per-event figure.
    pub fn payload_bytes_sent(&self) -> u64 {
        self.payload_bytes_sent
    }

    /// High-water mark of payload heap bytes simultaneously in flight
    /// (enqueued on link queues). This is the arena pressure a run exerts:
    /// before run-length payloads it grew with O(component)-sized handovers.
    pub fn payload_peak_bytes(&self) -> u64 {
        self.payload_peak
    }

    /// Records `bytes` of payload entering a link queue.
    #[inline]
    pub(crate) fn note_payload_enqueued(&mut self, bytes: usize) {
        let bytes = bytes as u64;
        self.payload_bytes_sent += bytes;
        self.payload_inflight += bytes;
        self.payload_peak = self.payload_peak.max(self.payload_inflight);
    }

    /// Teaches node `u` the id of `v` out of band.
    ///
    /// This models a *dynamic link addition* (§6 of the paper): an external
    /// event hands `u` a new address. Protocol-internal knowledge growth
    /// happens automatically on message delivery.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) {
        assert!(v.index() < self.len(), "link target {v} does not exist");
        self.table.knowledge[u.index()].insert(v.index());
    }

    /// Adds a new node that initially knows `known`, returning its id.
    ///
    /// Models a *dynamic node addition* (§6): "there is no difference
    /// between a node joining the system at a certain time and a node that
    /// wakes up at that time" — wake the returned id to bring it online.
    pub fn add_node(&mut self, node: P, known: Vec<NodeId>) -> NodeId {
        let id = NodeId::new(self.len());
        let mut set = Knowledge::for_network(self.len() + 1);
        for v in known {
            assert!(
                v.index() < self.len(),
                "initial edge {id} → {v} points outside the network"
            );
            set.insert(v.index());
        }
        set.insert(id.index());
        self.nodes.push(node);
        self.table.knowledge.push(set);
        id
    }

    /// Whether the node has woken up.
    pub fn is_awake(&self, id: NodeId) -> bool {
        self.table.awake(id.index())
    }

    /// Whether the node is currently crashed (between a
    /// [`Choice::Crash`] and its [`Choice::Restart`]).
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.table.crashed(id.index())
    }

    /// Whether the node has permanently left the network
    /// ([`Choice::Leave`]); all events targeting it are discarded.
    pub fn has_left(&self, id: NodeId) -> bool {
        self.table.left(id.index())
    }

    /// Enqueues a wake-up event for `node`; the scheduler decides when it
    /// fires relative to message deliveries. Idempotent for nodes that are
    /// already awake or already enqueued.
    pub fn enqueue_wake(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        let i = node.index();
        if !self.table.awake(i) && !self.table.wake_enqueued(i) {
            self.table.set_wake_enqueued(i, true);
            sched.note_wake(node);
        }
    }

    /// Enqueues wake-ups for every node.
    pub fn enqueue_wake_all(&mut self, sched: &mut dyn Scheduler) {
        for id in 0..self.len() {
            self.enqueue_wake(NodeId::new(id), sched);
        }
    }

    /// Wakes `node` immediately (bypassing the scheduler's ordering), as the
    /// staged drivers of the lower-bound constructions require. Messages it
    /// sends are still scheduled normally. No-op if already awake.
    pub fn wake_now(&mut self, node: NodeId, sched: &mut dyn Scheduler) {
        self.wake_inner(node, 0, sched);
    }

    /// Runs `f` against a node with a live sending [`Context`], for external
    /// commands that are not triggered by a message (e.g. the Ad-hoc
    /// variant's leader probes).
    pub fn exec<R>(
        &mut self,
        node: NodeId,
        sched: &mut dyn Scheduler,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> R {
        let mut r = None;
        self.dispatch(node, 1, sched, |n, ctx| r = Some(f(n, ctx)));
        r.expect("dispatch runs the command")
    }

    /// Runs a handler against `node` with a live [`Context`], flushes its
    /// sends at `depth`, and forwards any armed tick to `out`.
    fn dispatch<O: Outlet<P::Message> + ?Sized>(
        &mut self,
        node: NodeId,
        depth: u64,
        out: &mut O,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        debug_assert!(self.outbox.is_empty());
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::new(node, &mut outbox);
        f(&mut self.nodes[node.index()], &mut ctx);
        let tick = ctx.tick_armed();
        self.outbox = outbox;
        self.flush(node, depth, out);
        if tick {
            out.tick(node);
        }
    }

    fn wake_inner<O: Outlet<P::Message> + ?Sized>(
        &mut self,
        node: NodeId,
        depth: u64,
        out: &mut O,
    ) {
        let i = node.index();
        self.table.set_wake_enqueued(i, false);
        if self.table.awake(i) {
            return;
        }
        self.table.set_awake(i, true);
        self.metrics.record_wakeup();
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Wake {
                node,
                step: self.steps,
            });
        }
        self.dispatch(node, depth + 1, out, |n, ctx| n.on_wake(ctx));
    }

    /// Flushes the outbox of `src`: enforces the knowledge constraint,
    /// meters each message and enqueues it through `out`.
    ///
    /// Metering happens here, at *send* time, with the non-allocating
    /// [`Envelope::carried_id_count`]; knowledge updates happen at
    /// *delivery* time in [`deliver`](Runner::deliver) via the visitor.
    /// Neither side materialises an id `Vec`.
    fn flush<O: Outlet<P::Message> + ?Sized>(&mut self, src: NodeId, depth: u64, out: &mut O) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for (dst, msg) in outbox.drain(..) {
            assert!(
                self.table.knowledge[src.index()].contains(dst.index()),
                "knowledge violation: {src} sent a {:?} to {dst} without knowing its id",
                msg.kind()
            );
            self.metrics
                .record(msg.kind(), msg.carried_id_count(), msg.aux_bits());
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent::Send {
                    src,
                    dst,
                    kind: msg.kind(),
                    seq: self.seq,
                    step: self.steps,
                });
            }
            self.enqueue(src, dst, msg, depth, out);
        }
        self.outbox = outbox;
    }

    /// Puts an already-metered message in flight on `src → dst`: assigns
    /// its sequence number, interns the link and hands it to `out`.
    fn enqueue<O: Outlet<P::Message> + ?Sized>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: P::Message,
        depth: u64,
        out: &mut O,
    ) {
        let token = SendToken {
            src,
            dst,
            seq: self.seq,
            kind: msg.kind(),
        };
        self.seq += 1;
        if self.fp_on {
            self.fp.touch_link(link_key(src, dst));
        }
        self.note_payload_enqueued(msg.payload_heap_bytes());
        let slot = self.intern_link_slot(src, dst);
        let in_flight = out.send(&mut self.links, slot, token, msg, depth);
        self.metrics.observe_link_queue(in_flight);
    }

    /// Resolves `(src, dst)` to its queue slot, interning a fresh queue on
    /// the link's first send. Initial-topology links resolve through the
    /// CSR row (binary search, no hashing); runtime-learned links fall back
    /// to the hash map.
    pub(crate) fn intern_link_slot(&mut self, src: NodeId, dst: NodeId) -> u32 {
        if let Some(pos) = self.csr.find(src, dst) {
            let slot = self.csr.slots[pos];
            if slot != u32::MAX {
                return slot;
            }
            let slot = u32::try_from(self.links.len()).expect("link slots overflow u32");
            self.links.push(LinkQueue::new());
            self.csr.slots[pos] = slot;
            return slot;
        }
        match self.link_slots.entry(link_key(src, dst)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = u32::try_from(self.links.len()).expect("link slots overflow u32");
                self.links.push(LinkQueue::new());
                *e.insert(slot)
            }
        }
    }

    /// Slot of a link that has already sent at least once, if any.
    pub(crate) fn existing_link_slot(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        if let Some(pos) = self.csr.find(src, dst) {
            let slot = self.csr.slots[pos];
            return (slot != u32::MAX).then_some(slot);
        }
        self.link_slots.get(&link_key(src, dst)).copied()
    }

    /// Slot of `src → dst`, which a scheduler token says holds a message.
    fn token_slot(&self, src: NodeId, dst: NodeId) -> u32 {
        self.existing_link_slot(src, dst)
            .unwrap_or_else(|| panic!("scheduler bug: no pending messages on {src} → {dst}"))
    }

    /// Removes the oldest in-flight message on `src → dst`.
    fn pop_link(&mut self, src: NodeId, dst: NodeId) -> (P::Message, u64) {
        let slot = self.token_slot(src, dst);
        if self.fp_on {
            self.fp.touch_link(link_key(src, dst));
        }
        let popped = self.links[slot as usize]
            .pop_front()
            .unwrap_or_else(|| panic!("scheduler bug: empty link {src} → {dst}"));
        self.payload_inflight -= popped.0.payload_heap_bytes() as u64;
        popped
    }

    /// Executes one scheduler-chosen event. Returns `false` when quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns a [`Choice`] with no matching pending
    /// event (a scheduler bug).
    pub fn step(&mut self, sched: &mut dyn Scheduler) -> bool {
        if sched.wants_state_digest() {
            let digest = self.state_digest();
            sched.note_state_digest(digest);
        }
        let Some(choice) = sched.choose() else {
            return false;
        };
        let track = sched.wants_footprints();
        if track {
            self.fp.clear();
            self.fp_on = true;
            // The only node whose state a step can touch is the stepped /
            // targeted one (dispatch never reaches into other nodes); link
            // mutations are recorded at the pop/push sites.
            match choice {
                Choice::Wake(n)
                | Choice::Crash(n)
                | Choice::Restart(n)
                | Choice::Tick(n)
                | Choice::StaleRestart(n)
                | Choice::Join(n)
                | Choice::Leave(n) => self.fp.touch_node(n),
                Choice::Deliver { dst, .. } => self.fp.touch_node(dst),
                Choice::Drop { .. }
                | Choice::Duplicate { .. }
                | Choice::Silence { .. }
                | Choice::Forge { .. } => {}
            }
        }
        self.execute(choice, sched);
        if track {
            self.fp_on = false;
            let fp = std::mem::take(&mut self.fp);
            sched.note_footprint(choice, &fp);
            self.fp = fp;
        }
        true
    }

    /// Executes a wake-up event.
    fn wake<O: Outlet<P::Message> + ?Sized>(&mut self, node: NodeId, out: &mut O) {
        if self.table.left(node.index()) {
            self.table.set_wake_enqueued(node.index(), false);
            self.metrics.record_leave_discard();
            return;
        }
        if self.table.crashed(node.index()) {
            // A crashed node loses its pending wake-up; Restart
            // re-enqueues one so the node is not stranded asleep.
            self.table.set_wake_enqueued(node.index(), false);
            self.metrics.record_crash_discard();
            return;
        }
        self.wake_inner(node, 0, out);
    }

    /// Delivers `msg` (sent at causal depth `depth`, already off its link)
    /// to `dst`.
    fn deliver<O: Outlet<P::Message> + ?Sized>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: P::Message,
        depth: u64,
        out: &mut O,
    ) {
        if self.table.left(dst.index()) || self.table.crashed(dst.index()) {
            // Delivery to a departed or crashed node: the message is lost.
            if self.table.left(dst.index()) {
                self.metrics.record_leave_discard();
            } else {
                self.metrics.record_crash_discard();
            }
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent::Drop {
                    src,
                    dst,
                    kind: msg.kind(),
                    step: self.steps,
                });
            }
            return;
        }
        self.metrics.record_delivery(depth);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Deliver {
                src,
                dst,
                kind: msg.kind(),
                step: self.steps,
            });
        }
        // Knowledge-graph growth: the receiver learns the sender and every
        // id in the payload (visited, not collected; run-coded sets absorb
        // whole payload runs, so a run-coded handover costs O(runs), not
        // O(ids)).
        let n = self.nodes.len();
        let know = &mut self.table.knowledge[dst.index()];
        know.insert(src.index());
        msg.for_each_carried_run(&mut |start, end| {
            debug_assert!((end as usize) <= n);
            know.insert_run(start, end);
        });
        // A message wakes a sleeping receiver.
        if !self.table.awake(dst.index()) {
            self.wake_inner(dst, depth, out);
        }
        self.dispatch(dst, depth + 1, out, |node, ctx| {
            node.on_message(src, msg, ctx);
        });
    }

    /// Fires a timer tick armed by `node`.
    fn tick<O: Outlet<P::Message> + ?Sized>(&mut self, node: NodeId, out: &mut O) {
        if self.table.left(node.index()) {
            self.metrics.record_leave_discard();
            return;
        }
        if self.table.crashed(node.index()) || !self.table.awake(node.index()) {
            // A tick armed before the crash fires into the void.
            self.metrics.record_crash_discard();
            return;
        }
        self.metrics.record_tick();
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::Tick {
                node,
                step: self.steps,
            });
        }
        self.dispatch(node, 1, out, |n, ctx| n.on_tick(ctx));
    }

    /// Executes one already-chosen event.
    fn execute(&mut self, choice: Choice, sched: &mut dyn Scheduler) {
        self.steps += 1;
        match choice {
            Choice::Wake(node) => self.wake(node, sched),
            Choice::Deliver { src, dst } => {
                let (msg, depth) = self.pop_link(src, dst);
                self.deliver(src, dst, msg, depth, sched);
            }
            Choice::Tick(node) => self.tick(node, sched),
            Choice::Drop { src, dst } => {
                let (msg, _depth) = self.pop_link(src, dst);
                self.metrics.record_drop();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Drop {
                        src,
                        dst,
                        kind: msg.kind(),
                        step: self.steps,
                    });
                }
            }
            Choice::Duplicate { src, dst } => {
                if self.fp_on {
                    self.fp.touch_link(link_key(src, dst));
                }
                let slot = self.token_slot(src, dst);
                let queue = &mut self.links[slot as usize];
                let (msg, depth) = queue
                    .front()
                    .cloned()
                    .unwrap_or_else(|| panic!("scheduler bug: empty link {src} → {dst}"));
                let kind = msg.kind();
                let payload_bytes = msg.payload_heap_bytes();
                queue.push_back((msg, depth));
                let queue_len = queue.len();
                self.note_payload_enqueued(payload_bytes);
                self.metrics.observe_link_queue(queue_len);
                self.metrics.record_duplicate();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Duplicate {
                        src,
                        dst,
                        kind,
                        step: self.steps,
                    });
                }
                // The copy gets its own token (and thus its own delivery
                // choice); it is metered only as a fault, not per kind.
                let token = SendToken {
                    src,
                    dst,
                    seq: self.seq,
                    kind,
                };
                self.seq += 1;
                sched.note_send(token);
            }
            Choice::Crash(node) => {
                self.table.set_crashed(node.index(), true);
                self.metrics.record_crash();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Crash {
                        node,
                        step: self.steps,
                    });
                }
            }
            Choice::Restart(node) => {
                let i = node.index();
                if self.table.left(i) {
                    // A departed node never comes back.
                    self.metrics.record_leave_discard();
                    return;
                }
                self.table.set_crashed(i, false);
                self.metrics.record_restart();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Restart {
                        node,
                        step: self.steps,
                    });
                }
                if self.table.awake(i) {
                    self.dispatch(node, 1, sched, |n, ctx| n.on_restart(ctx));
                } else if !self.table.wake_enqueued(i) {
                    // The node's wake-up was discarded while it was down:
                    // re-enqueue it so liveness survives the crash window.
                    self.table.set_wake_enqueued(i, true);
                    sched.note_wake(node);
                }
            }
            Choice::Forge { src, dst, salt } => {
                let Some(msg) = P::Message::forge(src, dst, salt) else {
                    // The protocol has no forgery for this salt: the choice
                    // is a counted no-op so schedules stay replayable.
                    self.metrics.record_forge_noop();
                    return;
                };
                // A forged send bypasses the outbox (and thus the honest
                // knowledge-violation assert in `flush`): a Byzantine node
                // addresses whoever it likes. It is metered per kind like
                // any send — and tracked in the Byzantine counters so
                // budget checks can net the adversarial traffic out.
                let kind = msg.kind();
                let bits = msg.bits(self.metrics.id_bits());
                self.metrics
                    .record(kind, msg.carried_id_count(), msg.aux_bits());
                self.metrics.record_forge(bits);
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Forge {
                        src,
                        dst,
                        kind,
                        step: self.steps,
                    });
                }
                self.enqueue(src, dst, msg, 0, sched);
            }
            Choice::Silence { src, dst } => {
                let (msg, _depth) = self.pop_link(src, dst);
                self.metrics.record_silence();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Silence {
                        src,
                        dst,
                        kind: msg.kind(),
                        step: self.steps,
                    });
                }
            }
            Choice::StaleRestart(node) => {
                let i = node.index();
                if self.table.left(i) {
                    self.metrics.record_leave_discard();
                    return;
                }
                self.table.set_crashed(i, false);
                self.metrics.record_stale_restart();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::StaleRestart {
                        node,
                        step: self.steps,
                    });
                }
                if self.table.awake(i) {
                    self.dispatch(node, 1, sched, |n, ctx| n.on_stale_restart(ctx));
                } else if !self.table.wake_enqueued(i) {
                    self.table.set_wake_enqueued(i, true);
                    sched.note_wake(node);
                }
            }
            Choice::Join(node) => {
                let i = node.index();
                if self.table.left(i) {
                    self.metrics.record_leave_discard();
                    return;
                }
                if self.table.crashed(i) {
                    self.metrics.record_crash_discard();
                    return;
                }
                self.metrics.record_join();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Join {
                        node,
                        step: self.steps,
                    });
                }
                // §6: "there is no difference between a node joining the
                // system at a certain time and a node that wakes up at that
                // time" — a join is a token-free wake of a node whose
                // initial wake-up the churn plan withheld. No-op if the
                // node already woke (e.g. via an incoming message).
                self.wake_inner(node, 0, sched);
            }
            Choice::Leave(node) => {
                self.table.set_left(node.index(), true);
                self.metrics.record_leave();
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent::Leave {
                        node,
                        step: self.steps,
                    });
                }
            }
        }
    }

    /// Runs until quiescence or until `max_steps` events have been executed.
    ///
    /// A bare [`FifoScheduler`](crate::FifoScheduler) hands its pending
    /// queue over ([`Scheduler::fifo_queue`]) and the run executes in the
    /// inline FIFO loop; every other scheduler chooses event by event. Both
    /// engines share the handler, metering, knowledge and trace code, so
    /// their outputs are identical.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the budget runs out first.
    pub fn run(&mut self, sched: &mut dyn Scheduler, max_steps: u64) -> Result<u64, LivelockError> {
        if let Some(queue) = sched.fifo_queue() {
            // The loop carries each message inside its delivery event, so
            // every in-flight message must own a token in this queue. A
            // network first driven by another scheduler may hold messages
            // whose tokens live elsewhere; those runs stay per-event.
            let deliveries = queue
                .iter()
                .filter(|c| matches!(c, Choice::Deliver { .. }))
                .count();
            if deliveries == self.links.iter().map(VecDeque::len).sum::<usize>() {
                return self.run_fifo(queue, max_steps);
            }
        }
        let mut steps = 0;
        while steps < max_steps {
            if !self.step(sched) {
                self.report_terminal(sched);
                return Ok(steps);
            }
            steps += 1;
        }
        if sched.pending() == 0 {
            self.report_terminal(sched);
            return Ok(steps);
        }
        Err(LivelockError {
            steps,
            pending: sched.pending(),
        })
    }

    /// The FIFO event loop: under a FIFO schedule global send order implies
    /// per-link order, so each message rides inside its delivery event and
    /// the link queues stay untouched. Starts from the tokens in `queue`
    /// (taking their messages off the links) and, on a budget cutoff, puts
    /// the leftover events back into the links and `queue` exactly as the
    /// per-event engine would have left them.
    fn run_fifo(
        &mut self,
        queue: &mut VecDeque<Choice>,
        max_steps: u64,
    ) -> Result<u64, LivelockError> {
        let mut fifo = FifoLoop {
            events: VecDeque::with_capacity(queue.len()),
            in_flight: vec![0; self.links.len()],
        };
        for choice in queue.drain(..) {
            fifo.events.push_back(match choice {
                Choice::Wake(node) => FifoEvent::Wake(node),
                Choice::Tick(node) => FifoEvent::Tick(node),
                Choice::Deliver { src, dst } => {
                    let slot = self.token_slot(src, dst);
                    let (msg, depth) = self.links[slot as usize]
                        .pop_front()
                        .unwrap_or_else(|| panic!("scheduler bug: empty link {src} → {dst}"));
                    fifo.in_flight[slot as usize] += 1;
                    FifoEvent::Deliver {
                        src,
                        dst,
                        msg,
                        depth,
                        slot,
                    }
                }
                other => unreachable!("a FIFO queue holds no {other:?} tokens"),
            });
        }
        let mut steps = 0;
        while steps < max_steps {
            let Some(event) = fifo.events.pop_front() else {
                break;
            };
            steps += 1;
            self.steps += 1;
            match event {
                FifoEvent::Wake(node) => self.wake(node, &mut fifo),
                FifoEvent::Deliver {
                    src,
                    dst,
                    msg,
                    depth,
                    slot,
                } => {
                    fifo.in_flight[slot as usize] -= 1;
                    self.payload_inflight -= msg.payload_heap_bytes() as u64;
                    self.deliver(src, dst, msg, depth, &mut fifo);
                }
                FifoEvent::Tick(node) => self.tick(node, &mut fifo),
            }
        }
        let pending = fifo.events.len();
        for event in fifo.events {
            queue.push_back(match event {
                FifoEvent::Wake(node) => Choice::Wake(node),
                FifoEvent::Tick(node) => Choice::Tick(node),
                FifoEvent::Deliver {
                    src,
                    dst,
                    msg,
                    depth,
                    slot,
                } => {
                    self.links[slot as usize].push_back((msg, depth));
                    Choice::Deliver { src, dst }
                }
            });
        }
        if pending == 0 {
            Ok(steps)
        } else {
            Err(LivelockError { steps, pending })
        }
    }

    /// Hands the terminal-state digest to a scheduler that asked for one.
    fn report_terminal(&self, sched: &mut dyn Scheduler) {
        if sched.wants_terminal_digest() {
            let digest = self.state_digest();
            sched.note_terminal_digest(digest);
        }
    }

    /// Canonical digest of the complete observable simulation state: per
    /// node its liveness flags, knowledge membership and protocol state
    /// (via [`Protocol::digest_state`]); every non-empty link queue with
    /// its in-flight messages, iterated in `(src, dst)` key order so the
    /// digest is independent of slot-interning history; and the metrics
    /// (violation checks read them, so branch dedup must honour them).
    ///
    /// Excluded on purpose: the step counter and trace (observational),
    /// and link-queue *capacity* or slot layout (execution-history
    /// artifacts with no behavioural effect).
    pub fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        d.mix(self.nodes.len() as u64);
        for (i, node) in self.nodes.iter().enumerate() {
            let flags = u64::from(self.table.awake(i))
                | u64::from(self.table.wake_enqueued(i)) << 1
                | u64::from(self.table.crashed(i)) << 2
                | u64::from(self.table.left(i)) << 3;
            d.mix(flags);
            self.table.knowledge[i].digest_into(&mut d);
            node.digest_state(&mut d);
        }
        // Non-empty queues in canonical key order: a drained link must hash
        // like a never-interned one (whether a slot exists is history, not
        // state).
        let mut keyed: Vec<(u64, u32)> = Vec::new();
        for i in 0..self.csr.offsets.len().saturating_sub(1) {
            let lo = self.csr.offsets[i] as usize;
            let hi = self.csr.offsets[i + 1] as usize;
            for p in lo..hi {
                let slot = self.csr.slots[p];
                if slot != u32::MAX && !self.links[slot as usize].is_empty() {
                    keyed.push((((i as u64) << 32) | u64::from(self.csr.targets[p]), slot));
                }
            }
        }
        for (&key, &slot) in &self.link_slots {
            if !self.links[slot as usize].is_empty() {
                keyed.push((key, slot));
            }
        }
        keyed.sort_unstable_by_key(|&(key, _)| key);
        d.mix(keyed.len() as u64);
        for (key, slot) in keyed {
            d.mix(key);
            let queue = &self.links[slot as usize];
            d.mix(queue.len() as u64);
            for (msg, depth) in queue {
                msg.digest(&mut d);
                d.mix(*depth);
            }
        }
        self.metrics.digest_into(&mut d);
        d.mix(self.seq);
        d.finish()
    }

    /// Whether all link queues are empty (no in-flight messages).
    pub fn links_empty(&self) -> bool {
        self.links.iter().all(VecDeque::is_empty)
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Runner<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("nodes", &self.nodes.len())
            .field(
                "in_flight",
                &self.links.iter().map(VecDeque::len).sum::<usize>(),
            )
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FifoScheduler, LifoScheduler, RecordingScheduler};

    /// Flood protocol: on wake or first sighting of a token, forward it to
    /// all initially-known peers.
    #[derive(Debug)]
    struct Flood {
        peers: Vec<NodeId>,
        seen: bool,
    }

    #[derive(Clone, Debug)]
    struct Tok;

    impl Envelope for Tok {
        fn kind(&self) -> &'static str {
            "tok"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            0
        }
    }

    impl Protocol for Flood {
        type Message = Tok;
        fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
            if !self.seen {
                self.seen = true;
                for &p in &self.peers {
                    ctx.send(p, Tok);
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Tok, _ctx: &mut Context<'_, Tok>) {}
    }

    fn line(n: usize) -> Runner<Flood> {
        let nodes = (0..n)
            .map(|i| Flood {
                peers: if i + 1 < n {
                    vec![NodeId::new(i + 1)]
                } else {
                    vec![]
                },
                seen: false,
            })
            .collect();
        let knowledge = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![NodeId::new(i + 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        Runner::new(nodes, knowledge)
    }

    #[test]
    fn message_wakes_sleeping_receiver() {
        let mut r = line(4);
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        // Wake cascades down the whole line even though only node 0 was woken.
        assert!(r.ids().all(|id| r.is_awake(id)));
        assert_eq!(r.metrics().total_messages(), 3);
        assert!(r.links_empty());
    }

    #[test]
    fn causal_depth_counts_the_chain() {
        let mut r = line(5);
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        assert_eq!(r.metrics().max_causal_depth(), 4);
    }

    #[test]
    fn knowledge_grows_from_sender() {
        let mut r = line(2);
        let mut s = FifoScheduler::new();
        assert!(!r.knows(NodeId::new(1), NodeId::new(0)));
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        assert!(r.knows(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    #[should_panic(expected = "knowledge violation")]
    fn sending_to_unknown_id_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                ctx.send(NodeId::new(1), Tok);
            }
            fn on_message(&mut self, _: NodeId, _: Tok, _: &mut Context<'_, Tok>) {}
        }
        let mut r = Runner::new(vec![Bad, Bad], vec![vec![], vec![]]);
        let mut s = FifoScheduler::new();
        r.wake_now(NodeId::new(0), &mut s);
    }

    #[test]
    fn run_coded_knowledge_digest_depends_only_on_membership() {
        let n = crate::table::DENSE_KNOWLEDGE_MAX + 1;
        let me = NodeId::new(0);
        // 70 new ids: one run of 35 and 35 scattered. Learning them crosses
        // the 64-id insert batch once, so the batch's leftovers depend on
        // the order: the largest scattered ids (ascending) or the start of
        // the run, adjacent to its merged rest (descending).
        let ids: Vec<NodeId> = (100..135)
            .chain((200..305).step_by(3))
            .map(NodeId::new)
            .collect();
        let mut ascending = line(n);
        let mut descending = line(n);
        for &v in &ids {
            ascending.add_link(me, v);
        }
        for &v in ids.iter().rev() {
            descending.add_link(me, v);
        }
        let (Knowledge::Runs(a), Knowledge::Runs(d)) =
            (&ascending.table.knowledge[0], &descending.table.knowledge[0])
        else {
            panic!("knowledge above DENSE_KNOWLEDGE_MAX is run-coded");
        };
        assert_eq!(a, d, "same membership");
        assert_ne!(format!("{a:?}"), format!("{d:?}"), "different batch contents");
        assert_eq!(ascending.state_digest(), descending.state_digest());

        ascending.add_link(me, NodeId::new(400));
        assert_ne!(ascending.state_digest(), descending.state_digest());
        descending.add_link(me, NodeId::new(400));
        assert_eq!(ascending.state_digest(), descending.state_digest());
    }

    #[test]
    fn livelock_is_reported() {
        /// Two nodes bouncing a token forever.
        struct Bounce {
            peer: NodeId,
        }
        impl Protocol for Bounce {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                ctx.send(self.peer, Tok);
            }
            fn on_message(&mut self, from: NodeId, _: Tok, ctx: &mut Context<'_, Tok>) {
                ctx.send(from, Tok);
            }
        }
        let mut r = Runner::new(
            vec![
                Bounce {
                    peer: NodeId::new(1),
                },
                Bounce {
                    peer: NodeId::new(0),
                },
            ],
            vec![vec![NodeId::new(1)], vec![NodeId::new(0)]],
        );
        let mut s = FifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        let err = r.run(&mut s, 50).unwrap_err();
        assert_eq!(err.steps, 50);
        assert!(err.pending > 0);
        assert!(err.to_string().contains("failed to quiesce"));
    }

    #[test]
    fn per_link_fifo_holds_under_lifo_scheduler() {
        /// Node 0 sends numbered messages to node 1; node 1 records arrival order.
        #[derive(Clone, Debug)]
        struct Num(u32);
        impl Envelope for Num {
            fn kind(&self) -> &'static str {
                "num"
            }
            fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
            fn aux_bits(&self) -> u64 {
                32
            }
        }
        struct Sender;
        struct Receiver(Vec<u32>);
        enum Either {
            S(Sender),
            R(Receiver),
        }
        impl Protocol for Either {
            type Message = Num;
            fn on_wake(&mut self, ctx: &mut Context<'_, Num>) {
                if let Either::S(_) = self {
                    for i in 0..10 {
                        ctx.send(NodeId::new(1), Num(i));
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, m: Num, _: &mut Context<'_, Num>) {
                if let Either::R(r) = self {
                    r.0.push(m.0);
                }
            }
        }
        let mut r = Runner::new(
            vec![Either::S(Sender), Either::R(Receiver(Vec::new()))],
            vec![vec![NodeId::new(1)], vec![]],
        );
        // LIFO reorders *events*, but per-link FIFO must still hold.
        let mut s = LifoScheduler::new();
        r.enqueue_wake(NodeId::new(0), &mut s);
        r.run(&mut s, 100).unwrap();
        match r.node(NodeId::new(1)) {
            Either::R(rec) => assert_eq!(rec.0, (0..10).collect::<Vec<_>>()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn exec_flushes_external_commands() {
        let mut r = line(3);
        let mut s = FifoScheduler::new();
        r.exec(NodeId::new(0), &mut s, |node, ctx| {
            node.seen = true;
            for &p in &node.peers {
                ctx.send(p, Tok);
            }
        });
        assert_eq!(s.pending(), 1);
        r.run(&mut s, 100).unwrap();
        // exec's 0→1 plus node 1's wake-up flood 1→2 (node 2 has no peers).
        assert_eq!(r.metrics().total_messages(), 2);
    }

    #[test]
    fn dynamic_node_and_link_addition() {
        let mut r = line(2);
        let mut s = FifoScheduler::new();
        r.enqueue_wake_all(&mut s);
        r.run(&mut s, 100).unwrap();
        let newcomer = r.add_node(
            Flood {
                peers: vec![NodeId::new(0)],
                seen: false,
            },
            vec![NodeId::new(0)],
        );
        assert_eq!(newcomer, NodeId::new(2));
        r.add_link(NodeId::new(1), newcomer);
        assert!(r.knows(NodeId::new(1), newcomer));
        r.enqueue_wake(newcomer, &mut s);
        r.run(&mut s, 100).unwrap();
        assert!(r.is_awake(newcomer));
    }

    #[test]
    fn id_bits_default_is_log2_n() {
        assert_eq!(line(2).metrics().id_bits(), 1);
        assert_eq!(line(8).metrics().id_bits(), 3);
        assert_eq!(line(9).metrics().id_bits(), 4);
        assert_eq!(line(1024).metrics().id_bits(), 10);
    }

    #[test]
    fn only_a_bare_fifo_scheduler_selects_the_loop() {
        assert!(FifoScheduler::new().fifo_queue().is_some());
        let mut boxed: Box<dyn Scheduler> = Box::new(FifoScheduler::new());
        assert!(boxed.fifo_queue().is_some());
        assert!(RecordingScheduler::new(FifoScheduler::new())
            .fifo_queue()
            .is_none());
        assert!(LifoScheduler::new().fifo_queue().is_none());
    }

    #[test]
    fn fifo_run_after_another_scheduler_stays_per_event() {
        /// Node 0 sends `Num(0)`, `Num(1)` to node 1 on wake and
        /// `Num(100)` whenever it hears back; node 1 records arrivals.
        #[derive(Clone, Debug)]
        struct Num(u32);
        impl Envelope for Num {
            fn kind(&self) -> &'static str {
                "num"
            }
            fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
            fn aux_bits(&self) -> u64 {
                32
            }
        }
        struct Pinger {
            got: Vec<u32>,
        }
        impl Protocol for Pinger {
            type Message = Num;
            fn on_wake(&mut self, ctx: &mut Context<'_, Num>) {
                if ctx.me() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), Num(0));
                    ctx.send(NodeId::new(1), Num(1));
                }
            }
            fn on_message(&mut self, _: NodeId, m: Num, ctx: &mut Context<'_, Num>) {
                self.got.push(m.0);
                if ctx.me() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), Num(100));
                }
            }
        }
        let run = |second: &mut dyn Scheduler| {
            let mut r = Runner::new(
                vec![Pinger { got: vec![] }, Pinger { got: vec![] }],
                vec![vec![NodeId::new(1)], vec![NodeId::new(0)]],
            );
            // LIFO leaves both of node 0's messages in flight, with their
            // tokens in the LIFO scheduler.
            let mut first = LifoScheduler::new();
            r.enqueue_wake(NodeId::new(0), &mut first);
            assert!(r.run(&mut first, 1).is_err());
            r.exec(NodeId::new(1), second, |_, ctx| ctx.send(NodeId::new(0), Num(7)));
            r.run(second, 100).unwrap();
            r.node(NodeId::new(1)).got.clone()
        };
        let per_event = run(&mut RecordingScheduler::new(FifoScheduler::new()));
        // Node 0's reply takes the token, but the link still delivers its
        // oldest message first.
        assert_eq!(per_event, vec![0]);
        assert_eq!(run(&mut FifoScheduler::new()), per_event);
    }

    #[test]
    fn empty_network_is_trivially_quiescent() {
        let mut r: Runner<Flood> = Runner::new(Vec::new(), Vec::new());
        assert_eq!(r.run(&mut FifoScheduler::new(), 100), Ok(0));
    }

    #[test]
    #[should_panic(expected = "knowledge violation")]
    fn knowledge_violation_panics_in_the_fifo_loop() {
        struct Bad;
        impl Protocol for Bad {
            type Message = Tok;
            fn on_wake(&mut self, ctx: &mut Context<'_, Tok>) {
                ctx.send(NodeId::new(1), Tok);
            }
            fn on_message(&mut self, _: NodeId, _: Tok, _: &mut Context<'_, Tok>) {}
        }
        let mut r = Runner::new(vec![Bad, Bad], vec![vec![], vec![]]);
        let mut s = FifoScheduler::new();
        r.enqueue_wake_all(&mut s);
        let _ = r.run(&mut s, 100);
    }
}
