//! The **frozen pre-reactor event loop**, kept verbatim as the reference
//! the reactor is proven against — do not evolve it.
//!
//! [`LegacyCluster`] is the event loop exactly as it shipped before the
//! sans-I/O rebuild ([`crate::reactor`]): per-delivery effect collection
//! inline in the cluster, a fixed 500µs idle sleep on real transports
//! (the wall-clock busy-poll the reactor replaced with deadline-computed
//! sleeps), and `send_to` failures counted as drops. It exists for two
//! jobs only:
//!
//! * the **parity suite** (`crates/net/tests/reactor_parity.rs`), which
//!   asserts the reactor path is bit-identical to this loop over the
//!   deterministic [`InMemoryTransport`](crate::transport::InMemoryTransport)
//!   — same seeds, same delivery census, same counters, same trace
//!   stream — across many seeds and both protocols;
//! * the **wire-throughput bench**, which reports the reactor's gain over
//!   this loop.
//!
//! New code should use [`crate::runtime::Cluster`]; nothing outside tests
//! and the bench harness should depend on this module.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use cam_overlay::dynamic::{DhtActor, DhtDriver, DhtMsg, DhtProtocol, SUCCESSOR_LIST_LEN};
use cam_overlay::Member;
use cam_ring::{Id, IdSpace, Segment};
use cam_sim::rng::SimRng;
use cam_sim::{ActorId, Duration, SimTime};
use cam_trace::{DeliveryCensus, EventKind, GroupDeliveryCensus, NopTracer, Tracer};

use crate::codec::{decode_frame, encode_frame, Frame};
use crate::runtime::RetransmitPolicy;
use crate::transport::{Transport, WireCounters};

/// A payload frame awaiting acknowledgement.
#[derive(Debug)]
struct PendingAck {
    to: usize,
    frame: Vec<u8>,
    attempts: u32,
    rto: Duration,
    next_at: SimTime,
}

/// Collects a [`DhtActor`]'s effects (sends, timers) during one delivery,
/// for the runtime to turn into frames and timer-heap entries afterwards.
struct Outbox<'a> {
    me: ActorId,
    sends: &'a mut Vec<(ActorId, DhtMsg)>,
    timers: &'a mut Vec<(Duration, u64)>,
    rng: &'a mut SimRng,
    /// The cluster's tracer, so actor-level protocol events carry the
    /// **wire clock** (the cluster's `now`) rather than any per-node time.
    tracer: &'a mut dyn Tracer,
    /// LegacyCluster clock at delivery, pre-read so the outbox never touches the
    /// clock itself.
    now_micros: u64,
}

impl DhtDriver for Outbox<'_> {
    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, to: ActorId, msg: DhtMsg) {
        self.sends.push((to, msg));
    }

    fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.timers.push((delay, tag));
    }

    fn random_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "random_index over an empty range");
        self.rng.uniform_incl(0, len as u64 - 1) as usize
    }

    fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn trace(&mut self, kind: EventKind) {
        self.tracer
            .record(self.now_micros, self.me.index() as u64, kind);
    }
}

/// One live node: a [`DhtActor`] plus the runtime state that hosts it —
/// its timer heap, its retransmit buffer, and its private RNG stream.
#[derive(Debug)]
pub struct LegacyNodeRuntime<P: DhtProtocol> {
    actor: DhtActor<P>,
    alive: bool,
    /// Armed timers as `(fire_at, arm_order, tag)`; `arm_order` keeps
    /// equal-instant timers FIFO.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timer_seq: u64,
    /// Unacknowledged payload frames by sequence number.
    awaiting_ack: HashMap<u64, PendingAck>,
    next_seq: u64,
    rng: SimRng,
}

impl<P: DhtProtocol> LegacyNodeRuntime<P> {
    fn new(index: usize, actor: DhtActor<P>, seed: u64) -> Self {
        LegacyNodeRuntime {
            actor,
            alive: true,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            awaiting_ack: HashMap::new(),
            next_seq: 1,
            rng: SimRng::new(seed).split(0x0DE ^ index as u64),
        }
    }

    /// The hosted actor (routing tables, received payloads, join state).
    pub fn actor(&self) -> &DhtActor<P> {
        &self.actor
    }

    /// Exclusive access to the hosted actor (e.g. for a harness to toggle
    /// anti-entropy on a running node).
    pub fn actor_mut(&mut self) -> &mut DhtActor<P> {
        &mut self.actor
    }

    /// Whether the node is alive (not crash-killed by the harness).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Payload frames currently awaiting acknowledgement.
    pub fn unacked_frames(&self) -> usize {
        self.awaiting_ack.len()
    }

    /// Timers currently armed in this node's heap. A joined node at rest
    /// holds exactly its three maintenance timers; anything more is leaked
    /// runtime state (the chaos harness's cleanup oracle checks this).
    pub fn armed_timers(&self) -> usize {
        self.timers.len()
    }

    fn push_timer(&mut self, at: SimTime, tag: u64) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, tag)));
    }

    /// Earliest instant this node needs the loop's attention.
    fn next_deadline(&self) -> Option<SimTime> {
        if !self.alive {
            return None;
        }
        let timer = self.timers.peek().map(|Reverse((at, _, _))| *at);
        let rto = self.awaiting_ack.values().map(|p| p.next_at).min();
        match (timer, rto) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// An N-node overlay cluster over one [`Transport`] — the deployment
/// counterpart of the sim harness's `DynamicNetwork`.
pub struct LegacyCluster<P: DhtProtocol, T: Transport> {
    space: IdSpace,
    protocol: P,
    nodes: Vec<LegacyNodeRuntime<P>>,
    transport: T,
    policy: RetransmitPolicy,
    now: SimTime,
    /// Wall-clock epoch; `Some` iff the transport runs in real time.
    // cam-lint: allow(determinism, reason = "wall-clock epoch for real transports only; virtual-time runs keep this None and stay replayable")
    epoch: Option<std::time::Instant>,
    seed: u64,
    next_payload: u64,
    scratch_sends: Vec<(ActorId, DhtMsg)>,
    scratch_timers: Vec<(Duration, u64)>,
    /// Event/telemetry sink; [`NopTracer`] (free) unless installed via
    /// [`LegacyCluster::set_tracer`]. Events are stamped with the wire clock
    /// (`self.now`), so virtual-time runs trace deterministically.
    tracer: Box<dyn Tracer>,
}

impl<P: DhtProtocol, T: Transport> LegacyCluster<P, T> {
    /// Builds a *converged* cluster of `members` on endpoints
    /// `0..members.len()` of `transport`: every node starts with correct
    /// successors, predecessor, and fingers (what stabilization would
    /// eventually produce) and its maintenance timers armed — the same
    /// bootstrap the sim harness uses. Additional transport endpoints
    /// stay free for [`LegacyCluster::join`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the transport has too few
    /// endpoints.
    pub fn converged(
        space: IdSpace,
        members: &[Member],
        protocol: P,
        seed: u64,
        transport: T,
        policy: RetransmitPolicy,
    ) -> Self {
        let mut sorted = members.to_vec();
        sorted.sort_by_key(|m| m.id);
        let n = sorted.len();
        assert!(n > 0, "empty cluster");
        assert!(
            transport.endpoints() >= n,
            "transport has {} endpoints for {} members",
            transport.endpoints(),
            n
        );
        // cam-lint: allow(determinism, reason = "wall-clock epoch taken only for real (non-virtual) transports; seeded sim runs never reach it")
        let epoch = (!transport.is_virtual()).then(std::time::Instant::now);
        let mut cluster = LegacyCluster {
            space,
            protocol: protocol.clone(),
            nodes: Vec::with_capacity(n),
            transport,
            policy,
            now: SimTime::ZERO,
            epoch,
            seed,
            next_payload: 1,
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
            tracer: Box::new(NopTracer),
        };

        let directory: HashMap<u64, ActorId> = sorted
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id.value(), ActorId(i)))
            .collect();
        let ids: Vec<Id> = sorted.iter().map(|m| m.id).collect();
        // `partition_point` can return `n`; wrap to the ring's first
        // member. `get`-based so the whole constructor stays index-safe.
        let owner_of = |k: Id| -> Option<Member> {
            let i = ids.partition_point(|&x| x < k);
            sorted.get(if i == n { 0 } else { i }).copied()
        };
        for (i, m) in sorted.iter().enumerate() {
            let mut actor = DhtActor::new(space, *m, protocol.clone());
            let succs: Vec<Member> = (1..=SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)).max(1))
                .filter_map(|d| sorted.get((i + d) % n).copied())
                .collect();
            let pred = sorted.get((i + n - 1) % n).copied().unwrap_or(*m);
            let targets = protocol.neighbor_targets(space, m);
            let fingers: Vec<(Id, Member)> = targets
                .iter()
                .filter_map(|&t| owner_of(t).map(|owner| (t, owner)))
                .collect();
            actor.seed_state(succs, pred, fingers);
            actor.set_directory(directory.clone());
            cluster.nodes.push(LegacyNodeRuntime::new(i, actor, seed));
        }
        for i in 0..n {
            cluster.arm_maintenance(i, i as u64 * 37);
        }
        cluster
    }

    fn arm_maintenance(&mut self, i: usize, jitter: u64) {
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        // Lend the tracer to the outbox alongside the node borrow; the
        // placeholder `NopTracer` box is a ZST and never allocates.
        let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NopTracer));
        let now_micros = self.now.micros();
        {
            let nd = self.node_at_mut(i);
            let mut drv = Outbox {
                me: ActorId(i),
                sends: &mut sends,
                timers: &mut timers,
                rng: &mut nd.rng,
                tracer: tracer.as_mut(),
                now_micros,
            };
            nd.actor.arm_maintenance(&mut drv, jitter);
        }
        self.tracer = tracer;
        self.flush(i, &mut sends, &mut timers);
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Sets the base maintenance period on every node (see
    /// [`DhtActor::set_stabilize_every`]). Real clusters typically lower
    /// it so convergence takes wall-clock seconds, not minutes.
    pub fn set_maintenance_period(&mut self, every: Duration) {
        for nd in &mut self.nodes {
            nd.actor.set_stabilize_every(every);
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Current cluster time (virtual, or elapsed wall clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The runtime hosting node `i` (in ring order for seeded nodes, then
    /// join order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` — node indices are part of the caller's
    /// contract, exactly like slice indexing.
    pub fn node(&self, i: usize) -> &LegacyNodeRuntime<P> {
        self.node_at(i)
    }

    /// Shared access to node `i`. The only raw `nodes[…]` index in the
    /// runtime: every internal caller passes an index from a
    /// `0..self.nodes.len()` loop or an iterator position, wire-derived
    /// indices are bounds-checked before reaching here
    /// ([`LegacyCluster::handle_frame`]), and public entry points document the
    /// panic as their caller contract.
    fn node_at(&self, i: usize) -> &LegacyNodeRuntime<P> {
        // cam-lint: allow(panic_safety, reason = "single audited index; callers pass loop-bounded or pre-checked indices, never raw wire input")
        &self.nodes[i]
    }

    /// Exclusive access to node `i`; same index contract as
    /// [`LegacyCluster::node_at`].
    fn node_at_mut(&mut self, i: usize) -> &mut LegacyNodeRuntime<P> {
        // cam-lint: allow(panic_safety, reason = "single audited index; callers pass loop-bounded or pre-checked indices, never raw wire input")
        &mut self.nodes[i]
    }

    /// The underlying transport (for counters and addresses).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Exclusive access to the transport — fault injection (partitions,
    /// loss bursts, duplication) happens here.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Exclusive access to node `i` (e.g. to toggle anti-entropy).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` — same contract as [`LegacyCluster::node`].
    pub fn node_mut(&mut self, i: usize) -> &mut LegacyNodeRuntime<P> {
        self.node_at_mut(i)
    }

    /// Snapshot of the transport's wire counters.
    pub fn counters(&self) -> WireCounters {
        self.transport.counters()
    }

    /// Installs an event tracer (e.g. a `RecordingTracer`). Protocol
    /// events from every node's actor and runtime-level events
    /// (retransmits, crashes) flow into it, stamped with the wire clock.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &dyn Tracer {
        self.tracer.as_ref()
    }

    /// Exclusive access to the installed tracer.
    pub fn tracer_mut(&mut self) -> &mut dyn Tracer {
        self.tracer.as_mut()
    }

    /// Removes and returns the installed tracer, leaving a [`NopTracer`]
    /// behind — call once at the end of a run to export the trace.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NopTracer))
    }

    /// Copies the transport's wire counters and cluster-level gauges into
    /// the tracer's telemetry registry, unifying both in one trace
    /// artifact. Counters are absolute snapshots — call once, at the end
    /// of a run, before exporting.
    pub fn export_telemetry(&mut self) {
        let c = self.transport.counters();
        let live = self.nodes.iter().filter(|nd| nd.alive).count() as i64;
        let t = self.tracer.as_mut();
        t.counter_add("wire.bytes_sent", c.bytes_sent);
        t.counter_add("wire.bytes_received", c.bytes_received);
        t.counter_add("wire.frames_encoded", c.frames_encoded);
        t.counter_add("wire.frames_decoded", c.frames_decoded);
        t.counter_add("wire.frames_rejected", c.frames_rejected);
        t.counter_add("wire.encode_oversize", c.encode_oversize);
        t.counter_add("wire.frames_dropped", c.frames_dropped);
        t.counter_add("wire.frames_retransmitted", c.frames_retransmitted);
        t.counter_add("wire.frames_abandoned", c.frames_abandoned);
        t.counter_add("wire.internal_errors", c.internal_errors);
        t.gauge_set("cluster.nodes", self.nodes.len() as i64);
        t.gauge_set("cluster.live_nodes", live);
    }

    /// Crash-kills node `i`: its timers and retransmissions stop and
    /// frames addressed to it are ignored, like a dead UDP host. Peers
    /// discover the crash through failure detection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn kill(&mut self, i: usize) {
        let nd = self.node_at_mut(i);
        nd.alive = false;
        nd.timers.clear();
        nd.awaiting_ack.clear();
        let at = self.now.micros();
        self.tracer.record(at, i as u64, EventKind::Crash);
    }

    /// Restarts a crashed node `i` with *fresh* state — the deployment
    /// model of a host rebooting: same identity and endpoint, empty
    /// routing tables and payload store, rejoining through a live peer.
    /// The node's RNG stream and wire sequence numbers continue where they
    /// left off, so restarts stay deterministic and old in-flight frames
    /// cannot collide with new ones. Returns `false` if `i` is alive (a
    /// running node cannot be restarted).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn restart(&mut self, i: usize) -> bool {
        if self.node_at(i).alive {
            return false;
        }
        let member = *self.node_at(i).actor.member();
        let mut actor = DhtActor::new(self.space, member, self.protocol.clone());
        let directory: HashMap<u64, ActorId> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(j, nd)| (nd.actor.member().id.value(), ActorId(j)))
            .collect();
        actor.set_directory(directory);
        let nd = self.node_at_mut(i);
        nd.actor = actor;
        nd.alive = true;
        nd.timers.clear();
        nd.awaiting_ack.clear();
        let at = self.now.micros();
        self.tracer.record(at, i as u64, EventKind::Restart);
        if let Some(bootstrap) = self.bootstrap_for(i) {
            self.send_join_request(i, bootstrap);
        }
        true
    }

    /// The lowest-numbered live, joined node other than `exclude` — the
    /// bootstrap peer for joins and restarts.
    fn bootstrap_for(&self, exclude: usize) -> Option<usize> {
        (0..self.nodes.len()).find(|&j| {
            j != exclude && self.node_at(j).alive && self.node_at(j).actor.is_joined()
        })
    }

    /// Re-sends a join request for every live node whose join has not
    /// completed. Join traffic is unacknowledged, so a request lost to the
    /// wire — or answered by a bootstrap that crashed first — would strand
    /// the joiner forever; a periodic retry makes joins self-healing, the
    /// same way [`LegacyCluster::join_and_wait`] retries inline. Returns how many
    /// requests were re-sent.
    pub fn retry_stalled_joins(&mut self) -> usize {
        let mut retried = 0;
        for i in 0..self.nodes.len() {
            if !self.node_at(i).alive || self.node_at(i).actor.is_joined() {
                continue;
            }
            if let Some(bootstrap) = self.bootstrap_for(i) {
                self.send_join_request(i, bootstrap);
                retried += 1;
            }
        }
        retried
    }

    /// Adds `member` as a fresh node on the next free transport endpoint
    /// and starts its join through the lowest-numbered live node, exactly
    /// like the sim harness: the address book is updated out of band (the
    /// deployment equivalent is carrying addresses on the wire), but ring
    /// membership is negotiated by the join protocol itself.
    ///
    /// Returns the new node's index, or `None` if the id is taken, no
    /// live bootstrap exists, or the transport is out of endpoints.
    pub fn join(&mut self, member: Member) -> Option<usize> {
        if self
            .nodes
            .iter()
            .any(|nd| nd.actor.member().id == member.id)
        {
            return None;
        }
        let idx = self.nodes.len();
        if idx >= self.transport.endpoints() {
            return None;
        }
        let bootstrap = self.nodes.iter().position(|nd| nd.alive)?;
        let mut actor = DhtActor::new(self.space, member, self.protocol.clone());
        let mut directory: HashMap<u64, ActorId> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| (nd.actor.member().id.value(), ActorId(i)))
            .collect();
        directory.insert(member.id.value(), ActorId(idx));
        actor.set_directory(directory);
        for nd in &mut self.nodes {
            nd.actor.add_directory_entry(member.id, ActorId(idx));
        }
        self.nodes
            .push(LegacyNodeRuntime::new(idx, actor, self.seed));
        self.send_join_request(idx, bootstrap);
        Some(idx)
    }

    fn send_join_request(&mut self, joiner: usize, bootstrap: usize) {
        let msg = DhtMsg::JoinRequest {
            joiner: *self.node_at(joiner).actor.member(),
            joiner_actor: ActorId(joiner),
        };
        self.send_msg(joiner, ActorId(bootstrap), msg);
    }

    /// Runs until node `i` completes its join, re-sending the join
    /// request every `retry_every` (join traffic is unacknowledged, so a
    /// lost request would otherwise strand the joiner). Returns whether
    /// the join completed within `timeout`.
    pub fn join_and_wait(
        &mut self,
        member: Member,
        retry_every: Duration,
        timeout: Duration,
    ) -> bool {
        let Some(idx) = self.join(member) else {
            return false;
        };
        let mut waited = Duration::ZERO;
        while waited < timeout {
            let slice = retry_every.min(timeout);
            self.run_for(slice);
            waited = Duration::from_micros(waited.micros() + slice.micros());
            if self.node_at(idx).actor.is_joined() {
                return true;
            }
            if let Some(bootstrap) = self
                .nodes
                .iter()
                .enumerate()
                .position(|(i, nd)| nd.alive && i != idx && nd.actor.is_joined())
            {
                self.send_join_request(idx, bootstrap);
            }
        }
        self.node_at(idx).actor.is_joined()
    }

    /// Initiates a multicast at node `source` carrying `data`, returning
    /// the payload id. `region_split` chooses CAM-Chord region multicast
    /// over constrained flooding, as in the sim harness.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()`.
    pub fn start_multicast(
        &mut self,
        source: usize,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let member_id = self.node_at(source).actor.member().id;
        let region = region_split.then(|| Segment::all_but(self.space, member_id));
        self.dispatch(
            source,
            ActorId(source),
            DhtMsg::Multicast {
                payload,
                region,
                hops: 0,
                data,
            },
        );
        payload
    }

    /// Subscribes node `subscriber` to pub/sub group `group`: its local
    /// delivery filter flips immediately and the membership routes over
    /// the wire to the group's rendezvous root — the same message flow as
    /// the sim harness, so censuses from both hosts are comparable.
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()`.
    pub fn subscribe(&mut self, subscriber: usize, group: u64) {
        let member = self.node_at(subscriber).actor.member().id.value();
        self.dispatch(
            subscriber,
            ActorId(subscriber),
            DhtMsg::GroupSubscribe { group, member },
        );
    }

    /// Removes node `subscriber`'s subscription to `group` (routed like
    /// [`LegacyCluster::subscribe`]).
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= self.len()`.
    pub fn unsubscribe(&mut self, subscriber: usize, group: u64) {
        let member = self.node_at(subscriber).actor.member().id.value();
        self.dispatch(
            subscriber,
            ActorId(subscriber),
            DhtMsg::GroupUnsubscribe { group, member },
        );
    }

    /// Initiates a publish in `group` at node `source`, returning the
    /// payload id. Forwarded like a multicast (acked, retransmitted), but
    /// only subscribers deliver it.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.len()`.
    pub fn start_group_publish(
        &mut self,
        source: usize,
        group: u64,
        region_split: bool,
        data: bytes::Bytes,
    ) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let member_id = self.node_at(source).actor.member().id;
        let region = region_split.then(|| Segment::all_but(self.space, member_id));
        self.dispatch(
            source,
            ActorId(source),
            DhtMsg::GroupPublish {
                group,
                payload,
                region,
                hops: 0,
                data,
            },
        );
        payload
    }

    /// Folds the given `(group, payload)` publishes into a per-group
    /// [`GroupDeliveryCensus`] over each group's live subscribers — the
    /// same fold as the sim harness's `group_delivery_census`, so equal
    /// seeds produce bit-identical censuses across hosts.
    pub fn group_delivery_census(&self, publishes: &[(u64, u64)]) -> GroupDeliveryCensus {
        let mut census = GroupDeliveryCensus::new();
        for nd in &self.nodes {
            if nd.alive {
                for &(group, payload) in publishes {
                    if nd.actor.is_subscribed(group) {
                        census.observe(group, true, nd.actor.has_group_payload(group, payload));
                    }
                }
            }
        }
        census
    }

    /// Fraction of live nodes that have received `payload`, under the
    /// same [`DeliveryCensus`] rules the sim harness uses, so ratios from
    /// both hosts are directly comparable.
    pub fn delivery_ratio(&self, payload: u64) -> f64 {
        let mut census = DeliveryCensus::new();
        for nd in &self.nodes {
            census.observe(nd.alive, nd.actor.payload_hops(payload).is_some());
        }
        census.ratio()
    }

    /// Mean overlay hop count of `payload` over nodes that received it.
    pub fn mean_hops(&self, payload: u64) -> f64 {
        let (mut total, mut count) = (0u64, 0u64);
        for nd in &self.nodes {
            if let Some(h) = nd.actor.payload_hops(payload) {
                total += u64::from(h);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Maximum overlay hop count of `payload` over nodes that received it.
    pub fn max_hops(&self, payload: u64) -> u32 {
        self.nodes
            .iter()
            .filter_map(|nd| nd.actor.payload_hops(payload))
            .max()
            .unwrap_or(0)
    }

    /// Runs the cluster for `span` (virtual or wall-clock, per the
    /// transport).
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.horizon(span);
        while self.step(deadline) {}
    }

    /// Runs until `done(self)` holds or `timeout` elapses; returns the
    /// final verdict of `done`. The predicate is evaluated between event
    /// batches, so it sees a consistent cluster.
    pub fn run_until<F: FnMut(&Self) -> bool>(
        &mut self,
        timeout: Duration,
        mut done: F,
    ) -> bool {
        let deadline = self.horizon(timeout);
        loop {
            if done(self) {
                return true;
            }
            if !self.step(deadline) {
                return done(self);
            }
        }
    }

    fn horizon(&mut self, span: Duration) -> SimTime {
        if let Some(epoch) = self.epoch {
            SimTime(epoch.elapsed().as_micros() as u64) + span
        } else {
            self.now + span
        }
    }

    /// Advances the cluster by one event batch. Returns `false` once
    /// `deadline` is reached (virtual: no event remains at or before it;
    /// real: the wall clock passed it).
    fn step(&mut self, deadline: SimTime) -> bool {
        if let Some(epoch) = self.epoch {
            self.now = SimTime(epoch.elapsed().as_micros() as u64);
            if self.now >= deadline {
                return false;
            }
            if !self.drain() {
                // Idle: yield briefly instead of spinning on the sockets.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            true
        } else {
            let mut next = self.transport.next_ready();
            for nd in &self.nodes {
                next = match (next, nd.next_deadline()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            match next {
                Some(t) if t <= deadline => {
                    self.now = self.now.max(t);
                    self.drain();
                    true
                }
                _ => {
                    self.now = deadline;
                    false
                }
            }
        }
    }

    /// Delivers every ready frame and fires every due timer/retransmit at
    /// the current instant. Returns whether anything happened.
    fn drain(&mut self) -> bool {
        let mut did = false;
        while let Some((to, bytes)) = self.transport.poll(self.now) {
            did = true;
            self.handle_frame(to, &bytes);
        }
        for i in 0..self.nodes.len() {
            did |= self.pump_node(i);
        }
        did
    }

    fn handle_frame(&mut self, to: usize, bytes: &[u8]) {
        if to >= self.nodes.len() {
            // The transport may own more endpoints than attached nodes
            // (spare sockets held for `join`); a datagram arriving on a
            // spare endpoint has no node to deliver to. Real sockets can
            // see this from any stray sender — count it, never index.
            self.transport.counters_mut().internal_errors += 1;
            return;
        }
        match decode_frame(bytes) {
            Err(_) => self.transport.counters_mut().frames_rejected += 1,
            Ok(Frame::Ack { seq, .. }) => {
                self.transport.counters_mut().frames_decoded += 1;
                self.node_at_mut(to).awaiting_ack.remove(&seq);
            }
            Ok(Frame::Data {
                from,
                seq,
                ack_required,
                msg,
            }) => {
                self.transport.counters_mut().frames_decoded += 1;
                let from = from as usize;
                if from >= self.nodes.len() {
                    // Envelope names an endpoint we never attached — a
                    // stale or corrupt-but-parseable frame. Ignore it.
                    self.transport.counters_mut().frames_rejected += 1;
                    return;
                }
                if ack_required {
                    match encode_frame(&Frame::Ack {
                        from: to as u64,
                        seq,
                    }) {
                        Ok(ack) => {
                            self.transport.counters_mut().frames_encoded += 1;
                            self.transport.send(self.now, to, from, &ack);
                        }
                        // An ack is a few bytes; failing to encode one is
                        // an internal bug — counted, not fatal.
                        Err(_) => self.transport.counters_mut().internal_errors += 1,
                    }
                }
                if self.node_at(to).alive {
                    self.dispatch(to, ActorId(from), msg);
                }
            }
        }
    }

    /// Feeds `msg` to node `i`'s actor and flushes the effects.
    fn dispatch(&mut self, i: usize, from: ActorId, msg: DhtMsg) {
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NopTracer));
        let now_micros = self.now.micros();
        {
            let nd = self.node_at_mut(i);
            let mut drv = Outbox {
                me: ActorId(i),
                sends: &mut sends,
                timers: &mut timers,
                rng: &mut nd.rng,
                tracer: tracer.as_mut(),
                now_micros,
            };
            nd.actor.deliver(&mut drv, from, msg);
        }
        self.tracer = tracer;
        self.flush(i, &mut sends, &mut timers);
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Turns collected effects into frames on the wire and timer-heap
    /// entries.
    fn flush(
        &mut self,
        i: usize,
        sends: &mut Vec<(ActorId, DhtMsg)>,
        timers: &mut Vec<(Duration, u64)>,
    ) {
        for (delay, tag) in timers.drain(..) {
            let at = self.now + delay;
            self.node_at_mut(i).push_timer(at, tag);
        }
        for (to, msg) in sends.drain(..) {
            self.send_msg(i, to, msg);
        }
    }

    /// Encodes `msg` as a DATA frame from node `i` and ships it; payload
    /// frames additionally enter the retransmit buffer.
    fn send_msg(&mut self, i: usize, to: ActorId, msg: DhtMsg) {
        let to = to.index();
        if to >= self.transport.endpoints() {
            return; // stale address: lost, like the sim's unknown actor
        }
        let needs_ack = matches!(
            msg,
            DhtMsg::Multicast { .. } | DhtMsg::PayloadPush { .. } | DhtMsg::GroupPublish { .. }
        );
        let nd = self.node_at_mut(i);
        let seq = nd.next_seq;
        nd.next_seq += 1;
        let frame = Frame::Data {
            from: i as u64,
            seq,
            ack_required: needs_ack,
            msg,
        };
        match encode_frame(&frame) {
            Err(_) => {
                // Too large for one frame (e.g. an oversized payload or
                // digest): counted, not sent. Anti-entropy will not help
                // here either — the payload itself must fit.
                self.transport.counters_mut().encode_oversize += 1;
            }
            Ok(bytes) => {
                self.transport.counters_mut().frames_encoded += 1;
                if needs_ack {
                    let pending = PendingAck {
                        to,
                        frame: bytes.clone(),
                        attempts: 1,
                        rto: self.policy.initial_rto,
                        next_at: self.now + self.policy.initial_rto,
                    };
                    self.node_at_mut(i).awaiting_ack.insert(seq, pending);
                }
                self.transport.send(self.now, i, to, &bytes);
            }
        }
    }

    /// Fires node `i`'s due timers and retransmissions. Returns whether
    /// anything fired.
    fn pump_node(&mut self, i: usize) -> bool {
        let mut did = false;
        while let Some(&Reverse((at, _, tag))) = self.node_at(i).timers.peek() {
            if at > self.now {
                break;
            }
            self.node_at_mut(i).timers.pop();
            if !self.node_at(i).alive {
                continue;
            }
            did = true;
            let mut sends = std::mem::take(&mut self.scratch_sends);
            let mut timers = std::mem::take(&mut self.scratch_timers);
            let mut tracer = std::mem::replace(&mut self.tracer, Box::new(NopTracer));
            let now_micros = self.now.micros();
            {
                let nd = self.node_at_mut(i);
                let mut drv = Outbox {
                    me: ActorId(i),
                    sends: &mut sends,
                    timers: &mut timers,
                    rng: &mut nd.rng,
                    tracer: tracer.as_mut(),
                    now_micros,
                };
                nd.actor.deliver_timer(&mut drv, tag);
            }
            self.tracer = tracer;
            self.flush(i, &mut sends, &mut timers);
            self.scratch_sends = sends;
            self.scratch_timers = timers;
        }
        if !self.node_at(i).alive {
            return did;
        }
        let mut due: Vec<u64> = self
            .node_at(i)
            .awaiting_ack
            .iter()
            .filter(|(_, p)| p.next_at <= self.now)
            .map(|(&seq, _)| seq)
            .collect();
        // HashMap iteration order is per-instance random; retransmit in
        // sequence order so virtual-time runs stay deterministic.
        due.sort_unstable();
        for seq in due {
            did = true;
            let policy = self.policy;
            let now = self.now;
            let Some(p) = self.node_at_mut(i).awaiting_ack.get_mut(&seq) else {
                continue; // acked between collection and retransmission
            };
            if p.attempts >= policy.max_attempts {
                self.node_at_mut(i).awaiting_ack.remove(&seq);
                self.transport.counters_mut().frames_abandoned += 1;
                continue;
            }
            p.attempts += 1;
            p.rto = p.rto.saturating_mul(2).min(policy.max_rto);
            p.next_at = now + p.rto;
            let (to, bytes) = (p.to, p.frame.clone());
            let (attempt, rto) = (p.attempts - 1, p.rto);
            self.transport.counters_mut().frames_retransmitted += 1;
            self.tracer.record(
                now.micros(),
                i as u64,
                EventKind::Retransmit {
                    to: to as u64,
                    wire_seq: seq,
                    attempt,
                    rto_micros: rto.micros(),
                },
            );
            self.transport.send(self.now, i, to, &bytes);
        }
        did
    }
}
