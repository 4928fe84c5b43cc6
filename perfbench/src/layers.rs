//! Probes that time calls into the program's layers from outside: a
//! [`Transport`] wrapper, a codec probe fed with the frames that wrapper
//! ships, and per-message-kind accumulators.

use std::time::Instant;

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::codec::{decode_frame, encode_frame_into, Frame};
use cam_net::reactor::{FrameSink, ReactorCore};
use cam_net::runtime::RetransmitPolicy;
use cam_net::transport::{OutFrame, Transport, WireCounters};
use cam_overlay::dynamic::{CollectedEffects, DhtMsg, EffectDriver};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::engine::ActorId;
use cam_sim::rng::SimRng;
use cam_sim::SimTime;
use cam_trace::NopTracer;

use crate::report::ratio;

/// Wire names of the `DhtMsg` kinds, in [`kind_of`] order; the last slot
/// is the reactor's ack frame.
pub const KINDS: [&str; 17] = [
    "lookup",
    "lookup_done",
    "stabilize_query",
    "stabilize_reply",
    "notify",
    "ping",
    "pong",
    "multicast",
    "anti_entropy_digest",
    "payload_pull_req",
    "payload_push",
    "join_request",
    "join_answer",
    "group_subscribe",
    "group_unsubscribe",
    "group_publish",
    "ack",
];

/// The 13 kinds outside the pub/sub group protocol, which the per-kind
/// actor metrics cover.
pub const ACTOR_KINDS: usize = 13;
pub const ACK: usize = 16;
pub const MULTICAST: usize = 7;

pub fn kind_of(msg: &DhtMsg) -> usize {
    match msg {
        DhtMsg::Lookup { .. } => 0,
        DhtMsg::LookupDone { .. } => 1,
        DhtMsg::StabilizeQuery => 2,
        DhtMsg::StabilizeReply { .. } => 3,
        DhtMsg::Notify(_) => 4,
        DhtMsg::Ping { .. } => 5,
        DhtMsg::Pong { .. } => 6,
        DhtMsg::Multicast { .. } => 7,
        DhtMsg::AntiEntropyDigest { .. } => 8,
        DhtMsg::PayloadPullReq { .. } => 9,
        DhtMsg::PayloadPush { .. } => 10,
        DhtMsg::JoinRequest { .. } => 11,
        DhtMsg::JoinAnswer { .. } => 12,
        DhtMsg::GroupSubscribe { .. } => 13,
        DhtMsg::GroupUnsubscribe { .. } => 14,
        DhtMsg::GroupPublish { .. } => 15,
    }
}

pub fn frame_kind(frame: &Frame) -> usize {
    match frame {
        Frame::Data { msg, .. } => kind_of(msg),
        Frame::Ack { .. } => ACK,
    }
}

/// Count and total nanoseconds per kind.
#[derive(Debug, Clone, Default)]
pub struct PerKind {
    pub count: [u64; 17],
    pub ns: [u64; 17],
}

impl PerKind {
    pub fn add(&mut self, kind: usize, ns: u64) {
        self.count[kind] += 1;
        self.ns[kind] += ns;
    }

    pub fn mean_ns(&self, kind: usize) -> f64 {
        ratio(self.ns[kind] as f64, self.count[kind] as f64)
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn total_count(&self) -> u64 {
        self.count.iter().sum()
    }

    /// Traffic-weighted mean over every kind.
    pub fn weighted_ns(&self) -> f64 {
        ratio(self.total_ns() as f64, self.total_count() as f64)
    }
}

/// Decodes and re-encodes every shipped frame, timing each call: the
/// codec cost on the workload's own traffic mix.
#[derive(Debug, Default)]
pub struct CodecProbe {
    pub decode: PerKind,
    pub encode: PerKind,
    pub bytes: u64,
    pub rejected: u64,
    /// Time the probe itself took (harness overhead, not program time).
    pub spent_ns: u64,
    scratch: Vec<u8>,
}

impl CodecProbe {
    pub fn observe(&mut self, buf: &[u8]) {
        let start = Instant::now();
        self.bytes += buf.len() as u64;
        let t = Instant::now();
        let frame = decode_frame(buf);
        let decode_ns = t.elapsed().as_nanos() as u64;
        let Ok(frame) = frame else {
            self.rejected += 1;
            self.spent_ns += start.elapsed().as_nanos() as u64;
            return;
        };
        let kind = frame_kind(&frame);
        self.decode.add(kind, decode_ns);
        let t = Instant::now();
        let ok = encode_frame_into(&frame, &mut self.scratch).is_ok();
        self.encode.add(kind, t.elapsed().as_nanos() as u64);
        if !ok || self.scratch.as_slice() != buf {
            self.rejected += 1;
        }
        self.spent_ns += start.elapsed().as_nanos() as u64;
    }
}

/// A [`Transport`] that forwards every call to `inner` and times the
/// batched send and receive paths and the readiness wait.
pub struct Timed<T> {
    pub inner: T,
    pub send_ns: u64,
    pub sent_frames: u64,
    pub poll_ns: u64,
    pub poll_calls: u64,
    pub polled_frames: u64,
    pub wait_ns: u64,
    pub probe: CodecProbe,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            send_ns: 0,
            sent_frames: 0,
            poll_ns: 0,
            poll_calls: 0,
            polled_frames: 0,
            wait_ns: 0,
            probe: CodecProbe::default(),
        }
    }

    /// Zeroes the timings and counts, to start a measured window.
    pub fn reset(&mut self) {
        self.send_ns = 0;
        self.sent_frames = 0;
        self.poll_ns = 0;
        self.poll_calls = 0;
        self.polled_frames = 0;
        self.wait_ns = 0;
        self.probe = CodecProbe::default();
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]) {
        let t = Instant::now();
        self.inner.send(now, from, to, frame);
        self.send_ns += t.elapsed().as_nanos() as u64;
        self.sent_frames += 1;
        self.probe.observe(frame);
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        let t = Instant::now();
        let got = self.inner.poll(now);
        self.poll_ns += t.elapsed().as_nanos() as u64;
        self.poll_calls += 1;
        self.polled_frames += u64::from(got.is_some());
        got
    }

    fn next_ready(&self) -> Option<SimTime> {
        self.inner.next_ready()
    }

    fn is_virtual(&self) -> bool {
        self.inner.is_virtual()
    }

    fn counters(&self) -> WireCounters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut WireCounters {
        self.inner.counters_mut()
    }

    fn send_batch(&mut self, now: SimTime, frames: &[OutFrame]) {
        let t = Instant::now();
        self.inner.send_batch(now, frames);
        self.send_ns += t.elapsed().as_nanos() as u64;
        self.sent_frames += frames.len() as u64;
        for f in frames {
            self.probe.observe(&f.buf);
        }
    }

    fn poll_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> usize {
        let t = Instant::now();
        let got = self.inner.poll_batch(now, max, out);
        self.poll_ns += t.elapsed().as_nanos() as u64;
        self.poll_calls += 1;
        self.polled_frames += got as u64;
        got
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.inner.recycle(buf);
    }

    fn wait(&mut self, dur: std::time::Duration) -> bool {
        let t = Instant::now();
        let woke = self.inner.wait(dur);
        self.wait_ns += t.elapsed().as_nanos() as u64;
        woke
    }

    fn supports_readiness(&self) -> bool {
        self.inner.supports_readiness()
    }

    fn flush_backpressure(&mut self, now: SimTime) -> bool {
        self.inner.flush_backpressure(now)
    }

    fn has_backpressure(&self) -> bool {
        self.inner.has_backpressure()
    }
}

/// Per-layer metrics of one workload's traced run, by name.
pub type Layers = Vec<(String, f64, &'static str)>;

pub fn push(l: &mut Layers, name: impl Into<String>, v: f64, unit: &'static str) {
    l.push((name.into(), v, unit));
}

/// Delivered messages per node-second, per actor kind.
pub fn per_kind_rates(l: &mut Layers, count: &[u64; 17], node_s: f64) {
    for (k, name) in KINDS.iter().enumerate().take(ACTOR_KINDS) {
        push(
            l,
            format!("dynamic.msgs_per_node_s.{name}"),
            ratio(count[k] as f64, node_s),
            "1/s",
        );
    }
}

/// Per-kind codec costs for the kinds that dominate traffic or latency.
pub fn codec_kinds(l: &mut Layers, probe: &CodecProbe) {
    for (k, name) in [
        (MULTICAST, "multicast"),
        (ACK, "ack"),
        (3, "stabilize_reply"),
        (5, "ping"),
        (8, "anti_entropy_digest"),
    ] {
        push(
            l,
            format!("codec.encode_ns.{name}"),
            probe.encode.mean_ns(k),
            "ns",
        );
        push(
            l,
            format!("codec.decode_ns.{name}"),
            probe.decode.mean_ns(k),
            "ns",
        );
    }
}

/// A `ReactorCore` and its transport, driven one call at a time by a
/// benchmark-side copy of one of `Cluster`'s step loops, so that
/// `handle_frame`, `poll` and `next_wake` are timed separately. Every
/// fourth data frame is also replayed into a clone of the addressed actor
/// through `EffectDriver`, to time the actor alone.
pub struct TimedCore<T> {
    pub core: ReactorCore<CamChordProtocol>,
    pub wire: Timed<T>,
    sink: FrameSink,
    pub handle_ns: u64,
    pub frames: u64,
    /// Handled frames by kind (counts only).
    pub handled: PerKind,
    /// Frames shipped by `handle_frame` (acks and actor sends).
    pub frames_out_of_handle: u64,
    pub poll_ns: u64,
    pub polls: u64,
    pub wake_ns: u64,
    pub wakes: u64,
    /// Actor time per kind, from the replays.
    pub replay: PerKind,
    /// Time spent classifying and replaying frames (harness, not program).
    pub probe_ns: u64,
    /// Wire counters at the start of the measured window.
    pub base: WireCounters,
    replay_rng: SimRng,
    fx: CollectedEffects,
}

impl<T: Transport> TimedCore<T> {
    pub fn converged(space: IdSpace, members: &[Member], seed: u64, wire: T) -> Self {
        let mut wire = Timed::new(wire);
        let mut sink = FrameSink::new();
        let core = ReactorCore::converged(
            space,
            members,
            CamChordProtocol,
            seed,
            wire.endpoints(),
            RetransmitPolicy::default(),
            &mut sink,
            wire.counters_mut(),
        );
        let mut t = TimedCore {
            core,
            wire,
            sink,
            handle_ns: 0,
            frames: 0,
            handled: PerKind::default(),
            frames_out_of_handle: 0,
            poll_ns: 0,
            polls: 0,
            wake_ns: 0,
            wakes: 0,
            replay: PerKind::default(),
            probe_ns: 0,
            base: WireCounters::default(),
            replay_rng: SimRng::new(seed),
            fx: CollectedEffects::new(),
        };
        t.flush(SimTime::ZERO);
        t
    }

    /// Starts the measured window: zeroes every timing and count.
    pub fn reset(&mut self) {
        self.wire.reset();
        self.handle_ns = 0;
        self.frames = 0;
        self.handled = PerKind::default();
        self.frames_out_of_handle = 0;
        self.poll_ns = 0;
        self.polls = 0;
        self.wake_ns = 0;
        self.wakes = 0;
        self.replay = PerKind::default();
        self.probe_ns = 0;
        self.base = self.wire.counters();
    }

    /// Ships every queued frame; returns how many.
    pub fn flush(&mut self, now: SimTime) -> usize {
        let n = self.sink.frames().len();
        if n > 0 {
            self.wire.send_batch(now, self.sink.frames());
            self.sink.recycle_all();
        }
        n
    }

    pub fn next_wake(&mut self) -> Option<SimTime> {
        let t = Instant::now();
        let wake = self.core.next_wake();
        self.wake_ns += t.elapsed().as_nanos() as u64;
        self.wakes += 1;
        wake
    }

    /// `handle_frame` for one received frame, then ships what it queued.
    pub fn handle(&mut self, now: SimTime, to: usize, bytes: Vec<u8>) {
        let t = Instant::now();
        let kind = decode_frame(&bytes).map_or(ACK, |f| frame_kind(&f));
        self.handled.add(kind, 0);
        if kind != ACK && self.frames.is_multiple_of(4) {
            self.replay(now, to, &bytes);
        }
        self.probe_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        self.core
            .handle_frame(now, to, &bytes, &mut self.sink, self.wire.counters_mut());
        self.handle_ns += t.elapsed().as_nanos() as u64;
        self.frames += 1;
        self.frames_out_of_handle += self.flush(now) as u64;
        self.wire.recycle(bytes);
    }

    /// Fires due timers and retransmissions; returns whether anything did.
    pub fn poll(&mut self, now: SimTime) -> bool {
        let t = Instant::now();
        let did = self
            .core
            .poll(now, &mut self.sink, self.wire.counters_mut());
        self.poll_ns += t.elapsed().as_nanos() as u64;
        self.polls += 1;
        self.flush(now);
        did
    }

    pub fn start_multicast(&mut self, now: SimTime, source: usize, data: Bytes) -> u64 {
        let p = self.core.start_multicast(
            now,
            source,
            true,
            data,
            &mut self.sink,
            self.wire.counters_mut(),
        );
        self.flush(now);
        p
    }

    /// Times the addressed actor alone on a clone, outside the reactor.
    fn replay(&mut self, now: SimTime, to: usize, bytes: &[u8]) {
        let Ok(Frame::Data { from, msg, .. }) = decode_frame(bytes) else {
            return;
        };
        let node = self.core.node(to);
        if !node.is_alive() {
            return;
        }
        let kind = kind_of(&msg);
        let mut actor = node.actor().clone();
        let mut tracer = NopTracer;
        let mut drv = EffectDriver {
            me: ActorId(to),
            effects: &mut self.fx,
            rng: &mut self.replay_rng,
            tracer: &mut tracer,
            now_micros: now.micros(),
        };
        let t = Instant::now();
        actor.deliver(&mut drv, ActorId(from as usize), msg);
        self.replay.add(kind, t.elapsed().as_nanos() as u64);
        self.fx.clear();
    }

    /// Estimated parts of the time inside `handle_frame`, in ns: the decode
    /// of each handled frame, the actor (from the replays) and the encodes
    /// of what it shipped.
    pub fn handle_parts(&self) -> (f64, f64, f64) {
        let probe = &self.wire.probe;
        let decode: f64 = (0..17)
            .map(|k| self.handled.count[k] as f64 * probe.decode.mean_ns(k))
            .sum();
        let actor: f64 = (0..17)
            .map(|k| self.handled.count[k] as f64 * self.replay.mean_ns(k))
            .sum();
        let encode = self.frames_out_of_handle as f64 * probe.encode.weighted_ns();
        (decode, actor, encode)
    }

    /// The actor, codec and reactor metrics this probe measures.
    /// `publishes` is the number of multicasts started in the window.
    pub fn push_layers(&self, l: &mut Layers, publishes: f64) {
        let probe = &self.wire.probe;
        for (k, name) in KINDS.iter().enumerate().take(ACTOR_KINDS) {
            push(
                l,
                format!("dynamic.deliver_ns.{name}"),
                self.replay.mean_ns(k),
                "ns",
            );
        }
        push(l, "codec.encode_ns", probe.encode.weighted_ns(), "ns");
        push(l, "codec.decode_ns", probe.decode.weighted_ns(), "ns");
        codec_kinds(l, probe);
        push(
            l,
            "codec.bytes_per_frame",
            ratio(probe.bytes as f64, self.wire.sent_frames as f64),
            "B",
        );
        let (decode, actor, encode) = self.handle_parts();
        push(
            l,
            "reactor.handle_frame_ns",
            ratio(
                self.handle_ns as f64 - decode - actor - encode,
                self.frames as f64,
            ),
            "ns",
        );
        push(
            l,
            "reactor.poll_ns",
            ratio(self.poll_ns as f64, self.polls as f64),
            "ns",
        );
        push(
            l,
            "reactor.poll_calls_per_frame",
            ratio(self.polls as f64, self.frames as f64),
            "count",
        );
        push(
            l,
            "reactor.next_wake_ns",
            ratio(self.wake_ns as f64, self.wakes as f64),
            "ns",
        );
        push(
            l,
            "reactor.retransmits_per_publish",
            ratio(
                (self.wire.counters().frames_retransmitted - self.base.frames_retransmitted)
                    as f64,
                publishes,
            ),
            "count",
        );
        push(
            l,
            "reactor.acks_per_publish",
            ratio(probe.encode.count[ACK] as f64, publishes),
            "count",
        );
    }
}
