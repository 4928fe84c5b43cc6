//! `publish_udp`: a CAM-Chord `Cluster` on one loopback `MuxUdpTransport`
//! socket, fed by an open-loop publisher in real time.

use std::collections::VecDeque;
use std::time::Instant;

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, LoopStats, NodeRuntime, RetransmitPolicy};
use cam_net::transport::Transport;
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::{Duration, SimTime};
use cam_workload::Scenario;

use crate::layers::{per_kind_rates, push, Layers, TimedCore};
use crate::report::{quantile, ratio, setup_s, thread_cpu_s, Report, SplitMix};

/// Cluster size. A multicast's frames all land on the one mux socket, and
/// at 256 nodes each 1 KiB burst overflows its default receive buffer:
/// frames are lost on every publish, latency sits on the 150 ms
/// retransmission timeout and some publishes miss the deadline. At 128
/// nodes the loss appears whenever the shared host slows the loop, and p99
/// jumps between ~13 ms and the timeout from run to run (see README.md).
/// At 64 nodes the wire stays loss-free, so the tail repeats and a change
/// that adds loss shows.
pub const NODES: usize = 64;
pub const PAYLOAD: usize = 1024;
/// Nominal open-loop rate.
pub const RATE: f64 = 50.0;
/// A publish not delivered to every node this long after it was due
/// counts as failed; its latency sample is censored at this value.
const DEADLINE_S: f64 = 3.0;
/// Wall-clock settling after the cluster is built, before any publish.
const WARMUP: Duration = Duration(500_000);
/// Rates probed, untraced, after the nominal phase of the traced run.
const LADDER: [f64; 4] = [100.0, 200.0, 400.0, 800.0];
const LADDER_S: f64 = 2.0;
/// Builds per `setup_s` sample (one takes well under a millisecond).
const SETUP_REPS: usize = 51;

fn members(seed: u64) -> (IdSpace, Vec<Member>) {
    let set = Scenario::paper_default(seed).with_n(NODES).members();
    (set.space(), set.iter().collect())
}

fn build<T: Transport>(seed: u64, wire: T) -> Cluster<CamChordProtocol, T> {
    let (space, ms) = members(seed);
    Cluster::converged(
        space,
        &ms,
        CamChordProtocol,
        seed,
        wire,
        RetransmitPolicy::default(),
    )
}

fn bind() -> MuxUdpTransport {
    MuxUdpTransport::bind(NODES).expect("bind a loopback UDP socket")
}

/// What the open-loop publisher needs from a real-time host: `Cluster`
/// itself, or [`TracedUdp`], a timed copy of its loop.
trait Live {
    fn nodes(&self) -> usize;
    fn node(&self, i: usize) -> &NodeRuntime<CamChordProtocol>;
    fn publish(&mut self, source: usize, data: Bytes) -> u64;
    /// Runs until `done` holds or `timeout` passes (`Cluster::run_until`).
    fn run_until<F: FnMut(&Self) -> bool>(&mut self, timeout: Duration, done: F) -> bool;
}

impl<T: Transport> Live for Cluster<CamChordProtocol, T> {
    fn nodes(&self) -> usize {
        self.len()
    }
    fn node(&self, i: usize) -> &NodeRuntime<CamChordProtocol> {
        Cluster::node(self, i)
    }
    fn publish(&mut self, source: usize, data: Bytes) -> u64 {
        self.start_multicast(source, true, data)
    }
    fn run_until<F: FnMut(&Self) -> bool>(&mut self, timeout: Duration, done: F) -> bool {
        Cluster::run_until(self, timeout, done)
    }
}

/// `Cluster`'s receive batch per `poll_batch` call, and how long it parks
/// at most while sends wait in the transport's backpressure queue.
const RECV_BATCH: usize = 64;
const BACKPRESSURE_RETRY: Duration = Duration(500);

/// The reactor core on the mux socket, driven by a copy of `Cluster`'s
/// real-time step loop one timed call at a time (see [`TimedCore`]).
struct TracedUdp {
    tc: TimedCore<MuxUdpTransport>,
    epoch: Instant,
    now: SimTime,
    rx: Vec<(usize, Vec<u8>)>,
    stats: LoopStats,
}

impl TracedUdp {
    fn build(seed: u64) -> Self {
        let (space, ms) = members(seed);
        let epoch = Instant::now();
        TracedUdp {
            tc: TimedCore::converged(space, &ms, seed, bind()),
            epoch,
            now: SimTime::ZERO,
            rx: Vec::with_capacity(RECV_BATCH),
            stats: LoopStats::default(),
        }
    }

    fn clock(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// `Cluster::step_real`: drain ready frames, fire due timers from the
    /// corrected clock, then park until the next deadline (the mux
    /// transport wakes early when a frame arrives).
    fn step(&mut self, deadline: SimTime) -> bool {
        self.now = self.clock();
        if self.now >= deadline {
            return false;
        }
        self.stats.wakeups += 1;
        let mut busy = false;
        let mut batch = std::mem::take(&mut self.rx);
        loop {
            batch.clear();
            if self.tc.wire.poll_batch(self.now, RECV_BATCH, &mut batch) == 0 {
                break;
            }
            busy = true;
            for (to, bytes) in batch.drain(..) {
                self.tc.handle(self.now, to, bytes);
            }
        }
        self.rx = batch;
        self.now = self.now.max(self.clock());
        busy |= self.tc.poll(self.now);
        busy |= self.tc.wire.flush_backpressure(self.now);
        if !busy {
            let mut until = self
                .tc
                .next_wake()
                .map_or(deadline, |w| w.min(deadline))
                .max(self.now);
            if self.tc.wire.has_backpressure() {
                until = until.min(self.now + BACKPRESSURE_RETRY);
            }
            if until > self.now {
                let dur = std::time::Duration::from_micros(until.since(self.now).micros());
                self.stats.sleeps += 1;
                self.stats.slept_micros += dur.as_micros() as u64;
                if self.tc.wire.wait(dur) {
                    self.stats.io_wakes += 1;
                }
            }
        }
        true
    }
}

impl Live for TracedUdp {
    fn nodes(&self) -> usize {
        self.tc.core.len()
    }
    fn node(&self, i: usize) -> &NodeRuntime<CamChordProtocol> {
        self.tc.core.node(i)
    }
    fn publish(&mut self, source: usize, data: Bytes) -> u64 {
        self.tc.start_multicast(self.now, source, data)
    }
    fn run_until<F: FnMut(&Self) -> bool>(&mut self, timeout: Duration, mut done: F) -> bool {
        let deadline = self.clock() + timeout;
        loop {
            if done(self) {
                return true;
            }
            if !self.step(deadline) {
                return done(self);
            }
        }
    }
}

struct InFlight {
    payload: u64,
    due: Instant,
    /// Nodes `0..cursor` are known to hold the payload.
    cursor: usize,
}

/// Outcome of one open-loop phase.
#[derive(Debug, Default)]
struct Phase {
    ttld_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    /// In-flight publishes halfway through and at the end of publishing.
    backlog_mid: usize,
    backlog_end: usize,
    completed: u64,
    failed: u64,
    delivered_pairs: u64,
    expected_pairs: u64,
    cpu_s: f64,
    wall_s: f64,
    check_ns: u64,
    checks: u64,
    pending_acks_max: usize,
    /// `(payload, bytes)` of every publish, for the content check.
    sent: Vec<(u64, Bytes)>,
}

/// Completion tracking for in-flight publishes. It is cheap by
/// construction: each publish keeps a cursor over the nodes already seen
/// holding it, so a check costs one lookup per in-flight publish plus the
/// nodes newly reached.
struct Tracker {
    inflight: VecDeque<InFlight>,
    phase: Phase,
    sample_acks: bool,
    last_ack_sample: Instant,
}

impl Tracker {
    /// Retires every in-flight publish that reached all nodes or passed its
    /// deadline.
    fn check<H: Live>(&mut self, c: &H) {
        let t = Instant::now();
        let n = c.nodes();
        let mut i = 0;
        while i < self.inflight.len() {
            let f = &mut self.inflight[i];
            while f.cursor < n && c.node(f.cursor).actor().payload_hops(f.payload).is_some() {
                f.cursor += 1;
            }
            let age = f.due.elapsed().as_secs_f64();
            if f.cursor == n || age > DEADLINE_S {
                let done = f.cursor == n;
                self.phase
                    .ttld_ms
                    .push(if done { age * 1e3 } else { DEADLINE_S * 1e3 });
                self.phase.delivered_pairs += f.cursor as u64;
                self.phase.expected_pairs += n as u64;
                if done {
                    self.phase.completed += 1;
                } else {
                    self.phase.failed += 1;
                }
                self.inflight.remove(i);
            } else {
                i += 1;
            }
        }
        if self.sample_acks && self.last_ack_sample.elapsed().as_millis() >= 10 {
            self.last_ack_sample = Instant::now();
            let pending: usize = (0..n).map(|i| c.node(i).unacked_frames()).sum();
            self.phase.pending_acks_max = self.phase.pending_acks_max.max(pending);
        }
        self.phase.check_ns += t.elapsed().as_nanos() as u64;
        self.phase.checks += 1;
    }
}

/// Publishes `count` payloads at `rate` per second from random sources,
/// each timed from when it was due, then waits for the stragglers.
fn open_loop<H: Live>(
    c: &mut H,
    rng: &mut SplitMix,
    rate: f64,
    count: usize,
    sample_acks: bool,
) -> Phase {
    let mut tr = Tracker {
        inflight: VecDeque::new(),
        phase: Phase::default(),
        sample_acks,
        last_ack_sample: Instant::now(),
    };
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    for k in 0..count {
        // A fixed period with a random offset of up to a quarter period per
        // publish: bursts never overlap, and the due times do not lock onto
        // the kernel timer tick (with an exact 20 ms period every publish of
        // a run has the same phase against the 4 ms tick, so each run drew
        // its own median lateness).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let offset_s = (k as f64 + u / 4.0) / rate;
        let due = t0 + std::time::Duration::from_secs_f64(offset_s);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            c.run_until(Duration::from_micros(wait.as_micros() as u64), |c| {
                tr.check(c);
                false
            });
        }
        tr.phase.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let mut data = vec![0u8; PAYLOAD];
        for chunk in data.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let data = Bytes::from(data);
        let source = rng.below(NODES);
        let payload = c.publish(source, data.clone());
        tr.phase.sent.push((payload, data));
        tr.inflight.push_back(InFlight {
            payload,
            due,
            cursor: 0,
        });
        tr.phase.backlog_max = tr.phase.backlog_max.max(tr.inflight.len());
        if k + 1 == count / 2 {
            tr.phase.backlog_mid = tr.inflight.len();
        }
    }
    tr.phase.backlog_end = tr.inflight.len();
    c.run_until(Duration::from_secs_f64(DEADLINE_S + 0.1), |c| {
        tr.check(c);
        tr.inflight.is_empty()
    });
    tr.check(c);
    tr.phase.wall_s = t0.elapsed().as_secs_f64();
    tr.phase.cpu_s = thread_cpu_s() - cpu0;
    tr.phase
}

/// Every delivered copy must carry the published bytes.
fn check_content<H: Live>(c: &H, phase: &Phase, rep: &mut Report) {
    let mut bad = 0usize;
    for (payload, data) in &phase.sent {
        for i in 0..c.nodes() {
            if let Some(got) = c.node(i).actor().payload_data(*payload) {
                bad += usize::from(got != data);
            }
        }
    }
    rep.check(
        bad == 0,
        &format!("{bad} delivered payload copies differ from what was published"),
    );
}

/// Every publish is one operation; one that missed its deadline failed.
fn account(rep: &mut Report, phase: &Phase) {
    for _ in 0..phase.completed {
        rep.op(true);
    }
    for _ in 0..phase.failed {
        rep.op(false);
    }
}

fn nominal_count(seconds: f64) -> usize {
    (RATE * seconds).round().max(1.0) as usize
}

pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let setup = setup_s(SETUP_REPS, || {
        drop(std::hint::black_box(build(seed, bind())))
    });
    let mut c = build(seed, bind());
    c.run_for(WARMUP);

    let mut rng = SplitMix::new(seed);
    let phase = open_loop(&mut c, &mut rng, RATE, nominal_count(seconds), false);
    check_content(&c, &phase, rep);
    account(rep, &phase);
    println!(
        "# publish_udp: {} publishes at {RATE}/s, {} failed; TTLD p99 {:.2} ms (not gated, see \
         README.md); generator late p50 {:.2} ms, p99 {:.2} ms; backlog max {}; retransmits {}",
        phase.ttld_ms.len(),
        phase.failed,
        quantile(&phase.ttld_ms, 0.99),
        quantile(&phase.late_ms, 0.5),
        quantile(&phase.late_ms, 0.99),
        phase.backlog_max,
        c.counters().frames_retransmitted
    );
    rep.metric("setup_s", setup, "s");
    rep.metric(
        "delivery_ratio",
        ratio(phase.delivered_pairs as f64, phase.expected_pairs as f64),
        "1",
    );
    rep.metric(
        "work_per_s",
        ratio(phase.completed as f64, phase.cpu_s),
        "1/s",
    );
    rep.metric("op_p50_ms", quantile(&phase.ttld_ms, 0.50), "ms");
    rep.metric("op_p90_ms", quantile(&phase.ttld_ms, 0.90), "ms");
}

/// Whether a ladder step held up: every publish completed, p99 within
/// 1 s, and the backlog did not grow over the step's second half (a
/// couple of publishes of slack, since small backlogs jitter).
fn sustained(p: &Phase) -> bool {
    let (mid, end) = (p.backlog_mid as f64, p.backlog_end as f64);
    p.failed == 0 && quantile(&p.ttld_ms, 0.99) <= 1_000.0 && end <= (1.5 * mid).max(mid + 2.0)
}

pub fn traced(seed: u64, seconds: f64, rep: &mut Report) -> (Layers, f64, f64) {
    let count = nominal_count(seconds / 2.0);
    let mut rng = SplitMix::new(seed);

    let mut plain = build(seed, bind());
    plain.run_for(WARMUP);
    let base = open_loop(&mut plain, &mut rng, RATE, count, false);
    // The rate ladder runs untraced, right after the nominal phase.
    let mut max_rate = if sustained(&base) { RATE } else { 0.0 };
    for rate in LADDER {
        let p = open_loop(
            &mut plain,
            &mut rng,
            rate,
            (rate * LADDER_S) as usize,
            false,
        );
        let ok = sustained(&p);
        println!(
            "# ladder {rate}/s: {} of {} complete, p99 {:.1} ms, backlog mid {} end {} -> {}",
            p.completed,
            p.ttld_ms.len(),
            quantile(&p.ttld_ms, 0.99),
            p.backlog_mid,
            p.backlog_end,
            if ok { "sustained" } else { "not sustained" }
        );
        if !ok {
            break;
        }
        max_rate = rate;
    }
    drop(plain);

    let mut rng = SplitMix::new(seed);
    let mut t = TracedUdp::build(seed);
    t.run_until(WARMUP, |_| false);
    t.tc.reset();
    t.stats = LoopStats::default();
    let phase = open_loop(&mut t, &mut rng, RATE, count, true);
    check_content(&t, &phase, rep);
    account(rep, &phase);
    let tc = &t.tc;
    let (w, probe) = (&tc.wire, &tc.wire.probe);
    rep.check(
        probe.rejected == 0,
        "a shipped frame did not round-trip through the codec",
    );
    let (now, before) = (w.counters(), tc.base);
    let sent = (now.frames_encoded - before.frames_encoded)
        + (now.frames_retransmitted - before.frames_retransmitted);
    let decoded = now.frames_decoded - before.frames_decoded;
    let waited_s = w.wait_ns as f64 / 1e9;

    let mut l = Layers::new();
    tc.push_layers(&mut l, phase.ttld_ms.len() as f64);
    per_kind_rates(&mut l, &tc.handled.count, NODES as f64 * phase.wall_s);
    push(
        &mut l,
        "reactor.pending_acks_max",
        phase.pending_acks_max as f64,
        "count",
    );
    push(
        &mut l,
        "transport.mux.send_batch_ns_per_frame",
        ratio(w.send_ns as f64, w.sent_frames as f64),
        "ns",
    );
    push(
        &mut l,
        "transport.mux.poll_batch_ns_per_frame",
        ratio(w.poll_ns as f64, w.polled_frames as f64),
        "ns",
    );
    push(&mut l, "transport.mux.wait_s", waited_s, "s");
    push(
        &mut l,
        "transport.send_backpressure",
        (now.send_backpressure - before.send_backpressure) as f64,
        "count",
    );
    push(
        &mut l,
        "transport.wire_loss_frac",
        ratio(sent as f64 - decoded as f64, sent as f64).max(0.0),
        "1",
    );
    push(
        &mut l,
        "runtime.wakeups_per_s",
        t.stats.wakeups as f64 / phase.wall_s,
        "1/s",
    );
    push(&mut l, "runtime.io_wakes", t.stats.io_wakes as f64, "count");
    // Busy share from the measured parks; the loop's own accounting holds
    // the requested park time, which the socket timeout rounds up.
    push(
        &mut l,
        "runtime.busy_frac",
        1.0 - waited_s / phase.wall_s,
        "1",
    );
    push(
        &mut l,
        "runtime.oversleep_frac",
        ratio(waited_s, t.stats.slept_micros as f64 / 1e6) - 1.0,
        "1",
    );
    push(
        &mut l,
        "publish.late_p99_ms",
        quantile(&phase.late_ms, 0.99),
        "ms",
    );
    push(
        &mut l,
        "publish.backlog_max",
        phase.backlog_max as f64,
        "count",
    );
    push(
        &mut l,
        "publish.check_ns",
        ratio(phase.check_ns as f64, phase.checks as f64),
        "ns",
    );
    push(&mut l, "publish.max_rate_per_s", max_rate, "1/s");

    // Closure over the loop's wall time outside its parks, less the
    // harness's own probing (frame classification, actor replays, codec
    // round trips).
    let (decode, actor, encode) = tc.handle_parts();
    let transport_ns = w.send_ns + w.poll_ns;
    let covered_ns = tc.handle_ns + tc.poll_ns + tc.wake_ns + transport_ns + phase.check_ns;
    let probe_ns = tc.probe_ns + probe.spent_ns;
    let busy_ns = (phase.wall_s - waited_s) * 1e9 - probe_ns as f64;
    println!(
        "# closure publish_udp: handle_frame {:.3}s (actor ~{:.3}s, codec ~{:.3}s) + poll {:.3}s + \
         next_wake {:.3}s + transport {:.3}s + completion checks {:.3}s = {:.1}% of {:.3}s loop \
         wall outside {waited_s:.3}s of parks, less {:.3}s probe time; uncovered: payload \
         generation, clock reads and loop bookkeeping",
        tc.handle_ns as f64 / 1e9,
        actor / 1e9,
        (decode + encode) / 1e9,
        tc.poll_ns as f64 / 1e9,
        tc.wake_ns as f64 / 1e9,
        transport_ns as f64 / 1e9,
        phase.check_ns as f64 / 1e9,
        100.0 * covered_ns as f64 / busy_ns,
        phase.wall_s,
        probe_ns as f64 / 1e9
    );
    (
        l,
        covered_ns as f64 / busy_ns,
        phase.cpu_s / base.cpu_s - 1.0,
    )
}
