//! `repair_sim` and `repair_mem`: one crash-and-repair script on the two
//! hosts of the same `DhtActor` — the discrete-event simulator
//! (`DynamicNetwork`) and the cam-net reactor over the in-memory wire
//! (`Cluster<_, InMemoryTransport>`), both in virtual time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::{InMemoryTransport, Transport};
use cam_overlay::dynamic::{DhtActor, DhtMsg, DhtProtocol, DynamicNetwork, SUCCESSOR_LIST_LEN};
use cam_overlay::Member;
use cam_ring::{Id, IdSpace, Segment};
use cam_sim::engine::{Actor, ActorId, Context};
use cam_sim::{Duration, LatencyModel, SimTime, Simulation};
use cam_workload::Scenario;

use crate::layers::{
    kind_of, per_kind_rates, push, Layers, PerKind, TimedCore, ACTOR_KINDS, KINDS,
};
use crate::report::{median, quantile, ratio, setup_s, Meter, Report, SplitMix};

/// Group size on both hosts.
pub const N: usize = 1_000;
/// Share of members crashed at once (the source is spared).
const CRASH_FRACTION: f64 = 0.20;
/// Frame loss switched on for the last three multicasts.
const LOSS: f64 = 0.05;
/// The multicast source (member index in ring order).
const SOURCE: usize = 0;
/// Virtual time advanced per step; the wall time of one step is the
/// latency sample behind `op_p50_ms` / `op_p90_ms`.
const SLICE: Duration = Duration(20_000);

/// Phase lengths of the script. The hosts share the script and differ
/// only in virtual length, so per-node-second rates stay comparable.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Crash-free warm-up; both hosts must deliver the same traffic here.
    pub prefix: Duration,
    /// Repair time after the crash (the first multicast runs in it).
    pub repair: Duration,
    /// Gap between the later multicasts, and each one's deadline.
    pub spacing: Duration,
}

impl Plan {
    pub fn virtual_s(&self) -> f64 {
        (self.prefix.micros() + self.repair.micros() + 4 * self.spacing.micros()) as f64 / 1e6
    }
}

pub const SIM_PLAN: Plan = Plan {
    prefix: Duration(2_000_000),
    repair: Duration(60_000_000),
    spacing: Duration(30_000_000),
};

pub const MEM_PLAN: Plan = Plan {
    prefix: Duration(2_000_000),
    repair: Duration(6_000_000),
    spacing: Duration(5_000_000),
};

fn latency() -> LatencyModel {
    LatencyModel::Uniform {
        min: Duration::from_millis(20),
        max: Duration::from_millis(80),
    }
}

pub fn members(seed: u64) -> (IdSpace, Vec<Member>) {
    let set = Scenario::paper_default(seed).with_n(N).members();
    (set.space(), set.iter().collect())
}

/// What the script needs from a host. Member `i` is the `i`-th member in
/// ring order on every host.
pub trait Host {
    fn run_until(&mut self, t: SimTime);
    fn kill(&mut self, i: usize);
    fn multicast(&mut self, source: usize) -> u64;
    /// 5% loss plus anti-entropy on every node.
    fn impair(&mut self);
    /// `(live nodes holding payload, live nodes)`.
    fn census(&self, payload: u64) -> (u64, u64);
    /// Protocol messages delivered so far (sim) / frames decoded (net).
    fn traffic(&self) -> u64;
}

/// One run of the script.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub wall_s: f64,
    pub prefix_traffic: u64,
    /// Protocol messages delivered (sim) / frames decoded (net) in total.
    pub traffic: u64,
    /// Delivery of the multicast sent right after the crash.
    pub crash_delivery: f64,
    /// Delivery of the multicast sent after the repair time, before
    /// anti-entropy is on.
    pub repair_delivery: f64,
    /// `(delivered, live)` for each multicast sent under loss with
    /// anti-entropy, at its deadline: the operations of the workload.
    pub ops: Vec<(u64, u64)>,
}

/// The script: a crash-free prefix; 20% of the members crash and the
/// source multicasts at once (crash probe); repair runs; the source
/// multicasts again (repair probe); then 5% loss and anti-entropy go on
/// and three more multicasts follow, `spacing` apart. The two probes
/// measure resilience and are expected to miss nodes; the last three must
/// reach every live node by their deadline.
pub fn script<H: Host>(
    host: &mut H,
    plan: Plan,
    seed: u64,
    mut meter: Option<&mut Meter>,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut now = SimTime::ZERO;
    let mut advance = |host: &mut H, span: Duration| {
        let end = now + span;
        while now < end {
            now = (now + SLICE).min(end);
            let t = Instant::now();
            host.run_until(now);
            let wall = t.elapsed().as_secs_f64();
            if let Some(m) = meter.as_deref_mut() {
                m.step(wall, &[wall * 1e3]);
            }
        }
    };
    let share = |(d, l): (u64, u64)| ratio(d as f64, l as f64);
    advance(host, plan.prefix);
    out.prefix_traffic = host.traffic();

    let crashes = ((N - 1) as f64 * CRASH_FRACTION).round() as usize;
    for v in SplitMix::new(seed ^ 0xC4A5).distinct(N, crashes, SOURCE) {
        host.kill(v);
    }
    let p = host.multicast(SOURCE);
    advance(host, plan.repair);
    out.crash_delivery = share(host.census(p));

    let p = host.multicast(SOURCE);
    advance(host, plan.spacing);
    out.repair_delivery = share(host.census(p));
    host.impair();
    for _ in 0..3 {
        let p = host.multicast(SOURCE);
        advance(host, plan.spacing);
        out.ops.push(host.census(p));
    }
    out.traffic = host.traffic();
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

// ------------------------------------------------------------ sim host

pub struct SimHost(pub DynamicNetwork<CamChordProtocol>);

impl SimHost {
    pub fn build(seed: u64) -> Self {
        let (space, ms) = members(seed);
        SimHost(DynamicNetwork::converged(
            space,
            &ms,
            CamChordProtocol,
            seed,
            latency(),
        ))
    }
}

impl Host for SimHost {
    fn run_until(&mut self, t: SimTime) {
        self.0.sim.run_until(t);
    }
    fn kill(&mut self, i: usize) {
        let a = self.0.actors()[i].1;
        self.0.sim.kill(a);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        let a = self.0.actors()[source].1;
        self.0.start_multicast(a, true)
    }
    fn impair(&mut self) {
        self.0.sim.set_loss_probability(LOSS);
        self.0.enable_anti_entropy();
    }
    fn census(&self, payload: u64) -> (u64, u64) {
        let mut c = (0, 0);
        for (_, a) in self.0.actors() {
            if let Some(actor) = self.0.sim.actor(*a) {
                c.1 += 1;
                c.0 += u64::from(actor.payload_hops(payload).is_some());
            }
        }
        c
    }
    fn traffic(&self) -> u64 {
        self.0.sim.stats().delivered
    }
}

// ------------------------------------------------------------ mem host

pub struct MemHost(pub Cluster<CamChordProtocol, InMemoryTransport>);

impl MemHost {
    pub fn build(seed: u64) -> Self {
        let (space, ms) = members(seed);
        let wire = InMemoryTransport::new(N, seed, latency());
        MemHost(Cluster::converged(
            space,
            &ms,
            CamChordProtocol,
            seed,
            wire,
            RetransmitPolicy::default(),
        ))
    }
}

impl Host for MemHost {
    fn run_until(&mut self, t: SimTime) {
        let span = t.since(self.0.now());
        self.0.run_for(span);
    }
    fn kill(&mut self, i: usize) {
        self.0.kill(i);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        self.0.start_multicast(source, true, Bytes::new())
    }
    fn impair(&mut self) {
        self.0.transport_mut().set_loss_probability(LOSS);
        for i in 0..self.0.len() {
            self.0.node_mut(i).actor_mut().set_anti_entropy(true);
        }
    }
    fn census(&self, payload: u64) -> (u64, u64) {
        let mut c = (0, 0);
        for i in 0..self.0.len() {
            let nd = self.0.node(i);
            if nd.is_alive() {
                c.1 += 1;
                c.0 += u64::from(nd.actor().payload_hops(payload).is_some());
            }
        }
        c
    }
    fn traffic(&self) -> u64 {
        self.0.counters().frames_decoded
    }
}

// ------------------------------------------------------ untraced runs

/// Which host a repair workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Sim,
    Mem,
}

impl Which {
    fn plan(self) -> Plan {
        match self {
            Which::Sim => SIM_PLAN,
            Which::Mem => MEM_PLAN,
        }
    }
}

fn run_once(which: Which, seed: u64, meter: &mut Meter) -> Outcome {
    match which {
        Which::Sim => script(&mut SimHost::build(seed), SIM_PLAN, seed, Some(meter)),
        Which::Mem => script(&mut MemHost::build(seed), MEM_PLAN, seed, Some(meter)),
    }
}

/// Builds per `setup_s` sample.
const SETUP_REPS: usize = 51;

/// Checks shared by every repetition: the crash probe reaches someone,
/// and every multicast under anti-entropy counts as one operation.
fn account(rep: &mut Report, out: &Outcome) -> (u64, u64) {
    let mut pairs = (0, 0);
    for &(d, l) in &out.ops {
        rep.op(d == l);
        pairs.0 += d;
        pairs.1 += l;
    }
    rep.check(
        out.crash_delivery > 0.0,
        "the multicast sent right after the crash reached nobody",
    );
    pairs
}

/// The crash-free prefix on the simulator, for the cross-host parity
/// check.
fn sim_prefix_traffic(seed: u64, plan: Plan) -> u64 {
    let mut h = SimHost::build(seed);
    h.run_until(SimTime::ZERO + plan.prefix);
    h.traffic()
}

/// Runs the script on the same input repeatedly for `seconds` and
/// reports medians over the repetitions, in machine-speed-normalized time
/// (see [`Meter`]). Every repetition must do identical work.
pub fn run(which: Which, seed: u64, seconds: f64, rep: &mut Report) {
    let plan = which.plan();
    let work = N as f64 * plan.virtual_s();
    let setup = setup_s(SETUP_REPS, || match which {
        Which::Sim => drop(std::hint::black_box(SimHost::build(seed))),
        Which::Mem => drop(std::hint::black_box(MemHost::build(seed))),
    });
    let budget = Instant::now();
    let mut meter = Meter::new(1);
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    let mut pairs = (0u64, 0u64);
    let mut first: Option<Outcome> = None;
    let mut last_s = 0.0;
    // Start another repetition while it is expected to end no later than
    // half a repetition past the budget.
    while first.is_none() || budget.elapsed().as_secs_f64() + last_s / 2.0 < seconds {
        let t = Instant::now();
        let (total0, raw0) = (meter.total, meter.raw_total);
        let out = run_once(which, seed, &mut meter);
        meter.close();
        last_s = t.elapsed().as_secs_f64();
        rates.push(work / (meter.total - total0));
        raw_rates.push(work / (meter.raw_total - raw0));
        let (d, l) = account(rep, &out);
        pairs.0 += d;
        pairs.1 += l;
        match &first {
            None => first = Some(out),
            Some(f) => rep.check(
                f.ops == out.ops
                    && f.traffic == out.traffic
                    && f.repair_delivery == out.repair_delivery,
                "two repetitions of the same input did different work",
            ),
        }
    }
    let first = first.expect("at least one repetition ran");
    if which == Which::Mem {
        let sim = sim_prefix_traffic(seed, plan);
        rep.check(
            sim == first.prefix_traffic,
            &format!(
                "hosts disagree over the crash-free prefix: sim delivered {sim}, \
                 net decoded {}",
                first.prefix_traffic
            ),
        );
    }
    println!(
        "# {}: {} repetitions, {:.0} node-s/s raw, {:.0} normalized; step p99 {:.3} ms; crash \
         probe {:.3}, repair probe {:.3}, operations {:?}, prefix traffic {}",
        if which == Which::Sim {
            "repair_sim"
        } else {
            "repair_mem"
        },
        rates.len(),
        median(&raw_rates),
        median(&rates),
        quantile(&meter.steps, 0.99),
        first.crash_delivery,
        first.repair_delivery,
        first.ops,
        first.prefix_traffic
    );
    rep.metric("setup_s", setup, "s");
    rep.metric("delivery_ratio", ratio(pairs.0 as f64, pairs.1 as f64), "1");
    rep.metric("work_per_s", median(&rates), "1/s");
    rep.metric("op_p50_ms", quantile(&meter.steps, 0.50), "ms");
    rep.metric("op_p90_ms", quantile(&meter.steps, 0.90), "ms");
}

// ------------------------------------------------------- traced runs

/// Actor time spent inside the engine, shared by every probe actor of
/// the traced simulation (single-threaded).
#[derive(Debug, Default)]
struct ActorClock {
    deliver: PerKind,
    timer_ns: u64,
    timers: u64,
}

thread_local! {
    static CLOCK: RefCell<ActorClock> = RefCell::new(ActorClock::default());
}

/// A `DhtActor` whose every delivery and timer is timed.
struct Probe(DhtActor<CamChordProtocol>);

impl Actor for Probe {
    type Msg = DhtMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, DhtMsg>, from: ActorId, msg: DhtMsg) {
        let kind = kind_of(&msg);
        let t = Instant::now();
        self.0.deliver(ctx, from, msg);
        let ns = t.elapsed().as_nanos() as u64;
        CLOCK.with(|c| c.borrow_mut().deliver.add(kind, ns));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DhtMsg>, tag: u64) {
        let t = Instant::now();
        self.0.deliver_timer(ctx, tag);
        let ns = t.elapsed().as_nanos() as u64;
        CLOCK.with(|c| {
            let mut c = c.borrow_mut();
            c.timer_ns += ns;
            c.timers += 1;
        });
    }
}

/// The simulator host rebuilt around [`Probe`] actors: the same steps as
/// `DynamicNetwork::converged` and `DhtActor::start_maintenance` (timer
/// tags 1–3 are the actor's stabilize, fix-finger and anti-entropy
/// timers). The traced run checks its counters against `DynamicNetwork`.
struct TracedSim {
    sim: Simulation<Probe>,
    space: IdSpace,
    actors: Vec<(Member, ActorId)>,
    next_payload: u64,
    run_ns: u64,
}

impl TracedSim {
    fn build(seed: u64) -> Self {
        let (space, mut sorted) = members(seed);
        sorted.sort_by_key(|m| m.id);
        let n = sorted.len();
        let mut sim = Simulation::new(seed, latency());
        let actors: Vec<(Member, ActorId)> = sorted
            .iter()
            .map(|m| {
                (
                    *m,
                    sim.add_actor(Probe(DhtActor::new(space, *m, CamChordProtocol))),
                )
            })
            .collect();
        let directory: Arc<HashMap<u64, ActorId>> =
            Arc::new(actors.iter().map(|(m, a)| (m.id.value(), *a)).collect());
        let ids: Vec<Id> = sorted.iter().map(|m| m.id).collect();
        let owner_of = |k: Id| {
            let i = ids.partition_point(|&x| x < k);
            sorted[if i == n { 0 } else { i }]
        };
        for (i, (m, a)) in actors.iter().enumerate() {
            let succs: Vec<Member> = (1..=SUCCESSOR_LIST_LEN.min(n - 1).max(1))
                .map(|d| sorted[(i + d) % n])
                .collect();
            let pred = sorted[(i + n - 1) % n];
            let fingers: Vec<(Id, Member)> = CamChordProtocol
                .neighbor_targets(space, m)
                .iter()
                .map(|&t| (t, owner_of(t)))
                .collect();
            let p = sim.actor_mut(*a).expect("just added");
            p.0.seed_state(succs, pred, fingers);
            p.0.set_directory(Arc::clone(&directory));
        }
        let base = Duration::from_millis(500);
        for (i, (_, a)) in actors.iter().enumerate() {
            let jitter = i as u64 * 37;
            sim.post_timer(*a, base + Duration::from_millis(jitter % 250), 1);
            sim.post_timer(
                *a,
                base.saturating_mul(2) + Duration::from_millis(jitter % 333),
                2,
            );
            sim.post_timer(
                *a,
                base.saturating_mul(3) + Duration::from_millis(jitter % 451),
                3,
            );
        }
        TracedSim {
            sim,
            space,
            actors,
            next_payload: 1,
            run_ns: 0,
        }
    }
}

impl Host for TracedSim {
    fn run_until(&mut self, t: SimTime) {
        let start = Instant::now();
        self.sim.run_until(t);
        self.run_ns += start.elapsed().as_nanos() as u64;
    }
    fn kill(&mut self, i: usize) {
        self.sim.kill(self.actors[i].1);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        let (m, a) = self.actors[source];
        let payload = self.next_payload;
        self.next_payload += 1;
        let region = Some(Segment::all_but(self.space, m.id));
        let msg = DhtMsg::Multicast {
            payload,
            region,
            hops: 0,
            data: Bytes::new(),
        };
        self.sim.post(a, a, msg);
        payload
    }
    fn impair(&mut self) {
        self.sim.set_loss_probability(LOSS);
        for (_, a) in &self.actors {
            if let Some(p) = self.sim.actor_mut(*a) {
                p.0.set_anti_entropy(true);
            }
        }
    }
    fn census(&self, payload: u64) -> (u64, u64) {
        let mut c = (0, 0);
        for (_, a) in &self.actors {
            if let Some(p) = self.sim.actor(*a) {
                c.1 += 1;
                c.0 += u64::from(p.0.payload_hops(payload).is_some());
            }
        }
        c
    }
    fn traffic(&self) -> u64 {
        self.sim.stats().delivered
    }
}

/// The reactor core driven by a copy of `Cluster`'s virtual-time step
/// loop, one timed call at a time (see [`TimedCore`]).
struct TracedMem {
    tc: TimedCore<InMemoryTransport>,
    now: SimTime,
    pending_max: usize,
}

impl TracedMem {
    fn build(seed: u64) -> Self {
        let (space, ms) = members(seed);
        let wire = InMemoryTransport::new(N, seed, latency());
        TracedMem {
            tc: TimedCore::converged(space, &ms, seed, wire),
            now: SimTime::ZERO,
            pending_max: 0,
        }
    }

    fn step(&mut self, deadline: SimTime) -> bool {
        let wake = self.tc.next_wake();
        let next = match (self.tc.wire.next_ready(), wake) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match next {
            Some(at) if at <= deadline => {
                self.now = self.now.max(at);
                while let Some((to, bytes)) = self.tc.wire.poll(self.now) {
                    self.tc.handle(self.now, to, bytes);
                }
                self.tc.poll(self.now);
                true
            }
            _ => {
                self.now = deadline;
                false
            }
        }
    }
}

impl Host for TracedMem {
    fn run_until(&mut self, t: SimTime) {
        while self.step(t) {}
        let core = &self.tc.core;
        let pending: usize = (0..core.len()).map(|i| core.node(i).unacked_frames()).sum();
        self.pending_max = self.pending_max.max(pending);
    }
    fn kill(&mut self, i: usize) {
        self.tc.core.kill(self.now, i);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        self.tc.start_multicast(self.now, source, Bytes::new())
    }
    fn impair(&mut self) {
        self.tc.wire.inner.set_loss_probability(LOSS);
        for i in 0..self.tc.core.len() {
            self.tc.core.node_mut(i).actor_mut().set_anti_entropy(true);
        }
    }
    fn census(&self, payload: u64) -> (u64, u64) {
        let mut c = (0, 0);
        for i in 0..self.tc.core.len() {
            let nd = self.tc.core.node(i);
            if nd.is_alive() {
                c.1 += 1;
                c.0 += u64::from(nd.actor().payload_hops(payload).is_some());
            }
        }
        c
    }
    fn traffic(&self) -> u64 {
        self.tc.wire.counters().frames_decoded
    }
}

pub fn traced_sim(seed: u64, rep: &mut Report) -> (Layers, f64, f64) {
    let plan = SIM_PLAN;
    let mut plain = SimHost::build(seed);
    let base = script(&mut plain, plan, seed, None);
    let base_stats = plain.0.sim.stats();

    CLOCK.with(|c| *c.borrow_mut() = ActorClock::default());
    let mut traced = TracedSim::build(seed);
    let out = script(&mut traced, plan, seed, None);
    let stats = traced.sim.stats();
    rep.check(
        stats == base_stats && out.ops == base.ops,
        "the traced simulator copy diverged from DynamicNetwork",
    );
    account(rep, &out);
    let clock = CLOCK.with(|c| std::mem::take(&mut *c.borrow_mut()));

    let mut l = Layers::new();
    let node_s = N as f64 * plan.virtual_s();
    let actor_ns = clock.deliver.total_ns() + clock.timer_ns;
    let run_s = traced.run_ns as f64 / 1e9;
    push(&mut l, "sim.events", stats.events as f64, "count");
    push(&mut l, "sim.sent", stats.sent as f64, "count");
    push(&mut l, "sim.dropped", stats.dropped as f64, "count");
    push(&mut l, "sim.timers", stats.timers as f64, "count");
    push(&mut l, "sim.run_until_s", run_s, "s");
    push(
        &mut l,
        "sim.engine_ns_per_event",
        ratio(
            traced.run_ns.saturating_sub(actor_ns) as f64,
            stats.events as f64,
        ),
        "ns",
    );
    for (k, name) in KINDS.iter().enumerate().take(ACTOR_KINDS) {
        push(
            &mut l,
            format!("dynamic.deliver_ns.{name}"),
            clock.deliver.mean_ns(k),
            "ns",
        );
    }
    push(
        &mut l,
        "dynamic.timer_ns",
        ratio(clock.timer_ns as f64, clock.timers as f64),
        "ns",
    );
    per_kind_rates(&mut l, &clock.deliver.count, node_s);
    push(
        &mut l,
        "dynamic.sends_per_deliver",
        ratio(stats.sent as f64, (stats.delivered + stats.timers) as f64),
        "count",
    );
    push(&mut l, "dynamic.crash_delivery", out.crash_delivery, "1");
    push(&mut l, "dynamic.repair_delivery", out.repair_delivery, "1");

    let covered = traced.run_ns as f64 / 1e9;
    println!(
        "# closure repair_sim: engine self {:.3}s + actor {:.3}s = {:.1}% of {:.3}s script wall; \
         uncovered: crash injection, censuses and step bookkeeping",
        run_s - actor_ns as f64 / 1e9,
        actor_ns as f64 / 1e9,
        100.0 * covered / out.wall_s,
        out.wall_s
    );
    (l, covered / out.wall_s, out.wall_s / base.wall_s - 1.0)
}

pub fn traced_mem(seed: u64, rep: &mut Report) -> (Layers, f64, f64) {
    let plan = MEM_PLAN;
    let mut plain = MemHost::build(seed);
    let base = script(&mut plain, plan, seed, None);
    let base_counters = plain.0.counters();

    let mut t = TracedMem::build(seed);
    let out = script(&mut t, plan, seed, None);
    let tc = &t.tc;
    rep.check(
        tc.wire.counters() == base_counters && out.ops == base.ops,
        "the traced reactor loop diverged from Cluster::run_for",
    );
    rep.check(
        tc.wire.probe.rejected == 0,
        "a shipped frame did not round-trip through the codec",
    );
    account(rep, &out);

    let node_s = N as f64 * plan.virtual_s();
    let mut l = Layers::new();
    // The script multicasts five times: two probes and three operations.
    tc.push_layers(&mut l, 5.0);
    per_kind_rates(&mut l, &tc.handled.count, node_s);
    push(
        &mut l,
        "reactor.pending_acks_max",
        t.pending_max as f64,
        "count",
    );
    push(
        &mut l,
        "transport.inmem.send_ns",
        ratio(tc.wire.send_ns as f64, tc.wire.sent_frames as f64),
        "ns",
    );
    push(
        &mut l,
        "transport.inmem.poll_ns",
        ratio(tc.wire.poll_ns as f64, tc.wire.poll_calls as f64),
        "ns",
    );
    push(&mut l, "dynamic.crash_delivery", out.crash_delivery, "1");
    push(&mut l, "dynamic.repair_delivery", out.repair_delivery, "1");

    let (decode, actor, encode) = tc.handle_parts();
    let transport_ns = tc.wire.send_ns + tc.wire.poll_ns;
    let covered_ns = tc.handle_ns + tc.poll_ns + tc.wake_ns + transport_ns;
    let probe_ns = tc.probe_ns + tc.wire.probe.spent_ns;
    let wall_ns = out.wall_s * 1e9 - probe_ns as f64;
    println!(
        "# closure repair_mem: handle_frame {:.3}s (actor ~{:.3}s, codec ~{:.3}s) + poll {:.3}s + \
         next_wake {:.3}s + transport {:.3}s = {:.1}% of {:.3}s script wall less {:.3}s probe time; \
         uncovered: crash injection, censuses, step bookkeeping",
        tc.handle_ns as f64 / 1e9,
        actor / 1e9,
        (decode + encode) / 1e9,
        tc.poll_ns as f64 / 1e9,
        tc.wake_ns as f64 / 1e9,
        transport_ns as f64 / 1e9,
        100.0 * covered_ns as f64 / wall_ns,
        out.wall_s,
        probe_ns as f64 / 1e9
    );
    (
        l,
        covered_ns as f64 / wall_ns,
        out.wall_s / base.wall_s - 1.0,
    )
}
