//! Hot-path throughput harness: current code vs. the frozen pre-overhaul
//! baseline ([`cam_bench::baseline`]), measured in the same run, written to
//! `BENCH_hotpath.json` at the repository root.
//!
//! Three sections:
//!
//! 1. **owner resolution** — `MemberSet::owner_idx` (bucket index) vs.
//!    `owner_idx_binsearch` (`partition_point`), lookups/second;
//! 2. **tree construction** — `CamChord::multicast_tree` (flat tree,
//!    reusable scratch, indexed resolution) vs.
//!    `baseline::cam_chord_tree`, trees/second;
//! 3. **fig6 quick-profile sweep** — the CAM-Chord portion of the Figure 6
//!    sweep at `Options::quick()` scale, end-to-end: current pooled
//!    `parallel_sweep` + parallel `sample_trees` vs. the old
//!    thread-per-input spawn + serial source sampling. This is the number
//!    the acceptance bar (≥ 2× end-to-end trees/sec) reads.
//!
//! Plus the **scale** section: group construction, streaming multicast
//! statistics, and simulator event throughput with peak-RSS readings at
//! n = 100,000 (always) and n = 1,000,000 (`--scale` flag) — the
//! million-member tier motivating the struct-of-arrays and
//! streaming-statistics work.
//!
//! And the **multigroup** section: the cam-pubsub service layer replaying
//! a Zipf-popular subscription workload — admissions/second (every
//! admitted subscribe rebuilds that group's tree against the residual
//! capacity ledger) and publishes/second over the frozen trees.
//!
//! And the **net_throughput** section: the cam-net wire loop on real
//! loopback UDP — frames/second, bytes/second per core, and
//! wakeups/second for the reactor loop on the multiplexed transport,
//! against the frozen pre-reactor polling loop.
//!
//! Uses `std::time` only (criterion is a dev-dependency, unavailable to
//! binaries) and a deterministic splitmix64 key stream instead of an RNG,
//! so runs are reproducible modulo machine noise.
//!
//! Each section is wrapped in a [`PhaseClock`] span; the per-stage wall
//! time and memory readings land in the JSON under an additive `"phases"`
//! key so a regression can be attributed to a stage without re-running the
//! harness.

use std::hint::black_box;
use std::time::Instant;

use cam_bench::baseline;
use cam_bench::rss::{self, MemReading};
use cam_core::CamChord;
use cam_experiments::fig6::DEGREE_TARGETS;
use cam_experiments::runner::{
    parallel_sweep, sample_distinct_sources, sample_tree_stats, sample_trees,
};
use cam_experiments::Options;
use cam_overlay::{Member, MemberSet, StaticOverlay};
use cam_pubsub::GroupRegistry;
use cam_ring::{Id, IdSpace};
use cam_sim::engine::{Actor, ActorId, Context, Simulation};
use cam_sim::latency::LatencyModel;
use cam_sim::rng::SimRng;
use cam_sim::time::Duration;
use cam_trace::{EventKind, RecordingTracer, Summary, Tracer};
use cam_workload::{BandwidthDist, CapacityAssignment, GroupOp, MultiGroupScenario, Scenario};

/// Attributes wall-clock time to named harness stages as
/// [`EventKind::PhaseBegin`]/[`EventKind::PhaseEnd`] span pairs in a
/// [`RecordingTracer`] — the same event stream the runtimes emit, so the
/// bench's own staging shows up in a Chrome trace like everything else.
/// (`Instant` is fine here: the harness measures real time by design and
/// `bin/` targets are outside the determinism rule.)
struct PhaseClock {
    tracer: RecordingTracer,
    epoch: Instant,
    /// Memory reading taken as each phase ends, in end order. `VmHWM` is
    /// the kernel's monotone high-water mark, so a phase's peak includes
    /// everything run before it.
    memory: Vec<(&'static str, MemReading)>,
}

impl PhaseClock {
    fn new() -> Self {
        PhaseClock {
            tracer: RecordingTracer::new(),
            epoch: Instant::now(),
            memory: Vec::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let at = self.epoch.elapsed().as_micros() as u64;
        self.tracer.record(at, 0, EventKind::PhaseBegin { name });
        let out = f();
        let at = self.epoch.elapsed().as_micros() as u64;
        self.tracer.record(at, 0, EventKind::PhaseEnd { name });
        self.memory.push((name, rss::read_memory()));
        out
    }

    /// `(name, seconds, memory at phase end)` per completed phase, in
    /// begin order.
    fn spans(&self) -> Vec<(&'static str, f64, MemReading)> {
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let mut out = Vec::new();
        for e in self.tracer.events() {
            match e.kind {
                EventKind::PhaseBegin { name } => open.push((name, e.at_micros)),
                EventKind::PhaseEnd { name } => {
                    if let Some(pos) = open.iter().rposition(|&(n, _)| n == name) {
                        let (_, begin) = open.remove(pos);
                        let mem = self
                            .memory
                            .iter()
                            .find(|&&(n, _)| n == name)
                            .map(|&(_, m)| m)
                            .unwrap_or_default();
                        out.push((name, (e.at_micros - begin) as f64 / 1e6, mem));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for key streams.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn group_of(n: usize, seed: u64) -> MemberSet {
    Scenario::paper_default(seed).with_n(n).members()
}

/// Times `f` over `reps` repetitions and returns the best (minimum)
/// duration in seconds — the standard noise-resistant estimator.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct ResolutionRow {
    n: usize,
    lookups: usize,
    indexed_mops: f64,
    binsearch_mops: f64,
    speedup: f64,
}

fn bench_resolution(n: usize, lookups: usize) -> ResolutionRow {
    let group = group_of(n, 1);
    let mask = group.space().size() - 1;
    let keys: Vec<Id> = (0..lookups as u64).map(|i| Id(mix64(i) & mask)).collect();

    // Warm-up + cross-check: both resolvers must agree on every key.
    for &k in keys.iter().take(10_000) {
        assert_eq!(group.owner_idx(k), group.owner_idx_binsearch(k));
    }

    let indexed = best_of(3, || {
        let mut acc = 0usize;
        for &k in &keys {
            acc = acc.wrapping_add(group.owner_idx(k));
        }
        black_box(acc);
    });
    let binsearch = best_of(3, || {
        let mut acc = 0usize;
        for &k in &keys {
            acc = acc.wrapping_add(group.owner_idx_binsearch(k));
        }
        black_box(acc);
    });
    ResolutionRow {
        n,
        lookups,
        indexed_mops: lookups as f64 / indexed / 1e6,
        binsearch_mops: lookups as f64 / binsearch / 1e6,
        speedup: binsearch / indexed,
    }
}

/// Times `f` over `reps` repetitions; returns the best duration in seconds
/// plus the standard deviation of the per-rep `work / seconds` rates —
/// the spread the JSON exposes so a reader can tell signal from noise.
fn best_and_stddev<F: FnMut()>(reps: usize, work: f64, mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut rates = Summary::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let secs = t0.elapsed().as_secs_f64();
        best = best.min(secs);
        rates.record(work / secs);
    }
    (best, rates.stddev())
}

struct TreeRow {
    n: usize,
    trees: usize,
    reps: usize,
    current_trees_per_sec: f64,
    current_stddev: f64,
    baseline_trees_per_sec: f64,
    baseline_stddev: f64,
    speedup: f64,
}

fn bench_tree_build(n: usize, trees: usize, reps: usize) -> TreeRow {
    let group = group_of(n, 2);
    let overlay = CamChord::new(group.clone());
    let sources: Vec<usize> = (0..trees as u64).map(|i| mix64(i) as usize % n).collect();

    let (current, current_stddev) = best_and_stddev(reps, trees as f64, || {
        for &src in &sources {
            black_box(overlay.multicast_tree(src).delivered());
        }
    });
    let (base, baseline_stddev) = best_and_stddev(reps, trees as f64, || {
        for &src in &sources {
            black_box(baseline::cam_chord_tree(&group, src).is_complete());
        }
    });
    TreeRow {
        n,
        trees,
        reps,
        current_trees_per_sec: trees as f64 / current,
        current_stddev,
        baseline_trees_per_sec: trees as f64 / base,
        baseline_stddev,
        speedup: base / current,
    }
}

/// A fixed-fanout token-passing actor for the event-throughput bench: each
/// message carries a remaining hop budget; non-zero budgets are forwarded
/// to the precomputed neighbor. Keeps the event queue under steady
/// multi-actor load with zero allocation per event.
struct TokenActor {
    next: ActorId,
    received: u64,
}

impl Actor for TokenActor {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, hops: u32) {
        self.received += 1;
        if hops > 0 {
            ctx.send(self.next, hops - 1);
        }
    }
}

struct ScaleRow {
    n: usize,
    bits: u32,
    sources: usize,
    build_seconds: f64,
    stream_trees_per_sec: f64,
    mean_throughput_kbps: f64,
    events: u64,
    events_per_sec: f64,
    mem: MemReading,
}

/// The scale tier: builds an `n`-member group in a `2^bits` space, runs the
/// streaming multicast sweep (no tree ever materialized), then drives the
/// simulator's event queue with `n` actors under a token-passing
/// load. Records wall time, event throughput, and the process memory
/// reading at the end of the row.
fn bench_scale(n: usize, bits: u32, sources: usize) -> ScaleRow {
    let t0 = Instant::now();
    let group = Scenario::paper_default(6)
        .with_bits(bits)
        .with_n(n)
        .members();
    let overlay = CamChord::new(group);
    let build_seconds = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let agg = sample_tree_stats(&overlay, sources, 0x5CA1E);
    let sweep_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(agg.incomplete, 0, "scale sweep produced incomplete trees");
    let mean_throughput_kbps = agg.throughput_kbps.mean();

    // Event throughput: n actors in a ring, 4096 concurrent tokens of 256
    // hops each, started at strided positions around the ring.
    let tokens = 4096.min(n);
    let hops = 256u32;
    let mut sim: Simulation<TokenActor> =
        Simulation::new(9, LatencyModel::Constant(Duration::from_micros(100)));
    let ids: Vec<ActorId> = (0..n)
        .map(|i| {
            sim.add_actor(TokenActor {
                next: ActorId((i + 1) % n),
                received: 0,
            })
        })
        .collect();
    let t0 = Instant::now();
    for t in 0..tokens {
        let start = ids[(t * 997) % n];
        sim.post(start, start, hops);
    }
    sim.run_to_completion();
    let sim_seconds = t0.elapsed().as_secs_f64();
    let events = sim.stats().delivered;
    assert_eq!(events, tokens as u64 * u64::from(hops + 1));

    let row = ScaleRow {
        n,
        bits,
        sources,
        build_seconds,
        stream_trees_per_sec: sources as f64 / sweep_seconds,
        mean_throughput_kbps,
        events,
        events_per_sec: events as f64 / sim_seconds,
        mem: rss::read_memory(),
    };
    eprintln!(
        "scale             n={:>7}: build {:.1}s, {:.2} trees/s streaming, {:.2} Mevents/s, peak RSS {} MB",
        row.n,
        row.build_seconds,
        row.stream_trees_per_sec,
        row.events_per_sec / 1e6,
        row.mem
            .peak_rss_mb
            .map(|m| format!("{m:.0}"))
            .unwrap_or_else(|| "?".into()),
    );
    row
}

struct MultiGroupRow {
    nodes: usize,
    groups: usize,
    subscriptions: usize,
    admitted: usize,
    subscribes_per_sec: f64,
    tree_builds_per_sec: f64,
    publishes_per_sec: f64,
}

/// The pub/sub service layer under a Zipf subscription workload: the
/// subscribe phase admits `subscriptions` Zipf-drawn memberships across
/// `groups` groups over an `nodes`-member universe (every admission
/// rebuilds that group's tree against the residual-capacity ledger); the
/// publish phase replays each group's frozen tree. Both rates are
/// best-of-3.
fn bench_multigroup(nodes: usize, groups: usize, subscriptions: usize) -> MultiGroupRow {
    let universe = group_of(nodes, 3);
    let ops = MultiGroupScenario::new(nodes, groups, 4).zipf_subscriptions(subscriptions);

    let mut admitted = 0usize;
    let mut registry = GroupRegistry::new(universe.clone());
    let subscribe_replay = |reg: &mut GroupRegistry, count: &mut usize| {
        for op in &ops {
            match *op {
                GroupOp::Create { group } => reg.create_group(group).expect("fresh id"),
                GroupOp::Subscribe { group, node } => {
                    if reg
                        .subscribe(group, node)
                        .expect("known group")
                        .is_admitted()
                    {
                        *count += 1;
                    }
                }
                GroupOp::Unsubscribe { .. } | GroupOp::Publish { .. } => {}
            }
        }
    };
    let subscribe_secs = best_of(3, || {
        let mut reg = GroupRegistry::new(universe.clone());
        let mut count = 0usize;
        subscribe_replay(&mut reg, &mut count);
        black_box(count);
    });
    subscribe_replay(&mut registry, &mut admitted);
    registry.ledger().verify().expect("global bound holds");

    let publish_secs = best_of(3, || {
        let mut reached = 0usize;
        for g in registry.group_ids() {
            reached += registry.publish_counting(g).expect("known group").reached;
        }
        black_box(reached);
    });

    MultiGroupRow {
        nodes,
        groups,
        subscriptions,
        admitted,
        subscribes_per_sec: subscriptions as f64 / subscribe_secs,
        tree_builds_per_sec: admitted as f64 / subscribe_secs,
        publishes_per_sec: groups as f64 / publish_secs,
    }
}

struct SweepResult {
    n: usize,
    sources: usize,
    targets: usize,
    trees_per_rep: usize,
    current_trees_per_sec: f64,
    baseline_trees_per_sec: f64,
    speedup: f64,
}

/// The CAM-Chord slice of the Figure 6 sweep: one capacity-aware group per
/// degree target, `opts.sources` multicast trees each, mean bottleneck
/// throughput per target. Overlay construction is shared (identical work on
/// both paths, built once up front); the timed region is the sweep itself —
/// source sampling, tree construction, and aggregation across all targets.
fn bench_fig6_quick_sweep(opts: &Options) -> SweepResult {
    let mean_b = BandwidthDist::PAPER.mean();
    let overlays: Vec<(u64, CamChord)> = DEGREE_TARGETS
        .iter()
        .map(|&target| {
            let seed = opts.sub_seed(u64::from(target));
            let group = Scenario::paper_default(seed)
                .with_n(opts.n)
                .with_capacity(CapacityAssignment::PerLink {
                    p: mean_b / f64::from(target),
                    min: 4,
                    max: 4096,
                })
                .members();
            (seed, CamChord::new(group))
        })
        .collect();

    let inputs: Vec<(u64, &CamChord)> = overlays.iter().map(|(s, o)| (*s, o)).collect();

    // Current: pooled sweep over targets, pooled sources inside.
    let current_run = || -> Vec<f64> {
        parallel_sweep(inputs.clone(), |&(seed, overlay)| {
            sample_trees(overlay, opts.sources, seed ^ 1)
                .throughput_kbps
                .mean()
        })
    };
    // Baseline: one OS thread per target, serial sources, alloc-heavy
    // trees, binary-search resolution.
    let baseline_run = || -> Vec<f64> {
        baseline::parallel_sweep_spawn_per_input(inputs.clone(), |&(seed, overlay)| {
            let group = overlay.members();
            let srcs = sample_distinct_sources(group.len(), opts.sources, seed ^ 1);
            let mut sum = 0.0;
            let mut count = 0usize;
            for src in srcs {
                let tput =
                    baseline::cam_chord_tree(group, src).bottleneck_throughput_kbps(group);
                if tput.is_finite() {
                    sum += tput;
                    count += 1;
                }
            }
            sum / count as f64
        })
    };

    // Same sources, same trees ⇒ the two paths must agree on the result.
    let cur = current_run();
    let base = baseline_run();
    for (a, b) in cur.iter().zip(&base) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "current ({a}) and baseline ({b}) sweeps diverged"
        );
    }

    let trees_per_rep = DEGREE_TARGETS.len() * opts.sources;
    let t_current = best_of(3, || {
        black_box(current_run());
    });
    let t_baseline = best_of(3, || {
        black_box(baseline_run());
    });
    SweepResult {
        n: opts.n,
        sources: opts.sources,
        targets: DEGREE_TARGETS.len(),
        trees_per_rep,
        current_trees_per_sec: trees_per_rep as f64 / t_current,
        baseline_trees_per_sec: trees_per_rep as f64 / t_baseline,
        speedup: t_baseline / t_current,
    }
}

struct NetRunRow {
    frames_per_sec: f64,
    bytes_per_sec_per_core: f64,
    wakeups_per_sec: f64,
    seconds: f64,
    rounds_delivered: usize,
}

struct NetThroughputResult {
    nodes: usize,
    payload_bytes: usize,
    rounds: usize,
    mux: NetRunRow,
    legacy: NetRunRow,
    reactor_vs_legacy_speedup: f64,
}

/// Deterministic unique members with the paper's capacity range.
fn members(space: IdSpace, n: usize, seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0x5AAD);
    let mut ids = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = rng.uniform_incl(0, space.size() - 1);
        if ids.insert(id) {
            out.push(Member::with_capacity(
                Id(id),
                rng.uniform_incl(2, 10) as u32,
            ));
        }
    }
    out
}

/// The wire-loop section: an `nodes`-node cluster on real loopback UDP
/// pushing `rounds` multicasts of `payload_bytes` to full delivery.
/// Measured twice over the same workload — the reactor loop with the
/// multiplexed single-socket transport (deadline sleeps, batched recv,
/// pooled buffers) against the frozen pre-reactor loop with per-node
/// sockets (fixed 500 µs polling grid). `frames_per_sec` counts decoded frames (payload + ack +
/// maintenance); both loops run single-threaded, so bytes/s is per core
/// as-is. Wakeups are only accounted by the reactor loop: the legacy
/// grid's rate is its polling frequency by construction (2000/s).
fn bench_net_throughput(
    nodes: usize,
    rounds: usize,
    payload_bytes: usize,
) -> NetThroughputResult {
    use cam_net::legacy::LegacyCluster;
    use cam_net::{Cluster, MuxUdpTransport, RetransmitPolicy, UdpTransport};

    let seed = 0xBE7C;
    let space = IdSpace::PAPER;
    let ring = members(space, nodes, seed);
    let payload = bytes::Bytes::from(vec![0xB0u8; payload_bytes]);

    // Loopback throughput at saturation is scheduler-noisy; like the
    // other sections, keep the best of two full workload replays.
    let best_net = |run: &dyn Fn() -> NetRunRow| -> NetRunRow {
        let a = run();
        let b = run();
        if a.frames_per_sec >= b.frames_per_sec {
            a
        } else {
            b
        }
    };

    let mux = best_net(&|| {
        let transport = MuxUdpTransport::bind(nodes).expect("bind mux loopback socket");
        let mut cluster = Cluster::converged(
            space,
            &ring,
            cam_core::cam_chord::CamChordProtocol,
            seed,
            transport,
            RetransmitPolicy::default(),
        );
        cluster.set_maintenance_period(Duration::from_millis(100));
        cluster.run_for(Duration::from_millis(600));
        cluster.reset_loop_stats();
        let before = cluster.counters();
        let epoch = Instant::now();
        let mut delivered = 0usize;
        for round in 0..rounds {
            let p = cluster.start_multicast(round % nodes, true, payload.clone());
            if cluster.run_until(Duration::from_secs(10), |c| c.delivery_ratio(p) >= 1.0) {
                delivered += 1;
            }
        }
        let secs = epoch.elapsed().as_secs_f64();
        let after = cluster.counters();
        let stats = cluster.loop_stats();
        NetRunRow {
            frames_per_sec: (after.frames_decoded - before.frames_decoded) as f64 / secs,
            bytes_per_sec_per_core: (after.bytes_received - before.bytes_received) as f64
                / secs,
            wakeups_per_sec: stats.wakeups as f64 / secs,
            seconds: secs,
            rounds_delivered: delivered,
        }
    });

    let legacy = best_net(&|| {
        let transport = UdpTransport::bind(nodes).expect("bind per-node loopback sockets");
        let mut cluster = LegacyCluster::converged(
            space,
            &ring,
            cam_core::cam_chord::CamChordProtocol,
            seed,
            transport,
            RetransmitPolicy::default(),
        );
        cluster.set_maintenance_period(Duration::from_millis(100));
        cluster.run_for(Duration::from_millis(600));
        let before = cluster.counters();
        let epoch = Instant::now();
        let mut delivered = 0usize;
        for round in 0..rounds {
            let p = cluster.start_multicast(round % nodes, true, payload.clone());
            if cluster.run_until(Duration::from_secs(10), |c| c.delivery_ratio(p) >= 1.0) {
                delivered += 1;
            }
        }
        let secs = epoch.elapsed().as_secs_f64();
        let after = cluster.counters();
        NetRunRow {
            frames_per_sec: (after.frames_decoded - before.frames_decoded) as f64 / secs,
            bytes_per_sec_per_core: (after.bytes_received - before.bytes_received) as f64
                / secs,
            wakeups_per_sec: 0.0,
            seconds: secs,
            rounds_delivered: delivered,
        }
    });

    NetThroughputResult {
        nodes,
        payload_bytes,
        rounds,
        reactor_vs_legacy_speedup: mux.frames_per_sec / legacy.frames_per_sec,
        mux,
        legacy,
    }
}

/// Formats an `f64` for JSON (finite guaranteed by construction; keep a
/// guard anyway).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

/// Formats an optional MiB reading for JSON.
fn mem_num(x: Option<f64>) -> String {
    x.filter(|v| v.is_finite())
        .map(|v| format!("{v:.1}"))
        .unwrap_or_else(|| "null".to_string())
}

fn main() {
    let full_scale = std::env::args().any(|a| a == "--scale");
    let threads = rss::hardware_threads();
    eprintln!(
        "hotpath: {threads} hardware threads{}",
        if full_scale {
            ", full --scale tier"
        } else {
            ""
        }
    );

    let mut clock = PhaseClock::new();

    let resolution: Vec<ResolutionRow> = clock.time("owner_resolution", || {
        [(4_000usize, 2_000_000usize), (100_000, 2_000_000)]
            .into_iter()
            .map(|(n, lookups)| {
                let row = bench_resolution(n, lookups);
                eprintln!(
                "owner_idx         n={:>6}: indexed {:.1} Mops/s, binsearch {:.1} Mops/s ({:.2}x)",
                row.n, row.indexed_mops, row.binsearch_mops, row.speedup
            );
                row
            })
            .collect()
    });

    // 100k builds 24 trees per rep over 5 reps (the old 6-tree single
    // estimate was dominated by run-to-run noise; the stddev field now
    // quantifies what remains).
    let tree: Vec<TreeRow> = clock.time("tree_build", || {
        [(4_000usize, 64usize, 5usize), (100_000, 24, 5)]
            .into_iter()
            .map(|(n, trees, reps)| {
                let row = bench_tree_build(n, trees, reps);
                eprintln!(
                "multicast_tree    n={:>6}: current {:.1}±{:.1} trees/s, baseline {:.1}±{:.1} trees/s ({:.2}x)",
                row.n, row.current_trees_per_sec, row.current_stddev,
                row.baseline_trees_per_sec, row.baseline_stddev, row.speedup
            );
                row
            })
            .collect()
    });

    let sweep = clock.time("fig6_quick_sweep", || {
        bench_fig6_quick_sweep(&Options::quick())
    });
    eprintln!(
        "fig6 quick sweep  n={:>6}: current {:.1} trees/s, baseline {:.1} trees/s ({:.2}x)",
        sweep.n, sweep.current_trees_per_sec, sweep.baseline_trees_per_sec, sweep.speedup
    );

    // The scale tier: the paper's n (always measured) and the million-
    // member configuration behind --scale (a minute-plus of wall time, so
    // opt-in; CI validates the schema off the 100k row alone).
    let scale: Vec<ScaleRow> = clock.time("scale_sweep", || {
        let mut rows = vec![bench_scale(100_000, 19, 3)];
        if full_scale {
            rows.push(bench_scale(1_000_000, 24, 3));
        }
        rows
    });

    // The pub/sub service layer: 64 Zipf-popular groups sharing one
    // 4,000-node universe's capacity pool.
    let multigroup = clock.time("multigroup", || bench_multigroup(4_000, 64, 4_000));
    eprintln!(
        "multigroup        n={:>6}: {:.0} subscribes/s ({} admitted, {:.0} tree builds/s), {:.0} publishes/s over {} groups",
        multigroup.nodes,
        multigroup.subscribes_per_sec,
        multigroup.admitted,
        multigroup.tree_builds_per_sec,
        multigroup.publishes_per_sec,
        multigroup.groups,
    );

    // The wire loop: reactor-on-mux vs the frozen legacy loop, both over
    // real loopback UDP.
    let net = clock.time("net_throughput", || bench_net_throughput(64, 400, 256));
    eprintln!(
        "net_throughput    n={:>6}: mux {:.0} frames/s ({:.0} wakeups/s), legacy {:.0} frames/s ({:.2}x)",
        net.nodes,
        net.mux.frames_per_sec,
        net.mux.wakeups_per_sec,
        net.legacy.frames_per_sec,
        net.reactor_vs_legacy_speedup,
    );
    assert_eq!(
        net.mux.rounds_delivered, net.rounds,
        "reactor loop failed to deliver every round on loopback"
    );
    assert_eq!(
        net.legacy.rounds_delivered, net.rounds,
        "legacy loop failed to deliver every round on loopback"
    );

    let phases = clock.spans();
    for (name, secs, mem) in &phases {
        eprintln!(
            "phase             {name:<18} {secs:.2}s (peak RSS {} MB)",
            mem.peak_rss_mb
                .map(|m| format!("{m:.0}"))
                .unwrap_or_else(|| "?".into())
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"cam-bench/hotpath/v1\",\n");
    json.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    json.push_str("  \"owner_resolution\": [\n");
    for (i, r) in resolution.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"lookups\": {}, \"indexed_mops\": {}, \"binsearch_mops\": {}, \"speedup\": {}}}{}\n",
            r.n,
            r.lookups,
            num(r.indexed_mops),
            num(r.binsearch_mops),
            num(r.speedup),
            if i + 1 < resolution.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"tree_build\": [\n");
    for (i, r) in tree.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"trees\": {}, \"reps\": {}, \"current_trees_per_sec\": {}, \"stddev\": {}, \"baseline_trees_per_sec\": {}, \"baseline_stddev\": {}, \"speedup\": {}}}{}\n",
            r.n,
            r.trees,
            r.reps,
            num(r.current_trees_per_sec),
            num(r.current_stddev),
            num(r.baseline_trees_per_sec),
            num(r.baseline_stddev),
            num(r.speedup),
            if i + 1 < tree.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scale\": [\n");
    for (i, r) in scale.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"bits\": {}, \"sources\": {}, \"build_seconds\": {}, \"stream_trees_per_sec\": {}, \"mean_throughput_kbps\": {}, \"events\": {}, \"events_per_sec\": {}, \"rss_mb\": {}, \"peak_rss_mb\": {}}}{}\n",
            r.n,
            r.bits,
            r.sources,
            num(r.build_seconds),
            num(r.stream_trees_per_sec),
            num(r.mean_throughput_kbps),
            r.events,
            num(r.events_per_sec),
            mem_num(r.mem.rss_mb),
            mem_num(r.mem.peak_rss_mb),
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"multigroup\": {{\"nodes\": {}, \"groups\": {}, \"subscriptions\": {}, \"admitted\": {}, \"subscribes_per_sec\": {}, \"tree_builds_per_sec\": {}, \"publishes_per_sec\": {}}},\n",
        multigroup.nodes,
        multigroup.groups,
        multigroup.subscriptions,
        multigroup.admitted,
        num(multigroup.subscribes_per_sec),
        num(multigroup.tree_builds_per_sec),
        num(multigroup.publishes_per_sec),
    ));
    json.push_str("  \"phases\": [\n");
    for (i, (name, secs, mem)) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_seconds\": {}, \"rss_mb\": {}, \"peak_rss_mb\": {}}}{}\n",
            name,
            num(*secs),
            mem_num(mem.rss_mb),
            mem_num(mem.peak_rss_mb),
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fig6_quick_sweep\": {{\"n\": {}, \"sources\": {}, \"targets\": {}, \"trees_per_rep\": {}, \"current_trees_per_sec\": {}, \"baseline_trees_per_sec\": {}, \"speedup\": {}}},\n",
        sweep.n,
        sweep.sources,
        sweep.targets,
        sweep.trees_per_rep,
        num(sweep.current_trees_per_sec),
        num(sweep.baseline_trees_per_sec),
        num(sweep.speedup)
    ));
    json.push_str("  \"net_throughput\": {\n");
    json.push_str(&format!(
        "    \"nodes\": {}, \"payload_bytes\": {}, \"rounds\": {},\n",
        net.nodes, net.payload_bytes, net.rounds
    ));
    json.push_str(&format!(
        "    \"mux\": {{\"frames_per_sec\": {}, \"bytes_per_sec_per_core\": {}, \"wakeups_per_sec\": {}, \"seconds\": {}, \"rounds_delivered\": {}}},\n",
        num(net.mux.frames_per_sec),
        num(net.mux.bytes_per_sec_per_core),
        num(net.mux.wakeups_per_sec),
        num(net.mux.seconds),
        net.mux.rounds_delivered
    ));
    json.push_str(&format!(
        "    \"legacy\": {{\"frames_per_sec\": {}, \"bytes_per_sec_per_core\": {}, \"seconds\": {}, \"rounds_delivered\": {}}},\n",
        num(net.legacy.frames_per_sec),
        num(net.legacy.bytes_per_sec_per_core),
        num(net.legacy.seconds),
        net.legacy.rounds_delivered
    ));
    json.push_str(&format!(
        "    \"reactor_vs_legacy_speedup\": {}\n",
        num(net.reactor_vs_legacy_speedup)
    ));
    json.push_str("  }\n");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    eprintln!("wrote {path}");
    print!("{json}");
}
