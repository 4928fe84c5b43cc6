//! `paper_trees`: the paper's own evaluation path at paper scale — build
//! the four static overlays over n = 100,000 members in 2^19 identifiers
//! and sweep sampled sources through `multicast_tree` plus the tree
//! statistics on the 2-worker `parallel_sweep`.

use std::time::Instant;

use cam_core::{CamChord, CamKoorde};
use cam_experiments::runner::parallel_sweep;
use cam_overlay::{MemberSet, StaticOverlay};
use cam_ring::Id;
use cam_workload::Scenario;
use chord_overlay::Chord;
use koorde_overlay::Koorde;

use crate::layers::{push, Layers};
use crate::report::{quantile, ratio, setup_s, Meter, Report, SplitMix};

/// Finger base of the El-Ansary Chord baseline and degree of the
/// left-shift Koorde baseline: 8 sits next to the paper's mean capacity
/// of 7 (capacities uniform in 4..=10), and Koorde needs a power of two.
const BASELINE_DEGREE: u32 = 8;
/// Sources handed to the worker pool per sweep call.
const BATCH: usize = 8;
const SETUP_REPS: usize = 9;
const SYSTEMS: [&str; 4] = ["core.cam_chord", "core.cam_koorde", "chord", "koorde"];

/// Threads `parallel_sweep` runs a batch on.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(BATCH)
}

struct Overlays {
    group: MemberSet,
    all: [Box<dyn StaticOverlay>; 4],
}

/// Seconds spent on the members and on each overlay, in `SYSTEMS` order.
fn build(seed: u64) -> (Overlays, f64, [f64; 4]) {
    let t = Instant::now();
    let group = Scenario::paper_default(seed).members();
    let members_s = t.elapsed().as_secs_f64();
    let mut times = [0.0; 4];
    let mut timed = |i: usize, f: &dyn Fn() -> Box<dyn StaticOverlay>| {
        let t = Instant::now();
        let o = f();
        times[i] = t.elapsed().as_secs_f64();
        o
    };
    let all = [
        timed(0, &|| Box::new(CamChord::new(group.clone()))),
        timed(1, &|| Box::new(CamKoorde::new(group.clone()))),
        timed(2, &|| Box::new(Chord::new(group.clone(), BASELINE_DEGREE))),
        timed(3, &|| Box::new(Koorde::new(group.clone(), BASELINE_DEGREE))),
    ];
    (Overlays { group, all }, members_s, times)
}

/// One source through one system: `(tree ms, stats ms, delivered)`.
#[derive(Debug, Clone, Copy)]
struct TreeRun {
    tree_ms: f64,
    stats_ms: f64,
    delivered: usize,
}

fn one_tree(o: &dyn StaticOverlay, group: &MemberSet, source: usize) -> TreeRun {
    let t = Instant::now();
    let tree = o.multicast_tree(source);
    let tree_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let stats = tree.stats();
    let tput = tree.bottleneck_throughput_kbps(group);
    std::hint::black_box(tput);
    TreeRun {
        tree_ms,
        stats_ms: t.elapsed().as_secs_f64() * 1e3,
        delivered: stats.delivered,
    }
}

/// A sweep over `sources`; per source, the four systems in order.
fn sweep(o: &Overlays, sources: Vec<usize>) -> Vec<[TreeRun; 4]> {
    parallel_sweep(sources, |&s| {
        [0, 1, 2, 3].map(|i| one_tree(o.all[i].as_ref(), &o.group, s))
    })
}

struct Sweep {
    runs: Vec<[TreeRun; 4]>,
    wall_s: f64,
}

/// Sweeps batches of random sources for `seconds`; `meter`, when given,
/// normalizes each batch's wall time and per-tree times.
fn timed_sweep(
    o: &Overlays,
    rng: &mut SplitMix,
    seconds: f64,
    mut meter: Option<&mut Meter>,
) -> Sweep {
    let n = o.group.len();
    let t = Instant::now();
    let mut runs = Vec::new();
    let mut wall_s = 0.0;
    while runs.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let batch: Vec<usize> = (0..BATCH).map(|_| rng.below(n)).collect();
        let b = Instant::now();
        let done = sweep(o, batch);
        let w = b.elapsed().as_secs_f64();
        wall_s += w;
        if let Some(m) = meter.as_deref_mut() {
            let ms: Vec<f64> = done
                .iter()
                .flatten()
                .map(|r| r.tree_ms + r.stats_ms)
                .collect();
            m.step(w, &ms);
        }
        runs.extend(done);
    }
    Sweep { runs, wall_s }
}

fn account(rep: &mut Report, o: &Overlays, s: &Sweep) -> (u64, u64) {
    let n = o.group.len();
    let mut pairs = (0u64, 0u64);
    for r in s.runs.iter().flatten() {
        rep.op(r.delivered == n);
        pairs.0 += r.delivered as u64;
        pairs.1 += n as u64;
    }
    rep.check(pairs.0 == pairs.1, "a multicast tree missed members");
    pairs
}

pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let setup = setup_s(SETUP_REPS, || drop(std::hint::black_box(build(seed))));
    let (o, _, _) = build(seed);

    let mut rng = SplitMix::new(seed);
    let mut meter = Meter::new(workers());
    let s = timed_sweep(&o, &mut rng, seconds, Some(&mut meter));
    meter.close();
    let pairs = account(rep, &o, &s);
    let trees = (s.runs.len() * 4) as f64;
    println!(
        "# paper_trees: {trees} trees, {:.2} trees/s raw, {:.2} normalized; per-tree p99 {:.2} ms",
        trees / s.wall_s,
        trees / meter.total,
        quantile(&meter.steps, 0.99)
    );
    rep.metric("setup_s", setup, "s");
    rep.metric("delivery_ratio", ratio(pairs.0 as f64, pairs.1 as f64), "1");
    rep.metric("work_per_s", trees / meter.total, "1/s");
    rep.metric("op_p50_ms", quantile(&meter.steps, 0.50), "ms");
    rep.metric("op_p90_ms", quantile(&meter.steps, 0.90), "ms");
}

pub fn traced(seed: u64, seconds: f64, rep: &mut Report) -> (Layers, f64, f64) {
    let start = Instant::now();
    let (o, members_s, build_s) = build(seed);
    let mut l = Layers::new();
    push(&mut l, "peer.members_build_s", members_s, "s");
    for (name, s) in SYSTEMS.iter().zip(build_s) {
        push(&mut l, format!("{name}.build_s"), s, "s");
    }

    // The same sources twice: timed per call (traced) and as one span
    // (untraced), for the tracing overhead.
    let n = o.group.len();
    let mut rng = SplitMix::new(seed);
    let traced = timed_sweep(&o, &mut rng, seconds / 2.0, None);
    let sources: Vec<usize> = {
        let mut r = SplitMix::new(seed);
        (0..traced.runs.len()).map(|_| r.below(n)).collect()
    };
    let t = Instant::now();
    let plain: Vec<usize> = parallel_sweep(sources, |&s| {
        o.all
            .iter()
            .map(|x| {
                let tree = x.multicast_tree(s);
                std::hint::black_box(tree.bottleneck_throughput_kbps(&o.group));
                tree.stats().delivered
            })
            .sum()
    });
    let plain_s = t.elapsed().as_secs_f64();
    rep.check(
        plain.iter().all(|&d| d == 4 * n),
        "an untraced multicast tree missed members",
    );
    account(rep, &o, &traced);

    let items = traced.runs.len() as f64;
    for (i, name) in SYSTEMS.iter().enumerate() {
        let ms: f64 = traced.runs.iter().map(|r| r[i].tree_ms).sum();
        push(&mut l, format!("{name}.tree_ms"), ms / items, "ms");
    }
    let stats_ms: f64 = traced.runs.iter().flatten().map(|r| r.stats_ms).sum();
    let busy_ms: f64 = traced
        .runs
        .iter()
        .flatten()
        .map(|r| r.tree_ms + r.stats_ms)
        .sum();
    let workers = workers();
    push(
        &mut l,
        "metrics.tree_stats_ms",
        stats_ms / (items * 4.0),
        "ms",
    );
    let busy_frac = busy_ms / 1e3 / (workers as f64 * traced.wall_s);
    push(&mut l, "experiments.sweep_busy_frac", busy_frac, "1");

    // Ring resolution on its own: random keys through MemberSet::owner_idx.
    let space = o.group.space();
    let keys: Vec<Id> = (0..1_000_000)
        .map(|_| Id(rng.next_u64() & space.mask()))
        .collect();
    let t = Instant::now();
    let mut acc = 0usize;
    for &k in &keys {
        acc = acc.wrapping_add(o.group.owner_idx(std::hint::black_box(k)));
    }
    std::hint::black_box(acc);
    push(
        &mut l,
        "peer.owner_idx_ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
        "ns",
    );

    let wall = start.elapsed().as_secs_f64() - plain_s;
    let covered = members_s + build_s.iter().sum::<f64>() + busy_ms / 1e3 / workers as f64;
    println!(
        "# closure paper_trees: members {members_s:.3}s + overlay builds {:.3}s + per-worker tree \
         and stats time {:.3}s = {:.1}% of {wall:.3}s; uncovered: worker idle time in the sweep \
         ({:.1}% busy), source sampling, the owner_idx probe",
        build_s.iter().sum::<f64>(),
        busy_ms / 1e3 / workers as f64,
        100.0 * covered / wall,
        100.0 * busy_frac
    );
    (l, covered / wall, traced.wall_s / plain_s - 1.0)
}
