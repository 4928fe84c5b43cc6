//! Result record, summary statistics and the process probes every
//! workload shares.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// What one benchmark run prints: the correctness verdict, operation
/// counts, and named metrics with their units.
#[derive(Debug, Default)]
pub struct Report {
    correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a correctness check; a failed check marks the run incorrect
    /// and says why on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(false, &format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: a single JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by the calling thread, in seconds
/// (`/proc/thread-self/schedstat`, nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// SplitMix64: the benchmark's own input generator, so every input is a
/// function of `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_BE4C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices from `0..n` excluding `skip`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize, skip: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).filter(|&i| i != skip).collect();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Reference-kernel time, in seconds, that counts as machine speed 1.0:
/// the kernel's typical time on the baseline host recorded in README.md.
const REFERENCE_NOMINAL_S: f64 = 0.0116;

/// Measured wall time between two reference samples.
const CHUNK_S: f64 = 0.5;

/// A fixed piece of benchmark-owned work shaped like the workloads' inner
/// loops (an event heap, per-actor hash maps, small allocations over a few
/// MiB). It does not call the program under test, so a change to the
/// program cannot move it.
fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut maps: Vec<HashMap<u64, Vec<u64>>> = (0..1000).map(|_| HashMap::new()).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..1000).map(|i| Reverse((i, i as usize))).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..40_000 {
        let Reverse((at, a)) = heap.pop().expect("the heap never empties");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let m = &mut maps[a];
        m.entry(x % 64).or_default().push(at);
        if m.len() > 48 {
            m.remove(&(x % 61));
        }
        std::hint::black_box((0..x % 8).collect::<Vec<u64>>());
        heap.push(Reverse((at + 1 + x % 100, (x % 1000) as usize)));
    }
    std::hint::black_box(&maps);
    t.elapsed().as_secs_f64()
}

/// The current reference time: the median of three kernel runs, on each
/// of `threads` threads at once. With several threads the result is the
/// time that matches their summed speed, `1 / mean(1 / t_i)`, since a
/// self-balancing worker pool progresses at that summed speed.
fn reference_s(threads: usize) -> f64 {
    let one = || median(&[reference_kernel(), reference_kernel(), reference_kernel()]);
    if threads == 1 {
        return one();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Measures CPU-bound work in machine-speed-normalized time.
///
/// The benchmark host is shared: its speed swings by up to 2x within
/// seconds and drifts by tens of percent over minutes, for every kernel
/// alike. So the measured work is cut into chunks of about `CHUNK_S` wall
/// seconds, the reference kernel is timed between chunks (outside the
/// measured time), and each chunk's step times are scaled by
/// `REFERENCE_NOMINAL_S / reference`, using the faster of the samples
/// taken just before and just after it: a stall that catches one sample
/// only ever slows it, and must not rescale a chunk that ran at full
/// speed. A step then reads as the time it would take on the host at
/// nominal speed. Raw totals are kept for the notes.
#[derive(Debug)]
pub struct Meter {
    threads: usize,
    before: f64,
    chunk: Vec<f64>,
    chunk_s: f64,
    /// Normalized step times, in the unit they were recorded in.
    pub steps: Vec<f64>,
    pub total: f64,
    pub raw_total: f64,
}

impl Meter {
    /// A meter for work that runs on `threads` threads.
    pub fn new(threads: usize) -> Self {
        // The first kernel runs of a process pay for its fresh heap.
        reference_s(threads);
        Meter {
            threads,
            before: reference_s(threads),
            chunk: Vec::new(),
            chunk_s: 0.0,
            steps: Vec::new(),
            total: 0.0,
            raw_total: 0.0,
        }
    }

    /// Records a step of measured work that took `wall_s` seconds;
    /// `values` are the step's own timings (in the caller's unit), which
    /// enter `steps` once scaled.
    pub fn step(&mut self, wall_s: f64, values: &[f64]) {
        self.chunk.extend_from_slice(values);
        self.chunk_s += wall_s;
        self.raw_total += wall_s;
        if self.chunk_s >= CHUNK_S {
            self.close();
        }
    }

    /// Ends the current chunk: samples the reference and scales the chunk.
    pub fn close(&mut self) {
        if self.chunk_s == 0.0 {
            return;
        }
        let after = reference_s(self.threads);
        let scale = REFERENCE_NOMINAL_S / self.before.min(after);
        self.steps.extend(self.chunk.drain(..).map(|v| v * scale));
        self.total += self.chunk_s * scale;
        self.chunk_s = 0.0;
        self.before = after;
    }
}

/// Set-up time: the median of `reps` consecutive runs of `build`, each
/// normalized for machine speed like the measured work.
pub fn setup_s(reps: usize, mut build: impl FnMut()) -> f64 {
    let mut meter = Meter::new(1);
    for _ in 0..reps {
        let t = Instant::now();
        build();
        let s = t.elapsed().as_secs_f64();
        meter.step(s, &[s]);
    }
    meter.close();
    median(&meter.steps)
}
