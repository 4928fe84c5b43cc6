//! Wall-clock scheduling regression tests: the wire loop must sleep to
//! *computed* deadlines — `min(next timer, next RTO, socket readable)` —
//! instead of spinning on a fixed 500 µs grid the way the pre-reactor
//! loop did. Two observable consequences are pinned here:
//!
//! 1. An armed RTO fires when scheduled (firing error far below the old
//!    polling tick), because the loop parks *exactly* until it.
//! 2. An otherwise idle cluster takes a bounded number of wakeups — one
//!    per due event plus one per inbound datagram — not two thousand
//!    per second of busy-polling.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::{Transport, WireCounters};
use cam_overlay::Member;
use cam_ring::{Id, IdSpace};
use cam_sim::rng::SimRng;
use cam_sim::{Duration, SimTime};
use cam_trace::{EventKind, RecordingTracer};

const SPACE: IdSpace = IdSpace::PAPER;

/// The legacy loop's polling period: it slept a flat 500 µs between
/// polls, so *every* deadline could fire up to one tick late (and the
/// loop woke 2000 times a second to achieve even that).
const LEGACY_TICK_MICROS: u64 = 500;

/// Both tests here measure wall-clock timing; running them concurrently
/// makes each other's CPU use look like scheduler latency. Serialize.
static WALL_CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn members(n: usize, seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0xD06);
    let mut ids = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = rng.uniform_incl(0, SPACE.size() - 1);
        if ids.insert(id) {
            out.push(Member::with_capacity(
                Id(id),
                rng.uniform_incl(2, 10) as u32,
            ));
        }
    }
    out
}

/// A mux socket whose wire to one endpoint can be cut: frames sent to
/// `sunk` vanish before they reach the socket, so no frame-layer ack ever
/// comes back — the same failure a crashed remote host produces.
struct Blackholed {
    inner: MuxUdpTransport,
    sunk: Option<usize>,
}

impl Transport for Blackholed {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]) {
        if self.sunk != Some(to) {
            self.inner.send(now, from, to, frame);
        }
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        self.inner.poll(now)
    }

    fn poll_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> usize {
        self.inner.poll_batch(now, max, out)
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

    fn recycle(&mut self, buf: Vec<u8>) {
        self.inner.recycle(buf);
    }

    fn wait(&mut self, dur: std::time::Duration) -> bool {
        self.inner.wait(dur)
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

fn mux_cluster(
    n: usize,
    seed: u64,
    policy: RetransmitPolicy,
) -> Cluster<CamChordProtocol, Blackholed> {
    let transport = Blackholed {
        inner: MuxUdpTransport::bind(n).expect("bind loopback mux socket"),
        sunk: None,
    };
    Cluster::converged(
        SPACE,
        &members(n, seed),
        CamChordProtocol,
        seed,
        transport,
        policy,
    )
}

/// Black-hole one node's wire, multicast so a payload frame goes
/// unacked, and check the retransmission schedule against the tracer's
/// timestamps: consecutive retransmits of one frame must be separated by
/// exactly the armed RTO, within a small scheduling tolerance. The old
/// loop could only promise "within one 500 µs tick of the grid *it
/// happened to be on*"; the reactor loop parks precisely until the RTO
/// deadline, so the error stays well under that tick even though it
/// sleeps thousands of times less often. The tolerance is 10 ticks
/// (5 ms) to absorb OS scheduler noise on the sleeping thread, still an
/// order of magnitude tighter than the retransmission intervals being
/// measured.
#[test]
fn rto_fires_on_the_computed_deadline() {
    let _serial = WALL_CLOCK.lock().expect("serialize timing tests");
    let policy = RetransmitPolicy {
        initial_rto: Duration::from_millis(60),
        max_rto: Duration::from_millis(480),
        max_attempts: 6,
    };
    let mut cluster = mux_cluster(4, 77, policy);
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 12)));
    cluster.set_maintenance_period(Duration::from_millis(100));
    cluster.run_for(Duration::from_millis(300));

    // Unreachable receiver: every payload frame sent to node 3 vanishes
    // on the wire (no frame-layer ack), so the sender must retransmit on
    // the armed schedule.
    cluster.transport_mut().sunk = Some(3);
    cluster.start_multicast(0, true, Bytes::from(vec![0x42u8; 200]));
    cluster.run_for(Duration::from_millis(700));

    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    // Group retransmit events per in-flight frame (sender, seq); each
    // group's inter-event gaps must match the RTO armed by the previous
    // event in the group.
    let mut by_frame: std::collections::HashMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for ev in rec.events() {
        if let EventKind::Retransmit {
            wire_seq,
            rto_micros,
            ..
        } = ev.kind
        {
            by_frame
                .entry((ev.actor, wire_seq))
                .or_default()
                .push((ev.at_micros, rto_micros));
        }
    }
    let mut gaps_checked = 0u32;
    for ((actor, seq), events) in &by_frame {
        for pair in events.windows(2) {
            let (t1, armed_rto) = pair[0];
            let (t2, _) = pair[1];
            let gap = t2 - t1;
            let err = gap.abs_diff(armed_rto);
            assert!(
                err <= 10 * LEGACY_TICK_MICROS,
                "node {actor} frame {seq}: retransmit fired {gap} µs after the previous \
                 attempt, {err} µs off the armed {armed_rto} µs RTO — the loop is not \
                 sleeping to the computed deadline"
            );
            gaps_checked += 1;
        }
    }
    assert!(
        gaps_checked >= 2,
        "expected at least two back-to-back retransmissions to measure, saw {gaps_checked} \
         (frames: {by_frame:?})"
    );
}

/// An idle cluster's wakeup budget: over half a second with only
/// maintenance timers due, the loop must wake roughly once per due event
/// — orders of magnitude below the legacy grid's 1000 wakeups — and the
/// time it didn't spend working must have been spent in computed-deadline
/// sleeps.
#[test]
fn idle_cluster_wakeups_are_deadline_bound() {
    let _serial = WALL_CLOCK.lock().expect("serialize timing tests");
    let mut cluster = mux_cluster(8, 99, RetransmitPolicy::default());
    cluster.set_maintenance_period(Duration::from_millis(100));
    cluster.run_for(Duration::from_millis(400));

    cluster.reset_loop_stats();
    cluster.run_for(Duration::from_millis(500));
    let stats = cluster.loop_stats();

    // Legacy budget for the same window: 500 ms / 500 µs = 1000 wakeups,
    // zero deadline sleeps. 8 nodes × 3 maintenance timers × ~5 rounds
    // plus their ping traffic is a few hundred events at the very most.
    assert!(
        stats.wakeups < 800,
        "idle loop woke {} times in 500 ms — that is a polling grid, not a scheduler",
        stats.wakeups
    );
    assert!(
        stats.sleeps > 0 && stats.slept_micros > 100_000,
        "idle time must be spent in computed sleeps, got {stats:?}"
    );
    assert!(
        stats.io_wakes <= stats.wakeups,
        "io wake accounting out of range: {stats:?}"
    );
}
