//! Failing fixture for `shard_merge_purity`: a helper reachable from
//! `Simulation::pop` stamps merge decisions with the wall clock and
//! another falls back to `SystemTime` — pop order now depends on the host
//! scheduler, not queue state.

pub struct Simulation {
    heads: Vec<Option<(u64, u64)>>,
}

impl Simulation {
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let winner = merge_heads(&self.heads)?;
        self.heads[winner].take()
    }
}

fn merge_heads(heads: &[Option<(u64, u64)>]) -> Option<usize> {
    let stamp = std::time::Instant::now();
    let mut best: Option<usize> = None;
    for (i, h) in heads.iter().enumerate() {
        if h.is_some() && (best.is_none() || tie_break(i)) {
            best = Some(i);
        }
    }
    let _ = stamp.elapsed();
    best
}

fn tie_break(i: usize) -> bool {
    let now = std::time::SystemTime::now();
    now.elapsed().map(|d| d.as_nanos() as usize % 2 == i % 2).unwrap_or(false)
}
