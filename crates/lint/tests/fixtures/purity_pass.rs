//! Passing fixture for `shard_merge_purity`: everything reachable from
//! the simulator's pop-order code is a pure function of queue state — the
//! virtual clock arrives as an argument, never from the OS.

pub struct Simulation {
    heads: Vec<Option<(u64, u64)>>,
}

impl Simulation {
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let winner = merge_heads(&self.heads)?;
        self.heads[winner].take()
    }
}

/// Index-order scan: ties break on `(at, seq)`, both queue state.
fn merge_heads(heads: &[Option<(u64, u64)>]) -> Option<usize> {
    let mut best: Option<(u64, u64, usize)> = None;
    for (i, h) in heads.iter().enumerate() {
        if let Some((at, seq)) = h {
            if best.is_none_or(|(ba, bs, _)| (*at, *seq) < (ba, bs)) {
                best = Some((*at, *seq, i));
            }
        }
    }
    best.map(|(_, _, i)| i)
}
