//! Exact order statistics and segment medians.
//!
//! Percentiles are taken from sorted `u64` samples (nearest rank), never
//! from a bucketed histogram, and always travel with their sample count.
//! Host-time throughputs are reported as the median over nine segments
//! of the timed region, so a transient neighbour on the shared machine
//! moves one segment and not the number.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`; `None` when
/// there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Arithmetic mean; `None` when there are no samples.
pub fn mean(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64)
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// First quartile, median and third quartile of `values` by linear
/// interpolation (the "inclusive" method); `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        match (v.get(lo), v.get(hi)) {
            (Some(&a), Some(&b)) => a + (b - a) * (pos - lo as f64),
            _ => f64::NAN,
        }
    };
    Some((at(0.25), at(0.5), at(0.75)))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// One unit of timed work: how much was done and how many host
/// nanoseconds it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Work completed (rounds, ops, pages).
    pub work: f64,
    /// Host nanoseconds spent on it.
    pub host_ns: u64,
}

/// Deals `blocks` round-robin into at most `segments` groups (block `i`
/// goes to group `i % segments`) and returns each group's work per host
/// second.
///
/// Every group samples the whole run, so a drift in the cost of a round
/// (on `fleet_16` it grows as history accumulates) does not turn the
/// median group into "the middle of the run"; a disturbance shorter than
/// a block still lands in one group only. Groups never split a block, so
/// a periodic heavy step stays whole when one block is one period.
pub fn segment_rates(blocks: &[Block], segments: usize) -> Vec<f64> {
    let segments = segments.clamp(1, blocks.len().max(1));
    let mut totals = vec![(0.0f64, 0u64); segments];
    for (block, total) in blocks.iter().zip((0..segments).cycle()) {
        if let Some((work, ns)) = totals.get_mut(total) {
            *work += block.work;
            *ns += block.host_ns;
        }
    }
    totals
        .into_iter()
        .filter(|&(_, ns)| ns > 0)
        .map(|(work, ns)| work * 1e9 / ns as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // Exact, not bucketed: 12_050 stays 12_050.
        let mut t = vec![10_000u64; 98];
        t.extend([12_050, 30_000]);
        assert_eq!(percentile(&t, 99.0), Some(12_050));
        assert_eq!(mean(&[1, 2, 6]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        let (q1, m, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, m, q3), (1.25, 1.5, 1.75));
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn segments_keep_blocks_whole_and_shrug_off_an_outlier() {
        let mut blocks = vec![
            Block {
                work: 10.0,
                host_ns: 1_000_000
            };
            18
        ];
        // One block hit by a neighbour: 10x slower.
        blocks[4].host_ns = 10_000_000;
        let rates = segment_rates(&blocks, 9);
        assert_eq!(rates.len(), 9);
        assert_eq!(median(&rates), Some(10_000.0));
        // A steady drift in the cost of a block reaches every segment
        // alike: the segments agree to within the drift of one stride.
        let drifting: Vec<Block> = (0..90)
            .map(|i| Block {
                work: 1.0,
                host_ns: 1_000_000 + 10_000 * i,
            })
            .collect();
        let (q1, _, q3) = quartiles(&segment_rates(&drifting, 9)).unwrap();
        assert!((q3 - q1) / q1 < 0.03, "q1 {q1} q3 {q3}");
        // Fewer blocks than segments: one rate per block.
        assert_eq!(segment_rates(&blocks[..3], 9).len(), 3);
        assert!(segment_rates(&[], 9).is_empty());
    }
}
