//! Percentiles and the sample-count rule every reported timing follows.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer makes the tail one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`
/// samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Smallest sample count that leaves [`MIN_BEYOND`] samples beyond the
/// `q` percentile.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("q < 1")
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// One latency distribution, split into equal time windows so a tail
/// percentile can be reported as the median of per-window tails: a
/// single stall on a shared host then moves one window, not the run.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// `count` empty windows.
    pub fn new(count: usize) -> Windowed {
        Windowed {
            windows: vec![Vec::new(); count.max(1)],
        }
    }

    /// Add a sample to window `window` (clamped to the last one).
    pub fn push(&mut self, window: usize, value: f64) {
        let last = self.windows.len() - 1;
        self.windows[window.min(last)].push(value);
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Samples of window `window`, unsorted.
    pub fn window(&self, window: usize) -> &[f64] {
        self.windows.get(window).map_or(&[], Vec::as_slice)
    }

    /// All samples, ascending.
    pub fn all_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.windows.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// The `q` percentile as the median over windows that each hold
    /// enough samples for it; falls back to the pooled samples when half
    /// or fewer of the windows do. `None` when even the pool is too small.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let need = samples_needed(q);
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.len() >= need)
            .filter_map(|w| {
                let mut sorted = w.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, q)
            })
            .collect();
        if per_window.len() * 2 > self.windows.len() {
            return median(&per_window);
        }
        let all = self.all_sorted();
        (all.len() >= need).then(|| percentile(&all, q)).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn ten_samples_lie_beyond_each_reported_percentile() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q);
            assert!(beyond(n, q) >= MIN_BEYOND);
            assert!(beyond(n - 1, q) < MIN_BEYOND);
        }
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        let mut w = Windowed::new(3);
        for window in 0..3 {
            for i in 1..=1000 {
                w.push(window, f64::from(i) + 1000.0 * window as f64);
            }
        }
        // Window p99s are 990, 1990, 2990; their median is the middle one.
        assert_eq!(w.tail(0.99), Some(1990.0));
        assert_eq!(w.len(), 3000);
    }

    #[test]
    fn windowed_tail_pools_small_windows_and_refuses_tiny_pools() {
        let mut w = Windowed::new(4);
        for i in 0..400 {
            w.push(i % 4, i as f64);
        }
        // No window holds 1000 samples and neither does the pool.
        assert_eq!(w.tail(0.99), None);
        // 100 per window is enough for p90 in every window.
        assert!(w.tail(0.9).is_some());
        // Uneven windows: too few qualify, so the pool of 400 serves p95.
        let mut uneven = Windowed::new(4);
        for i in 0..400 {
            uneven.push(if i < 250 { 0 } else { 1 + i % 3 }, i as f64);
        }
        assert_eq!(uneven.tail(0.95), Some(379.0));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
