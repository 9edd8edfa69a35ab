//! Open-loop schedules: every operation has a due time fixed before the
//! run starts, and is timed from that due time, so a stall in the system
//! (or in the generator) is charged to every operation it delays.

use std::time::{Duration, Instant};

/// Due times, as offsets from the phase start, consumed in order.
#[derive(Debug, Clone)]
pub struct Schedule {
    offsets: Vec<Duration>,
    next: usize,
}

impl Schedule {
    /// `rate` operations per second for `span`: the i-th is due at
    /// `i / rate`.
    pub fn fixed_rate(rate: f64, span: Duration) -> Schedule {
        assert!(rate > 0.0, "rate must be positive");
        let count = (rate * span.as_secs_f64()).floor() as usize;
        let offsets = (0..count)
            .map(|i| Duration::from_secs_f64(i as f64 / rate))
            .collect();
        Schedule { offsets, next: 0 }
    }

    /// Explicit offsets; they are sorted so callers may merge streams.
    pub fn from_offsets(mut offsets: Vec<Duration>) -> Schedule {
        offsets.sort();
        Schedule { offsets, next: 0 }
    }

    /// Due time of the next unconsumed operation.
    pub fn next_due(&self, start: Instant) -> Option<Instant> {
        self.offsets.get(self.next).map(|&offset| start + offset)
    }

    /// Consume the next operation if it is due at `now`, returning its
    /// index and due time.
    pub fn take_due(&mut self, start: Instant, now: Instant) -> Option<(usize, Instant)> {
        let due = self.next_due(start)?;
        if due > now {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }
}

/// How late an operation was sent relative to its due time, in µs.
pub fn lag_us(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_spaces_operations_evenly() {
        let s = Schedule::fixed_rate(200.0, Duration::from_millis(1500));
        assert_eq!(s.offsets.len(), 300);
        let t0 = Instant::now();
        assert_eq!(s.next_due(t0), Some(t0));
        assert_eq!(s.offsets[1], Duration::from_millis(5));
        assert_eq!(s.offsets[299], Duration::from_millis(1495));
    }

    #[test]
    fn take_due_releases_operations_only_when_due() {
        let mut s = Schedule::fixed_rate(100.0, Duration::from_millis(50));
        let t0 = Instant::now();
        assert_eq!(s.take_due(t0, t0), Some((0, t0)));
        assert_eq!(s.take_due(t0, t0), None, "the second is due at 10 ms");
        // A generator that wakes 25 ms late releases the backlog in order,
        // each stamped with its own due time, not the wake time.
        let late = t0 + Duration::from_millis(25);
        let mut released = Vec::new();
        while let Some((i, due)) = s.take_due(t0, late) {
            released.push((i, due - t0));
        }
        assert_eq!(
            released,
            vec![
                (1, Duration::from_millis(10)),
                (2, Duration::from_millis(20))
            ]
        );
        assert_eq!(lag_us(t0 + Duration::from_millis(10), late), 15_000.0);
        assert_eq!(lag_us(late, t0), 0.0, "early sends have no lag");
    }

    #[test]
    fn explicit_offsets_are_consumed_in_time_order() {
        let mut s = Schedule::from_offsets(vec![
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ]);
        let t0 = Instant::now();
        let end = t0 + Duration::from_millis(100);
        let order: Vec<Duration> =
            std::iter::from_fn(|| s.take_due(t0, end).map(|(_, d)| d - t0)).collect();
        assert_eq!(
            order,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(30)
            ]
        );
        assert_eq!(s.next_due(t0), None);
    }
}
