//! Open-loop pacing: operations fire on a fixed schedule whether or not
//! the system keeps up. Each is timed from when it was *due*, so a stall
//! charges the operations queued behind it, and how late the generator
//! itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

/// Time as the scheduler sees it, so tests can inject stalls.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// When tick `i` of a fixed-interval schedule is due.
pub fn due(interval: Duration, i: usize) -> Duration {
    interval * i as u32
}

/// Fires `op(i, due)` for `i in 0..count`, never before its due time and
/// never skipping one: after a stall the overdue ticks fire back to back.
/// Returns each tick's lateness (actual start − due time).
pub fn run_schedule(
    clock: &impl Clock,
    interval: Duration,
    count: usize,
    mut op: impl FnMut(usize, Duration),
) -> Vec<Duration> {
    (0..count)
        .map(|i| {
            let due = due(interval, i);
            clock.sleep_until(due);
            let lateness = clock.now().saturating_sub(due);
            op(i, due);
            lateness
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or explicitly advanced.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn ticks_fire_at_their_due_times_when_the_system_keeps_up() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut started = Vec::new();
        let lateness = run_schedule(&clock, 25 * MS, 4, |_, due| {
            started.push((clock.now(), due));
            clock.advance(3 * MS);
        });
        assert_eq!(lateness, vec![Duration::ZERO; 4]);
        assert!(started.iter().all(|(at, due)| at == due));
        assert_eq!(started[3].1, 75 * MS);
    }

    #[test]
    fn a_stall_is_charged_to_the_ticks_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut latency = Vec::new();
        let lateness = run_schedule(&clock, 25 * MS, 6, |i, due| {
            // Tick 1 stalls for 90 ms; every other operation takes 1 ms.
            clock.advance(if i == 1 { 90 * MS } else { MS });
            latency.push(clock.now() - due);
        });
        // Tick 1 was due at 25 and ends at 115; ticks 2..4 (due 50, 75,
        // 100) fire back to back from there, tick 5 (due 125) is on time.
        assert_eq!(lateness, [0, 0, 65, 41, 17, 0].map(|ms| ms * MS).to_vec());
        // Latency counts from the due time, so the stall shows in the
        // ticks behind it and not only in the one that stalled.
        assert_eq!(latency, [1, 90, 66, 42, 18, 1].map(|ms| ms * MS).to_vec());
    }
}
