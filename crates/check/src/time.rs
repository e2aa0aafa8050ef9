//! A deterministic logical clock standing in for `std::time::Instant`
//! under the checker. Every `now()` advances a per-execution tick counter
//! by one nanosecond, so time observations are deterministic for a given
//! schedule and total wall time never actually passes: a deadline of
//! `Duration::ZERO` is already expired, while any real-world deadline
//! (milliseconds and up) never expires within a model. Reading the clock
//! is *not* a scheduling decision point.

use std::ops::{Add, Sub};
use std::time::Duration;

use crate::exec::current;

/// Deterministic stand-in for `std::time::Instant` (nanosecond ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(u64);

impl Instant {
    /// The current logical time; each call advances the clock one tick.
    pub fn now() -> Instant {
        Instant(current().tick())
    }

    /// Logical time elapsed since `self` (reads the clock once).
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(Instant::now().0.saturating_sub(self.0))
    }

    /// `None` when `self + duration` does not fit the tick counter,
    /// mirroring `std`'s `checked_add`.
    pub fn checked_add(&self, duration: Duration) -> Option<Instant> {
        let nanos = u64::try_from(duration.as_nanos()).ok()?;
        self.0.checked_add(nanos).map(Instant)
    }

    /// Saturating difference, mirroring `std`'s `saturating_duration_since`.
    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        let nanos = u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX);
        Instant(self.0.saturating_add(nanos))
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}
