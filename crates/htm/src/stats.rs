//! The one counter mechanism every layer uses, and the HTM commit/abort
//! counters.
//!
//! A counter set is declared once with
//! [`counter_set!`](crate::counter_set): its single field list yields the
//! live struct of relaxed atomics the hot path bumps, the `Copy` snapshot
//! struct reports read, `snapshot()`, the windowed `since()` diff and a
//! field-wise [`Sum`](std::iter::Sum) for aggregating instances. A field
//! is a `u64`, an array of counters indexed by a dense enum (abort causes,
//! phases), or another set. There is no `reset`: a window is
//! `after.since(&before)`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counter values that diff and sum element-wise: `u64`, arrays of
/// counters, and the snapshot structs declared with
/// [`counter_set!`](crate::counter_set).
pub trait Counts: Copy {
    /// `self - earlier`, element-wise (for measuring a window).
    fn since(&self, earlier: &Self) -> Self;
    /// `self + other`, element-wise (for aggregating instances).
    fn plus(&self, other: &Self) -> Self;
}

/// Counts with a live, shared form that the hot path bumps.
pub trait Counter: Counts {
    /// The live form: [`AtomicU64`]s bumped with relaxed `fetch_add`.
    type Live;
    /// Reads the live form (relaxed loads: consistent enough for stats).
    fn load(live: &Self::Live) -> Self;
}

impl Counts for u64 {
    fn since(&self, earlier: &u64) -> u64 {
        self - earlier
    }

    fn plus(&self, other: &u64) -> u64 {
        self + other
    }
}

impl Counter for u64 {
    type Live = AtomicU64;

    fn load(live: &AtomicU64) -> u64 {
        live.load(Ordering::Relaxed)
    }
}

impl<T: Counts, const N: usize> Counts for [T; N] {
    fn since(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i].since(&earlier[i]))
    }

    fn plus(&self, other: &Self) -> Self {
        std::array::from_fn(|i| self[i].plus(&other[i]))
    }
}

impl<T: Counter, const N: usize> Counter for [T; N] {
    type Live = [T::Live; N];

    fn load(live: &Self::Live) -> Self {
        std::array::from_fn(|i| T::load(&live[i]))
    }
}

/// Declares a counter set from one field list ([`HtmStats`] is one).
///
/// The live struct gets one private field per counter (`AtomicU64` for a
/// `u64`, arrays of them for arrays) and `snapshot()`; the snapshot struct
/// gets the same fields as public values, `since()` and `Sum`. The live
/// struct must be as visible as the snapshot, whose [`Counter::Live`]
/// names it. Without the `struct Live;` line only the snapshot side is
/// declared: a report joining sets owned elsewhere.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident {
            $( $(#[$field_meta:meta])* $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $( $field: <$ty as $crate::Counter>::Live, )*
        }

        impl $live {
            /// Takes a snapshot of every counter.
            pub fn snapshot(&self) -> $snap {
                <$snap as $crate::Counter>::load(self)
            }
        }

        impl $crate::Counter for $snap {
            type Live = $live;

            fn load(live: &$live) -> Self {
                $snap { $( $field: <$ty as $crate::Counter>::load(&live.$field), )* }
            }
        }

        $crate::counter_set! {
            $(#[$snap_meta])*
            $snap_vis struct $snap { $( $(#[$field_meta])* $field: $ty, )* }
        }
    };
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident {
            $( $(#[$field_meta:meta])* $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $crate::Counts for $snap {
            fn since(&self, earlier: &Self) -> Self {
                $snap { $( $field: $crate::Counts::since(&self.$field, &earlier.$field), )* }
            }

            fn plus(&self, other: &Self) -> Self {
                $snap { $( $field: $crate::Counts::plus(&self.$field, &other.$field), )* }
            }
        }

        impl $snap {
            /// Component-wise difference `self - earlier` (for measuring a
            /// window).
            pub fn since(&self, earlier: &Self) -> Self {
                $crate::Counts::since(self, earlier)
            }
        }

        impl ::std::iter::Sum for $snap {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |a, b| $crate::Counts::plus(&a, &b))
            }
        }
    };
}

counter_set! {
    /// Aggregated HTM execution counters.
    ///
    /// All fields are updated with relaxed atomics; the struct is intended
    /// to be shared behind an `Arc` by every worker of a simulated machine.
    /// The paper reports the capacity-abort rate and fallback rate in
    /// Table 6, so the counters distinguish abort causes.
    pub struct HtmStats;
    /// A point-in-time copy of [`HtmStats`].
    pub struct StatsSnapshot {
        /// Successful `XEND`s.
        commits: u64,
        /// Aborts caused by data conflicts (including RDMA strong-atomicity).
        conflict_aborts: u64,
        /// Aborts caused by read/write-set capacity overflow.
        capacity_aborts: u64,
        /// Explicit `XABORT`s issued by the protocol.
        explicit_aborts: u64,
        /// Executions that gave up on HTM and took the fallback path.
        fallbacks: u64,
    }
}

impl StatsSnapshot {
    /// Total aborts of all causes.
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts + self.capacity_aborts + self.explicit_aborts
    }

    /// Abort rate: aborts / (aborts + commits); 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let a = self.total_aborts() as f64;
        let c = self.commits as f64;
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }
}

impl HtmStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful commit.
    pub fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one abort of the given cause.
    pub fn record_abort(&self, abort: crate::Abort) {
        match abort {
            crate::Abort::Conflict => &self.conflict_aborts,
            crate::Abort::Capacity => &self.capacity_aborts,
            crate::Abort::Explicit(_) => &self.explicit_aborts,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fallback-path execution.
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abort;

    counter_set! {
            struct Probe;
        struct ProbeSnapshot {
            a: u64,
            b: u64,
            per_kind: [u64; 3],
        }
    }

    #[test]
    fn mechanism_covers_every_field() {
        let p = Probe::default();
        let bump = |p: &Probe, k: u64| {
            p.a.fetch_add(k, Ordering::Relaxed);
            p.b.fetch_add(2 * k, Ordering::Relaxed);
            for (i, c) in p.per_kind.iter().enumerate() {
                c.fetch_add((3 + i as u64) * k, Ordering::Relaxed);
            }
        };
        bump(&p, 1);
        let before = p.snapshot();
        assert_eq!(before, ProbeSnapshot { a: 1, b: 2, per_kind: [3, 4, 5] });
        bump(&p, 10);
        let after = p.snapshot();
        assert_eq!(after, ProbeSnapshot { a: 11, b: 22, per_kind: [33, 44, 55] });
        assert_eq!(after.since(&before), ProbeSnapshot { a: 10, b: 20, per_kind: [30, 40, 50] });
        assert_eq!(after.since(&after), ProbeSnapshot::default());
        let total: ProbeSnapshot = [before, after, after].into_iter().sum();
        assert_eq!(total, ProbeSnapshot { a: 23, b: 46, per_kind: [69, 92, 115] });
        assert_eq!(std::iter::empty::<ProbeSnapshot>().sum::<ProbeSnapshot>(), Default::default());
    }

    #[test]
    fn counters_and_rates() {
        let s = HtmStats::new();
        s.record_commit();
        s.record_commit();
        s.record_abort(Abort::Conflict);
        s.record_abort(Abort::Capacity);
        s.record_abort(Abort::Explicit(1));
        s.record_fallback();
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.total_aborts(), 3);
        assert_eq!(snap.fallbacks, 1);
        assert!((snap.abort_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn idle_abort_rate_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }
}
