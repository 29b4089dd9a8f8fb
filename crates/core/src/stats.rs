//! Transaction-layer counters (beyond the HTM-level [`drtm_htm::HtmStats`]).

use std::sync::atomic::Ordering;

drtm_htm::counter_set! {
    /// Cluster-wide transaction outcome counters.
    pub struct TxnStats;
    /// Point-in-time copy of [`TxnStats`].
    pub struct TxnStatsSnapshot {
        /// Read-write transactions committed (HTM or fallback path).
        committed: u64,
        /// Of those, how many committed via the 2PL fallback handler.
        fallback_committed: u64,
        /// Transactions ended by a user-initiated abort.
        user_aborts: u64,
        /// Start-phase restarts due to remote lock/lease conflicts.
        start_conflicts: u64,
        /// Commit-time lease confirmations that failed (expired lease).
        lease_confirm_fails: u64,
        /// Read-only transactions committed.
        ro_committed: u64,
        /// Read-only transaction retries (confirmation failures).
        ro_retries: u64,
        /// Transactions aborted because a peer machine was crashed (or a
        /// fabric op timed out); retriable only after recovery.
        peer_dead_aborts: u64,
        /// Durability-log records persisted (lock-ahead, write-ahead, or
        /// chop). Zero on the read-only path even with logging enabled —
        /// the invariant the RO tests assert by counter.
        log_writes: u64,
        /// Payload bytes of those log records.
        log_bytes: u64,
        /// `log_done` completion markers a committing worker waited on.
        log_done_waits: u64,
    }
}

impl TxnStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_committed(&self, fallback: bool) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        if fallback {
            self.fallback_committed.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_user_abort(&self) {
        self.user_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_start_conflict(&self) {
        self.start_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_lease_confirm_fail(&self) {
        self.lease_confirm_fails.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_ro_committed(&self) {
        self.ro_committed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_ro_retry(&self) {
        self.ro_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_peer_dead_abort(&self) {
        self.peer_dead_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_log_write(&self, bytes: usize) {
        self.log_writes.fetch_add(1, Ordering::Relaxed);
        self.log_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_log_done_wait(&self) {
        self.log_done_waits.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roundtrip() {
        let s = TxnStats::new();
        s.add_committed(false);
        s.add_committed(true);
        s.add_user_abort();
        s.add_start_conflict();
        s.add_lease_confirm_fail();
        s.add_ro_committed();
        s.add_ro_retry();
        s.add_peer_dead_abort();
        s.add_log_write(48);
        s.add_log_write(16);
        s.add_log_done_wait();
        let snap = s.snapshot();
        assert_eq!(snap.committed, 2);
        assert_eq!(snap.fallback_committed, 1);
        assert_eq!(snap.user_aborts, 1);
        assert_eq!(snap.start_conflicts, 1);
        assert_eq!(snap.lease_confirm_fails, 1);
        assert_eq!(snap.ro_committed, 1);
        assert_eq!(snap.ro_retries, 1);
        assert_eq!(snap.peer_dead_aborts, 1);
        assert_eq!(snap.log_writes, 2);
        assert_eq!(snap.log_bytes, 64);
        assert_eq!(snap.log_done_waits, 1);
    }
}
