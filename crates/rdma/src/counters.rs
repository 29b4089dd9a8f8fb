//! Cluster-wide operation counters.

use std::sync::atomic::Ordering;

drtm_htm::counter_set! {
    /// Counts of simulated network operations issued on a [`crate::Cluster`].
    ///
    /// Table 4 of the paper reports the *average number of RDMA READs per
    /// lookup* for three hash-table designs; the benchmark harness computes
    /// it as `snapshot().reads / lookups` around the measured section.
    pub struct OpCounters;
    /// Point-in-time copy of [`OpCounters`].
    pub struct CounterSnapshot {
        /// One-sided READ verbs issued.
        reads: u64,
        /// Total bytes fetched by READs.
        read_bytes: u64,
        /// One-sided WRITE verbs issued.
        writes: u64,
        /// Total bytes stored by WRITEs.
        write_bytes: u64,
        /// One-sided compare-and-swap verbs issued.
        cas: u64,
        /// One-sided fetch-and-add verbs issued.
        faa: u64,
        /// SEND verbs issued.
        sends: u64,
        /// Total bytes carried by SENDs.
        send_bytes: u64,
        /// Doorbells rung: batches of outbound ops posted together. With
        /// batching disabled this equals the op count (one ring per op).
        doorbells: u64,
        /// Total virtual nanoseconds charged for fabric operations (after
        /// doorbell amortisation).
        fabric_ns: u64,
    }
}

impl CounterSnapshot {
    /// Total one-sided operations (READ + WRITE + CAS + FAA).
    pub fn one_sided(&self) -> u64 {
        self.reads + self.writes + self.cas + self.faa
    }

    /// All outbound fabric ops that ring or ride a doorbell.
    pub fn fabric_ops(&self) -> u64 {
        self.one_sided() + self.sends
    }

    /// Average ops per doorbell ring — exactly 1.0 with batching off,
    /// climbing toward the configured batch size as phases post more
    /// ops back-to-back.
    pub fn ops_per_doorbell(&self) -> f64 {
        if self.doorbells == 0 {
            return 0.0;
        }
        self.fabric_ops() as f64 / self.doorbells as f64
    }

    /// Average charged virtual cost per fabric op, in ns.
    pub fn avg_op_cost_ns(&self) -> f64 {
        if self.fabric_ops() == 0 {
            return 0.0;
        }
        self.fabric_ns as f64 / self.fabric_ops() as f64
    }
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_cas(&self) {
        self.cas.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_faa(&self) {
        self.faa.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send(&self, bytes: usize) {
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.send_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_doorbell(&self) {
        self.doorbells.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fabric_ns(&self, ns: u64) {
        self.fabric_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_diff() {
        let c = OpCounters::new();
        c.record_read(64);
        c.record_read(128);
        c.record_write(32);
        c.record_cas();
        c.record_faa();
        c.record_send(16);
        let a = c.snapshot();
        assert_eq!(a.reads, 2);
        assert_eq!(a.read_bytes, 192);
        assert_eq!(a.one_sided(), 5);
        c.record_read(8);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.read_bytes, 8);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn doorbell_ratio_and_avg_cost() {
        let c = OpCounters::new();
        for _ in 0..8 {
            c.record_read(8);
            c.record_fabric_ns(1_000);
        }
        c.record_doorbell();
        c.record_doorbell();
        let s = c.snapshot();
        assert_eq!(s.fabric_ops(), 8);
        assert_eq!(s.ops_per_doorbell(), 4.0);
        assert_eq!(s.avg_op_cost_ns(), 1_000.0);
        assert_eq!(CounterSnapshot::default().ops_per_doorbell(), 0.0);
        assert_eq!(CounterSnapshot::default().avg_op_cost_ns(), 0.0);
    }
}
