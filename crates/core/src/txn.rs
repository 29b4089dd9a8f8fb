//! The DrTM transaction engine: Start → LocalTX → Commit (Figures 2, 3).
//!
//! A transaction declares its read/write sets up front (§4.1 — the same
//! requirement as Sinfonia/Calvin; typical OLTP workloads satisfy it).
//! The [`Worker::execute`] driver then:
//!
//! 1. **Start** — persists the lock-ahead log (if durability is on),
//!    exclusively locks every remote write record with RDMA CAS and
//!    prefetches it, and acquires read leases on every remote read
//!    record. Any conflict releases everything and restarts the phase.
//! 2. **LocalTX** — runs the user body inside an emulated HTM region.
//!    Local reads/writes check the record state word (Figure 6); remote
//!    reads come from the prefetched cache; remote writes are buffered.
//! 3. **Commit** — re-confirms every lease against softtime *inside* the
//!    HTM region, stages the write-ahead log transactionally, executes
//!    `XEND`, then pushes remote write-backs with one-sided WRITEs and
//!    releases the exclusive locks.
//!
//! After repeated HTM aborts (or a deterministic capacity abort) the
//! driver switches to the **fallback handler** (§6.2): it releases all
//! held locks, re-acquires locks for *every* record — local ones too —
//! in a global `(node, offset)` order (waiting, which is deadlock-free
//! under a total order), confirms leases, and runs the body against
//! buffered state. Its commit pipeline obeys strict
//! log-persist-before-unlock ordering (the HTPM recipe): the WAL —
//! carrying local *and* remote updates plus the full lock list — is
//! persisted before any update becomes visible or any lock is released,
//! so a crash anywhere in the pipeline either rolls back cleanly or
//! redoes to the exact committed state.

use std::sync::{Arc, RwLock, Weak};

#[cfg(test)]
use drtm_htm::HtmConfig;
use drtm_htm::{vtime, Abort, Executor, HtmStats, HtmTxn, Region};
use drtm_memstore::{BTree, ClusterHash, InsertError, PreparedInsert};
use drtm_rdma::{AtomicityLevel, Cluster, FabricError, FaultPlan, NodeId, Qp};

use crate::alloc_layout::NodeLayout;
use crate::config::{CrashPoint, DrTmConfig, SofttimeStrategy};
use crate::log::{LogSlot, LoggedUpdate};
use crate::membership::MembershipCoordinator;
use crate::record::{self, FetchedRecord, RecordAddr, ABORT_LEASE_EXPIRED, ABORT_LOCKED};
use crate::stats::TxnStats;
use crate::time::{softtime_nt, softtime_txn};
use crate::trace::{
    AbortCause, Phase, PhaseTimer, StatsReport, TraceBuf, TraceDump, TraceEvent, TraceHub,
};

/// Explicit-abort code reserved for user-initiated aborts (e.g. TPC-C
/// new-order's invalid-item rollback). Only valid before any
/// side-effecting context operation, mirroring the chopping restriction
/// that only the first transaction piece may abort (§3).
pub const USER_ABORT: u8 = 0x7F;

/// Terminal (non-retried) outcomes of [`Worker::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The body issued `Abort::Explicit(USER_ABORT)`.
    UserAborted,
    /// The configured [`CrashPoint`] fired (durability tests only), or
    /// this worker's own machine is marked crashed by the fault plan:
    /// the worker stopped dead, leaving locks and logs for recovery.
    SimulatedCrash,
    /// A fabric operation hit the crashed machine: the transaction
    /// aborted cleanly (every releasable lock released, undeliverable
    /// releases parked for [`Worker::flush_pending`]) and can be
    /// retried once the `FailureDetector` → [`DrTm::recover`] cycle runs.
    PeerDead(NodeId),
    /// A fabric operation routed to a machine that gracefully left the
    /// cluster: its QPs are closed for good. The caller re-resolves its
    /// keys against the current range map and retries — no recovery.
    Retired(NodeId),
}

/// Wall-clock grace the fallback handler grants a conflicting lock
/// holder before concluding the holder is dead (backstop for crashes
/// the fault plan does not know about). Generous against µs–ms lock
/// hold times, so expiry in practice always means a real wedge.
const DEAD_PEER_GRACE: std::time::Duration = std::time::Duration::from_secs(1);

/// A write-back or unlock whose target machine was dead when the commit
/// protocol tried to deliver it; drained by [`Worker::flush_pending`].
#[derive(Debug, Clone)]
struct PendingOp {
    rec: RecordAddr,
    /// `Some((version, value))` = write-back; `None` = plain unlock.
    update: Option<(u32, Vec<u8>)>,
}

/// The declared access sets of one transaction, already resolved to
/// entry addresses.
#[derive(Debug, Clone, Default)]
pub struct TxnSpec {
    /// Local records read (must live on the executing machine).
    pub local_reads: Vec<RecordAddr>,
    /// Local records written.
    pub local_writes: Vec<RecordAddr>,
    /// Remote records read (leased).
    pub remote_reads: Vec<RecordAddr>,
    /// Remote records written (exclusively locked).
    pub remote_writes: Vec<RecordAddr>,
}

/// A DrTM instance shared by all workers of a simulated cluster.
#[derive(Debug)]
pub struct DrTm {
    cluster: Arc<Cluster>,
    cfg: DrTmConfig,
    stats: Arc<TxnStats>,
    htm_stats: Arc<HtmStats>,
    trace: TraceHub,
    /// One layout per provisioned machine; grows under the lock when the
    /// membership coordinator provisions a joining node.
    layouts: RwLock<Vec<NodeLayout>>,
    /// The elastic step of [`DrTm::recover`], registered by the
    /// coordinator itself; weak because the coordinator holds this.
    pub(crate) coordinator: RwLock<Weak<MembershipCoordinator>>,
}

impl DrTm {
    /// Creates the instance; `layouts[n]` is machine `n`'s region layout.
    pub fn new(cluster: Arc<Cluster>, cfg: DrTmConfig, layouts: Vec<NodeLayout>) -> Arc<Self> {
        assert_eq!(layouts.len(), cluster.num_nodes(), "one layout per node");
        let trace = TraceHub::new(cfg.trace_capacity);
        Arc::new(DrTm {
            cluster,
            cfg,
            stats: Arc::new(TxnStats::new()),
            htm_stats: Arc::new(HtmStats::new()),
            trace,
            layouts: RwLock::new(layouts),
            coordinator: RwLock::new(Weak::new()),
        })
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Machine `node`'s region layout (recovery needs the crashed
    /// machine's log-slot geometry). Returned by value: the table can
    /// grow concurrently under a join.
    ///
    /// # Panics
    ///
    /// If `node` has no registered layout.
    pub fn layout(&self, node: NodeId) -> NodeLayout {
        self.layouts.read().expect("layout lock poisoned")[node as usize].clone()
    }

    /// Registers the region layout of a machine provisioned after
    /// startup (must be the next node id, keeping index == node id).
    pub fn add_node_layout(&self, node: NodeId, layout: NodeLayout) {
        let mut l = self.layouts.write().expect("layout lock poisoned");
        assert_eq!(l.len(), node as usize, "layouts must grow in node-id order");
        l.push(layout);
    }

    /// The configuration.
    pub fn config(&self) -> &DrTmConfig {
        &self.cfg
    }

    /// Transaction-layer counters.
    pub fn stats(&self) -> &Arc<TxnStats> {
        &self.stats
    }

    /// HTM-layer counters.
    pub fn htm_stats(&self) -> &Arc<HtmStats> {
        &self.htm_stats
    }

    /// The abort-cause diagnostics hub.
    pub fn trace(&self) -> &TraceHub {
        &self.trace
    }

    /// Dumps every worker's retained abort-trace events (print from a
    /// failing test or an unexpected abort storm).
    pub fn trace_dump(&self) -> TraceDump {
        self.trace.dump()
    }

    /// Joins every counter layer (transaction, HTM, RDMA, abort causes,
    /// per-phase breakdown) into one report; diff two with
    /// [`StatsReport::since`] to measure a window.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            txn: self.stats.snapshot(),
            htm: self.htm_stats.snapshot(),
            rdma: self.cluster.counters().snapshot(),
            causes: self.trace.causes(),
            phases: self.trace.phases(),
        }
    }

    /// Creates the handle a worker thread drives transactions through.
    pub fn worker(self: &Arc<Self>, node: NodeId, worker_id: usize) -> Worker {
        let slot_layout =
            self.layouts.read().expect("layout lock poisoned")[node as usize].log_slots[worker_id];
        Worker {
            qp: self.cluster.qp(node),
            exec: Executor::new(self.cfg.htm.clone(), self.htm_stats.clone()),
            log: LogSlot::new(slot_layout, self.cfg.nvram_write_ns),
            ring: self.trace.register(),
            txn_seq: 0,
            sys: Arc::clone(self),
            node,
            worker_id,
            rng: 0x9E37_79B9u64.wrapping_mul(node as u64 + 1).wrapping_add(worker_id as u64),
            crash_point: self.cfg.crash_point,
            pending: Vec::new(),
        }
    }
}

/// Per-thread transaction driver.
#[derive(Debug)]
pub struct Worker {
    sys: Arc<DrTm>,
    /// The machine this worker runs on.
    pub node: NodeId,
    /// Worker index within the machine.
    pub worker_id: usize,
    qp: Qp,
    exec: Executor,
    log: LogSlot,
    ring: Arc<TraceBuf>,
    txn_seq: u64,
    rng: u64,
    crash_point: Option<CrashPoint>,
    /// Write-backs/unlocks whose target died mid-commit; drained by
    /// [`Worker::flush_pending`] once the peer is recovered.
    pending: Vec<PendingOp>,
}

enum HtmAttempt<T> {
    Committed(T),
    Retry,
    GiveUp,
    RestartTxn,
    Terminal(TxnError),
}

impl Worker {
    /// The queue pair this worker issues one-sided operations on.
    pub fn qp(&self) -> &Qp {
        &self.qp
    }

    /// This worker's machine region.
    pub fn region(&self) -> &Arc<Region> {
        self.sys.cluster.node(self.node).region()
    }

    /// The HTM executor (shared stats) for standalone store operations.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The owning DrTM instance.
    pub fn system(&self) -> &Arc<DrTm> {
        &self.sys
    }

    /// Arms or disarms the simulated crash point for this worker only
    /// (durability tests restart a "machine" by clearing it).
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash_point = point;
    }

    /// Persists chopping information before a transaction piece of a
    /// chopped parent transaction (Figure 7); no-op when durability is
    /// off. Pair with [`Worker::clear_chop`] after the last piece.
    pub fn log_chop(&self, info: crate::log::ChopInfo) {
        if self.sys.cfg.logging {
            self.log.log_chop(self.region(), info);
            self.sys.stats.add_log_write(8);
        }
    }

    /// Clears this worker's chopping information.
    pub fn clear_chop(&self) {
        if self.sys.cfg.logging {
            self.log.clear_chop(self.region());
        }
    }

    /// Allocates the next transaction id:
    /// `node << 40 | worker << 32 | per-worker sequence`.
    fn next_txn_id(&mut self) -> u64 {
        self.txn_seq += 1;
        (self.node as u64) << 40 | (self.worker_id as u64) << 32 | self.txn_seq
    }

    /// Records one abort event in this worker's trace ring.
    fn trace_abort(
        &self,
        txn_id: u64,
        phase: Phase,
        cause: AbortCause,
        record: Option<&RecordAddr>,
    ) {
        self.sys.trace.record(
            &self.ring,
            TraceEvent {
                txn_id,
                node: self.node,
                worker: self.worker_id,
                phase,
                cause,
                record: record.map(|r| r.addr),
                vtime_ns: vtime::read(),
            },
        );
    }

    /// Records an abort decided *outside* the commit protocol — e.g. the
    /// elastic router aborting with [`AbortCause::Migrated`] when a key's
    /// range is mid-cutover — so cross-layer retries show up in the same
    /// per-cause counters and trace rings as protocol aborts.
    pub fn note_abort(&mut self, cause: AbortCause) {
        let txn_id = self.next_txn_id();
        self.trace_abort(txn_id, Phase::Start, cause, None);
    }

    /// The cluster's fault plan (chaos-harness hooks).
    fn faults(&self) -> &FaultPlan {
        self.sys.cluster.faults()
    }

    /// Whether this worker's own machine is marked crashed: the worker
    /// must stop dead — no cleanup, no log writes — leaving its locks
    /// and log records exactly as a real crash would.
    fn self_crashed(&self) -> bool {
        self.faults().is_crashed(self.node)
    }

    /// Whether the simulated crash fires at protocol step `p`: either
    /// this worker's own [`CrashPoint`] (worker-local, node stays on the
    /// fabric) or an armed fault-plan crash site (whole node drops).
    fn crashes_at(&self, p: CrashPoint) -> bool {
        self.crash_point == Some(p) || self.faults().crash_hook(self.node, p.name())
    }

    /// Releases one remote write lock; if the target machine is dead the
    /// release is parked for [`Worker::flush_pending`] so the lock is
    /// still released exactly once when the peer comes back. (If *this*
    /// machine is the dead one, nothing is parked: sweeping its locks is
    /// the recovery protocol's job.) A `local` release is a CPU store
    /// and never parks.
    fn unlock_or_park(&mut self, rec: &RecordAddr, local: bool) {
        if record::try_remote_unlock(&self.qp, rec, local).is_err() && !self.self_crashed() {
            self.pending.push(PendingOp { rec: *rec, update: None });
        }
    }

    /// Fallback-path lock release: CPU store for CPU-lockable records,
    /// park-on-dead-peer loopback/remote WRITE otherwise.
    fn release_fallback_lock(&mut self, rec: &RecordAddr) {
        self.unlock_or_park(rec, self.can_local_cas(rec));
    }

    /// Whether this worker still holds undelivered write-backs/unlocks
    /// for a dead peer ([`Worker::execute`] refuses new transactions
    /// until [`Worker::flush_pending`] drains them).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Re-delivers write-backs and unlocks that were parked when their
    /// target machine died mid-commit. Call after the failed node is
    /// recovered (or revived): on success the worker's write-ahead log
    /// is reclaimed and new transactions may run; on `PeerDead` the
    /// still-undeliverable ops stay parked for the next attempt.
    pub fn flush_pending(&mut self) -> Result<(), TxnError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let ops = std::mem::take(&mut self.pending);
        let mut still_dead: Option<NodeId> = None;
        let mut parked_again = Vec::new();
        for op in ops {
            let r = match &op.update {
                Some((version, value)) => {
                    record::try_remote_write_back(&self.qp, &op.rec, *version, value, false)
                }
                None => record::try_remote_unlock(&self.qp, &op.rec, false),
            };
            if let Err(e) = r {
                let node = match e {
                    FabricError::PeerDead { node } | FabricError::Timeout { node } => node,
                    // A graceful leave quiesces pending write-backs
                    // *before* retiring, so this arm only fires under
                    // chaos; the op stays parked like any other.
                    FabricError::NodeRetired { node } => node,
                };
                still_dead.get_or_insert(node);
                parked_again.push(op);
            }
        }
        self.pending = parked_again;
        match still_dead {
            None => {
                // Every parked op landed: the write-ahead log (if any)
                // no longer needs replaying.
                if self.sys.cfg.logging {
                    self.log.log_done(&self.region().clone());
                    self.sys.stats.add_log_done_wait();
                }
                Ok(())
            }
            Some(node) => Err(TxnError::PeerDead(node)),
        }
    }

    /// Releases every remote write lock (abort cleanup), charging the
    /// unlock WRITEs to the Commit phase's breakdown. Releases against a
    /// dead peer are parked, not lost.
    fn unlock_writes_traced(&mut self, spec: &TxnSpec) {
        let t0 = vtime::read();
        for rec in &spec.remote_writes {
            self.unlock_or_park(rec, false);
        }
        self.sys.trace.phases.add(
            Phase::Commit,
            vtime::read().saturating_sub(t0),
            spec.remote_writes.len() as u64,
        );
    }

    fn backoff(&mut self, attempt: u32) {
        // Xorshift jitter: livelock-avoidance for symmetric lock retries.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let spins = (self.rng % 64 + 1) * attempt.min(16) as u64;
        vtime::charge(spins * 4);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if attempt <= 3 {
            // On an oversubscribed host the conflicting peer may simply
            // be descheduled; donate the quantum so simulated lock holds
            // stay as short in wall time as on real hardware.
            std::thread::yield_now();
        } else {
            // Longer waits (a lease that must expire, a held lock): wait
            // one fixed wall slice per attempt and charge exactly that
            // slice, so the virtual cost of waiting tracks the wall
            // duration of the wait instead of the scheduler-dependent
            // number of retry iterations. A cooperative engine thread
            // yields through the slice instead of sleeping, so sibling
            // pool threads (possibly running the conflicting logical
            // worker) get the quantum — but the slice must still elapse
            // in wall time, or lease-expiry waits degenerate into
            // thousands of instant retries that each charge a full
            // slice.
            const SLICE_US: u64 = 100;
            if drtm_htm::coop::enabled() {
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_micros() < SLICE_US as u128 {
                    std::thread::yield_now();
                }
            } else {
                std::thread::sleep(std::time::Duration::from_micros(SLICE_US));
            }
            vtime::charge(SLICE_US * 1_000);
        }
    }

    pub(crate) fn can_local_cas_inner(&self, rec: &RecordAddr) -> bool {
        self.can_local_cas(rec)
    }

    pub(crate) fn backoff_pub(&mut self, attempt: u32) {
        self.backoff(attempt);
    }

    pub(crate) fn self_crashed_pub(&self) -> bool {
        self.self_crashed()
    }

    /// True when this record can be locked with a CPU CAS instead of a
    /// loopback RDMA CAS (§6.3: requires `IBV_ATOMIC_GLOB`).
    fn can_local_cas(&self, rec: &RecordAddr) -> bool {
        rec.addr.node == self.node && self.sys.cluster.atomicity() == AtomicityLevel::Glob
    }

    /// Executes one strictly-serializable read-write transaction.
    ///
    /// `body` runs with all remote records prefetched; it may be retried
    /// many times and must therefore be idempotent apart from its context
    /// operations. Returns the body's value once durably committed.
    pub fn execute<T>(
        &mut self,
        spec: &TxnSpec,
        mut body: impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, TxnError> {
        debug_assert!(spec
            .local_reads
            .iter()
            .chain(&spec.local_writes)
            .all(|r| r.addr.node == self.node));
        debug_assert!(
            {
                let mut ws: Vec<_> = spec
                    .local_writes
                    .iter()
                    .chain(&spec.remote_writes)
                    .map(|r| (r.addr.node, r.addr.offset))
                    .collect();
                ws.sort_unstable();
                let n = ws.len();
                ws.dedup();
                ws.len() == n
            },
            "write set contains a duplicate record (self-deadlock)"
        );
        let region = self.region().clone();
        let logging = self.sys.cfg.logging;
        // A transaction boundary is a completion wait: ops from the
        // previous transaction cannot share a doorbell with this one.
        self.qp.doorbell_flush();
        // The log slot still carries the previous transaction's
        // write-ahead record while write-backs to a dead peer are
        // parked; it must be drained before the slot can be reused.
        if !self.pending.is_empty() {
            self.flush_pending()?;
        }
        let txn_id = self.next_txn_id();
        let mut start_attempts = 0u32;
        loop {
            if self.self_crashed() {
                return Err(TxnError::SimulatedCrash);
            }
            if start_attempts > self.sys.cfg.start_retries {
                return self.fallback_execute(txn_id, spec, &mut body);
            }
            // ---------------- Start phase ----------------
            let start_t0 = vtime::read();
            let mut start_ops = 0u64;
            let now = softtime_nt(&region);
            let end = now + self.sys.cfg.lease_us;
            if logging && !spec.remote_writes.is_empty() {
                let n = self.log.log_lock_ahead(&region, &spec.remote_writes);
                self.sys.stats.add_log_write(n);
            }
            if self.crashes_at(CrashPoint::AfterLockAhead) {
                return Err(TxnError::SimulatedCrash);
            }
            let mut w_fetched: Vec<FetchedRecord> = Vec::with_capacity(spec.remote_writes.len());
            let mut ok = true;
            let mut fatal: Option<TxnError> = None;
            for rec in &spec.remote_writes {
                start_ops += 1;
                match record::remote_lock_write(
                    &self.qp,
                    rec,
                    self.node as u8,
                    now,
                    self.sys.cfg.delta_us,
                    false,
                ) {
                    Ok(f) => w_fetched.push(f),
                    Err(c) => {
                        match c {
                            record::LockConflict::PeerDead { node } => {
                                fatal = Some(TxnError::PeerDead(node));
                            }
                            record::LockConflict::Retired { node } => {
                                fatal = Some(TxnError::Retired(node));
                            }
                            _ => {}
                        }
                        self.trace_abort(
                            txn_id,
                            Phase::Start,
                            AbortCause::from_conflict(c),
                            Some(rec),
                        );
                        ok = false;
                        break;
                    }
                }
            }
            let mut r_fetched: Vec<FetchedRecord> = Vec::with_capacity(spec.remote_reads.len());
            if ok {
                for rec in &spec.remote_reads {
                    start_ops += 1;
                    match record::remote_read(&self.qp, rec, end, now, self.sys.cfg.delta_us, false)
                    {
                        Ok(f) => r_fetched.push(f),
                        Err(c) => {
                            match c {
                                record::LockConflict::PeerDead { node } => {
                                    fatal = Some(TxnError::PeerDead(node));
                                }
                                record::LockConflict::Retired { node } => {
                                    fatal = Some(TxnError::Retired(node));
                                }
                                _ => {}
                            }
                            self.trace_abort(
                                txn_id,
                                Phase::Start,
                                AbortCause::from_conflict(c),
                                Some(rec),
                            );
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                if self.self_crashed() {
                    // Our own machine died: stop dead, leave everything.
                    return Err(TxnError::SimulatedCrash);
                }
                let acquired = w_fetched.len();
                for rec in spec.remote_writes.iter().take(acquired) {
                    self.unlock_or_park(rec, false);
                    start_ops += 1;
                }
                self.sys.trace.phases.add(
                    Phase::Start,
                    vtime::read().saturating_sub(start_t0),
                    start_ops,
                );
                self.sys.stats.add_start_conflict();
                if let Some(err) = fatal {
                    // A peer machine is gone (crashed or retired):
                    // retrying cannot help until recovery runs or the
                    // key is re-resolved — surface a typed abort.
                    if matches!(err, TxnError::PeerDead(_)) {
                        self.sys.stats.add_peer_dead_abort();
                    }
                    return Err(err);
                }
                start_attempts += 1;
                self.backoff(start_attempts);
                continue;
            }
            self.sys.trace.phases.add(
                Phase::Start,
                vtime::read().saturating_sub(start_t0),
                start_ops,
            );
            if self.crashes_at(CrashPoint::AfterRemoteLocks) {
                return Err(TxnError::SimulatedCrash);
            }

            // ---------------- LocalTX + Commit ----------------
            let mut attempts = 0u32;
            let outcome = loop {
                if attempts >= self.sys.cfg.htm.max_retries {
                    break HtmAttempt::GiveUp;
                }
                attempts += 1;
                match self
                    .htm_attempt(txn_id, &region, spec, &w_fetched, &r_fetched, now, &mut body)
                {
                    HtmAttempt::Retry => {
                        self.backoff(attempts);
                        continue;
                    }
                    other => break other,
                }
            };
            match outcome {
                HtmAttempt::Committed(v) => return Ok(v),
                HtmAttempt::Terminal(e) => {
                    if e == TxnError::UserAborted {
                        // Clean up our locks before reporting.
                        self.unlock_writes_traced(spec);
                        self.sys.stats.add_user_abort();
                    }
                    return Err(e);
                }
                HtmAttempt::RestartTxn => {
                    self.unlock_writes_traced(spec);
                    start_attempts += 1;
                    self.backoff(start_attempts);
                    continue;
                }
                HtmAttempt::GiveUp => {
                    self.unlock_writes_traced(spec);
                    return self.fallback_execute(txn_id, spec, &mut body);
                }
                HtmAttempt::Retry => unreachable!("Retry handled in inner loop"),
            }
        }
    }

    /// One HTM attempt of the LocalTX + Commit phases.
    #[allow(clippy::too_many_arguments)]
    fn htm_attempt<T>(
        &mut self,
        txn_id: u64,
        region: &Region,
        spec: &TxnSpec,
        w_fetched: &[FetchedRecord],
        r_fetched: &[FetchedRecord],
        start_now: u64,
        body: &mut impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> HtmAttempt<T> {
        let cfg = &self.sys.cfg;
        let txn = region.begin(&cfg.htm);
        let mut ctx = TxnCtx {
            mode: CtxMode::Htm(txn),
            region,
            spec,
            w_fetched,
            r_fetched,
            w_buf: vec![None; spec.remote_writes.len()],
            l_fetched_writes: Vec::new(),
            l_fetched_reads: Vec::new(),
            l_buf: Vec::new(),
            now_us: start_now,
            delta_us: cfg.delta_us,
            strategy: cfg.softtime,
            allocs: Vec::new(),
            exec: self.exec.clone(),
            logging: cfg.logging,
            local_log: Vec::new(),
        };
        let body_t0 = vtime::read();
        let out = body(&mut ctx);
        let (mut txn, w_buf, allocs, local_log) = ctx.finish_htm();
        self.sys.trace.phases.add(Phase::LocalTx, vtime::read().saturating_sub(body_t0), 0);
        let undo = |allocs: Vec<(Arc<ClusterHash>, PreparedInsert)>| {
            for (t, p) in allocs {
                t.undo_insert(p);
            }
        };
        let value = match out {
            Ok(v) => v,
            Err(Abort::Explicit(USER_ABORT)) => {
                self.trace_abort(txn_id, Phase::LocalTx, AbortCause::UserAbort, None);
                undo(allocs);
                return HtmAttempt::Terminal(TxnError::UserAborted);
            }
            Err(a) => {
                self.trace_abort(txn_id, Phase::LocalTx, AbortCause::from_htm(a), None);
                self.sys.htm_stats().record_abort(a);
                undo(allocs);
                return if a == Abort::Capacity { HtmAttempt::GiveUp } else { HtmAttempt::Retry };
            }
        };
        // Everything from here to the return is the Commit phase; the
        // drop guard charges its virtual time on every early return.
        let mut commit_t = PhaseTimer::start(&self.sys.trace, Phase::Commit);
        // Lease confirmation (only when leases exist: purely local
        // transactions never touch softtime inside HTM, §6.1).
        if !r_fetched.is_empty() {
            let confirm_now = match softtime_txn(&mut txn) {
                Ok(t) => t,
                Err(a) => {
                    self.trace_abort(txn_id, Phase::Commit, AbortCause::from_htm(a), None);
                    self.sys.htm_stats().record_abort(a);
                    undo(allocs);
                    return HtmAttempt::Retry;
                }
            };
            let expired =
                r_fetched.iter().position(|f| confirm_now + self.sys.cfg.delta_us > f.lease_end_us);
            if let Some(i) = expired {
                self.trace_abort(
                    txn_id,
                    Phase::Commit,
                    AbortCause::LeaseConfirmFail,
                    Some(&spec.remote_reads[i]),
                );
                self.sys.htm_stats().record_abort(Abort::Explicit(ABORT_LEASE_EXPIRED));
                self.sys.stats.add_lease_confirm_fail();
                undo(allocs);
                return HtmAttempt::RestartTxn;
            }
        }
        // Write-ahead log, staged atomically with the commit. Remote
        // updates are needed for redo; local updates are logged as well
        // (§4.6) — with version 0, so recovery's at-most-once check
        // always sees them as already applied (the HTM commit itself
        // made them durable under flush-on-failure).
        let mut updates: Vec<LoggedUpdate> = spec
            .remote_writes
            .iter()
            .zip(w_fetched)
            .zip(&w_buf)
            .filter_map(|((rec, f), buf)| {
                buf.as_ref().map(|value| LoggedUpdate {
                    rec: *rec,
                    version: f.header.version.wrapping_add(1),
                    value: value.clone(),
                })
            })
            .collect();
        updates.extend(local_log);
        // The WAL embeds the remote-write lock list so recovery can
        // release declared-but-unwritten locks from the log alone.
        let mut wal_staged = false;
        if self.sys.cfg.logging && !updates.is_empty() {
            match self.log.log_write_ahead(&mut txn, &spec.remote_writes, &updates) {
                Ok(n) => {
                    self.sys.stats.add_log_write(n);
                    wal_staged = true;
                }
                Err(a) => {
                    self.trace_abort(txn_id, Phase::Commit, AbortCause::from_htm(a), None);
                    self.sys.htm_stats().record_abort(a);
                    undo(allocs);
                    return HtmAttempt::Retry;
                }
            }
        }
        if self.crashes_at(CrashPoint::BeforeHtmCommit) {
            undo(allocs);
            return HtmAttempt::Terminal(TxnError::SimulatedCrash);
        }
        match txn.commit() {
            Ok(()) => {}
            Err(a) => {
                self.trace_abort(txn_id, Phase::Commit, AbortCause::from_htm(a), None);
                self.sys.htm_stats().record_abort(a);
                undo(allocs);
                return HtmAttempt::Retry;
            }
        }
        self.sys.htm_stats().record_commit();
        if self.crashes_at(CrashPoint::AfterHtmCommit) {
            return HtmAttempt::Terminal(TxnError::SimulatedCrash);
        }
        // Write-backs + unlocks, posted together — the QP's doorbell
        // batching amortises their base latency per destination.
        // Past XEND the transaction IS committed: a dead peer can no
        // longer abort it, so undeliverable ops are parked for
        // `flush_pending` and the write-ahead log is kept for redo.
        let mut crash_mid = false;
        let mut parked = false;
        for ((rec, f), buf) in spec.remote_writes.iter().zip(w_fetched).zip(&w_buf) {
            let new_version = f.header.version.wrapping_add(1);
            let r = match buf {
                Some(value) => {
                    record::try_remote_write_back(&self.qp, rec, new_version, value, false)
                }
                None => record::try_remote_unlock(&self.qp, rec, false),
            };
            if r.is_err() {
                if self.self_crashed() {
                    // Our own machine died mid-write-back: stop dead.
                    return HtmAttempt::Terminal(TxnError::SimulatedCrash);
                }
                parked = true;
                self.pending.push(PendingOp {
                    rec: *rec,
                    update: buf.as_ref().map(|v| (new_version, v.clone())),
                });
                continue;
            }
            if self.crashes_at(CrashPoint::MidWriteBack) {
                crash_mid = true;
                break;
            }
        }
        commit_t.ops += spec.remote_writes.len() as u64;
        if crash_mid {
            return HtmAttempt::Terminal(TxnError::SimulatedCrash);
        }
        if self.crashes_at(CrashPoint::AfterWriteBacks) {
            // Crash before the write-ahead log is reclaimed: recovery
            // must replay the log and skip every already-applied update.
            return HtmAttempt::Terminal(TxnError::SimulatedCrash);
        }
        // Reclaim the slot only when a log record is actually live
        // (a staged WAL, or the Start phase's lock-ahead): transactions
        // that never touched the log — notably read-only shapes — pay
        // no completion marker either.
        if self.sys.cfg.logging && !parked && (wal_staged || !spec.remote_writes.is_empty()) {
            self.log.log_done(region);
            self.sys.stats.add_log_done_wait();
        }
        self.sys.stats.add_committed(false);
        HtmAttempt::Committed(value)
    }

    /// The fallback handler (§6.2): strict 2PL over *all* records in a
    /// global order, with the body run against buffered state.
    fn fallback_execute<T>(
        &mut self,
        txn_id: u64,
        spec: &TxnSpec,
        body: &mut impl FnMut(&mut TxnCtx<'_>) -> Result<T, Abort>,
    ) -> Result<T, TxnError> {
        self.sys.htm_stats().record_fallback();
        if self.self_crashed() {
            return Err(TxnError::SimulatedCrash);
        }
        let region = self.region().clone();
        let cfg = self.sys.cfg.clone();
        // Whole-handler virtual time and record ops land in the
        // Fallback phase line (charged at every return).
        let fb_t0 = vtime::read();
        let mut fb_ops = 0u64;
        // Global lock order: (node, offset); total order ⇒ no deadlock.
        #[derive(Clone, Copy)]
        struct Item {
            rec: RecordAddr,
            write: bool,
            /// Index back into the spec list it came from.
            idx: usize,
            local: bool,
        }
        let mut items: Vec<Item> = Vec::new();
        for (i, r) in spec.local_writes.iter().enumerate() {
            items.push(Item { rec: *r, write: true, idx: i, local: true });
        }
        for (i, r) in spec.remote_writes.iter().enumerate() {
            items.push(Item { rec: *r, write: true, idx: i, local: false });
        }
        for (i, r) in spec.local_reads.iter().enumerate() {
            items.push(Item { rec: *r, write: false, idx: i, local: true });
        }
        for (i, r) in spec.remote_reads.iter().enumerate() {
            items.push(Item { rec: *r, write: false, idx: i, local: false });
        }
        items.sort_by_key(|it| (it.rec.addr.node, it.rec.addr.offset));
        // The fallback's lock-ahead names the FULL write set (local and
        // remote, in acquisition order): unlike the HTM path, local
        // records are CPU/loopback-locked here too, and recovery must be
        // able to release them if this machine dies before the WAL.
        let fb_write_set: Vec<RecordAddr> =
            items.iter().filter(|it| it.write).map(|it| it.rec).collect();

        'retry: loop {
            if self.self_crashed() {
                return Err(TxnError::SimulatedCrash);
            }
            let now = softtime_nt(&region);
            let end = now + cfg.lease_us;
            if cfg.logging && !fb_write_set.is_empty() {
                let n = self.log.log_lock_ahead(&region, &fb_write_set);
                self.sys.stats.add_log_write(n);
            }
            if self.crashes_at(CrashPoint::FallbackAfterLockAhead) {
                return Err(TxnError::SimulatedCrash);
            }
            // Acquire in global order, waiting on conflicts — but only
            // as long as the conflicting holder is believed alive: a
            // lock held by a crashed machine is released by recovery,
            // not by waiting, so a dead owner (or an expired grace
            // deadline) turns the wait into a typed abort.
            let mut fetched: Vec<FetchedRecord> = Vec::with_capacity(items.len());
            for it in &items {
                let use_local = self.can_local_cas(&it.rec);
                let wait = drtm_htm::backoff::Backoff::with_deadline(DEAD_PEER_GRACE);
                let f = loop {
                    let now2 = softtime_nt(&region);
                    let r = if it.write {
                        record::remote_lock_write(
                            &self.qp,
                            &it.rec,
                            self.node as u8,
                            now2,
                            cfg.delta_us,
                            use_local,
                        )
                    } else {
                        record::remote_read(&self.qp, &it.rec, end, now2, cfg.delta_us, use_local)
                    };
                    fb_ops += 1;
                    match r {
                        Ok(f) => break f,
                        Err(c) => {
                            if let record::LockConflict::Retired { node } = c {
                                // Stale routing to a departed machine:
                                // release what we hold and surface the
                                // typed abort (no recovery needed).
                                if self.self_crashed() {
                                    return Err(TxnError::SimulatedCrash);
                                }
                                for held in items.iter().take(fetched.len()).filter(|h| h.write) {
                                    self.release_fallback_lock(&held.rec);
                                    fb_ops += 1;
                                }
                                self.trace_abort(
                                    txn_id,
                                    Phase::Fallback,
                                    AbortCause::RouteRetired { node },
                                    Some(&it.rec),
                                );
                                self.sys.trace.phases.add(
                                    Phase::Fallback,
                                    vtime::read().saturating_sub(fb_t0),
                                    fb_ops,
                                );
                                return Err(TxnError::Retired(node));
                            }
                            let dead = match c {
                                record::LockConflict::PeerDead { node } => Some(node),
                                record::LockConflict::WriteLocked { owner }
                                    if self.faults().is_crashed(owner as NodeId) =>
                                {
                                    Some(owner as NodeId)
                                }
                                _ if wait.expired() => Some(it.rec.addr.node),
                                _ => None,
                            };
                            if let Some(node) = dead {
                                if self.self_crashed() {
                                    return Err(TxnError::SimulatedCrash);
                                }
                                for held in items.iter().take(fetched.len()).filter(|h| h.write) {
                                    self.release_fallback_lock(&held.rec);
                                    fb_ops += 1;
                                }
                                self.trace_abort(
                                    txn_id,
                                    Phase::Fallback,
                                    AbortCause::PeerDead { node },
                                    Some(&it.rec),
                                );
                                self.sys.stats.add_peer_dead_abort();
                                self.sys.trace.phases.add(
                                    Phase::Fallback,
                                    vtime::read().saturating_sub(fb_t0),
                                    fb_ops,
                                );
                                return Err(TxnError::PeerDead(node));
                            }
                            self.trace_abort(
                                txn_id,
                                Phase::Fallback,
                                AbortCause::FallbackWait,
                                Some(&it.rec),
                            );
                            self.backoff(4);
                        }
                    }
                };
                fetched.push(f);
            }
            // Confirm leases before any irreversible update (§6.2: the
            // fallback cannot be rolled back by RTM).
            let confirm = softtime_nt(&region);
            let leases_ok = items
                .iter()
                .zip(&fetched)
                .filter(|(it, _)| !it.write)
                .all(|(_, f)| confirm + cfg.delta_us <= f.lease_end_us);
            if !leases_ok {
                for it in items.iter().filter(|it| it.write) {
                    self.release_fallback_lock(&it.rec);
                    fb_ops += 1;
                }
                self.trace_abort(txn_id, Phase::Fallback, AbortCause::LeaseConfirmFail, None);
                self.sys.stats.add_lease_confirm_fail();
                self.backoff(8);
                continue 'retry;
            }
            // Scatter fetched records back into per-list order.
            let mut l_fetched_writes = vec![FetchedRecord::empty(); spec.local_writes.len()];
            let mut w_fetched = vec![FetchedRecord::empty(); spec.remote_writes.len()];
            let mut l_fetched_reads = vec![FetchedRecord::empty(); spec.local_reads.len()];
            let mut r_fetched = vec![FetchedRecord::empty(); spec.remote_reads.len()];
            for (it, f) in items.iter().zip(fetched) {
                match (it.write, it.local) {
                    (true, true) => l_fetched_writes[it.idx] = f,
                    (true, false) => w_fetched[it.idx] = f,
                    (false, true) => l_fetched_reads[it.idx] = f,
                    (false, false) => r_fetched[it.idx] = f,
                }
            }
            let mut ctx = TxnCtx {
                mode: CtxMode::Fallback,
                region: &region,
                spec,
                w_fetched: &w_fetched,
                r_fetched: &r_fetched,
                w_buf: vec![None; spec.remote_writes.len()],
                l_fetched_writes,
                l_fetched_reads,
                l_buf: vec![None; spec.local_writes.len()],
                now_us: now,
                delta_us: cfg.delta_us,
                strategy: cfg.softtime,
                allocs: Vec::new(),
                exec: self.exec.clone(),
                logging: cfg.logging,
                local_log: Vec::new(),
            };
            match body(&mut ctx) {
                Err(Abort::Explicit(USER_ABORT)) => {
                    for it in items.iter().filter(|it| it.write) {
                        self.release_fallback_lock(&it.rec);
                        fb_ops += 1;
                    }
                    self.trace_abort(txn_id, Phase::Fallback, AbortCause::UserAbort, None);
                    self.sys.stats.add_user_abort();
                    self.sys.trace.phases.add(
                        Phase::Fallback,
                        vtime::read().saturating_sub(fb_t0),
                        fb_ops,
                    );
                    return Err(TxnError::UserAborted);
                }
                Err(a) => {
                    // The fallback holds every lock, so body aborts can
                    // only be resource exhaustion — surface loudly.
                    panic!("transaction body failed under fallback locks: {a}");
                }
                Ok(value) => {
                    let out = ctx.finish_fallback();
                    if self.crashes_at(CrashPoint::FallbackBeforeWal) {
                        // Every 2PL lock held, body run, nothing durable:
                        // recovery rolls back from the lock-ahead record
                        // (release all locks, touch no value).
                        return Err(TxnError::SimulatedCrash);
                    }
                    // Stage the WAL — the commit point — strictly before
                    // any update becomes visible and before any lock is
                    // released (log-persist-before-unlock, the HTPM
                    // ordering). Unlike the HTM path, *local* updates are
                    // logged with their real versions: no XEND makes them
                    // durable here, so redo is their only crash story.
                    let mut wal_staged = false;
                    if cfg.logging {
                        let mut updates: Vec<LoggedUpdate> = spec
                            .local_writes
                            .iter()
                            .zip(&out.l_fetched_writes)
                            .zip(&out.l_buf)
                            .filter_map(|((rec, f), buf)| {
                                buf.as_ref().map(|value| LoggedUpdate {
                                    rec: *rec,
                                    version: f.header.version.wrapping_add(1),
                                    value: value.clone(),
                                })
                            })
                            .collect();
                        updates.extend(
                            spec.remote_writes.iter().zip(&w_fetched).zip(&out.w_buf).filter_map(
                                |((rec, f), buf)| {
                                    buf.as_ref().map(|value| LoggedUpdate {
                                        rec: *rec,
                                        version: f.header.version.wrapping_add(1),
                                        value: value.clone(),
                                    })
                                },
                            ),
                        );
                        if !fb_write_set.is_empty() {
                            let n = self.log.log_write_ahead_nt(&region, &fb_write_set, &updates);
                            self.sys.stats.add_log_write(n);
                            wal_staged = true;
                        }
                    }
                    if self.crashes_at(CrashPoint::FallbackAfterWalBeforeApply) {
                        // WAL persisted, nothing applied, every lock
                        // held: recovery must redo every update.
                        return Err(TxnError::SimulatedCrash);
                    }
                    // Apply + unlock, locals first. Each write-back
                    // fuses apply and unlock, so from here on recovery
                    // sees a shrinking lock set: it skips applied
                    // updates by version and releases the locks the WAL
                    // says are still held.
                    for ((rec, f), buf) in
                        spec.local_writes.iter().zip(&out.l_fetched_writes).zip(&out.l_buf)
                    {
                        let use_local = self.can_local_cas(rec);
                        match buf {
                            Some(v) => record::try_remote_write_back(
                                &self.qp,
                                rec,
                                f.header.version.wrapping_add(1),
                                v,
                                use_local,
                            )
                            .expect("remote write-back against a crashed node"),
                            None => record::try_remote_unlock(&self.qp, rec, use_local)
                                .expect("RDMA WRITE against a crashed node"),
                        }
                        if self.crashes_at(CrashPoint::FallbackMidUnlock) {
                            return Err(TxnError::SimulatedCrash);
                        }
                    }
                    // Then remote write-backs. Past the write-ahead log
                    // the transaction is committed, so a dead target
                    // parks the update for `flush_pending`.
                    let mut parked = false;
                    let mut crash_mid = false;
                    for ((rec, f), buf) in spec.remote_writes.iter().zip(&w_fetched).zip(&out.w_buf)
                    {
                        let new_version = f.header.version.wrapping_add(1);
                        let r = match buf {
                            Some(v) => {
                                record::try_remote_write_back(&self.qp, rec, new_version, v, false)
                            }
                            None => record::try_remote_unlock(&self.qp, rec, false),
                        };
                        if r.is_err() {
                            if self.self_crashed() {
                                return Err(TxnError::SimulatedCrash);
                            }
                            parked = true;
                            self.pending.push(PendingOp {
                                rec: *rec,
                                update: buf.as_ref().map(|v| (new_version, v.clone())),
                            });
                            continue;
                        }
                        if self.crashes_at(CrashPoint::FallbackMidUnlock) {
                            crash_mid = true;
                            break;
                        }
                    }
                    if crash_mid {
                        return Err(TxnError::SimulatedCrash);
                    }
                    if cfg.logging && wal_staged && !parked {
                        self.log.log_done(&region);
                        self.sys.stats.add_log_done_wait();
                    }
                    fb_ops += (spec.local_writes.len() + spec.remote_writes.len()) as u64;
                    self.sys.stats.add_committed(true);
                    self.sys.trace.phases.add(
                        Phase::Fallback,
                        vtime::read().saturating_sub(fb_t0),
                        fb_ops,
                    );
                    return Ok(value);
                }
            }
        }
    }
}

/// Execution mode of a transaction context.
enum CtxMode<'r> {
    /// Inside the emulated HTM region.
    Htm(HtmTxn<'r>),
    /// Under fallback 2PL locks; everything is buffered.
    Fallback,
}

/// Buffered state handed back by a fallback-mode context.
struct FallbackOut {
    w_buf: Vec<Option<Vec<u8>>>,
    l_buf: Vec<Option<Vec<u8>>>,
    l_fetched_writes: Vec<FetchedRecord>,
}

/// The handle a transaction body uses to access records and ordered
/// stores, independent of whether it runs on the HTM or fallback path.
pub struct TxnCtx<'r> {
    mode: CtxMode<'r>,
    region: &'r Region,
    spec: &'r TxnSpec,
    w_fetched: &'r [FetchedRecord],
    r_fetched: &'r [FetchedRecord],
    /// Buffered remote writes (by remote-write index).
    w_buf: Vec<Option<Vec<u8>>>,
    /// Fallback only: fetched local records.
    l_fetched_writes: Vec<FetchedRecord>,
    l_fetched_reads: Vec<FetchedRecord>,
    /// Fallback only: buffered local writes.
    l_buf: Vec<Option<Vec<u8>>>,
    now_us: u64,
    delta_us: u64,
    strategy: SofttimeStrategy,
    allocs: Vec<(Arc<ClusterHash>, PreparedInsert)>,
    exec: Executor,
    /// When durability is on: local updates to include in the
    /// write-ahead log (§4.6 logs local *and* remote updates).
    logging: bool,
    local_log: Vec<LoggedUpdate>,
}

impl<'r> TxnCtx<'r> {
    #[allow(clippy::type_complexity)]
    fn finish_htm(
        self,
    ) -> (
        HtmTxn<'r>,
        Vec<Option<Vec<u8>>>,
        Vec<(Arc<ClusterHash>, PreparedInsert)>,
        Vec<LoggedUpdate>,
    ) {
        match self.mode {
            CtxMode::Htm(t) => (t, self.w_buf, self.allocs, self.local_log),
            CtxMode::Fallback => unreachable!("finish_htm on a fallback context"),
        }
    }

    fn finish_fallback(self) -> FallbackOut {
        FallbackOut {
            w_buf: self.w_buf,
            l_buf: self.l_buf,
            l_fetched_writes: self.l_fetched_writes,
        }
    }

    fn op_now(&mut self) -> Result<u64, Abort> {
        match (self.strategy, &mut self.mode) {
            (SofttimeStrategy::PerOp, CtxMode::Htm(txn)) => softtime_txn(txn),
            _ => Ok(self.now_us),
        }
    }

    /// Value of remote-read record `i`, prefetched in the Start phase.
    pub fn remote_read(&self, i: usize) -> &[u8] {
        &self.r_fetched[i].value
    }

    /// Header version of remote-read record `i`.
    pub fn remote_read_version(&self, i: usize) -> u32 {
        self.r_fetched[i].header.version
    }

    /// Current value of remote-write record `i`: the buffered update if
    /// one exists, else the value fetched under the exclusive lock.
    pub fn remote_write_cur(&self, i: usize) -> &[u8] {
        self.w_buf[i].as_deref().unwrap_or(&self.w_fetched[i].value)
    }

    /// Buffers the new value of remote-write record `i` (pushed with
    /// one-sided WRITEs after the HTM region commits).
    pub fn remote_write(&mut self, i: usize, value: Vec<u8>) {
        debug_assert!(value.len() <= self.spec.remote_writes[i].value_cap);
        self.w_buf[i] = Some(value);
    }

    /// Reads local-read record `i` (Figure 6 LOCAL_READ).
    pub fn local_read(&mut self, i: usize) -> Result<Vec<u8>, Abort> {
        if self.strategy == SofttimeStrategy::PerOp {
            // The naive strategy touches softtime on reads too (Fig. 11).
            let _ = self.op_now()?;
        }
        let off = self.spec.local_reads[i].addr.offset;
        match &mut self.mode {
            CtxMode::Htm(txn) => Ok(record::local_read(txn, off)?.1),
            CtxMode::Fallback => Ok(self.l_fetched_reads[i].value.clone()),
        }
    }

    /// Reads the current value of local-write record `i` (including this
    /// transaction's own buffered/staged update).
    pub fn local_write_cur(&mut self, i: usize) -> Result<Vec<u8>, Abort> {
        let off = self.spec.local_writes[i].addr.offset;
        match &mut self.mode {
            CtxMode::Htm(txn) => Ok(record::local_read(txn, off)?.1),
            CtxMode::Fallback => {
                Ok(self.l_buf[i].clone().unwrap_or_else(|| self.l_fetched_writes[i].value.clone()))
            }
        }
    }

    /// Writes local-write record `i` (Figure 6 LOCAL_WRITE).
    pub fn local_write(&mut self, i: usize, value: &[u8]) -> Result<(), Abort> {
        let now = self.op_now()?;
        let delta = self.delta_us;
        let rec = self.spec.local_writes[i];
        match &mut self.mode {
            CtxMode::Htm(txn) => {
                // HTM path: the XEND makes this store durable, so it is
                // logged with version 0 — recovery's at-most-once check
                // always sees it as already applied (§4.6).
                if self.logging {
                    self.local_log.push(LoggedUpdate { rec, version: 0, value: value.to_vec() });
                }
                record::local_write(txn, rec.addr.offset, value, now, delta)
            }
            CtxMode::Fallback => {
                // Fallback path: the buffered update is logged at commit
                // time with its real version (log-before-unlock) — no
                // per-op entry here.
                self.l_buf[i] = Some(value.to_vec());
                Ok(())
            }
        }
    }

    /// Inserts into a local hash table atomically with this transaction.
    ///
    /// On the fallback path the insert runs as a standalone HTM
    /// micro-transaction; like the paper's fallback handler it must not
    /// be followed by a user abort (chopping restriction, §3).
    pub fn hash_insert(
        &mut self,
        table: &Arc<ClusterHash>,
        key: u64,
        value: &[u8],
    ) -> Result<(), Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => match table.insert_txn(txn, key, value)? {
                Ok(p) => {
                    self.allocs.push((Arc::clone(table), p));
                    Ok(())
                }
                Err(InsertError::Duplicate) => Err(Abort::Explicit(ABORT_LOCKED)),
                Err(InsertError::Full) => Err(Abort::Explicit(0xF1)),
            },
            CtxMode::Fallback => match table.insert(&self.exec, self.region, key, value) {
                Ok(()) => Ok(()),
                Err(InsertError::Duplicate) => Err(Abort::Explicit(ABORT_LOCKED)),
                Err(InsertError::Full) => Err(Abort::Explicit(0xF1)),
            },
        }
    }

    /// Looks up a key in a local hash table, returning the entry offset.
    ///
    /// Usable in both modes; on the fallback path it runs as a validated
    /// standalone read transaction.
    pub fn hash_lookup(&mut self, table: &ClusterHash, key: u64) -> Result<Option<usize>, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => Ok(table.get_local(txn, key)?.map(|e| e.offset)),
            CtxMode::Fallback => {
                let got = self.standalone(|txn| table.get_local(txn, key))?;
                Ok(got.map(|e| e.offset))
            }
        }
    }

    /// B+ tree point lookup on a local ordered store.
    pub fn tree_get(&mut self, tree: &BTree, key: u64) -> Result<Option<u64>, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => tree.get(txn, key),
            CtxMode::Fallback => self.standalone(|txn| tree.get(txn, key)),
        }
    }

    /// B+ tree insert on a local ordered store.
    pub fn tree_insert(&mut self, tree: &BTree, key: u64, val: u64) -> Result<bool, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => tree.insert(txn, key, val),
            CtxMode::Fallback => self.standalone(|txn| tree.insert(txn, key, val)),
        }
    }

    /// B+ tree remove on a local ordered store.
    pub fn tree_remove(&mut self, tree: &BTree, key: u64) -> Result<bool, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => tree.remove(txn, key),
            CtxMode::Fallback => self.standalone(|txn| tree.remove(txn, key)),
        }
    }

    /// B+ tree range scan on a local ordered store.
    pub fn tree_scan(
        &mut self,
        tree: &BTree,
        lo: u64,
        hi: u64,
        max: usize,
    ) -> Result<Vec<(u64, u64)>, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => tree.scan_range(txn, lo, hi, max),
            CtxMode::Fallback => self.standalone(|txn| tree.scan_range(txn, lo, hi, max)),
        }
    }

    /// B+ tree "largest key in range" on a local ordered store.
    pub fn tree_max_in_range(
        &mut self,
        tree: &BTree,
        lo: u64,
        hi: u64,
    ) -> Result<Option<(u64, u64)>, Abort> {
        match &mut self.mode {
            CtxMode::Htm(txn) => tree.max_in_range(txn, lo, hi),
            CtxMode::Fallback => self.standalone(|txn| tree.max_in_range(txn, lo, hi)),
        }
    }

    /// Runs a store operation as its own committed-and-validated HTM
    /// transaction (fallback mode), retrying conflicts.
    fn standalone<T>(
        &self,
        mut f: impl FnMut(&mut HtmTxn<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let mut backoff = drtm_htm::backoff::Backoff::new();
        loop {
            let mut txn = self.region.begin(self.exec.config());
            match f(&mut txn) {
                Ok(v) => {
                    if txn.commit().is_ok() {
                        return Ok(v);
                    }
                }
                Err(a @ Abort::Explicit(_)) => return Err(a),
                Err(_) => {}
            }
            backoff.snooze();
        }
    }

    /// Escape hatch: the raw HTM transaction (HTM mode only).
    pub fn htm_txn(&mut self) -> Option<&mut HtmTxn<'r>> {
        match &mut self.mode {
            CtxMode::Htm(t) => Some(t),
            CtxMode::Fallback => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DrTmConfig;
    use crate::record::ABORT_LEASED;
    use crate::state::LockState;
    use crate::time::SoftTimer;
    use drtm_memstore::{Arena, LookupResult};
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    /// Two machines, one hash table each (identical geometry), populated
    /// with `keys` accounts holding 100 units each.
    struct Harness {
        sys: Arc<DrTm>,
        tables: Vec<Arc<ClusterHash>>,
        trees: Vec<Arc<BTree>>,
        _timer: SoftTimer,
    }

    const VAL_CAP: usize = 16;

    fn u64v(x: u64) -> Vec<u8> {
        x.to_le_bytes().to_vec()
    }

    fn vu64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().unwrap())
    }

    fn harness(nodes: usize, workers: usize, keys: u64, cfg: DrTmConfig) -> Harness {
        let cluster = Cluster::new(ClusterConfig {
            nodes,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut layouts = Vec::new();
        let mut tables = Vec::new();
        let mut trees = Vec::new();
        for n in 0..nodes {
            let mut arena = Arena::new(0, 16 << 20);
            layouts.push(NodeLayout::reserve(&mut arena, workers));
            let t = ClusterHash::create(&mut arena, n as NodeId, 256, 4096, VAL_CAP);
            let tree =
                BTree::create(&mut arena, cluster.node(n as NodeId).region(), n as NodeId, 512);
            // Populate with stock hardware parameters: tests may model a
            // tiny HTM capacity that could not even run the inserts.
            let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
            for k in 0..keys {
                t.insert(&exec, cluster.node(n as NodeId).region(), k, &u64v(100)).unwrap();
            }
            tables.push(Arc::new(t));
            trees.push(Arc::new(tree));
        }
        let timer = SoftTimer::start(cluster.clone(), std::time::Duration::from_micros(200));
        let sys = DrTm::new(cluster, cfg, layouts);
        Harness { sys, tables, trees, _timer: timer }
    }

    impl Harness {
        fn rec(&self, node: NodeId, key: u64) -> RecordAddr {
            let qp = self.sys.cluster().qp(node);
            match self.tables[node as usize].try_remote_lookup(&qp, key).unwrap() {
                LookupResult::Found { addr, .. } => RecordAddr::new(addr, VAL_CAP),
                _ => panic!("key {key} missing on node {node}"),
            }
        }

        fn value(&self, node: NodeId, key: u64) -> u64 {
            let rec = self.rec(node, key);
            let region = self.sys.cluster().node(node).region();
            let mut b = vec![0u8; 8];
            region.read_nt(rec.addr.offset + 32, &mut b);
            vu64(&b)
        }

        fn state_of(&self, node: NodeId, key: u64) -> LockState {
            let rec = self.rec(node, key);
            LockState(self.sys.cluster().node(node).region().read_u64_nt(rec.addr.offset))
        }
    }

    #[test]
    fn local_only_transaction_commits() {
        let h = harness(1, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_reads: vec![h.rec(0, 0)],
            local_writes: vec![h.rec(0, 1)],
            ..Default::default()
        };
        let got = w
            .execute(&spec, |ctx| {
                let a = vu64(&ctx.local_read(0)?);
                let b = vu64(&ctx.local_write_cur(0)?);
                ctx.local_write(0, &u64v(b + a))?;
                Ok(a + b)
            })
            .unwrap();
        assert_eq!(got, 200);
        assert_eq!(h.value(0, 1), 200);
        assert_eq!(h.sys.stats().snapshot().committed, 1);
        assert_eq!(h.sys.stats().snapshot().fallback_committed, 0);
    }

    #[test]
    fn distributed_transfer_moves_money() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 0)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            let mine = vu64(&ctx.local_write_cur(0)?);
            let theirs = vu64(ctx.remote_write_cur(0));
            ctx.local_write(0, &u64v(mine - 30))?;
            ctx.remote_write(0, u64v(theirs + 30));
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(0, 0), 70);
        assert_eq!(h.value(1, 0), 130);
        assert!(h.state_of(1, 0).is_init(), "write lock released");
    }

    #[test]
    fn remote_read_lease_left_behind_is_harmless() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_reads: vec![h.rec(1, 2)], ..Default::default() };
        let v = w.execute(&spec, |ctx| Ok(vu64(ctx.remote_read(0)))).unwrap();
        assert_eq!(v, 100);
        // The lease word remains set (leases need no release, §4.2).
        let st = h.state_of(1, 2);
        assert!(!st.is_write_locked());
        assert!(st.lease_end_us() > 0);
    }

    #[test]
    fn user_abort_releases_locks_and_reports() {
        let h = harness(2, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 1)], ..Default::default() };
        let r: Result<(), TxnError> = w.execute(&spec, |_| Err(Abort::Explicit(USER_ABORT)));
        assert_eq!(r, Err(TxnError::UserAborted));
        assert!(h.state_of(1, 1).is_init(), "lock released after user abort");
        assert_eq!(h.value(1, 1), 100, "no update applied");
        assert_eq!(h.sys.stats().snapshot().user_aborts, 1);
    }

    #[test]
    fn conflicting_remote_writers_serialize() {
        let h = harness(2, 2, 2, DrTmConfig::default());
        let sys = h.sys.clone();
        let rec0 = h.rec(1, 0);
        let mut hs = Vec::new();
        for wid in 0..2 {
            let sys = sys.clone();
            hs.push(std::thread::spawn(move || {
                let mut w = sys.worker(0, wid);
                let spec = TxnSpec { remote_writes: vec![rec0], ..Default::default() };
                for _ in 0..50 {
                    w.execute(&spec, |ctx| {
                        let v = vu64(ctx.remote_write_cur(0));
                        ctx.remote_write(0, u64v(v + 1));
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for t in hs {
            t.join().unwrap();
        }
        assert_eq!(h.value(1, 0), 200, "all 100 increments must survive");
    }

    #[test]
    fn capacity_abort_takes_fallback_path() {
        let mut cfg = DrTmConfig::default();
        cfg.htm.write_capacity_lines = 2; // absurdly small L1
        let h = harness(2, 1, 8, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: (0..8).map(|k| h.rec(0, k)).collect(),
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            for i in 0..8 {
                let v = vu64(&ctx.local_write_cur(i)?);
                ctx.local_write(i, &u64v(v + 1))?;
            }
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 7));
            Ok(())
        })
        .unwrap();
        let snap = h.sys.stats().snapshot();
        assert_eq!(snap.fallback_committed, 1, "must commit via fallback");
        for k in 0..8 {
            assert_eq!(h.value(0, k), 101, "local write {k} applied");
            assert!(h.state_of(0, k).is_init(), "fallback lock {k} released");
        }
        assert_eq!(h.value(1, 0), 107);
        assert!(h.state_of(1, 0).is_init());
    }

    #[test]
    fn tree_ops_commit_atomically_with_txn() {
        let h = harness(1, 1, 2, DrTmConfig::default());
        let tree = h.trees[0].clone();
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { local_writes: vec![h.rec(0, 0)], ..Default::default() };
        w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(1))?;
            ctx.tree_insert(&tree, 42, 4242)?;
            Ok(())
        })
        .unwrap();
        let region = h.sys.cluster().node(0).region().clone();
        let cfg = h.sys.config().htm.clone();
        let mut txn = region.begin(&cfg);
        assert_eq!(tree.get(&mut txn, 42).unwrap(), Some(4242));
    }

    #[test]
    fn hash_insert_rolls_back_alloc_on_user_abort() {
        let h = harness(1, 1, 2, DrTmConfig::default());
        let table = h.tables[0].clone();
        let before = table.len();
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec::default();
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            ctx.hash_insert(&table, 999, &u64v(5))?;
            Err(Abort::Explicit(USER_ABORT))
        });
        assert_eq!(r, Err(TxnError::UserAborted));
        assert_eq!(table.len(), before, "allocation rolled back");
        // And the key is not visible.
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&h.sys.config().htm);
        assert!(table.get_local(&mut txn, 999).unwrap().is_none());
    }

    #[test]
    fn read_only_sees_consistent_snapshot() {
        let h = harness(2, 2, 2, DrTmConfig::default());
        let sys = h.sys.clone();
        let a = h.rec(0, 0);
        let b = h.rec(1, 0);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // A writer keeps transferring between the two accounts.
        let writer = {
            let sys = sys.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut w = sys.worker(0, 0);
                let spec =
                    TxnSpec { local_writes: vec![a], remote_writes: vec![b], ..Default::default() };
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    w.execute(&spec, |ctx| {
                        let x = vu64(&ctx.local_write_cur(0)?);
                        let y = vu64(ctx.remote_write_cur(0));
                        ctx.local_write(0, &u64v(x.wrapping_sub(1)))?;
                        ctx.remote_write(0, u64v(y + 1));
                        Ok(())
                    })
                    .unwrap();
                }
            })
        };
        let mut r = sys.worker(1, 0);
        for _ in 0..50 {
            let (x, y) = r
                .try_read_only(|ctx| {
                    let x = vu64(&ctx.acquire(&a)?);
                    let y = vu64(&ctx.acquire(&b)?);
                    Ok((x, y))
                })
                .unwrap();
            assert_eq!(x.wrapping_add(y), 200, "read-only snapshot must conserve the total");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        assert!(sys.stats().snapshot().ro_committed >= 50);
    }

    #[test]
    fn crash_before_commit_recovers_by_unlocking() {
        let cfg = DrTmConfig {
            logging: true,
            crash_point: Some(CrashPoint::BeforeHtmCommit),
            ..Default::default()
        };
        let h = harness(2, 1, 4, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 0)], ..Default::default() };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert!(h.state_of(1, 0).is_write_locked(), "lock stranded by crash");
        let report = h.sys.recover(0, 1).unwrap();
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.released_locks, 1);
        assert_eq!(report.redone_updates, 0);
        assert!(h.state_of(1, 0).is_init());
        assert_eq!(h.value(1, 0), 100, "uncommitted update must not appear");
    }

    #[test]
    fn crash_after_commit_recovers_by_redo() {
        let cfg = DrTmConfig {
            logging: true,
            crash_point: Some(CrashPoint::AfterHtmCommit),
            ..Default::default()
        };
        let h = harness(2, 1, 4, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 0)], ..Default::default() };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert_eq!(h.value(1, 0), 100, "write-back never ran");
        let report = h.sys.recover(0, 1).unwrap();
        assert_eq!(report.redone_txns, 1);
        assert_eq!(report.redone_updates, 1);
        assert_eq!(h.value(1, 0), 109, "committed update redone");
        assert!(h.state_of(1, 0).is_init());
        // Recovery is idempotent.
        let again = h.sys.recover(0, 1).unwrap();
        assert_eq!(again.redone_txns, 0);
        assert_eq!(h.value(1, 0), 109);
    }

    #[test]
    fn fallback_crash_after_wal_preserves_local_updates() {
        // The former "known hole": a fallback transaction with a purely
        // local update crashing between commit point and apply. The WAL
        // is staged before anything becomes visible, so recovery redoes
        // the local update from the log.
        let mut cfg = DrTmConfig {
            logging: true,
            crash_point: Some(CrashPoint::FallbackAfterWalBeforeApply),
            ..Default::default()
        };
        cfg.htm.max_retries = 0; // straight to the fallback handler
        let h = harness(2, 1, 4, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 1)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            let v = vu64(&ctx.local_write_cur(0)?);
            ctx.local_write(0, &u64v(v + 5))?;
            let v = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(v + 9));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        assert_eq!(h.value(0, 1), 100, "nothing applied yet");
        assert_eq!(h.value(1, 0), 100);
        assert!(h.state_of(0, 1).is_write_locked(), "local 2PL lock still held");
        assert!(h.state_of(1, 0).is_write_locked());
        let report = h.sys.recover(0, 1).unwrap();
        assert_eq!(report.redone_txns, 1);
        assert_eq!(report.redone_updates, 2);
        assert_eq!(report.released_locks, 0, "write-backs release as they apply");
        assert_eq!(h.value(0, 1), 105, "LOCAL update redone from the WAL");
        assert_eq!(h.value(1, 0), 109);
        assert!(h.state_of(0, 1).is_init());
        assert!(h.state_of(1, 0).is_init());
        // Idempotent: a second pass finds a clean slot.
        let again = h.sys.recover(0, 1).unwrap();
        assert_eq!(again, crate::recovery::RecoveryReport::default());
    }

    #[test]
    fn fallback_crash_before_wal_rolls_back_and_releases_local_locks() {
        // Strictly before the commit point nothing is durable: recovery
        // must release every 2PL lock — including the CPU-locked local
        // record the old lock-ahead (remote-only) could never name.
        let mut cfg = DrTmConfig {
            logging: true,
            crash_point: Some(CrashPoint::FallbackBeforeWal),
            ..Default::default()
        };
        cfg.htm.max_retries = 0;
        let h = harness(2, 1, 4, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_writes: vec![h.rec(0, 1)],
            remote_writes: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let r: Result<(), _> = w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(1))?;
            ctx.remote_write(0, u64v(2));
            Ok(())
        });
        assert_eq!(r, Err(TxnError::SimulatedCrash));
        let report = h.sys.recover(0, 1).unwrap();
        assert_eq!(report.rolled_back_txns, 1);
        assert_eq!(report.released_locks, 2, "local + remote lock released");
        assert_eq!(h.value(0, 1), 100, "rolled back: no value moved");
        assert_eq!(h.value(1, 0), 100);
        assert!(h.state_of(0, 1).is_init());
        assert!(h.state_of(1, 0).is_init());
    }

    #[test]
    fn unwritten_remote_write_lock_is_released_without_update() {
        // A record may be declared in the write set but not written
        // (conditional updates); the lock must still be released and the
        // value left untouched.
        let h = harness(2, 1, 2, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { remote_writes: vec![h.rec(1, 1)], ..Default::default() };
        w.execute(&spec, |ctx| {
            let _ = ctx.remote_write_cur(0); // read but never write
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(1, 1), 100);
        assert!(h.state_of(1, 1).is_init());
    }

    #[test]
    fn per_op_softtime_strategy_commits() {
        let cfg =
            DrTmConfig { softtime: crate::config::SofttimeStrategy::PerOp, ..Default::default() };
        let h = harness(2, 1, 2, cfg);
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            local_reads: vec![h.rec(0, 0)],
            local_writes: vec![h.rec(0, 1)],
            remote_reads: vec![h.rec(1, 0)],
            ..Default::default()
        };
        let v = w
            .execute(&spec, |ctx| {
                let a = vu64(&ctx.local_read(0)?);
                let b = vu64(ctx.remote_read(0));
                ctx.local_write(0, &u64v(a + b))?;
                Ok(a + b)
            })
            .unwrap();
        assert_eq!(v, 200);
        assert_eq!(h.value(0, 1), 200);
    }

    #[test]
    fn fallback_tree_ops_apply() {
        // Force the fallback path with a tiny write capacity and verify
        // tree operations still land (as standalone HTM micro-txns).
        let mut cfg = DrTmConfig::default();
        cfg.htm.write_capacity_lines = 2;
        let h = harness(1, 1, 8, cfg);
        let tree = h.trees[0].clone();
        let mut w = h.sys.worker(0, 0);
        let spec =
            TxnSpec { local_writes: (0..8).map(|k| h.rec(0, k)).collect(), ..Default::default() };
        w.execute(&spec, |ctx| {
            for i in 0..8 {
                let v = vu64(&ctx.local_write_cur(i)?);
                ctx.local_write(i, &u64v(v + 1))?;
            }
            ctx.tree_insert(&tree, 777, 42)?;
            assert_eq!(ctx.tree_get(&tree, 777)?, Some(42));
            Ok(())
        })
        .unwrap();
        assert_eq!(h.sys.stats().snapshot().fallback_committed, 1);
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&HtmConfig::default());
        assert_eq!(tree.get(&mut txn, 777).unwrap(), Some(42));
    }

    #[test]
    fn remote_read_and_write_in_one_txn() {
        let h = harness(3, 1, 4, DrTmConfig::default());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec {
            remote_reads: vec![h.rec(1, 0)],
            remote_writes: vec![h.rec(2, 0)],
            ..Default::default()
        };
        w.execute(&spec, |ctx| {
            let src = vu64(ctx.remote_read(0));
            let dst = vu64(ctx.remote_write_cur(0));
            ctx.remote_write(0, u64v(dst + src));
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(2, 0), 200);
        assert_eq!(h.value(1, 0), 100, "read-leased record unchanged");
    }

    #[test]
    fn lease_blocks_local_writer_until_expiry() {
        let cfg = DrTmConfig { lease_us: 3_000, ..Default::default() };
        let h = harness(2, 1, 2, cfg);
        // Remote machine leases the record.
        let rec = h.rec(0, 0);
        let qp1 = h.sys.cluster().qp(1);
        let now = crate::time::softtime_nt(h.sys.cluster().node(1).region());
        record::remote_read(&qp1, &rec, now + 3_000, now, 100, false).unwrap();
        // Local write under the lease explicitly aborts.
        let region = h.sys.cluster().node(0).region().clone();
        let mut txn = region.begin(&h.sys.config().htm);
        let got = record::local_write(&mut txn, rec.addr.offset, &u64v(1), now, 100);
        assert_eq!(got, Err(Abort::Explicit(ABORT_LEASED)));
        drop(txn);
        // After expiry the DrTM transaction succeeds end to end.
        std::thread::sleep(std::time::Duration::from_millis(10));
        SoftTimer::tick_now(h.sys.cluster());
        let mut w = h.sys.worker(0, 0);
        let spec = TxnSpec { local_writes: vec![rec], ..Default::default() };
        w.execute(&spec, |ctx| {
            ctx.local_write(0, &u64v(55))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(h.value(0, 0), 55);
    }
}
