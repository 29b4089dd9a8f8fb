//! Crash recovery from NVRAM logs (§4.6, Figure 7 right).
//!
//! A surviving machine (notified by the failure-detection service, which
//! the paper delegates to Zookeeper) inspects the crashed machine's NVRAM
//! log slots — reachable because the region itself is durable under
//! flush-on-failure — and repairs cluster state:
//!
//! * **write-ahead log present** — the transaction committed (its HTM
//!   region XENDed, or the fallback handler persisted its WAL before
//!   touching any record), so it must *eventually commit*: redo every
//!   update whose version has not landed yet — local updates of a
//!   fallback transaction are logged with real versions and redone
//!   here too — then release every lock the WAL's embedded lock list
//!   says the crashed machine could still hold (Figure 7(b)). The
//!   lock pass is idempotent over the redo pass: a write-back fuses
//!   apply+unlock, so it only fires for declared-but-unwritten
//!   records and fallback locks the apply loop never reached.
//! * **only lock-ahead log present** — the transaction did not commit:
//!   release every remote record still exclusively locked by the crashed
//!   machine (Figure 7(a)); versions prove no update was applied.
//!
//! Updates are applied at-most-once by comparing the logged version with
//! the record's current version — the ordering role §4.6 assigns to the
//! per-record version.
//!
//! [`DrTm::recover`] is the one recovery entry. After the log sweep it
//! releases a purge lock the corpse's migration journal still records
//! and, on an elastic cluster, rolls back migrations towards the corpse
//! and replays its membership journal
//! ([`crate::MembershipCoordinator`]).

use std::sync::Arc;

use drtm_memstore::release_migration_lock;
use drtm_rdma::{Cluster, FabricError, GlobalAddr, NodeId};

use crate::alloc_layout::NodeLayout;
use crate::log::{self, LogSlot, LOG_LOCK_AHEAD, LOG_WRITE_AHEAD};
use crate::membership::RecoveryDirection;
use crate::record::{self, RecordAddr};
use crate::state::{LockState, INIT};
use crate::txn::DrTm;

/// Summary of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chopped parent transactions that must resume: one entry per
    /// worker slot with pending chopping information (Figure 7).
    pub pending_pieces: Vec<crate::log::ChopInfo>,
    /// Committed transactions whose remote updates were redone.
    pub redone_txns: u64,
    /// Individual remote updates (re)applied.
    pub redone_updates: u64,
    /// Updates skipped because the version showed they already landed.
    pub skipped_updates: u64,
    /// Exclusive locks released on behalf of the crashed machine: locks
    /// its logs name plus journaled migration purge locks.
    pub released_locks: u64,
    /// Uncommitted transactions rolled back (locks released only).
    pub rolled_back_txns: u64,
    /// Partially copied rows dropped from migrations that died with the
    /// crashed machine.
    pub dropped_rows: u64,
    /// Rows evacuated off the corpse's NVRAM by membership recovery.
    pub evacuated_keys: u64,
    /// Final placement `(lo, hi, owner)` of every range membership
    /// recovery moved — donors for a rollback, receivers for a
    /// roll-forward.
    pub ranges: Vec<(u64, u64, NodeId)>,
    /// For a death mid-join or mid-leave: the repair direction and the
    /// membership epoch after the corpse retired. `None` for a plain
    /// death.
    pub membership: Option<(RecoveryDirection, u64)>,
}

impl DrTm {
    /// Recovers the cluster after `crashed` failed, driving every repair
    /// from survivor `via` on the calling thread. Returns what was done.
    ///
    /// One entry for every durable record the corpse left, found on the
    /// corpse itself: its log slots (the WAL sweep), its migration
    /// journal (an orphaned purge lock), and — when a membership
    /// coordinator is registered — every migration towards it (rolled
    /// back) and its membership journal (a join rolls back, a leave rolls
    /// forward). Idempotent: a second pass reports nothing.
    ///
    /// Fails typed when a repair needs a verb against another dead
    /// machine; re-running from the same survivor once that machine is
    /// back finishes the job.
    pub fn recover(&self, crashed: NodeId, via: NodeId) -> Result<RecoveryReport, FabricError> {
        let layout = self.layout(crashed);
        let mut report = sweep_logs(self.cluster(), crashed, &layout, via)?;
        report.released_locks +=
            release_migration_lock(self.cluster(), layout.migration_journal_off, crashed, via)?;
        let coordinator = self.coordinator.read().expect("coordinator lock poisoned").upgrade();
        if let Some(coordinator) = coordinator {
            coordinator.recover(crashed, via, &mut report)?;
        }
        Ok(report)
    }
}

/// The WAL sweep: repairs every log slot of `crashed` (laid out by
/// `layout`), driving from machine `via`.
///
/// Records and log slots on the crashed machine itself are accessed
/// directly through its (durable, flush-on-failure) region — the paper's
/// NVRAM model — never through its dead fabric port; records on live
/// machines are repaired with ordinary one-sided verbs.
///
/// Safe to run concurrently from several survivors and to re-run after a
/// recoverer itself dies: each log slot is *claimed* with a CAS on its
/// status word ([`log::recovering_status`]) before being repaired, so
/// exactly one survivor repairs (and reports) each slot. A claim held by
/// the caller, or by a machine the fault plan marks crashed, is
/// re-claimable; a claim held by a live peer is skipped.
pub(crate) fn sweep_logs(
    cluster: &Arc<Cluster>,
    crashed: NodeId,
    layout: &NodeLayout,
    via: NodeId,
) -> Result<RecoveryReport, FabricError> {
    let qp = cluster.qp(via);
    let region = cluster.node(crashed).region();
    let mut report = RecoveryReport::default();

    // Words on the corpse itself come straight from its NVRAM, words on
    // a live machine through one-sided verbs.
    let read_u64 = |a: GlobalAddr| {
        if a.node == crashed {
            Ok(region.read_u64_nt(a.offset))
        } else {
            qp.try_read_u64(a)
        }
    };
    let cas_u64 = |a: GlobalAddr, old: u64| {
        if a.node == crashed {
            Ok(region.cas_u64_nt(a.offset, old, INIT))
        } else {
            qp.try_cas_u64(a, old, INIT)
        }
    };
    let release_if_owned = |rec: &RecordAddr, report: &mut RecoveryReport| {
        let st = LockState(read_u64(rec.addr)?);
        // CAS so a concurrent release cannot be clobbered (and so
        // racing recoverers count each release exactly once).
        if st.is_write_locked() && st.owner() == crashed as u8 && cas_u64(rec.addr, st.0)? == st.0 {
            report.released_locks += 1;
        }
        Ok::<_, FabricError>(())
    };
    let read_version = |rec: &RecordAddr| -> Result<u32, FabricError> {
        let mut vb = [0u8; 4];
        let a = GlobalAddr::new(rec.addr.node, rec.addr.offset + 12);
        if a.node == crashed {
            region.read_nt(a.offset, &mut vb);
        } else {
            qp.try_read(a, &mut vb)?;
        }
        Ok(u32::from_le_bytes(vb))
    };

    for slot_layout in &layout.log_slots {
        let slot = LogSlot::new(*slot_layout, 0);
        if let Some(info) = slot.read_chop(region) {
            report.pending_pieces.push(info);
        }
        // Claim the slot before repairing it.
        let claimed: Option<u64> = loop {
            let cur = slot.read_status(region);
            let (expected, orig) = match cur {
                LOG_LOCK_AHEAD | LOG_WRITE_AHEAD => (cur, cur),
                w => match log::recovering_parts(w) {
                    Some((claimer, orig))
                        if claimer == via || cluster.faults().is_crashed(claimer) =>
                    {
                        (w, orig)
                    }
                    // A live peer is repairing this slot (or it's empty).
                    _ => break None,
                },
            };
            let claim = log::recovering_status(via, orig);
            if region.cas_u64_nt(slot_layout.status_off, expected, claim) == expected {
                break Some(orig);
            }
            // Lost the race; re-read — the winner's claim decides.
        };
        match claimed {
            Some(LOG_WRITE_AHEAD) => {
                report.redone_txns += 1;
                let wal = slot.read_write_ahead(region);
                for u in &wal.updates {
                    let cur = read_version(&u.rec)?;
                    // Versions increase monotonically; wrapping_sub keeps
                    // the comparison valid across u32 wrap.
                    if cur.wrapping_sub(u.version) as i32 >= 0 {
                        report.skipped_updates += 1;
                        release_if_owned(&u.rec, &mut report)?;
                    } else {
                        let local = u.rec.addr.node == crashed;
                        record::try_remote_write_back(&qp, &u.rec, u.version, &u.value, local)?;
                        report.redone_updates += 1;
                    }
                }
                // Sweep the WAL's lock list: anything the redo pass did
                // not clear (declared-but-unwritten buffers, fallback
                // locks between the WAL and the apply loop) is released
                // here, exactly once.
                for rec in &wal.locks {
                    release_if_owned(rec, &mut report)?;
                }
                slot.log_done(region);
            }
            Some(LOG_LOCK_AHEAD) => {
                report.rolled_back_txns += 1;
                for rec in slot.read_lock_ahead(region) {
                    release_if_owned(&rec, &mut report)?;
                }
                slot.log_done(region);
            }
            // Unknown original status: just clear the claim.
            Some(_) => slot.log_done(region),
            None => {}
        }
    }

    Ok(report)
}
