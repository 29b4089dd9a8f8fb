//! Live key-range resharding between machines.
//!
//! DrTM's partitioning is static: a key's home is fixed at cluster
//! start. This module adds the missing piece of elastic scale-out — a
//! [`Resharder`] that streams a key range from its current owner to a
//! new one while both keep serving traffic, coordinated through a
//! [`RangeMap`] of per-range *migration epochs*:
//!
//! ```text
//!  Stable ──begin_copy──▶ Copying ──begin_cutover──▶ Cutover ──publish──▶ Stable
//!  (src)    src writable   src writable,             src frozen,          (dst)
//!           copy stream    one-sided bulk copy       delta+purge,
//!                          to dst                    dual-read src→dst
//! ```
//!
//! * **Copying** — the source stays authoritative *and writable*; the
//!   resharder bulk-copies the range with one-sided READs
//!   ([`crate::ElasticHash::try_remote_collect_range`]) and upserts into
//!   the destination. Writes racing the copy are caught later.
//! * **Cutover** — the range is frozen for writes: the router hands
//!   transactions a `writable = false` decision and they abort with a
//!   typed `Migrated` cause, retrying once the map republishes. An RPC
//!   barrier (a shipped no-op through the source's FIFO store queue)
//!   drains in-flight shipped operations. Then a *delta + purge* pass
//!   walks the source range once more: each key is locked on the source
//!   with a journaled RDMA CAS on its state word, re-read under the
//!   lock, re-upserted into the destination unless the destination
//!   already holds exactly this version from the bulk copy (this is
//!   what catches inserts and updates that raced the copy window —
//!   comparing against the destination's copy, not against the delta
//!   walk itself), and deleted from the source — the delete
//!   clears the state word (releasing the migration lock) and bumps the
//!   incarnation, so any worker still holding the old location fails its
//!   incarnation check, re-resolves, and lands at the new owner. Reads
//!   during this window are *dual-read*: source primary, destination
//!   fallback, because keys vanish from the source one at a time.
//! * **Publish** — the map flips the owner; caches were invalidated per
//!   key during the purge, so the next lookup re-resolves at the new
//!   owner.
//!
//! Crash safety: the purge lock is journaled (64 bytes on the
//! *destination*'s region, [`Resharder::migrate`] takes the journal
//! offset from the shared node layout) before the CAS, one key at a
//! time; recovery replays the journal to release an orphaned lock and
//! deletes partially copied destination rows, returning the range to
//! `Stable` on the source — the crash-point matrix in the chaos harness
//! checks conservation and zero leaked locks at both armed sites
//! ([`MIGRATE_MID_COPY_SITE`], [`MIGRATE_BEFORE_CUTOVER_SITE`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::RwLock;

use drtm_htm::Executor;
use drtm_rdma::{Cluster, FabricError, GlobalAddr, NodeId, QueueId};

use crate::cache::AddrCache;
use crate::journal::Journal;
use crate::rpc::{ship_store_op, StoreOp, StoreReply};
use crate::split_ordered::ElasticHash;
use crate::ENTRY_HEADER_BYTES;

/// Crash site inside the bulk-copy loop (armed on the *destination*,
/// which drives the migration). Must match the core crate's
/// `CrashPoint::MigrateMidCopy` site name.
pub const MIGRATE_MID_COPY_SITE: &str = "migrate-mid-copy";

/// Crash site after the copy completes but before the cutover freezes
/// the range. Must match `CrashPoint::MigrateBeforeCutover`.
pub const MIGRATE_BEFORE_CUTOVER_SITE: &str = "migrate-before-cutover";

/// Tag of a migration journal armed with a purge lock.
pub const PURGE_LOCKED: u64 = 1;

/// Bytes of the per-node migration journal.
pub const MIGRATION_JOURNAL_BYTES: usize = Journal::<3, 0>::bytes(0);

/// The per-node migration journal at region offset `off` (from the
/// shared node layout): while a migration holds a purge lock on a
/// source entry, the destination's journal is armed ([`PURGE_LOCKED`])
/// with fields `[src, entry offset, lock word]`, so recovery can release
/// the lock if the destination dies.
pub const fn migration_journal(off: usize) -> Journal<3, 0> {
    Journal::at(off, 0)
}

/// Releases the purge lock `node`'s armed migration journal records
/// (by CAS on the exact journaled word, so a repeat releases nothing)
/// and disarms the journal. The journal is read straight from `node`'s
/// region; the lock is released straight on the source's region when
/// the source is `node` itself or dead (NVRAM model), and through
/// `via`'s verbs when it is alive. Returns the locks released (0 or 1).
pub fn release_migration_lock(
    cluster: &Arc<Cluster>,
    journal_off: usize,
    node: NodeId,
    via: NodeId,
) -> Result<u64, FabricError> {
    let journal = migration_journal(journal_off);
    let region = cluster.node(node).region();
    let Some(entry) = journal.read(region) else { return Ok(0) };
    let [src, off, word] = entry.fields;
    let (src, off) = (src as NodeId, off as usize);
    let released = if src == node || cluster.faults().is_crashed(src) {
        cluster.node(src).region().cas_u64_nt(off, word, 0) == word
    } else {
        cluster.qp(via).try_cas_u64(GlobalAddr::new(src, off), word, 0)? == word
    };
    journal.clear(region);
    Ok(released as u64)
}

/// Phase boundaries of one migration, surfaced through
/// [`Resharder::set_phase_hook`] so tests, the chaos harness and the
/// benchmarks can interleave traffic deterministically with a migration
/// in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePhase {
    /// The bulk copy landed on the destination; the range is still
    /// `Copying` (source writable) — the window in which a racing write
    /// must be caught by the delta pass.
    Copied,
    /// The range is frozen and the source's store queue drained; the
    /// delta + purge pass is about to run (dual-read window).
    CutoverDrained,
    /// One key finished its delta + purge step: gone from the source,
    /// caches invalidated — a read of exactly this key now exercises the
    /// dual-read forward to the destination.
    KeyPurged(u64),
}

/// Installed migration-phase observer ([`Resharder::set_phase_hook`]).
type PhaseHook = Box<dyn Fn(MigratePhase) + Send + Sync>;

/// Typed rejection of an invalid [`RangeMap`] construction or
/// transition — routing corruption (overlapping owners, a migration to
/// the node that already owns the range) is refused up front instead of
/// silently poisoning every later `route` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeMapError {
    /// `lo > hi`: the range covers no key.
    EmptyRange {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
    /// Two input ranges overlap; `lo` is the start of the second.
    Overlap {
        /// Start of the overlapping range.
        lo: u64,
    },
    /// The migration destination already owns the range.
    DstIsOwner {
        /// The destination (= current owner).
        dst: NodeId,
    },
    /// No map entry covers this key.
    NotMapped {
        /// The uncovered key.
        key: u64,
    },
    /// `[lo, hi]` straddles more than one map entry.
    SpansEntries {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
    /// The covering range is not `Stable` (a migration is in flight).
    AlreadyMigrating {
        /// Lower bound of the covering entry.
        lo: u64,
    },
    /// The bounds do not name an exact existing entry.
    NotAnExactRange {
        /// Lower bound as given.
        lo: u64,
        /// Upper bound as given.
        hi: u64,
    },
}

impl std::fmt::Display for RangeMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeMapError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            RangeMapError::Overlap { lo } => write!(f, "overlapping ranges at {lo}"),
            RangeMapError::DstIsOwner { dst } => {
                write!(f, "destination {dst} already owns the range")
            }
            RangeMapError::NotMapped { key } => write!(f, "range not mapped at {key}"),
            RangeMapError::SpansEntries { lo, hi } => {
                write!(f, "range [{lo}, {hi}] spans multiple map entries")
            }
            RangeMapError::AlreadyMigrating { lo } => {
                write!(f, "range at {lo} already migrating")
            }
            RangeMapError::NotAnExactRange { lo, hi } => {
                write!(f, "[{lo}, {hi}] is not an exact map entry")
            }
        }
    }
}

impl std::error::Error for RangeMapError {}

/// Migration state of one key range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeState {
    /// One owner, reads and writes served normally.
    Stable,
    /// Bulk copy in progress; the source is still authoritative and
    /// writable.
    Copying,
    /// Writes frozen; reads dual-read source-then-destination while the
    /// purge drains the source.
    Cutover,
}

/// One entry of the [`RangeMap`]: a half-open ownership interval
/// (inclusive bounds) and its migration state.
#[derive(Debug, Clone, Copy)]
struct RangeEntry {
    lo: u64,
    hi: u64,
    owner: NodeId,
    /// Migration target while `state != Stable`.
    dst: Option<NodeId>,
    epoch: u64,
    state: RangeState,
}

/// What the router tells a transaction about one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The node to read first (authoritative until publish).
    pub primary: NodeId,
    /// Fallback node for reads during the cutover window (the purge
    /// moves keys one at a time, so a source miss must retry here).
    pub forward: Option<NodeId>,
    /// Whether writes to this key are currently admitted. `false` means
    /// the caller must abort with a `Migrated` cause and retry after the
    /// map republishes.
    pub writable: bool,
    /// The range's migration epoch at decision time; a transaction can
    /// re-check it at commit to detect a cutover that raced resolution.
    pub epoch: u64,
}

/// Key-range → owner map with per-range migration epochs.
///
/// Reads take a short `RwLock` read guard; the resharder's state
/// transitions take the write guard. Ranges are disjoint and sorted.
#[derive(Debug)]
pub struct RangeMap {
    ranges: RwLock<Vec<RangeEntry>>,
}

impl RangeMap {
    /// Builds a map from disjoint `(lo, hi, owner)` triples (inclusive
    /// bounds), rejecting zero-width (`lo > hi`) and overlapping ranges
    /// with a typed error instead of corrupting routing.
    pub fn try_new(
        ranges: impl IntoIterator<Item = (u64, u64, NodeId)>,
    ) -> Result<Self, RangeMapError> {
        let mut v = Vec::new();
        for (lo, hi, owner) in ranges {
            if lo > hi {
                return Err(RangeMapError::EmptyRange { lo, hi });
            }
            v.push(RangeEntry { lo, hi, owner, dst: None, epoch: 0, state: RangeState::Stable });
        }
        v.sort_by_key(|r| r.lo);
        for w in v.windows(2) {
            if w[0].hi >= w[1].lo {
                return Err(RangeMapError::Overlap { lo: w[1].lo });
            }
        }
        Ok(RangeMap { ranges: RwLock::new(v) })
    }

    fn locate(ranges: &[RangeEntry], key: u64) -> Option<usize> {
        ranges
            .binary_search_by(|r| {
                if key < r.lo {
                    std::cmp::Ordering::Greater
                } else if key > r.hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    /// Routes `key`, or `None` if no range covers it.
    pub fn route(&self, key: u64) -> Option<RouteDecision> {
        let ranges = self.ranges.read();
        let r = ranges[Self::locate(&ranges, key)?];
        Some(match r.state {
            RangeState::Stable | RangeState::Copying => {
                RouteDecision { primary: r.owner, forward: None, writable: true, epoch: r.epoch }
            }
            RangeState::Cutover => {
                RouteDecision { primary: r.owner, forward: r.dst, writable: false, epoch: r.epoch }
            }
        })
    }

    /// The current owner of `key` (primary of its route).
    pub fn owner_of(&self, key: u64) -> Option<NodeId> {
        self.route(key).map(|d| d.primary)
    }

    /// Current epoch of the range containing `key`.
    pub fn epoch_of(&self, key: u64) -> Option<u64> {
        self.route(key).map(|d| d.epoch)
    }

    /// `(lo, hi, owner, state, epoch)` snapshot, sorted by `lo`.
    pub fn snapshot(&self) -> Vec<(u64, u64, NodeId, RangeState, u64)> {
        self.ranges.read().iter().map(|r| (r.lo, r.hi, r.owner, r.state, r.epoch)).collect()
    }

    /// Splits the covering range as needed and moves `[lo, hi]` into
    /// `Copying` towards `dst`. Returns the new epoch.
    ///
    /// Rejects, typed, zero-width bounds, an unmapped or entry-straddling
    /// range, a range already migrating, or a `dst` that already owns it.
    pub fn try_begin_copy(&self, lo: u64, hi: u64, dst: NodeId) -> Result<u64, RangeMapError> {
        if lo > hi {
            return Err(RangeMapError::EmptyRange { lo, hi });
        }
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).ok_or(RangeMapError::NotMapped { key: lo })?;
        let r = ranges[i];
        if hi > r.hi {
            return Err(RangeMapError::SpansEntries { lo, hi });
        }
        if r.state != RangeState::Stable {
            return Err(RangeMapError::AlreadyMigrating { lo: r.lo });
        }
        if r.owner == dst {
            return Err(RangeMapError::DstIsOwner { dst });
        }
        let epoch = r.epoch + 1;
        let mid = RangeEntry {
            lo,
            hi,
            owner: r.owner,
            dst: Some(dst),
            epoch,
            state: RangeState::Copying,
        };
        let mut replacement = Vec::new();
        if r.lo < lo {
            replacement.push(RangeEntry { hi: lo - 1, ..r });
        }
        replacement.push(mid);
        if hi < r.hi {
            replacement.push(RangeEntry { lo: hi + 1, ..r });
        }
        ranges.splice(i..=i, replacement);
        Ok(epoch)
    }

    /// The `Stable` ranges currently owned by `node`, sorted by `lo`.
    /// Ranges mid-migration are excluded — resolve them (publish or
    /// [`RangeMap::abort_migration`]) before draining an owner.
    pub fn ranges_owned_by(&self, node: NodeId) -> Vec<(u64, u64)> {
        self.ranges
            .read()
            .iter()
            .filter(|r| r.owner == node && r.state == RangeState::Stable)
            .map(|r| (r.lo, r.hi))
            .collect()
    }

    /// The ranges mid-migration towards `dst`, sorted by `lo`.
    pub fn ranges_migrating_to(&self, dst: NodeId) -> Vec<(u64, u64)> {
        self.ranges.read().iter().filter(|r| r.dst == Some(dst)).map(|r| (r.lo, r.hi)).collect()
    }

    /// Force-reassigns the exact `Stable` entry `[lo, hi]` to
    /// `new_owner`, bumping its epoch. This is the journal-driven
    /// repair primitive: membership recovery moves rows physically
    /// first (evacuation), then flips routing here — never the other
    /// way around.
    pub fn reassign(&self, lo: u64, hi: u64, new_owner: NodeId) -> Result<u64, RangeMapError> {
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).ok_or(RangeMapError::NotMapped { key: lo })?;
        let r = &mut ranges[i];
        if r.lo != lo || r.hi != hi {
            return Err(RangeMapError::NotAnExactRange { lo, hi });
        }
        if r.state != RangeState::Stable {
            return Err(RangeMapError::AlreadyMigrating { lo: r.lo });
        }
        r.owner = new_owner;
        r.epoch += 1;
        Ok(r.epoch)
    }

    /// Donor selection for a membership join: the upper half of the
    /// largest `Stable` range owned by `donor`, or `None` if every
    /// range it owns is too small to split (fewer than 2 keys) or mid-
    /// migration. Taking the *upper* half keeps the donor's remainder a
    /// single contiguous entry.
    pub fn donation_from(&self, donor: NodeId) -> Option<(u64, u64)> {
        self.ranges_owned_by(donor)
            .into_iter()
            .filter(|(lo, hi)| hi > lo)
            .max_by_key(|(lo, hi)| hi - lo)
            .map(|(lo, hi)| (lo + (hi - lo) / 2 + 1, hi))
    }

    /// Freezes `[lo, hi]` for writes (Copying → Cutover). Returns the
    /// new epoch.
    pub fn begin_cutover(&self, lo: u64, hi: u64) -> u64 {
        self.transition(lo, hi, RangeState::Copying, |r| {
            r.state = RangeState::Cutover;
        })
    }

    /// Publishes `dst` as the owner of `[lo, hi]` (Cutover → Stable).
    /// Returns the new epoch.
    pub fn publish(&self, lo: u64, hi: u64) -> u64 {
        self.transition(lo, hi, RangeState::Cutover, |r| {
            r.owner = r.dst.take().expect("publishing a range with no destination");
            r.state = RangeState::Stable;
        })
    }

    /// Rolls `[lo, hi]` back to `Stable` on its original owner (crash
    /// recovery; valid from `Copying` or `Cutover`). Idempotent.
    pub fn abort_migration(&self, lo: u64, hi: u64) {
        let mut ranges = self.ranges.write();
        let Some(i) = Self::locate(&ranges, lo) else { return };
        let r = &mut ranges[i];
        if r.lo == lo && r.hi == hi && r.state != RangeState::Stable {
            r.state = RangeState::Stable;
            r.dst = None;
            r.epoch += 1;
        }
    }

    fn transition(
        &self,
        lo: u64,
        hi: u64,
        expect: RangeState,
        f: impl FnOnce(&mut RangeEntry),
    ) -> u64 {
        let mut ranges = self.ranges.write();
        let i = Self::locate(&ranges, lo).expect("range not mapped");
        let r = &mut ranges[i];
        assert!(r.lo == lo && r.hi == hi, "transition must name an exact range");
        assert_eq!(r.state, expect, "unexpected range state");
        f(r);
        r.epoch += 1;
        r.epoch
    }
}

drtm_htm::counter_set! {
    /// Live migration counters of one [`Resharder`].
    pub struct ReshardCounters;
    /// Counters of one [`Resharder`] (monotonic across migrations).
    pub struct ReshardStats {
        /// Completed migrations.
        migrations: u64,
        /// Keys moved (bulk copy + delta).
        keys_moved: u64,
        /// Bytes moved over the fabric by copy and delta passes.
        bytes_moved: u64,
        /// Cache entries dropped at cutover (sum over registered caches).
        cache_invalidations: u64,
    }
}

/// Report of one completed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Keys landed by the bulk-copy pass.
    pub copied: usize,
    /// Keys re-examined by the delta + purge pass (all surviving keys).
    pub purged: usize,
    /// Of those, keys whose version had moved since the bulk copy and
    /// were re-copied.
    pub recopied: usize,
    /// Fabric bytes moved by both passes.
    pub bytes: u64,
    /// The range's epoch after publish.
    pub epoch: u64,
}

/// Streams key ranges between machines; see the module docs for the
/// protocol. One instance can drive many migrations sequentially.
pub struct Resharder {
    cluster: Arc<Cluster>,
    map: Arc<RangeMap>,
    /// Per-node elastic shards (identical geometry), indexed by node id.
    /// Grows when a membership join provisions a new node's shard
    /// ([`Resharder::add_shard`]).
    shards: RwLock<Vec<Arc<ElasticHash>>>,
    /// Index of the elastic table in every host's store-service registry.
    table_idx: u16,
    /// Region offset of the migration journal (same on every node).
    journal_off: usize,
    /// State-word value that locks an entry for migration. The caller
    /// provides it (`LockState::write_locked(driver)` in core terms)
    /// so this crate stays free of the transaction layer.
    lock_word: u64,
    /// Key shipped through the source's store queue as the cutover
    /// barrier; must never be a data key.
    barrier_key: u64,
    /// Reply queue for shipped operations issued by the resharder.
    reply_q: QueueId,
    exec: Executor,
    caches: RwLock<Vec<Arc<AddrCache>>>,
    phase_hook: RwLock<Option<PhaseHook>>,
    stats: ReshardCounters,
}

impl std::fmt::Debug for Resharder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resharder")
            .field("shards", &self.shards.read().len())
            .field("table_idx", &self.table_idx)
            .finish()
    }
}

impl Resharder {
    /// Builds a resharder over one logical elastic table.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cluster: Arc<Cluster>,
        map: Arc<RangeMap>,
        shards: Vec<Arc<ElasticHash>>,
        table_idx: u16,
        journal_off: usize,
        lock_word: u64,
        barrier_key: u64,
        reply_q: QueueId,
        exec: Executor,
    ) -> Self {
        assert!(lock_word != 0, "lock word must be distinguishable from a free state");
        Resharder {
            cluster,
            map,
            shards: RwLock::new(shards),
            table_idx,
            journal_off,
            lock_word,
            barrier_key,
            reply_q,
            exec,
            caches: RwLock::new(Vec::new()),
            phase_hook: RwLock::new(None),
            stats: ReshardCounters::default(),
        }
    }

    /// Registers a location cache to invalidate at cutover.
    pub fn register_cache(&self, cache: Arc<AddrCache>) {
        self.caches.write().push(cache);
    }

    /// Registers the shard of a newly joined node. Must be called in
    /// node-id order (shard `n` belongs to node `n`), before any range
    /// is migrated towards the node.
    pub fn add_shard(&self, shard: Arc<ElasticHash>) {
        self.shards.write().push(shard);
    }

    /// The shard owned by `node`.
    ///
    /// # Panics
    ///
    /// Panics if no shard was registered for `node`.
    pub fn shard(&self, node: NodeId) -> Arc<ElasticHash> {
        self.shards.read()[node as usize].clone()
    }

    /// Installs a hook called at each [`MigratePhase`] boundary of every
    /// subsequent [`Resharder::migrate`]. The hook runs on the migrating
    /// thread, so whatever it does (inject writes, sample throughput) is
    /// deterministically ordered against the protocol phases.
    pub fn set_phase_hook(&self, hook: impl Fn(MigratePhase) + Send + Sync + 'static) {
        *self.phase_hook.write() = Some(Box::new(hook));
    }

    fn phase(&self, p: MigratePhase) {
        if let Some(h) = self.phase_hook.read().as_ref() {
            h(p);
        }
    }

    /// The range map this resharder transitions.
    pub fn map(&self) -> &Arc<RangeMap> {
        &self.map
    }

    /// Returns a copy of the migration counters.
    pub fn stats(&self) -> ReshardStats {
        self.stats.snapshot()
    }

    /// Migrates `[lo, hi]` from its current owner to `dst`, driven from
    /// `dst` (the destination pulls — its HTM inserts the copied rows).
    ///
    /// On a fabric error (including an armed crash of `dst` at one of
    /// the migration crash sites) the function returns immediately with
    /// *no cleanup* — exactly the garbage state recovery must collect;
    /// pair with [`Resharder::recover`].
    pub fn migrate(&self, lo: u64, hi: u64, dst: NodeId) -> Result<MigrationReport, FabricError> {
        assert!(self.barrier_key < lo || self.barrier_key > hi, "barrier key inside range");
        let src = self.map.owner_of(lo).expect("range not mapped");
        assert_ne!(src, dst);
        let faults = self.cluster.faults();
        let qp = self.cluster.qp(dst);
        let dst_region = self.cluster.node(dst).region();
        let dst_shard = self.shard(dst);
        let src_shard = self.shard(src);
        let journal = migration_journal(self.journal_off);

        // Phase 1: bulk copy. Source stays writable; epoch bumps so
        // routing can tell "resolved before the migration" apart.
        self.map.try_begin_copy(lo, hi, dst).expect("invalid migration range");
        let (bulk, mut bytes) = src_shard.try_remote_collect_range(&qp, lo, hi)?;
        let copied = bulk.len();
        // What the destination will hold after the bulk pass: the delta
        // pass compares the source against *this*, so inserts and
        // updates racing the copy window are re-copied.
        let on_dst: std::collections::HashMap<u64, u32> =
            bulk.iter().map(|e| (e.key, e.version)).collect();
        for e in &bulk {
            if faults.crash_hook(dst, MIGRATE_MID_COPY_SITE) {
                return Err(FabricError::PeerDead { node: dst });
            }
            dst_shard
                .upsert(&self.exec, dst_region, e.key, &e.value, e.version)
                .expect("destination shard out of space mid-migration");
        }
        self.phase(MigratePhase::Copied);
        if faults.crash_hook(dst, MIGRATE_BEFORE_CUTOVER_SITE) {
            return Err(FabricError::PeerDead { node: dst });
        }

        // Phase 2: freeze writes, then drain the source's FIFO store
        // queue so no shipped insert/delete is still in flight.
        self.map.begin_cutover(lo, hi);
        let r = ship_store_op(
            &self.cluster,
            dst,
            src,
            self.reply_q,
            &StoreOp::Delete { table: self.table_idx, key: self.barrier_key },
        );
        debug_assert_eq!(r, StoreReply::NotFound, "barrier key must not exist");
        self.phase(MigratePhase::CutoverDrained);

        // Phase 3: delta + purge, one journaled lock at a time.
        let (delta, delta_bytes) = src_shard.try_remote_collect_range(&qp, lo, hi)?;
        bytes += delta_bytes;
        let purged = delta.len();
        let mut recopied = 0usize;
        for e in &delta {
            let state_addr = GlobalAddr::new(src, e.entry_off);
            // Journal first: recovery only trusts a fully armed journal.
            journal.arm(dst_region, PURGE_LOCKED, [src as u64, e.entry_off as u64, self.lock_word]);
            // Lock the entry on the source: in-flight fallback writers
            // holding it commit on the old owner first; we wait them out.
            let mut backoff = drtm_htm::backoff::Backoff::new();
            while qp.try_cas_u64(state_addr, 0, self.lock_word)? != 0 {
                backoff.snooze();
            }
            // Re-read under the lock: a write may have landed since the
            // bulk copy (the source was writable through phase 1).
            let mut buf = vec![0u8; src_shard.desc().entry_read_bytes()];
            qp.try_read(state_addr, &mut buf)?;
            bytes += buf.len() as u64;
            let h = crate::EntryHeader::decode(&buf[..ENTRY_HEADER_BYTES]);
            if h.key != e.key {
                // The entry vanished (an in-flight writer's delete
                // committed between the delta walk and our lock) and the
                // cell may have been reused for another key: we locked
                // an unrelated entry. Release our lock and move on.
                let r = qp.try_cas_u64(state_addr, self.lock_word, 0)?;
                debug_assert_eq!(r, self.lock_word, "migration lock stolen");
                journal.clear(dst_region);
                continue;
            }
            if on_dst.get(&h.key).copied() != Some(h.version) {
                // The destination's copy is stale or missing: the key
                // was inserted or updated after the bulk collect.
                let len = (h.value_len as usize).min(src_shard.desc().value_cap);
                dst_shard
                    .upsert(
                        &self.exec,
                        dst_region,
                        h.key,
                        &buf[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + len],
                        h.version,
                    )
                    .expect("destination shard out of space mid-migration");
                recopied += 1;
            }
            // Purge from the source. The host-side delete runs in HTM,
            // clears the state word (releasing our lock) and bumps the
            // incarnation — stale cached locations now fail their check.
            let r = ship_store_op(
                &self.cluster,
                dst,
                src,
                self.reply_q,
                &StoreOp::Delete { table: self.table_idx, key: e.key },
            );
            debug_assert_eq!(r, StoreReply::Ok, "purged key vanished while locked");
            journal.clear(dst_region);
            // Invalidate cached locations *after* the source entry is
            // gone: a lookup between invalidation and re-resolution must
            // find either nothing on src (dual-read forwards to dst) or
            // the bumped incarnation.
            for cache in self.caches.read().iter() {
                self.stats
                    .cache_invalidations
                    .fetch_add(cache.invalidate_range(e.key, e.key), Ordering::Relaxed);
            }
            self.phase(MigratePhase::KeyPurged(e.key));
        }

        // Phase 4: publish. New resolutions route to dst; writers that
        // aborted Migrated during cutover retry against the new owner.
        let epoch = self.map.publish(lo, hi);
        self.stats.migrations.fetch_add(1, Ordering::Relaxed);
        self.stats.keys_moved.fetch_add(purged as u64, Ordering::Relaxed);
        self.stats.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
        Ok(MigrationReport { copied, purged, recopied, bytes, epoch })
    }

    /// Rolls back a migration of `[lo, hi]` towards `dst` that died
    /// mid-flight, driven from survivor `via`: releases the journaled
    /// source lock ([`release_migration_lock`] on `dst`'s journal),
    /// deletes partially copied rows straight from `dst`'s region — dead
    /// or alive, under the NVRAM model — and returns the range to
    /// `Stable` on the source. Idempotent. `DrTm::recover` runs it for
    /// every range migrating to a dead machine.
    ///
    /// Returns `(released_locks, dropped_rows)`.
    pub fn recover(
        &self,
        lo: u64,
        hi: u64,
        dst: NodeId,
        via: NodeId,
    ) -> Result<(u64, u64), FabricError> {
        let released = release_migration_lock(&self.cluster, self.journal_off, dst, via)?;
        let dst_region = self.cluster.node(dst).region();
        let dst_shard = self.shard(dst);
        let rows = dst_shard.collect_range_nt(dst_region, lo, hi);
        let dropped = rows.len() as u64;
        for row in rows {
            dst_shard.delete(&self.exec, dst_region, row.key);
        }
        self.map.abort_migration(lo, hi);
        Ok((released, dropped))
    }

    /// Survivor-driven evacuation of `[lo, hi]` from a *dead or
    /// retired* node's durable region into `to`'s shard: rows are read
    /// off `from`'s NVRAM directly (never through the fabric — `from`
    /// answers nothing), upserted into the receiver at their recorded
    /// versions, deleted from the corpse's shard so a repeated
    /// evacuation is idempotent, and every registered cache drops its
    /// locations for the range. The caller flips routing afterwards
    /// ([`RangeMap::reassign`]); until then readers still resolve to
    /// `from` and fail typed, exactly like any op against it.
    ///
    /// Returns the number of rows moved.
    pub fn evacuate_nt(&self, lo: u64, hi: u64, from: NodeId, to: NodeId) -> u64 {
        let from_shard = self.shard(from);
        let to_shard = self.shard(to);
        let from_region = self.cluster.node(from).region();
        let to_region = self.cluster.node(to).region();
        let rows = from_shard.collect_range_nt(from_region, lo, hi);
        let moved = rows.len() as u64;
        for row in rows {
            // A row can carry a lock word leaked by a transaction that
            // died with its owner; the WAL sweep of `DrTm::recover` must
            // run before evacuation, so by now every state word is 0.
            to_shard
                .upsert(&self.exec, to_region, row.key, &row.value, row.version)
                .expect("receiver shard out of space during evacuation");
            from_shard.delete(&self.exec, from_region, row.key);
        }
        for cache in self.caches.read().iter() {
            self.stats
                .cache_invalidations
                .fetch_add(cache.invalidate_range(lo, hi), Ordering::Relaxed);
        }
        self.stats.keys_moved.fetch_add(moved, Ordering::Relaxed);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Arena;
    use crate::rpc::spawn_store_service;
    use crate::split_ordered::ElasticHash;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::{ClusterConfig, LatencyProfile};

    const JOURNAL_OFF: usize = 0;
    const LOCK_WORD: u64 = 0x8000_0000_0000_0001;
    const BARRIER: u64 = u64::MAX;

    struct Rig {
        cluster: Arc<Cluster>,
        shards: Vec<Arc<ElasticHash>>,
        resharder: Resharder,
        exec: Executor,
        _services: Vec<crate::rpc::StoreServiceGuard>,
    }

    fn rig() -> Rig {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        let mut shards = Vec::new();
        let mut services = Vec::new();
        for n in 0..2u16 {
            let mut arena = Arena::new(0, 8 << 20);
            arena.reserve(MIGRATION_JOURNAL_BYTES); // journal at offset 0
            let t = Arc::new(ElasticHash::create(
                &mut arena,
                cluster.node(n).region(),
                n,
                4,
                64,
                2000,
                64,
            ));
            services.push(spawn_store_service(cluster.clone(), n, vec![t.clone()], exec.clone()));
            shards.push(t);
        }
        // Node 0 owns the low half, node 1 the high half.
        let map = Arc::new(RangeMap::try_new([(0, 499, 0), (500, 999, 1)]).unwrap());
        let resharder = Resharder::new(
            cluster.clone(),
            map,
            shards.clone(),
            0,
            JOURNAL_OFF,
            LOCK_WORD,
            BARRIER,
            0x5000,
            exec.clone(),
        );
        Rig { cluster, shards, resharder, exec, _services: services }
    }

    fn fill(rig: &Rig, node: NodeId, keys: std::ops::Range<u64>) {
        let region = rig.cluster.node(node).region();
        for k in keys {
            rig.shards[node as usize].insert(&rig.exec, region, k, &k.to_le_bytes()).unwrap();
        }
    }

    #[test]
    fn route_follows_state_transitions() {
        let map = RangeMap::try_new([(0, 99, 0), (100, 199, 1)]).unwrap();
        let d = map.route(50).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (0, None, true));
        assert!(map.route(200).is_none());

        map.try_begin_copy(0, 49, 1).unwrap();
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.writable), (0, true), "src writable during copy");
        // The split left [50,99] stable on node 0.
        assert_eq!(
            map.route(60).unwrap(),
            RouteDecision { primary: 0, forward: None, writable: true, epoch: 0 }
        );

        map.begin_cutover(0, 49);
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (0, Some(1), false));

        map.publish(0, 49);
        let d = map.route(10).unwrap();
        assert_eq!((d.primary, d.forward, d.writable), (1, None, true));
    }

    #[test]
    fn try_new_rejects_zero_width_and_overlapping_ranges() {
        assert_eq!(
            RangeMap::try_new([(10, 9, 0)]).err(),
            Some(RangeMapError::EmptyRange { lo: 10, hi: 9 })
        );
        assert_eq!(
            RangeMap::try_new([(0, 50, 0), (50, 99, 1)]).err(),
            Some(RangeMapError::Overlap { lo: 50 }),
            "inclusive bounds: sharing key 50 is an overlap"
        );
        assert_eq!(
            RangeMap::try_new([(40, 60, 1), (0, 99, 0)]).err(),
            Some(RangeMapError::Overlap { lo: 40 }),
            "containment is an overlap regardless of input order"
        );
        // A one-key range is valid (inclusive bounds).
        assert!(RangeMap::try_new([(5, 5, 0), (6, 9, 1)]).is_ok());
    }

    #[test]
    fn try_begin_copy_rejects_each_invalid_transition() {
        let map = RangeMap::try_new([(0, 99, 0), (200, 299, 1)]).unwrap();
        assert_eq!(
            map.try_begin_copy(30, 20, 1).err(),
            Some(RangeMapError::EmptyRange { lo: 30, hi: 20 })
        );
        assert_eq!(
            map.try_begin_copy(150, 160, 1).err(),
            Some(RangeMapError::NotMapped { key: 150 })
        );
        assert_eq!(
            map.try_begin_copy(50, 250, 1).err(),
            Some(RangeMapError::SpansEntries { lo: 50, hi: 250 })
        );
        assert_eq!(
            map.try_begin_copy(0, 99, 0).err(),
            Some(RangeMapError::DstIsOwner { dst: 0 }),
            "migrating to the current owner must be refused"
        );
        assert!(map.try_begin_copy(0, 49, 1).is_ok());
        assert_eq!(
            map.try_begin_copy(0, 49, 1).err(),
            Some(RangeMapError::AlreadyMigrating { lo: 0 })
        );
        // Routing is unharmed by all the rejections above.
        assert_eq!(map.owner_of(60), Some(0));
        assert_eq!(map.owner_of(250), Some(1));
    }

    #[test]
    fn reassign_flips_exact_stable_entries_only() {
        let map = RangeMap::try_new([(0, 99, 0), (100, 199, 1)]).unwrap();
        assert_eq!(
            map.reassign(0, 50, 2).err(),
            Some(RangeMapError::NotAnExactRange { lo: 0, hi: 50 })
        );
        assert_eq!(map.reassign(300, 310, 2).err(), Some(RangeMapError::NotMapped { key: 300 }));
        let e = map.reassign(0, 99, 2).unwrap();
        assert_eq!(map.owner_of(50), Some(2));
        assert_eq!(map.epoch_of(50), Some(e), "reassignment bumps the epoch");
        map.try_begin_copy(100, 199, 0).unwrap();
        assert_eq!(
            map.reassign(100, 199, 2).err(),
            Some(RangeMapError::AlreadyMigrating { lo: 100 }),
            "a range mid-migration cannot be force-reassigned"
        );
    }

    #[test]
    fn multi_range_ownership_and_donor_selection() {
        let map =
            RangeMap::try_new([(0, 99, 0), (100, 149, 1), (150, 199, 0), (200, 200, 2)]).unwrap();
        assert_eq!(map.ranges_owned_by(0), vec![(0, 99), (150, 199)]);
        // Donation: upper half of node 0's largest range.
        assert_eq!(map.donation_from(0), Some((50, 99)));
        // A one-key owner has nothing splittable to donate.
        assert_eq!(map.donation_from(2), None);
        // Migrations in flight are listed by destination.
        map.try_begin_copy(150, 199, 3).unwrap();
        assert_eq!(map.ranges_migrating_to(3), vec![(150, 199)]);
        assert!(map.ranges_migrating_to(0).is_empty());
    }

    #[test]
    fn evacuation_moves_rows_off_a_corpse_without_the_fabric() {
        let rig = rig();
        fill(&rig, 0, 0..30);
        rig.cluster.faults().kill(0);
        // Node 0 is dead: evacuation reads its NVRAM directly.
        let moved = rig.resharder.evacuate_nt(0, 19, 0, 1);
        assert_eq!(moved, 20);
        assert_eq!(rig.shards[0].len(), 10, "evacuated rows deleted from the corpse");
        assert_eq!(rig.shards[1].len(), 20);
        rig.resharder.map().reassign(0, 499, 1).unwrap();
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in 0..20u64 {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("evacuated key");
            assert_eq!(e.read_value(&mut txn).unwrap(), k.to_le_bytes());
        }
        drop(txn);
        // Idempotent: a replayed evacuation finds nothing left.
        assert_eq!(rig.resharder.evacuate_nt(0, 19, 0, 1), 0);
    }

    #[test]
    fn abort_migration_restores_the_source() {
        let map = RangeMap::try_new([(0, 99, 0)]).unwrap();
        map.try_begin_copy(20, 40, 1).unwrap();
        map.abort_migration(20, 40);
        let d = map.route(30).unwrap();
        assert_eq!((d.primary, d.writable), (0, true));
        // Idempotent.
        map.abort_migration(20, 40);
        assert_eq!(map.owner_of(30), Some(0));
    }

    #[test]
    fn migrate_moves_a_range_and_conserves_keys() {
        let rig = rig();
        fill(&rig, 0, 0..100);
        let report = rig.resharder.migrate(0, 49, 1).unwrap();
        assert_eq!(report.copied, 50);
        assert_eq!(report.purged, 50);
        assert!(report.bytes > 0);
        assert_eq!(rig.resharder.map().owner_of(10), Some(1));
        // Source kept the unmigrated half, destination holds the range.
        assert_eq!(rig.shards[0].len(), 50);
        assert_eq!(rig.shards[1].len(), 50);
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in 0..50u64 {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("migrated key");
            assert_eq!(e.read_value(&mut txn).unwrap(), k.to_le_bytes());
        }
        drop(txn);
        // No leaked migration locks on either shard.
        for n in 0..2u16 {
            let region = rig.cluster.node(n).region();
            for row in rig.shards[n as usize].collect_range_nt(region, 0, 999) {
                assert_eq!(
                    region.read_u64_nt(row.entry_off),
                    0,
                    "leaked lock on key {} node {n}",
                    row.key
                );
            }
        }
        let s = rig.resharder.stats();
        assert_eq!(s.migrations, 1);
        assert_eq!(s.keys_moved, 50);
    }

    #[test]
    fn writes_racing_the_copy_are_caught_by_the_delta_pass() {
        let rig = rig();
        fill(&rig, 0, 0..40);
        // Inject writes deterministically *after* the bulk copy landed
        // but while the range is still `Copying` (source writable): an
        // update of key 7 and a brand-new key 45. Neither is in the
        // destination's bulk image, so the delta pass must re-copy both
        // before the purge deletes them from the source.
        let cluster = rig.cluster.clone();
        let shard0 = rig.shards[0].clone();
        let exec = rig.exec.clone();
        rig.resharder.set_phase_hook(move |p| {
            if p == MigratePhase::Copied {
                let region = cluster.node(0).region();
                shard0.upsert(&exec, region, 7, &777u64.to_le_bytes(), 999).unwrap();
                shard0.upsert(&exec, region, 45, &4545u64.to_le_bytes(), 1).unwrap();
            }
        });
        let report = rig.resharder.migrate(0, 49, 1).unwrap();
        assert_eq!(report.copied, 40, "bulk pass ran before the racing writes");
        assert_eq!(report.recopied, 2, "the raced update and insert were re-copied");
        let region = rig.cluster.node(1).region();
        let mut txn = region.begin(rig.exec.config());
        for k in (0..40u64).chain([45]) {
            let e = rig.shards[1].get_local(&mut txn, k).unwrap().expect("key");
            let expect = if k == 7 {
                777u64
            } else if k == 45 {
                4545
            } else {
                k
            };
            assert_eq!(e.read_value(&mut txn).unwrap(), expect.to_le_bytes());
        }
        drop(txn);
        assert_eq!(rig.shards[0].len(), 0, "source fully purged, raced insert included");
    }

    #[test]
    fn cutover_invalidates_registered_caches() {
        let rig = rig();
        fill(&rig, 0, 0..20);
        let cache = Arc::new(AddrCache::new(64));
        // Warm the cache with locations on the source.
        let qp = rig.cluster.qp(1);
        for k in 0..20u64 {
            match rig.shards[0].try_remote_lookup(&qp, k).unwrap() {
                crate::cluster_hash::LookupResult::Found { addr, slot, .. } => {
                    cache.install(k, addr, slot)
                }
                other => panic!("{other:?}"),
            }
        }
        // Direct-mapped: colliding installs overwrite, so count what is
        // actually warm before the cutover.
        let warm = (0..20u64).filter(|k| cache.lookup(*k).is_some()).count() as u64;
        assert!(warm > 0);
        rig.resharder.register_cache(cache.clone());
        rig.resharder.migrate(0, 19, 1).unwrap();
        let s = cache.stats();
        assert_eq!(s.migration_invalidations, warm, "every warm key invalidated at cutover");
        for k in 0..20u64 {
            assert!(cache.lookup(k).is_none(), "stale location for {k} survived cutover");
        }
        assert_eq!(rig.resharder.stats().cache_invalidations, warm);
    }

    #[test]
    fn crash_mid_copy_recovers_to_stable_source() {
        let rig = rig();
        fill(&rig, 0, 0..40);
        rig.cluster.faults().arm_crash(1, MIGRATE_MID_COPY_SITE);
        let err = rig.resharder.migrate(0, 39, 1).unwrap_err();
        assert_eq!(err, FabricError::PeerDead { node: 1 });
        assert!(rig.cluster.faults().is_crashed(1));
        let (released, _dropped) = rig.resharder.recover(0, 39, 1, 0).unwrap();
        rig.cluster.faults().revive(1);
        assert_eq!(released, 0, "no lock taken before cutover");
        // All keys back on (never left) the source, none on dst, Stable.
        assert_eq!(rig.shards[0].len(), 40);
        assert_eq!(rig.shards[1].len(), 0);
        assert_eq!(rig.resharder.map().owner_of(5), Some(0));
        // A re-run completes.
        let report = rig.resharder.migrate(0, 39, 1).unwrap();
        assert_eq!(report.purged, 40);
        assert_eq!(rig.shards[1].len(), 40);
    }

    #[test]
    fn crash_before_cutover_recovers_and_rerun_succeeds() {
        let rig = rig();
        fill(&rig, 0, 0..30);
        rig.cluster.faults().arm_crash(1, MIGRATE_BEFORE_CUTOVER_SITE);
        assert!(rig.resharder.migrate(0, 29, 1).is_err());
        let (_released, dropped) = rig.resharder.recover(0, 29, 1, 0).unwrap();
        rig.cluster.faults().revive(1);
        assert_eq!(dropped, 30, "full bulk copy rolled back");
        assert_eq!(rig.shards[0].len(), 30);
        assert_eq!(rig.shards[1].len(), 0);
        let report = rig.resharder.migrate(0, 29, 1).unwrap();
        assert_eq!(report.copied, 30);
    }

    #[test]
    fn journal_roundtrip_releases_orphaned_lock() {
        let rig = rig();
        fill(&rig, 0, 0..5);
        // Fake a crash with the journal armed and the lock held.
        let region0 = rig.cluster.node(0).region();
        let rows = rig.shards[0].collect_range_nt(region0, 2, 2);
        let off = rows[0].entry_off;
        assert_eq!(region0.cas_u64_nt(off, 0, LOCK_WORD), 0);
        let region1 = rig.cluster.node(1).region();
        migration_journal(JOURNAL_OFF).arm(region1, PURGE_LOCKED, [0, off as u64, LOCK_WORD]);
        let (released, _) = rig.resharder.recover(0, 49, 1, 0).unwrap();
        assert_eq!(released, 1);
        assert_eq!(region0.read_u64_nt(off), 0, "lock released");
        // Second recovery finds a clean journal.
        assert_eq!(rig.resharder.recover(0, 49, 1, 0).unwrap().0, 0);
    }
}
