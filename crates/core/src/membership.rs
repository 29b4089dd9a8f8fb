//! Cluster membership: journaled node join/leave with failure-driven
//! rollback.
//!
//! The paper's cluster is fixed at startup; this module adds the
//! operational layer around the elastic memstore so machines can enter
//! and exit a *live* cluster:
//!
//! * A [`MembershipTable`] publishes every machine's lifecycle state
//!   ([`NodeState`]) with a bumping epoch, the same way the range map
//!   publishes ownership: workloads consult it before routing a write
//!   and abort typed ([`crate::AbortCause::RouteJoining`] /
//!   [`crate::AbortCause::RouteRetired`]) instead of wedging on a
//!   machine that owns nothing yet or nothing any more.
//! * A [`MembershipCoordinator`] executes **join** (provision a region,
//!   verbs and services on the live fabric, stream one donation range
//!   from each active machine through the resharder, flip `Active`) and
//!   **leave** (mark `Draining`, stream every owned range out, quiesce
//!   the write-ahead log, then `Retired` — after which fabric ops
//!   against the machine fail with the *typed*
//!   [`drtm_rdma::FabricError::NodeRetired`], never `PeerDead`).
//!
//! **Journal-before-effect.** Every phase transition is persisted to a
//! per-machine membership journal — on the *subject's own* NVRAM region,
//! reachable after its death under the flush-on-failure model exactly
//! like the transaction logs (§4.6) — *before* the transition takes
//! effect. The journal header carries the operation kind; each donation
//! or drain range is recorded (fields first, count-bump last) before its
//! migration starts and marked done after it publishes. Recovery is
//! therefore driven entirely by surviving journal state:
//!
//! * **death mid-join** → roll *back*: the joiner never activated, so
//!   the cluster returns to its pre-join geometry. The in-flight range
//!   is collected by [`Resharder::recover`] like any migration towards
//!   a dead machine (drop the partial copy, release the migration
//!   lock), completed donations are evacuated off the corpse back to
//!   their recorded donors, and the corpse retires. No orphaned ranges,
//!   no leaked locks, donors writable again.
//! * **death mid-leave** → roll *forward*: the departure was already
//!   promised, so the drain finishes from the journal. The in-flight
//!   range restarts as an NVRAM evacuation to its recorded receiver,
//!   ranges the journal never reached are evacuated to the active
//!   machines round-robin, and the corpse retires.
//!
//! Both paths are the elastic step of [`DrTm::recover`], which runs the
//! ordinary WAL sweep *first*, so locks leaked by transactions that died
//! with the subject are released before any row moves — the
//! precondition [`Resharder::evacuate_nt`] documents.

use std::sync::{Arc, Mutex, RwLock};

use drtm_memstore::{Journal, Resharder};
use drtm_rdma::{FabricError, NodeId};

use crate::alloc_layout::NodeLayout;
use crate::failure::FailureDetector;
use crate::recovery::{sweep_logs, RecoveryReport};
use crate::txn::DrTm;

/// Crash site fired at the bottom of each join donation (the joiner dies
/// with some donations landed and the next one about to start mid-copy).
pub const JOIN_MID_STREAM_SITE: &str = "join-mid-stream";

/// Crash site fired after every donation landed, before the journal
/// records activation (the join never happened).
pub const JOIN_BEFORE_ACTIVATE_SITE: &str = "join-before-activate";

/// Crash site fired at the bottom of each drain hand-off (the leaver
/// dies with some ranges handed off and the next one mid-copy).
pub const LEAVE_MID_DRAIN_SITE: &str = "leave-mid-drain";

/// Size of the per-machine membership journal: a 64-byte header plus
/// 32 bytes per journaled range.
pub const MEMBERSHIP_JOURNAL_BYTES: usize = MembershipJournal::bytes(MAX_JOURNAL_RANGES);

/// Most ranges one join or leave can journal.
pub const MAX_JOURNAL_RANGES: usize = 30;

/// The membership journal on the subject's own region: tagged with the
/// op, field `[subject]`, one record `[lo, hi, peer]` per range.
type MembershipJournal = Journal<1, 3>;

/// Journal tags.
const OP_JOIN: u64 = 1;
const OP_LEAVE: u64 = 2;

/// Lifecycle state of one machine, published by the [`MembershipTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Provisioned on the fabric, receiving donations; owns no ranges
    /// authoritatively yet. Writes routed here abort typed.
    Joining,
    /// Full member: owns ranges, serves transactions.
    Active,
    /// Graceful exit in progress: still serving its remaining ranges
    /// while they stream out.
    Draining,
    /// Left the cluster (gracefully or by post-crash rollback). Sticky:
    /// node ids are never reused.
    Retired,
}

/// The cluster-wide membership table: per-machine [`NodeState`] plus a
/// monotonically bumping epoch, published like the range map so every
/// worker reads a consistent view without coordination.
#[derive(Debug)]
pub struct MembershipTable {
    states: RwLock<Vec<NodeState>>,
    epoch: std::sync::atomic::AtomicU64,
}

impl MembershipTable {
    /// A table with `nodes` founding machines, all `Active`.
    pub fn new(nodes: usize) -> Self {
        MembershipTable {
            states: RwLock::new(vec![NodeState::Active; nodes]),
            epoch: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The state of `node`; `None` if the machine was never provisioned.
    pub fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.states.read().expect("membership lock poisoned").get(node as usize).copied()
    }

    /// Current table epoch (bumped by every transition).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Every machine's state, indexed by node id.
    pub fn snapshot(&self) -> Vec<NodeState> {
        self.states.read().expect("membership lock poisoned").clone()
    }

    /// Node ids currently `Active`, ascending.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.states
            .read()
            .expect("membership lock poisoned")
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeState::Active)
            .map(|(n, _)| n as NodeId)
            .collect()
    }

    /// Publishes a transition and returns the new epoch. `node` may be
    /// exactly one past the end (a freshly provisioned machine).
    pub fn set(&self, node: NodeId, state: NodeState) -> u64 {
        let mut states = self.states.write().expect("membership lock poisoned");
        let i = node as usize;
        match i.cmp(&states.len()) {
            std::cmp::Ordering::Less => states[i] = state,
            std::cmp::Ordering::Equal => states.push(state),
            std::cmp::Ordering::Greater => panic!("node {node} skipped a membership slot"),
        }
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1
    }
}

/// Typed failures of the membership protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The fabric has no free node slot (`ClusterConfig::max_nodes`).
    ClusterFull,
    /// The journal cannot describe the operation (too many ranges).
    JournalFull,
    /// The subject is not in the state the operation requires.
    WrongState {
        /// The machine in question.
        node: NodeId,
        /// Its actual state (`None` = never provisioned).
        state: Option<NodeState>,
    },
    /// A leave would empty the cluster.
    LastActiveNode,
    /// The subject machine died mid-protocol; the journal survives and
    /// [`DrTm::recover`] repairs the cluster.
    SubjectDied {
        /// The dead machine.
        node: NodeId,
        /// The fabric error that revealed the death.
        error: FabricError,
    },
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::ClusterFull => write!(f, "no free node slot on the fabric"),
            MembershipError::JournalFull => {
                write!(f, "operation needs more than {MAX_JOURNAL_RANGES} journal records")
            }
            MembershipError::WrongState { node, state } => {
                write!(f, "node {node} is in state {state:?}")
            }
            MembershipError::LastActiveNode => write!(f, "cannot drain the last active node"),
            MembershipError::SubjectDied { node, error } => {
                write!(f, "node {node} died mid-protocol: {error}")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// What a completed join did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinReport {
    /// The joined machine.
    pub node: NodeId,
    /// Donations streamed in: `(lo, hi, donor)` per range.
    pub ranges_in: Vec<(u64, u64, NodeId)>,
    /// Keys moved by the donation streams.
    pub keys_moved: u64,
    /// Membership epoch after activation.
    pub epoch: u64,
}

/// What a completed leave did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaveReport {
    /// The departed machine.
    pub node: NodeId,
    /// Ranges handed off: `(lo, hi, receiver)` per range.
    pub ranges_out: Vec<(u64, u64, NodeId)>,
    /// Keys moved by the drain streams.
    pub keys_moved: u64,
    /// The WAL quiesce sweep run between the drain and retirement
    /// (expected empty on a clean leave).
    pub quiesce: RecoveryReport,
    /// Membership epoch after retirement.
    pub epoch: u64,
}

/// Which direction a membership recovery repaired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDirection {
    /// Death mid-join: the cluster returned to its pre-join geometry.
    RolledBack,
    /// Death mid-leave: the drain finished from the journal.
    RolledForward,
}

/// Executes joins and leaves against a live cluster and repairs them
/// when the failure detector reports the subject dead mid-protocol.
///
/// The coordinator composes the pieces the repo already has: the fabric
/// grows via [`drtm_rdma::Cluster::add_node`], rows stream via
/// [`Resharder::migrate`], crashes are collected via
/// [`Resharder::recover`] + [`Resharder::evacuate_nt`], and
/// [`DrTm::recover`] runs its repair after the WAL sweep. The workload
/// supplies a `provision` callback that carves the new machine's region
/// (layout, shard, services) because table geometry is workload-owned.
pub struct MembershipCoordinator {
    sys: Arc<DrTm>,
    resharder: Arc<Resharder>,
    table: Arc<MembershipTable>,
    detector: Mutex<Option<Arc<FailureDetector>>>,
    provision: Box<dyn Fn(NodeId) -> NodeLayout + Send + Sync>,
    /// Serialises joins/leaves/recoveries: membership ops are rare and
    /// whole-cluster, so one at a time is the correctness-preserving
    /// (and paper-faithful: Zookeeper serialises membership) choice.
    op: Mutex<()>,
}

impl std::fmt::Debug for MembershipCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipCoordinator").field("table", &self.table).finish()
    }
}

impl MembershipCoordinator {
    /// Builds a coordinator. `provision` is called with the new node id
    /// during a join; it must reserve the standard [`NodeLayout`] on the
    /// new region, create the workload's shard there and register it
    /// with the resharder (plus any services), then return the layout.
    /// The coordinator registers itself as `sys`'s elastic recovery step.
    pub fn new(
        sys: Arc<DrTm>,
        resharder: Arc<Resharder>,
        table: Arc<MembershipTable>,
        provision: impl Fn(NodeId) -> NodeLayout + Send + Sync + 'static,
    ) -> Arc<Self> {
        let coordinator = Arc::new(MembershipCoordinator {
            sys,
            resharder,
            table,
            detector: Mutex::new(None),
            provision: Box::new(provision),
            op: Mutex::new(()),
        });
        *coordinator.sys.coordinator.write().expect("coordinator lock poisoned") =
            Arc::downgrade(&coordinator);
        coordinator
    }

    /// Attaches a failure detector: joins arm its heartbeat slot, leaves
    /// and rollbacks retire the subject there too.
    pub fn set_detector(&self, fd: Arc<FailureDetector>) {
        *self.detector.lock().expect("detector lock poisoned") = Some(fd);
    }

    /// The membership table this coordinator publishes through.
    pub fn table(&self) -> &Arc<MembershipTable> {
        &self.table
    }

    /// `node`'s membership journal and the region it lives on.
    fn journal(&self, node: NodeId) -> (MembershipJournal, &drtm_htm::Region) {
        let off = self.sys.layout(node).membership_journal_off;
        (MembershipJournal::at(off, MAX_JOURNAL_RANGES), self.sys.cluster().node(node).region())
    }

    fn retire_everywhere(&self, node: NodeId) -> u64 {
        self.sys.cluster().faults().retire(node);
        if let Some(fd) = self.detector.lock().expect("detector lock poisoned").as_ref() {
            fd.retire(node);
        }
        self.table.set(node, NodeState::Retired)
    }

    // ---- join ----

    /// Admits a new machine: provisions its slot on the live fabric,
    /// streams one donation range from every active machine, then flips
    /// it `Active`. On [`MembershipError::SubjectDied`] the garbage
    /// state is left exactly as the crash produced it — [`DrTm::recover`]
    /// on the corpse rolls it back.
    pub fn join(&self) -> Result<JoinReport, MembershipError> {
        let _g = self.op.lock().expect("membership op lock poisoned");
        let node = self.sys.cluster().add_node().ok_or(MembershipError::ClusterFull)?;
        // Provision before any state is published: region layout, shard,
        // services — and a softtime value so leases work immediately.
        let layout = (self.provision)(node);
        self.sys.add_node_layout(node, layout);
        crate::time::SoftTimer::tick_now(self.sys.cluster());
        if let Some(fd) = self.detector.lock().expect("detector lock poisoned").as_ref() {
            let slot = fd.add_node();
            assert!(
                slot.is_none_or(|s| s == node),
                "failure detector and fabric disagree on node ids"
            );
        }
        let donors = self.table.active_nodes();
        if donors.len() > MAX_JOURNAL_RANGES {
            return Err(MembershipError::JournalFull);
        }
        // Journal the intent, then publish Joining: from here on a crash
        // of the subject is a journaled membership death.
        let (journal, region) = self.journal(node);
        journal.arm(region, OP_JOIN, [node as u64]);
        self.table.set(node, NodeState::Joining);

        let faults = self.sys.cluster().faults();
        let mut ranges_in = Vec::new();
        let mut keys_moved = 0;
        for donor in donors {
            let Some((lo, hi)) = self.resharder.map().donation_from(donor) else {
                continue; // donor too small to split
            };
            let idx = journal.append(region, [lo, hi, donor as u64]);
            match self.resharder.migrate(lo, hi, node) {
                Ok(report) => keys_moved += report.purged as u64,
                Err(error) => return Err(MembershipError::SubjectDied { node, error }),
            }
            journal.mark_done(region, idx);
            ranges_in.push((lo, hi, donor));
            // Chaos hook: the joiner dies here with this donation landed
            // and the next one about to be left mid-copy.
            faults.crash_hook(node, JOIN_MID_STREAM_SITE);
        }
        faults.crash_hook(node, JOIN_BEFORE_ACTIVATE_SITE);
        if faults.is_crashed(node) {
            return Err(MembershipError::SubjectDied {
                node,
                error: FabricError::PeerDead { node },
            });
        }
        // Activation: clear the journal *then* publish Active — a crash
        // between the two leaves an idle journal and an armed fault
        // plan, which recovery treats as a plain (non-membership) death
        // of a machine that owns its donated ranges.
        journal.clear(region);
        let epoch = self.table.set(node, NodeState::Active);
        Ok(JoinReport { node, ranges_in, keys_moved, epoch })
    }

    // ---- leave ----

    /// Gracefully retires `node`: marks it `Draining`, streams every
    /// owned range to the remaining active machines (round-robin by
    /// ascending node id), quiesces its write-ahead log, then flips it
    /// `Retired` and closes its fabric port for good. Workers must have
    /// drained their own pending write-backs first (the quiesce sweep
    /// releases anything that slipped through and reports it).
    pub fn leave(&self, node: NodeId, via: NodeId) -> Result<LeaveReport, MembershipError> {
        let _g = self.op.lock().expect("membership op lock poisoned");
        if self.table.state_of(node) != Some(NodeState::Active) {
            return Err(MembershipError::WrongState { node, state: self.table.state_of(node) });
        }
        let receivers: Vec<NodeId> =
            self.table.active_nodes().into_iter().filter(|&n| n != node).collect();
        if receivers.is_empty() {
            return Err(MembershipError::LastActiveNode);
        }
        let ranges = self.resharder.map().ranges_owned_by(node);
        if ranges.len() > MAX_JOURNAL_RANGES {
            return Err(MembershipError::JournalFull);
        }
        let (journal, region) = self.journal(node);
        journal.arm(region, OP_LEAVE, [node as u64]);
        self.table.set(node, NodeState::Draining);

        let faults = self.sys.cluster().faults();
        let mut ranges_out = Vec::new();
        let mut keys_moved = 0;
        for (i, (lo, hi)) in ranges.into_iter().enumerate() {
            let receiver = receivers[i % receivers.len()];
            let idx = journal.append(region, [lo, hi, receiver as u64]);
            match self.resharder.migrate(lo, hi, receiver) {
                Ok(report) => keys_moved += report.purged as u64,
                Err(error) => return Err(MembershipError::SubjectDied { node, error }),
            }
            journal.mark_done(region, idx);
            ranges_out.push((lo, hi, receiver));
            // Chaos hook: the leaver dies here with this range handed
            // off and the next one about to be left mid-copy.
            faults.crash_hook(node, LEAVE_MID_DRAIN_SITE);
        }
        if faults.is_crashed(node) {
            return Err(MembershipError::SubjectDied {
                node,
                error: FabricError::PeerDead { node },
            });
        }
        // Quiesce: sweep the subject's log slots so no lock or redo
        // obligation survives retirement. On a clean leave this finds
        // nothing; anything it reports was leaked by a worker. The WAL
        // sweep only: the full entry would wait on the op lock held here.
        let quiesce = sweep_logs(self.sys.cluster(), node, &self.sys.layout(node), via)
            .map_err(|error| MembershipError::SubjectDied { node, error })?;
        journal.clear(region);
        let epoch = self.retire_everywhere(node);
        Ok(LeaveReport { node, ranges_out, keys_moved, quiesce, epoch })
    }

    // ---- failure-driven recovery ----

    /// The elastic step of [`DrTm::recover`] for the dead `crashed`,
    /// driven from `via` after the WAL sweep. Rolls back every migration
    /// towards the corpse, then dispatches on its membership journal: an
    /// armed join rolls back to the pre-join geometry, an armed leave
    /// rolls the drain forward, an idle journal (a plain death) stops.
    ///
    /// Deterministic and idempotent: driven only by NVRAM journal state,
    /// the range map and the (deterministic) membership table, so
    /// replaying the same seeded crash yields an identical report.
    pub(crate) fn recover(
        &self,
        crashed: NodeId,
        via: NodeId,
        report: &mut RecoveryReport,
    ) -> Result<(), FabricError> {
        let _g = self.op.lock().expect("membership op lock poisoned");
        // Drop partial copies and release the migration lock of every
        // range the corpse was pulling (a join's in-flight donation).
        for (lo, hi) in self.resharder.map().ranges_migrating_to(crashed) {
            self.roll_back(lo, hi, crashed, via, report)?;
        }
        let (journal, region) = self.journal(crashed);
        let Some(entry) = journal.read(region) else { return Ok(()) };
        let direction = match entry.tag {
            OP_JOIN => {
                // Roll back: walk completed donations back to their
                // donors — rows off the corpse's NVRAM, routing last.
                for &([lo, hi, donor], done) in &entry.records {
                    if done {
                        self.evacuate(lo, hi, crashed, donor as NodeId, report);
                    }
                }
                RecoveryDirection::RolledBack
            }
            OP_LEAVE => {
                // Roll forward. Completed hand-offs already published;
                // the in-flight one restarts as an evacuation to its
                // journaled receiver.
                for &([lo, hi, receiver], done) in &entry.records {
                    if !done {
                        self.roll_back(lo, hi, receiver as NodeId, via, report)?;
                        self.evacuate(lo, hi, crashed, receiver as NodeId, report);
                    }
                }
                // Ranges the journal never reached drain round-robin to
                // the active machines (ascending ids: deterministic).
                let receivers: Vec<NodeId> =
                    self.table.active_nodes().into_iter().filter(|&n| n != crashed).collect();
                let remaining = self.resharder.map().ranges_owned_by(crashed);
                for (i, (lo, hi)) in remaining.into_iter().enumerate() {
                    self.evacuate(lo, hi, crashed, receivers[i % receivers.len()], report);
                }
                RecoveryDirection::RolledForward
            }
            other => panic!("corrupt membership journal op {other} on node {crashed}"),
        };
        journal.clear(region);
        report.membership = Some((direction, self.retire_everywhere(crashed)));
        Ok(())
    }

    /// Rolls back the migration of `[lo, hi]` towards `dst`.
    fn roll_back(
        &self,
        lo: u64,
        hi: u64,
        dst: NodeId,
        via: NodeId,
        report: &mut RecoveryReport,
    ) -> Result<(), FabricError> {
        let (released, dropped) = self.resharder.recover(lo, hi, dst, via)?;
        report.released_locks += released;
        report.dropped_rows += dropped;
        Ok(())
    }

    /// Moves `[lo, hi]` off the corpse `from` to `to`, then flips routing.
    fn evacuate(&self, lo: u64, hi: u64, from: NodeId, to: NodeId, report: &mut RecoveryReport) {
        report.evacuated_keys += self.resharder.evacuate_nt(lo, hi, from, to);
        self.resharder.map().reassign(lo, hi, to).expect("journaled range vanished from the map");
        report.ranges.push((lo, hi, to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_publishes_states_with_bumping_epochs() {
        let t = MembershipTable::new(2);
        assert_eq!(t.state_of(0), Some(NodeState::Active));
        assert_eq!(t.state_of(1), Some(NodeState::Active));
        assert_eq!(t.state_of(2), None);
        assert_eq!(t.active_nodes(), vec![0, 1]);
        let e0 = t.epoch();
        let e1 = t.set(2, NodeState::Joining); // grows by one slot
        assert!(e1 > e0);
        assert_eq!(t.state_of(2), Some(NodeState::Joining));
        assert_eq!(t.active_nodes(), vec![0, 1]);
        let e2 = t.set(2, NodeState::Active);
        assert!(e2 > e1);
        assert_eq!(t.active_nodes(), vec![0, 1, 2]);
        t.set(0, NodeState::Draining);
        t.set(0, NodeState::Retired);
        assert_eq!(t.active_nodes(), vec![1, 2]);
        assert_eq!(t.snapshot(), vec![NodeState::Retired, NodeState::Active, NodeState::Active]);
    }

    #[test]
    #[should_panic(expected = "skipped a membership slot")]
    fn table_rejects_slot_gaps() {
        let t = MembershipTable::new(1);
        t.set(5, NodeState::Joining);
    }

    #[test]
    fn journal_constants_are_consistent() {
        assert_eq!(
            MEMBERSHIP_JOURNAL_BYTES,
            drtm_memstore::JOURNAL_HEADER_BYTES + MAX_JOURNAL_RANGES * 32
        );
        assert_eq!(MEMBERSHIP_JOURNAL_BYTES % 64, 0, "journal is cache-line granular");
    }
}
