//! Elastic KV workload: transactions over the resizable, reshardable
//! memstore.
//!
//! Unlike the static workloads ([`crate::smallbank`], [`crate::tpcc`]),
//! a key's home here is decided by a live [`RangeMap`] instead of a
//! fixed modulus, and two things can change mid-run:
//!
//! * **resize** — any node's [`ElasticHash`] can double its bucket
//!   array ([`ElasticKv::grow`]) without blocking readers; lookups pay
//!   at most extra chain hops (measured in [`ElasticStats`]);
//! * **resharding** — a key range can migrate between machines
//!   ([`ElasticKv::migrate`]) while transactions keep running. During
//!   the cutover window the router reports `writable = false` and
//!   writers abort with the typed [`AbortCause::Migrated`] cause, to
//!   retry after publish; reads dual-read source-then-destination
//!   ([`ElasticKvWorker::read`]), counting forced misses in the
//!   client-side [`AddrCache`].
//!
//! The canonical transaction is a two-key `transfer` that conserves the
//! total value — the invariant the chaos harness checks across crashes
//! and migrations.

use std::sync::{Arc, Mutex, RwLock};

use drtm_core::{
    AbortCause, DrTm, DrTmConfig, JoinReport, LeaveReport, LockState, MembershipCoordinator,
    MembershipError, MembershipTable, NodeLayout, NodeState, RecordAddr, SoftTimer, TxnError,
    TxnSpec, Worker,
};
use drtm_htm::{Executor, HtmStats};
use drtm_memstore::rpc::{spawn_store_service, StoreServiceGuard};
use drtm_memstore::{
    AddrCache, Arena, ElasticHash, ElasticStats, LookupResult, MigrationReport, RangeMap,
    ReshardStats, Resharder,
};
use drtm_rdma::{
    Cluster, ClusterConfig, DoorbellConfig, FabricError, FaultConfig, GlobalAddr, LatencyProfile,
    NodeId,
};

use crate::{fields, pack_fields};

/// Initial value of every key.
pub const INIT_VALUE: u64 = 1_000_000;

/// Value capacity (one packed u64 field).
pub const VALUE_BYTES: usize = 8;

/// Reply queue used by the resharder's shipped purge deletes.
const RESHARD_REPLY_Q: drtm_rdma::QueueId = 0x6000;

/// Elastic KV sizing and behaviour.
#[derive(Debug, Clone)]
pub struct ElasticKvConfig {
    /// Simulated machines at startup.
    pub nodes: usize,
    /// Fabric capacity for machines joined later ([`ElasticKv::join_node`]);
    /// 0 = fixed geometry.
    pub max_nodes: usize,
    /// Worker threads per machine.
    pub workers: usize,
    /// Keys initially owned by each machine (`[n·per, (n+1)·per)`).
    pub keys_per_node: u64,
    /// Initial bucket count of every shard (small on purpose: inserts
    /// drive online doublings).
    pub init_buckets: usize,
    /// Bucket-directory capacity (upper bound of doubling).
    pub max_buckets: usize,
    /// Region bytes per machine.
    pub region_size: usize,
    /// Network cost model.
    pub profile: LatencyProfile,
    /// Fault-injection plan (the chaos harness arms crash sites on it).
    pub faults: FaultConfig,
    /// Doorbell batching of outbound one-sided ops.
    pub doorbell: DoorbellConfig,
    /// Transaction-layer configuration.
    pub drtm: DrTmConfig,
}

impl Default for ElasticKvConfig {
    fn default() -> Self {
        ElasticKvConfig {
            nodes: 2,
            max_nodes: 0,
            workers: 2,
            keys_per_node: 1_000,
            init_buckets: 16,
            max_buckets: 4_096,
            region_size: 32 << 20,
            profile: LatencyProfile::rdma(),
            faults: FaultConfig::default(),
            doorbell: DoorbellConfig::default(),
            drtm: DrTmConfig::default(),
        }
    }
}

/// Everything a worker needs besides its [`Worker`] handle.
struct Shared {
    /// Per-node shards, indexed by node id; grows under a join.
    shards: RwLock<Vec<Arc<ElasticHash>>>,
    map: Arc<RangeMap>,
    /// Per-client-machine address caches (registered with the resharder
    /// for cutover invalidation); grows under a join.
    caches: RwLock<Vec<Arc<AddrCache>>>,
    /// Lifecycle state of every machine; workers gate writes on it.
    membership: Arc<MembershipTable>,
}

impl Shared {
    fn shard(&self, node: NodeId) -> Arc<ElasticHash> {
        self.shards.read().expect("shard lock poisoned")[node as usize].clone()
    }

    fn cache(&self, node: NodeId) -> Arc<AddrCache> {
        self.caches.read().expect("cache lock poisoned")[node as usize].clone()
    }
}

/// A built elastic KV deployment.
pub struct ElasticKv {
    /// The transaction system.
    pub sys: Arc<DrTm>,
    shared: Arc<Shared>,
    resharder: Arc<Resharder>,
    coordinator: Arc<MembershipCoordinator>,
    /// The configuration it was built with.
    pub cfg: ElasticKvConfig,
    _services: Arc<Mutex<Vec<StoreServiceGuard>>>,
    _timer: SoftTimer,
}

impl ElasticKv {
    /// Builds the cluster, creates and populates every shard, starts
    /// the store services the resharder ships purges through.
    pub fn build(cfg: ElasticKvConfig) -> ElasticKv {
        let cluster = Cluster::new(ClusterConfig {
            nodes: cfg.nodes,
            max_nodes: cfg.max_nodes,
            region_size: cfg.region_size,
            profile: cfg.profile.clone(),
            faults: cfg.faults.clone(),
            doorbell: cfg.doorbell.clone(),
            ..Default::default()
        });
        let exec = Executor::new(cfg.drtm.htm.clone(), Arc::new(HtmStats::new()));
        let per = cfg.keys_per_node;
        // A shard must be able to absorb every other node's ranges.
        let capacity = (per as usize) * cfg.nodes + 64;
        let mut layouts = Vec::new();
        let mut shards = Vec::new();
        let mut services = Vec::new();
        for n in 0..cfg.nodes as NodeId {
            let mut arena = Arena::new(0, cfg.region_size);
            layouts.push(NodeLayout::reserve(&mut arena, cfg.workers));
            let region = cluster.node(n).region();
            let t = Arc::new(ElasticHash::create(
                &mut arena,
                region,
                n,
                cfg.init_buckets,
                cfg.max_buckets,
                capacity,
                VALUE_BYTES,
            ));
            for k in n as u64 * per..(n as u64 + 1) * per {
                t.insert(&exec, region, k, &pack_fields(&[INIT_VALUE])).expect("populate");
            }
            services.push(spawn_store_service(cluster.clone(), n, vec![t.clone()], exec.clone()));
            shards.push(t);
        }
        let journal_off = layouts[0].migration_journal_off;
        let map = Arc::new(
            RangeMap::try_new(
                (0..cfg.nodes as NodeId).map(|n| (n as u64 * per, (n as u64 + 1) * per - 1, n)),
            )
            .expect("invalid range map"),
        );
        let resharder = Arc::new(Resharder::new(
            cluster.clone(),
            map.clone(),
            shards.clone(),
            0,
            journal_off,
            LockState::write_locked(u8::MAX).0,
            u64::MAX,
            RESHARD_REPLY_Q,
            exec.clone(),
        ));
        let caches: Vec<Arc<AddrCache>> = (0..cfg.nodes)
            .map(|_| Arc::new(AddrCache::new((per as usize).next_power_of_two())))
            .collect();
        for c in &caches {
            resharder.register_cache(c.clone());
        }
        let timer = SoftTimer::start(cluster.clone(), std::time::Duration::from_micros(200));
        let sys = DrTm::new(cluster.clone(), cfg.drtm.clone(), layouts);
        let membership = Arc::new(MembershipTable::new(cfg.nodes));
        let shared = Arc::new(Shared {
            shards: RwLock::new(shards),
            map,
            caches: RwLock::new(caches),
            membership: membership.clone(),
        });
        let services = Arc::new(Mutex::new(services));
        // The provision callback a join runs on the new machine: carve
        // the standard layout plus an (empty) shard on its region, spin
        // its store service, register shard and cache with the
        // resharder, and hand the layout back to the coordinator.
        let provision = {
            let cluster = cluster.clone();
            let resharder = resharder.clone();
            let shared = shared.clone();
            let services = services.clone();
            let exec = exec.clone();
            let cfg = cfg.clone();
            move |node: NodeId| -> NodeLayout {
                let mut arena = Arena::new(0, cfg.region_size);
                let layout = NodeLayout::reserve(&mut arena, cfg.workers);
                let region = cluster.node(node).region();
                let shard = Arc::new(ElasticHash::create(
                    &mut arena,
                    region,
                    node,
                    cfg.init_buckets,
                    cfg.max_buckets,
                    (cfg.keys_per_node as usize) * cfg.nodes + 64,
                    VALUE_BYTES,
                ));
                services.lock().expect("service lock poisoned").push(spawn_store_service(
                    cluster.clone(),
                    node,
                    vec![shard.clone()],
                    exec.clone(),
                ));
                resharder.add_shard(shard.clone());
                shared.shards.write().expect("shard lock poisoned").push(shard);
                let cache =
                    Arc::new(AddrCache::new((cfg.keys_per_node as usize).next_power_of_two()));
                resharder.register_cache(cache.clone());
                shared.caches.write().expect("cache lock poisoned").push(cache);
                layout
            }
        };
        // Registers itself with `sys` as the elastic recovery step.
        let coordinator =
            MembershipCoordinator::new(sys.clone(), resharder.clone(), membership, provision);
        ElasticKv { sys, shared, resharder, coordinator, cfg, _services: services, _timer: timer }
    }

    /// Creates a per-thread workload driver for `(node, worker_id)`.
    pub fn worker(&self, node: NodeId, worker_id: usize) -> ElasticKvWorker {
        ElasticKvWorker { w: self.sys.worker(node, worker_id), shared: self.shared.clone() }
    }

    /// The live key-range → owner map.
    pub fn map(&self) -> &Arc<RangeMap> {
        &self.shared.map
    }

    /// The resharder (phase hooks, migration stats).
    pub fn resharder(&self) -> &Arc<Resharder> {
        &self.resharder
    }

    /// The shard owned by `node`.
    pub fn shard(&self, node: NodeId) -> Arc<ElasticHash> {
        self.shared.shard(node)
    }

    /// The address cache of client machine `node`.
    pub fn cache(&self, node: NodeId) -> Arc<AddrCache> {
        self.shared.cache(node)
    }

    /// The cluster membership table (lifecycle state per machine).
    pub fn membership(&self) -> &Arc<MembershipTable> {
        self.coordinator.table()
    }

    /// The membership coordinator (attach a failure detector, drive
    /// joins/leaves directly).
    pub fn coordinator(&self) -> &Arc<MembershipCoordinator> {
        &self.coordinator
    }

    /// Driver hook: admits a new machine to the live cluster — fabric
    /// slot, region, shard, services, one donation range from every
    /// active machine — and activates it.
    pub fn join_node(&self) -> Result<JoinReport, MembershipError> {
        self.coordinator.join()
    }

    /// Driver hook: gracefully retires `node`, draining every owned
    /// range to the remaining machines and quiescing its WAL (driven
    /// from `via`).
    pub fn leave_node(&self, node: NodeId, via: NodeId) -> Result<LeaveReport, MembershipError> {
        self.coordinator.leave(node, via)
    }

    /// Driver hook: doubles `node`'s bucket array once (readers never
    /// block). Returns whether the doubling happened.
    pub fn grow(&self, node: NodeId) -> bool {
        self.shard(node).grow(self.sys.cluster().node(node).region())
    }

    /// Driver hook: migrates `[lo, hi]` to `dst` while traffic runs.
    pub fn migrate(&self, lo: u64, hi: u64, dst: NodeId) -> Result<MigrationReport, FabricError> {
        self.resharder.migrate(lo, hi, dst)
    }

    /// Migration counters.
    pub fn reshard_stats(&self) -> ReshardStats {
        self.resharder.stats()
    }

    /// Sum of per-shard resize counters (grows, lookups, extra hops).
    pub fn elastic_stats(&self) -> ElasticStats {
        self.shared.shards.read().expect("shard lock poisoned").iter().map(|s| s.stats()).sum()
    }

    /// Sum of every key's value — the conservation invariant. Call on a
    /// quiesced deployment (no in-flight transactions or migrations).
    pub fn total_value(&self) -> u64 {
        let exec = self.sys.worker(0, 0).executor().clone();
        let mut total = 0u64;
        for key in 0..self.cfg.nodes as u64 * self.cfg.keys_per_node {
            let owner = self.shared.map.owner_of(key).expect("unmapped key");
            let region = self.sys.cluster().node(owner).region();
            let shard = self.shared.shard(owner);
            loop {
                let mut txn = region.begin(exec.config());
                if let Ok(Some(e)) = shard.get_local(&mut txn, key) {
                    if let Ok(v) = e.read_value(&mut txn) {
                        if txn.commit().is_ok() {
                            total = total.wrapping_add(fields(&v)[0]);
                            break;
                        }
                    }
                } else {
                    panic!("key {key} missing on its owner {owner}");
                }
            }
        }
        total
    }
}

/// Outcome of a single write attempt against a possibly-migrating key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The transaction committed.
    Committed,
    /// At least one key's range is frozen mid-cutover: the attempt was
    /// recorded as an [`AbortCause::Migrated`] abort. Retry after the
    /// map republishes.
    Frozen,
}

/// Per-thread elastic KV driver.
pub struct ElasticKvWorker {
    w: Worker,
    shared: Arc<Shared>,
}

impl ElasticKvWorker {
    /// The underlying DrTM worker.
    pub fn worker(&self) -> &Worker {
        &self.w
    }

    /// Mutable access to the underlying worker.
    pub fn worker_mut(&mut self) -> &mut Worker {
        &mut self.w
    }

    fn cache(&self) -> Arc<AddrCache> {
        self.shared.cache(self.w.node)
    }

    /// Reads the raw value bytes of `key` on `server` (no routing):
    /// local keys by validated HTM lookup, remote keys through this
    /// machine's address cache with incarnation re-verification — a
    /// stale cached location (key migrated away) fails the check, is
    /// invalidated, and falls through to a fresh one-sided lookup.
    fn value_on(&self, server: NodeId, key: u64) -> Result<Option<Vec<u8>>, TxnError> {
        let shard = self.shared.shard(server);
        if server == self.w.node {
            let region = self.w.region().clone();
            let mut backoff = drtm_htm::backoff::Backoff::new();
            loop {
                let mut txn = region.begin(self.w.executor().config());
                if let Ok(found) = shard.get_local(&mut txn, key) {
                    match found {
                        None => {
                            if txn.commit().is_ok() {
                                return Ok(None);
                            }
                        }
                        Some(e) => {
                            if let Ok(v) = e.read_value(&mut txn) {
                                if txn.commit().is_ok() {
                                    return Ok(Some(v));
                                }
                            }
                        }
                    }
                }
                backoff.snooze();
            }
        } else {
            let cache = self.cache();
            if let Some((addr, slot)) = cache.lookup(key) {
                if addr.node == server {
                    if let Some((_, v)) = shard.remote_read_entry(self.w.qp(), addr, &slot) {
                        return Ok(Some(v));
                    }
                }
                cache.invalidate(key);
            }
            match shard.try_remote_lookup(self.w.qp(), key).map_err(dead)? {
                LookupResult::Found { addr, slot, .. } => {
                    cache.install(key, addr, slot);
                    Ok(shard.remote_read_entry(self.w.qp(), addr, &slot).map(|(_, v)| v))
                }
                LookupResult::NotFound { .. } => Ok(None),
            }
        }
    }

    /// Reads `key` through the range map, dual-reading during a cutover
    /// window: a miss on the (still primary) source forwards to the
    /// destination and counts a forced miss.
    pub fn read(&self, key: u64) -> Result<Option<u64>, TxnError> {
        let d = self.shared.map.route(key).expect("unmapped key");
        if let Some(v) = self.value_on(d.primary, key)? {
            return Ok(Some(fields(&v)[0]));
        }
        if let Some(fwd) = d.forward {
            self.cache().note_forced_miss();
            if let Some(v) = self.value_on(fwd, key)? {
                return Ok(Some(fields(&v)[0]));
            }
        }
        Ok(None)
    }

    /// Resolves `key` to a record address on `server`.
    fn resolve(&self, server: NodeId, key: u64) -> Result<Option<RecordAddr>, TxnError> {
        if server == self.w.node {
            let region = self.w.region().clone();
            let shard = self.shared.shard(server);
            let mut backoff = drtm_htm::backoff::Backoff::new();
            loop {
                let mut txn = region.begin(self.w.executor().config());
                if let Ok(found) = shard.get_local(&mut txn, key) {
                    if txn.commit().is_ok() {
                        return Ok(found.map(|e| {
                            RecordAddr::new(GlobalAddr::new(server, e.offset), VALUE_BYTES)
                        }));
                    }
                }
                backoff.snooze();
            }
        } else {
            let shard = self.shared.shard(server);
            let cache = self.cache();
            if let Some((addr, slot)) = cache.lookup(key) {
                if addr.node == server
                    && shard.remote_read_entry(self.w.qp(), addr, &slot).is_some()
                {
                    return Ok(Some(RecordAddr::new(addr, VALUE_BYTES)));
                }
                cache.invalidate(key);
            }
            match shard.try_remote_lookup(self.w.qp(), key).map_err(dead)? {
                LookupResult::Found { addr, slot, .. } => {
                    cache.install(key, addr, slot);
                    Ok(Some(RecordAddr::new(addr, VALUE_BYTES)))
                }
                LookupResult::NotFound { .. } => Ok(None),
            }
        }
    }

    /// One attempt at moving `amount` from `a` to `b` (wrapping; the
    /// sum is conserved). A frozen route records a `Migrated` abort and
    /// returns [`WriteOutcome::Frozen`] without blocking, so drivers
    /// can keep pumping other traffic during a cutover and retry later.
    pub fn try_transfer(&mut self, a: u64, b: u64, amount: u64) -> Result<WriteOutcome, TxnError> {
        let da = self.shared.map.route(a).expect("unmapped key");
        let db = self.shared.map.route(b).expect("unmapped key");
        // Membership gate: a primary still `Joining` owns nothing
        // authoritatively (the routing raced an activation flip), and a
        // `Retired` primary means the resolution predates a drain —
        // both are typed, retriable routing aborts, never a wedge.
        for d in [&da, &db] {
            match self.shared.membership.state_of(d.primary) {
                Some(NodeState::Joining) => {
                    self.w.note_abort(AbortCause::RouteJoining { node: d.primary });
                    return Ok(WriteOutcome::Frozen);
                }
                Some(NodeState::Retired) => {
                    self.w.note_abort(AbortCause::RouteRetired { node: d.primary });
                    return Ok(WriteOutcome::Frozen);
                }
                // Active and Draining machines serve writes normally
                // (per-range freezes are the range map's business).
                _ => {}
            }
        }
        if !da.writable || !db.writable {
            self.w.note_abort(AbortCause::Migrated);
            return Ok(WriteOutcome::Frozen);
        }
        let ra = self.resolve(da.primary, a)?;
        let rb = self.resolve(db.primary, b)?;
        let (Some(ra), Some(rb)) = (ra, rb) else {
            // The key vanished from its primary between routing and
            // resolution: a cutover raced us. Same story as a frozen
            // route — typed abort, caller retries.
            self.w.note_abort(AbortCause::Migrated);
            return Ok(WriteOutcome::Frozen);
        };
        let mut spec = TxnSpec::default();
        let a_local = da.primary == self.w.node;
        let b_local = db.primary == self.w.node;
        if a_local {
            spec.local_writes.push(ra);
        } else {
            spec.remote_writes.push(ra);
        }
        if b_local {
            spec.local_writes.push(rb);
        } else {
            spec.remote_writes.push(rb);
        }
        let mut li = 0;
        let mut ri = 0;
        let (ai, a_is_local) =
            if a_local { (post_inc(&mut li), true) } else { (post_inc(&mut ri), false) };
        let (bi, b_is_local) =
            if b_local { (post_inc(&mut li), true) } else { (post_inc(&mut ri), false) };
        let r = self.w.execute(&spec, |ctx| {
            let va = if a_is_local {
                fields(&ctx.local_write_cur(ai)?)[0]
            } else {
                fields(ctx.remote_write_cur(ai))[0]
            };
            let vb = if b_is_local {
                fields(&ctx.local_write_cur(bi)?)[0]
            } else {
                fields(ctx.remote_write_cur(bi))[0]
            };
            let na = pack_fields(&[va.wrapping_sub(amount)]);
            let nb = pack_fields(&[vb.wrapping_add(amount)]);
            if a_is_local {
                ctx.local_write(ai, &na)?;
            } else {
                ctx.remote_write(ai, na);
            }
            if b_is_local {
                ctx.local_write(bi, &nb)?;
            } else {
                ctx.remote_write(bi, nb);
            }
            Ok(())
        });
        match r {
            Ok(_) | Err(TxnError::UserAborted) => Ok(WriteOutcome::Committed),
            Err(e) => Err(e),
        }
    }

    /// [`ElasticKvWorker::try_transfer`] that retries frozen routes
    /// until the cutover publishes (for use when another thread drives
    /// the migration).
    pub fn transfer(&mut self, a: u64, b: u64, amount: u64) -> Result<(), TxnError> {
        loop {
            match self.try_transfer(a, b, amount)? {
                WriteOutcome::Committed => return Ok(()),
                WriteOutcome::Frozen => std::thread::yield_now(),
            }
        }
    }
}

fn post_inc(i: &mut usize) -> usize {
    let v = *i;
    *i += 1;
    v
}

fn dead(e: FabricError) -> TxnError {
    match e {
        FabricError::PeerDead { node } | FabricError::Timeout { node } => TxnError::PeerDead(node),
        FabricError::NodeRetired { node } => TxnError::Retired(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_memstore::MigratePhase;

    fn tiny() -> ElasticKvConfig {
        ElasticKvConfig {
            nodes: 2,
            workers: 2,
            keys_per_node: 200,
            init_buckets: 4,
            max_buckets: 1024,
            region_size: 16 << 20,
            profile: LatencyProfile::zero(),
            drtm: DrTmConfig::default(),
            ..ElasticKvConfig::default()
        }
    }

    #[test]
    fn population_and_initial_invariant() {
        let kv = ElasticKv::build(tiny());
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
        let w = kv.worker(0, 0);
        assert_eq!(w.read(7).unwrap(), Some(INIT_VALUE));
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE), "remote read");
        assert_eq!(w.read(207).unwrap(), Some(INIT_VALUE), "cached remote read");
        assert!(kv.cache(0).stats().hits > 0, "second remote read was cached");
    }

    #[test]
    fn transfers_conserve_total_value() {
        let kv = ElasticKv::build(tiny());
        std::thread::scope(|s| {
            for n in 0..2 {
                for wid in 0..2 {
                    let mut w = kv.worker(n, wid);
                    s.spawn(move || {
                        for i in 0..100u64 {
                            let a = (n as u64 * 17 + i * 7) % 400;
                            let mut b = (a + 1 + i) % 400;
                            if b == a {
                                b = (b + 1) % 400;
                            }
                            w.transfer(a, b, 3).unwrap();
                        }
                    });
                }
            }
        });
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
        assert!(kv.sys.stats().snapshot().committed > 0);
    }

    #[test]
    fn online_grow_keeps_lookups_correct() {
        let kv = ElasticKv::build(tiny());
        let w = kv.worker(1, 0);
        let before = kv.shard(0).buckets();
        assert!(kv.grow(0));
        assert!(kv.grow(0));
        assert_eq!(kv.shard(0).buckets(), before * 4);
        for k in (0..200).step_by(17) {
            assert_eq!(w.read(k).unwrap(), Some(INIT_VALUE), "key {k} after doubling");
        }
        assert!(kv.elastic_stats().grows >= 2);
    }

    #[test]
    fn migration_mid_traffic_conserves_and_aborts_typed() {
        let kv = ElasticKv::build(tiny());
        // Seed some cross-node transfers so values are not uniform.
        let mut w = kv.worker(0, 0);
        for i in 0..40u64 {
            w.transfer(i, 399 - i, 5).unwrap();
        }
        let total = kv.total_value();

        // Drive traffic from inside the migration's phase hook — fully
        // deterministic interleaving with the protocol phases.
        let hook_kv_worker = std::sync::Mutex::new(kv.worker(1, 1));
        let frozen = std::sync::atomic::AtomicU64::new(0);
        let reads_forwarded = std::sync::atomic::AtomicU64::new(0);
        kv.resharder().set_phase_hook(move |p| {
            let mut w = hook_kv_worker.lock().unwrap();
            match p {
                MigratePhase::Copied => {
                    // Source still writable: these transfers land on the
                    // source and must be caught by the delta pass.
                    for i in 0..10u64 {
                        assert_eq!(w.try_transfer(i, 399 - i, 1).unwrap(), WriteOutcome::Committed);
                    }
                }
                MigratePhase::CutoverDrained => {
                    // Frozen: writers abort Migrated, reads still served.
                    assert_eq!(w.try_transfer(3, 250, 1).unwrap(), WriteOutcome::Frozen);
                    frozen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    assert!(w.read(3).unwrap().is_some());
                }
                MigratePhase::KeyPurged(k) => {
                    // The key is gone from the source: dual-read must
                    // forward to the destination.
                    assert!(w.read(k).unwrap().is_some(), "purged key {k} unreadable");
                    reads_forwarded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
        let report = kv.migrate(0, 99, 1).unwrap();
        assert!(report.copied >= 100);
        assert!(report.recopied >= 10, "raced transfers re-copied by the delta pass");
        assert_eq!(kv.map().owner_of(50), Some(1));
        assert_eq!(kv.total_value(), total, "conservation across migration");
        // Post-publish: writes to the moved range commit at the new owner.
        let mut w0 = kv.worker(0, 0);
        assert_eq!(w0.try_transfer(50, 350, 2).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), total);
        // Typed Migrated aborts were recorded, and forced misses counted.
        assert!(kv.sys.trace().causes().get(AbortCause::Migrated) >= 1);
        let cs = kv.cache(1).stats();
        assert!(cs.forced_misses > 0, "dual-read window exercised");
        assert!(cs.migration_invalidations > 0, "cutover invalidated client cache");
        // No leaked migration locks on either shard.
        for n in 0..2u16 {
            let region = kv.sys.cluster().node(n).region();
            for row in kv.shard(n).collect_range_nt(region, 0, 399) {
                assert_eq!(region.read_u64_nt(row.entry_off), 0, "leaked lock on {}", row.key);
            }
        }
    }

    #[test]
    fn join_then_leave_round_trip_serves_from_every_geometry() {
        let kv = ElasticKv::build(ElasticKvConfig { max_nodes: 3, ..tiny() });
        let total = 2 * 200 * INIT_VALUE;

        // Join: each founding machine donates the upper half of its
        // range to the newcomer, which then serves as a full member.
        let join = kv.join_node().expect("join");
        assert_eq!(join.node, 2);
        assert_eq!(join.ranges_in, vec![(100, 199, 0), (300, 399, 1)]);
        assert_eq!(join.keys_moved, 200);
        assert_eq!(kv.membership().state_of(2), Some(NodeState::Active));
        assert_eq!(kv.map().owner_of(150), Some(2));
        assert_eq!(kv.map().owner_of(350), Some(2));
        assert_eq!(kv.total_value(), total, "conservation across the join");

        // Transfers into the donated ranges commit on the new owner, and
        // reads resolve there.
        let mut w = kv.worker(0, 0);
        assert_eq!(w.try_transfer(150, 10, 7).unwrap(), WriteOutcome::Committed);
        assert_eq!(w.read(150).unwrap(), Some(INIT_VALUE - 7));
        assert_eq!(kv.total_value(), total);

        // Leave: the ranges drain back round-robin (ascending receiver
        // ids) and the machine retires with a clean quiesce.
        let leave = kv.leave_node(2, 0).expect("leave");
        assert_eq!(leave.ranges_out, vec![(100, 199, 0), (300, 399, 1)]);
        assert_eq!(leave.keys_moved, 200);
        assert_eq!(leave.quiesce, drtm_core::RecoveryReport::default());
        assert_eq!(kv.membership().state_of(2), Some(NodeState::Retired));
        assert!(kv.map().ranges_owned_by(2).is_empty());
        assert_eq!(kv.map().owner_of(150), Some(0));
        assert_eq!(kv.map().owner_of(350), Some(1));
        assert_eq!(kv.total_value(), total, "conservation across the leave");

        // The survivors serve the whole keyspace again.
        assert_eq!(w.try_transfer(150, 350, 3).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), total);

        // Retirement is typed at the fabric and terminal at the table.
        assert!(kv.sys.cluster().faults().is_retired(2));
        assert_eq!(
            kv.leave_node(2, 0).unwrap_err(),
            MembershipError::WrongState { node: 2, state: Some(NodeState::Retired) }
        );
    }

    #[test]
    fn membership_gate_records_typed_routing_aborts() {
        let kv = ElasticKv::build(tiny());
        let mut w = kv.worker(0, 0);

        // A primary still Joining owns nothing authoritatively: the
        // write aborts typed and retriable, never wedges.
        kv.membership().set(1, NodeState::Joining);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Frozen);
        assert_eq!(kv.sys.trace().causes().get(AbortCause::RouteJoining { node: 1 }), 1);

        // A Retired primary means the resolution predates a drain.
        kv.membership().set(1, NodeState::Retired);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Frozen);
        assert_eq!(kv.sys.trace().causes().get(AbortCause::RouteRetired { node: 1 }), 1);

        // Draining machines keep serving; Active obviously too.
        kv.membership().set(1, NodeState::Draining);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Committed);
        kv.membership().set(1, NodeState::Active);
        assert_eq!(w.try_transfer(5, 205, 1).unwrap(), WriteOutcome::Committed);
        assert_eq!(kv.total_value(), 2 * 200 * INIT_VALUE);
    }
}
