//! Elastic hash table on a recursively split-ordered list (Shalev &
//! Shavit), the online-resizable successor to [`crate::ClusterHash`].
//!
//! All entries live on **one** linked list sorted by *split-order key*:
//! the bit-reversed hash. Buckets are nothing but lazy shortcut pointers
//! (sentinel nodes) into that list, published through a flat *segment
//! directory* of region offsets. Doubling the table is a single atomic
//! publish of the new bucket count — no rehash, no copy, no blocking:
//!
//! * a bucket that has not been split yet simply has a zero directory
//!   word, and a reader falls back to the bucket's *parent* (clear the
//!   highest set bit of the index), whose sentinel provably precedes
//!   every key of the child bucket in split order — the fallback costs
//!   at most a few extra chain hops, which this module counts so the
//!   perf ledger can gate on them;
//! * sentinels are inserted lazily by the first INSERT that needs the
//!   bucket, inside the same HTM transaction as the insert itself.
//!
//! Region layout (carved from the owner's [`Arena`]):
//!
//! ```text
//! meta      8 words   [0] = published bucket count (remote readers RDMA-READ this)
//! dir       max_buckets words   dir[i] = sentinel offset of bucket i, 0 = not yet split
//! nodes     pool of fixed cells: next(8) sokey(8) entry(header+value)
//! ```
//!
//! The directory is reserved at its maximum size up front — the memory
//! must be RDMA-registered before clients can READ it, so reserving the
//! worst case at table-create time is exactly what a real deployment
//! does; growth only flips the published count.
//!
//! Local operations run inside HTM transactions (same race-freedom
//! argument as [`crate::ClusterHash`], §5.1); remote lookups walk the
//! chain with one-sided READs of 16-byte node headers and verify the
//! entry's key and incarnation, so a stale (smaller) size hint or a
//! concurrently-split bucket is always *correct*, merely slower.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use drtm_htm::{Abort, Executor, HtmTxn, Region};
use drtm_rdma::{FabricError, GlobalAddr, NodeId, Qp};

use crate::alloc::{Arena, FreeList};
use crate::cluster_hash::{InsertError, LookupResult};
use crate::entry::{Entry, EntryHeader, ENTRY_HEADER_BYTES};
use crate::hash64;
use crate::slot::Slot;

/// Bytes of a list node's header (`next` pointer + split-order key); the
/// entry follows immediately.
pub const NODE_HEADER_BYTES: usize = 16;

/// Null link. Offset 0 is always inside the meta words, never a node.
const NIL: u64 = 0;

/// Split-order key of a data node: bit-reversed hash with the lowest bit
/// forced to 1 (the MSB is sacrificed before reversal, so data keys are
/// odd and sentinels even — the classic split-ordered encoding).
#[inline]
pub fn so_data_key(key: u64) -> u64 {
    (hash64(key) | 1 << 63).reverse_bits()
}

/// Split-order key of bucket `b`'s sentinel (bit-reversed index, even).
#[inline]
pub fn so_sentinel_key(bucket: usize) -> u64 {
    (bucket as u64).reverse_bits()
}

/// Parent of bucket `b` in the recursive split: clear the highest set
/// bit. The parent's sentinel precedes every key of `b` in split order.
#[inline]
pub fn so_parent(bucket: usize) -> usize {
    debug_assert!(bucket > 0, "bucket 0 has no parent");
    bucket & !(1usize << (usize::BITS as usize - 1 - bucket.leading_zeros() as usize))
}

/// Geometry of an [`ElasticHash`] inside its owner's region.
///
/// As with [`crate::ClusterHashDesc`], every machine constructs the same
/// descriptor so clients compute remote addresses with no metadata
/// traffic; only the *published bucket count* is dynamic, and that is a
/// region word clients RDMA-READ.
#[derive(Debug, Clone)]
pub struct ElasticHashDesc {
    /// Owning machine.
    pub node: NodeId,
    /// Region offset of the meta words (word 0 = published bucket count).
    pub meta_base: usize,
    /// Region offset of the segment directory.
    pub dir_base: usize,
    /// Bucket count at creation (power of two).
    pub init_buckets: usize,
    /// Directory capacity — the table can double until here (power of two).
    pub max_buckets: usize,
    /// Region offset of the node pool.
    pub node_base: usize,
    /// Number of node cells (entries + sentinels).
    pub node_capacity: usize,
    /// Fixed value capacity in bytes.
    pub value_cap: usize,
}

impl ElasticHashDesc {
    /// Region offset of the published-bucket-count word.
    pub fn size_off(&self) -> usize {
        self.meta_base
    }

    /// Region offset of bucket `b`'s directory word.
    pub fn dir_off(&self, b: usize) -> usize {
        self.dir_base + b * 8
    }

    /// Footprint of one node cell (header + entry).
    pub fn node_footprint(&self) -> usize {
        NODE_HEADER_BYTES + Entry::footprint(self.value_cap)
    }

    /// Bytes fetched by one remote entry READ (header + value capacity).
    pub fn entry_read_bytes(&self) -> usize {
        ENTRY_HEADER_BYTES + self.value_cap
    }
}

drtm_htm::counter_set! {
    /// Live resize/lookup counters of one [`ElasticHash`].
    pub struct ElasticCounters;
    /// Resize/lookup counters of one [`ElasticHash`] (see
    /// [`ElasticHash::stats`]).
    pub struct ElasticStats {
        /// Completed doublings of the bucket array.
        grows: u64,
        /// Remote lookups served.
        lookups: u64,
        /// Parent-bucket fallback hops taken by remote lookups (the resize
        /// cost the perf ledger gates on).
        extra_hops: u64,
    }
}

impl ElasticStats {
    /// Extra chain hops per remote lookup (0 when idle).
    pub fn extra_hops_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.extra_hops as f64 / self.lookups as f64
        }
    }
}

/// How full a bucket may get (entries per published bucket) before an
/// insert triggers a doubling.
const GROW_LOAD_FACTOR: u64 = 4;

/// Restarts a remote walk tolerates before giving up on a torn chain.
const WALK_RESTARTS: usize = 8;

/// The split-ordered, online-resizable hash table.
#[derive(Debug)]
pub struct ElasticHash {
    desc: ElasticHashDesc,
    /// One pool serves data nodes and sentinels alike.
    pool: FreeList,
    /// Host-side mirror of the published bucket count (local readers
    /// avoid a region read; remote readers RDMA-READ the meta word).
    size_hint: AtomicU64,
    /// Live data entries (sentinels excluded).
    count: AtomicU64,
    /// Serialises doublings; never taken by readers.
    grow_lock: Mutex<()>,
    stats: ElasticCounters,
}

impl ElasticHash {
    /// Carves a table for `node` out of `arena` and initialises bucket
    /// 0's sentinel in `region`.
    ///
    /// `init_buckets`/`max_buckets` are rounded up to powers of two; the
    /// node pool holds `entry_capacity` data nodes plus one sentinel per
    /// possible bucket.
    pub fn create(
        arena: &mut Arena,
        region: &Region,
        node: NodeId,
        init_buckets: usize,
        max_buckets: usize,
        entry_capacity: usize,
        value_cap: usize,
    ) -> Self {
        let init_buckets = init_buckets.next_power_of_two();
        let max_buckets = max_buckets.next_power_of_two().max(init_buckets);
        let meta_base = arena.reserve(64);
        let dir_base = arena.reserve(max_buckets * 8);
        let node_capacity = entry_capacity + max_buckets;
        let cell = NODE_HEADER_BYTES + Entry::footprint(value_cap);
        let node_base = arena.reserve(cell * node_capacity);
        let desc = ElasticHashDesc {
            node,
            meta_base,
            dir_base,
            init_buckets,
            max_buckets,
            node_base,
            node_capacity,
            value_cap,
        };
        let pool = FreeList::new(node_base, cell, node_capacity);
        // Bucket 0 is the root of the recursive split: always present, so
        // every parent-fallback walk terminates.
        let s0 = pool.alloc().expect("fresh pool");
        region.write_u64_nt(s0, NIL);
        region.write_u64_nt(s0 + 8, so_sentinel_key(0));
        region.write_u64_nt(desc.dir_off(0), s0 as u64);
        region.write_u64_nt(desc.size_off(), init_buckets as u64);
        ElasticHash {
            desc,
            pool,
            size_hint: AtomicU64::new(init_buckets as u64),
            count: AtomicU64::new(0),
            grow_lock: Mutex::new(()),
            stats: ElasticCounters::default(),
        }
    }

    /// The table geometry.
    pub fn desc(&self) -> &ElasticHashDesc {
        &self.desc
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed) as usize
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Currently published bucket count.
    pub fn buckets(&self) -> usize {
        self.size_hint.load(Ordering::Relaxed) as usize
    }

    /// Live node cells (entries + sentinels) — for leak accounting.
    pub fn pool_live(&self) -> usize {
        self.pool.live()
    }

    /// Returns a copy of the resize/lookup counters.
    pub fn stats(&self) -> ElasticStats {
        self.stats.snapshot()
    }

    /// Doubles the published bucket count. Returns `false` when the
    /// directory is already at capacity.
    ///
    /// The publish is a single CAS on the meta word; readers racing it
    /// use either count correctly (a smaller count routes to an ancestor
    /// bucket whose chain contains the key — the split-order invariant).
    pub fn grow(&self, region: &Region) -> bool {
        let _g = self.grow_lock.lock();
        let cur = self.size_hint.load(Ordering::Relaxed);
        if cur as usize * 2 > self.desc.max_buckets {
            return false;
        }
        let prev = region.cas_u64_nt(self.desc.size_off(), cur, cur * 2);
        debug_assert_eq!(prev, cur, "size word is only written under grow_lock");
        self.size_hint.store(cur * 2, Ordering::Release);
        self.stats.grows.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn maybe_grow(&self, region: &Region) {
        loop {
            let size = self.size_hint.load(Ordering::Relaxed);
            if size as usize * 2 > self.desc.max_buckets
                || self.count.load(Ordering::Relaxed) <= size * GROW_LOAD_FACTOR
                || !self.grow(region)
            {
                return;
            }
        }
    }

    /// Resolves `bucket` to an initialised sentinel without creating
    /// anything: read paths fall back to the nearest split ancestor.
    fn find_bucket_ro(&self, txn: &mut HtmTxn<'_>, mut bucket: usize) -> Result<usize, Abort> {
        loop {
            let off = txn.read_u64(self.desc.dir_off(bucket))?;
            if off != NIL {
                return Ok(off as usize);
            }
            bucket = so_parent(bucket);
        }
    }

    /// Resolves `bucket`, lazily inserting the sentinels of every
    /// uninitialised ancestor inside `txn`. Freshly allocated cells are
    /// pushed to `fresh` so the caller can return them if the commit
    /// fails (allocator state is not transactional).
    fn ensure_bucket(
        &self,
        txn: &mut HtmTxn<'_>,
        bucket: usize,
        fresh: &mut Vec<usize>,
    ) -> Result<usize, AttemptError> {
        let off = txn.read_u64(self.desc.dir_off(bucket))?;
        if off != NIL {
            return Ok(off as usize);
        }
        let mut path = vec![bucket];
        let mut b = bucket;
        let mut anchor;
        loop {
            b = so_parent(b);
            anchor = txn.read_u64(self.desc.dir_off(b))?;
            if anchor != NIL {
                break;
            }
            path.push(b);
        }
        let mut sent = anchor as usize;
        for &child in path.iter().rev() {
            sent = self.init_sentinel(txn, child, sent, fresh)?;
        }
        Ok(sent)
    }

    /// Links bucket `child`'s sentinel into the chain starting at its
    /// parent's sentinel and publishes it in the directory.
    fn init_sentinel(
        &self,
        txn: &mut HtmTxn<'_>,
        child: usize,
        parent_sent: usize,
        fresh: &mut Vec<usize>,
    ) -> Result<usize, AttemptError> {
        let target = so_sentinel_key(child);
        let mut prev = parent_sent;
        loop {
            let next = txn.read_u64(prev)?;
            if next == NIL || txn.read_u64(next as usize + 8)? > target {
                break;
            }
            prev = next as usize;
        }
        let cell = self.pool.alloc().ok_or(AttemptError::PoolFull)?;
        fresh.push(cell);
        let succ = txn.read_u64(prev)?;
        txn.write_u64(cell, succ)?;
        txn.write_u64(cell + 8, target)?;
        txn.write_u64(prev, cell as u64)?;
        txn.write_u64(self.desc.dir_off(child), cell as u64)?;
        Ok(cell)
    }

    /// Transactionally looks up `key`, returning the entry handle.
    ///
    /// Never initialises buckets: an unsplit bucket is served through its
    /// ancestor's sentinel (at most a few extra hops), so readers never
    /// block on — or write during — a resize.
    pub fn get_local(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<Entry>, Abort> {
        let size = self.size_hint.load(Ordering::Relaxed) as usize;
        let bucket = (hash64(key) as usize) & (size - 1);
        let sent = self.find_bucket_ro(txn, bucket)?;
        let target = so_data_key(key);
        let mut cur = txn.read_u64(sent)?;
        while cur != NIL {
            let sokey = txn.read_u64(cur as usize + 8)?;
            if sokey > target {
                break;
            }
            if sokey == target {
                // One sacrificed hash bit ⇒ distinct keys may share a
                // split-order key; verify the stored key.
                let entry = Entry::at(cur as usize + NODE_HEADER_BYTES);
                if txn.read_u64(entry.key_off())? == key {
                    return Ok(Some(entry));
                }
            }
            cur = txn.read_u64(cur as usize)?;
        }
        Ok(None)
    }

    /// Inserts `key → value` as a self-contained HTM transaction (same
    /// contract as [`crate::ClusterHash::insert`]: INSERT executes on the
    /// host, remote machines ship it via SEND/RECV).
    pub fn insert(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
    ) -> Result<(), InsertError> {
        self.insert_impl(exec, region, key, value, None)
    }

    /// Migration-stream upsert: inserts `key → value` with an explicit
    /// entry version, or overwrites value and version if the key exists.
    /// The resharder uses this to replay source entries (and delta
    /// re-copies) into the destination shard idempotently.
    pub fn upsert(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
        version: u32,
    ) -> Result<(), InsertError> {
        self.insert_impl(exec, region, key, value, Some(version))
    }

    fn insert_impl(
        &self,
        exec: &Executor,
        region: &Region,
        key: u64,
        value: &[u8],
        upsert_version: Option<u32>,
    ) -> Result<(), InsertError> {
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        let Some(cell) = self.pool.alloc() else {
            return Err(InsertError::Full);
        };
        let mut backoff = drtm_htm::backoff::Backoff::new();
        loop {
            let mut txn = region.begin(exec.config());
            let mut fresh = Vec::new();
            match self.try_insert(&mut txn, key, value, cell, upsert_version, &mut fresh) {
                Ok(TryInsert::Inserted) => match txn.commit() {
                    Ok(()) => {
                        exec.stats().record_commit();
                        self.count.fetch_add(1, Ordering::Relaxed);
                        self.maybe_grow(region);
                        return Ok(());
                    }
                    Err(a) => {
                        exec.stats().record_abort(a);
                        self.free_fresh(&mut fresh);
                    }
                },
                Ok(TryInsert::Existing) => match txn.commit() {
                    Ok(()) => {
                        exec.stats().record_commit();
                        self.pool.free(cell);
                        return match upsert_version {
                            Some(_) => Ok(()),
                            None => Err(InsertError::Duplicate),
                        };
                    }
                    Err(a) => {
                        exec.stats().record_abort(a);
                        self.free_fresh(&mut fresh);
                    }
                },
                Err(AttemptError::Abort(a)) => {
                    exec.stats().record_abort(a);
                    assert!(
                        a != Abort::Capacity,
                        "insert working set exceeds HTM capacity; raise write_capacity_lines"
                    );
                    self.free_fresh(&mut fresh);
                }
                Err(AttemptError::PoolFull) => {
                    drop(txn);
                    self.free_fresh(&mut fresh);
                    self.pool.free(cell);
                    return Err(InsertError::Full);
                }
            }
            backoff.snooze();
        }
    }

    fn free_fresh(&self, fresh: &mut Vec<usize>) {
        for c in fresh.drain(..) {
            self.pool.free(c);
        }
    }

    fn try_insert(
        &self,
        txn: &mut HtmTxn<'_>,
        key: u64,
        value: &[u8],
        cell: usize,
        upsert_version: Option<u32>,
        fresh: &mut Vec<usize>,
    ) -> Result<TryInsert, AttemptError> {
        let size = self.size_hint.load(Ordering::Relaxed) as usize;
        let bucket = (hash64(key) as usize) & (size - 1);
        let sent = self.ensure_bucket(txn, bucket, fresh)?;
        let target = so_data_key(key);
        let mut prev = sent;
        loop {
            let next = txn.read_u64(prev)?;
            if next == NIL {
                break;
            }
            let sokey = txn.read_u64(next as usize + 8)?;
            if sokey > target {
                break;
            }
            if sokey == target {
                let entry = Entry::at(next as usize + NODE_HEADER_BYTES);
                if txn.read_u64(entry.key_off())? == key {
                    if let Some(v) = upsert_version {
                        let mut h = entry.read_header(txn)?;
                        h.version = v;
                        h.value_len = value.len() as u32;
                        entry.write_header(txn, &h)?;
                        txn.write(entry.value_off(), value)?;
                    }
                    return Ok(TryInsert::Existing);
                }
            }
            prev = next as usize;
        }
        // Write the node, then link it — the incarnation survives cell
        // reuse so stale cached locations fail their check (§5.3).
        let succ = txn.read_u64(prev)?;
        let entry = Entry::at(cell + NODE_HEADER_BYTES);
        let old = entry.read_header(txn)?;
        entry.write_header(
            txn,
            &EntryHeader {
                state: 0,
                incarnation: old.incarnation.wrapping_add(1),
                version: upsert_version.unwrap_or(0),
                key,
                value_len: value.len() as u32,
            },
        )?;
        txn.write(entry.value_off(), value)?;
        txn.write_u64(cell, succ)?;
        txn.write_u64(cell + 8, target)?;
        txn.write_u64(prev, cell as u64)?;
        Ok(TryInsert::Inserted)
    }

    /// Deletes `key` as a self-contained HTM transaction. Returns whether
    /// the key was present.
    ///
    /// The entry's incarnation is bumped and its state word cleared
    /// inside the transaction — clearing the state releases any lock the
    /// caller holds on the entry, which is exactly what the resharder's
    /// purge pass relies on (delete-under-migration-lock leaks nothing).
    pub fn delete(&self, exec: &Executor, region: &Region, key: u64) -> bool {
        let mut backoff = drtm_htm::backoff::Backoff::new();
        loop {
            let mut txn = region.begin(exec.config());
            match self.try_delete(&mut txn, key) {
                Ok(None) => {
                    exec.stats().record_commit();
                    return false;
                }
                Ok(Some(cell)) => {
                    if txn.commit().is_ok() {
                        exec.stats().record_commit();
                        self.pool.free(cell);
                        self.count.fetch_sub(1, Ordering::Relaxed);
                        return true;
                    }
                    exec.stats().record_abort(Abort::Conflict);
                }
                Err(a) => exec.stats().record_abort(a),
            }
            backoff.snooze();
        }
    }

    fn try_delete(&self, txn: &mut HtmTxn<'_>, key: u64) -> Result<Option<usize>, Abort> {
        let size = self.size_hint.load(Ordering::Relaxed) as usize;
        let bucket = (hash64(key) as usize) & (size - 1);
        let sent = self.find_bucket_ro(txn, bucket)?;
        let target = so_data_key(key);
        let mut prev = sent;
        loop {
            let next = txn.read_u64(prev)?;
            if next == NIL {
                return Ok(None);
            }
            let sokey = txn.read_u64(next as usize + 8)?;
            if sokey > target {
                return Ok(None);
            }
            if sokey == target {
                let entry = Entry::at(next as usize + NODE_HEADER_BYTES);
                if txn.read_u64(entry.key_off())? == key {
                    let mut h = entry.read_header(txn)?;
                    h.incarnation = h.incarnation.wrapping_add(1);
                    h.state = 0;
                    entry.write_header(txn, &h)?;
                    let succ = txn.read_u64(next as usize)?;
                    txn.write_u64(prev, succ)?;
                    return Ok(Some(next as usize));
                }
            }
            prev = next as usize;
        }
    }

    /// Remote lookup of `key` by one-sided READs of the size word, the
    /// directory and 16-byte node headers; a crashed table machine is
    /// reported typed.
    ///
    /// A resize in progress is invisible except in cost: an unsplit
    /// bucket falls back to its parent (counted in
    /// [`ElasticStats::extra_hops`]); a size hint published between the
    /// size READ and the walk only makes the chosen bucket an ancestor
    /// of the real one, which still contains the key. A walk torn by a
    /// concurrent unlink (split-order keys going backwards) restarts.
    pub fn try_remote_lookup(&self, qp: &Qp, key: u64) -> Result<LookupResult, FabricError> {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let node = self.desc.node;
        let size = qp.try_read_u64(GlobalAddr::new(node, self.desc.size_off()))?.max(1) as usize;
        let mut reads = 1u32;
        let target = so_data_key(key);
        for _ in 0..WALK_RESTARTS {
            let mut bucket = (hash64(key) as usize) & (size - 1);
            let sent;
            loop {
                let d = qp.try_read_u64(GlobalAddr::new(node, self.desc.dir_off(bucket)))?;
                reads += 1;
                if d != NIL {
                    sent = d as usize;
                    break;
                }
                self.stats.extra_hops.fetch_add(1, Ordering::Relaxed);
                bucket = so_parent(bucket);
            }
            let mut cur = sent;
            let mut last_sokey = 0u64;
            loop {
                let mut hdr = [0u8; NODE_HEADER_BYTES];
                qp.try_read(GlobalAddr::new(node, cur), &mut hdr)?;
                reads += 1;
                let next = u64::from_le_bytes(hdr[0..8].try_into().expect("node header"));
                let sokey = u64::from_le_bytes(hdr[8..16].try_into().expect("node header"));
                if cur != sent {
                    if sokey < last_sokey {
                        // Torn walk (concurrent unlink): restart from the top.
                        break;
                    }
                    last_sokey = sokey;
                    if sokey > target {
                        return Ok(LookupResult::NotFound { reads });
                    }
                    if sokey == target {
                        let entry_off = cur + NODE_HEADER_BYTES;
                        let mut h = [0u8; ENTRY_HEADER_BYTES];
                        qp.try_read(GlobalAddr::new(node, entry_off), &mut h)?;
                        reads += 1;
                        let h = EntryHeader::decode(&h);
                        if h.key == key {
                            return Ok(LookupResult::Found {
                                addr: GlobalAddr::new(node, entry_off),
                                slot: Slot::entry(key, entry_off as u64, h.incarnation),
                                reads,
                            });
                        }
                    }
                }
                if next == NIL {
                    return Ok(LookupResult::NotFound { reads });
                }
                cur = next as usize;
            }
        }
        // Persistently torn chain: report a (verifiable) miss — locations
        // are hints, and callers re-verify Found results by incarnation.
        Ok(LookupResult::NotFound { reads })
    }

    /// Remote read of an entry's header and value in a single RDMA READ,
    /// with incarnation check against `expect_slot` (identical contract
    /// to [`crate::ClusterHash::remote_read_entry`]).
    pub fn remote_read_entry(
        &self,
        qp: &Qp,
        addr: GlobalAddr,
        expect_slot: &Slot,
    ) -> Option<(EntryHeader, Vec<u8>)> {
        let mut buf = vec![0u8; self.desc.entry_read_bytes()];
        qp.try_read(addr, &mut buf).expect("RDMA READ against a crashed node");
        let h = EntryHeader::decode(&buf[..ENTRY_HEADER_BYTES]);
        if !expect_slot.incarnation_matches(h.incarnation) {
            return None;
        }
        let len = (h.value_len as usize).min(self.desc.value_cap);
        Some((h, buf[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + len].to_vec()))
    }

    /// Remote overwrite of an entry's value (and version bump) with
    /// one-sided WRITEs; the caller holds the entry's exclusive lock.
    pub fn remote_write_value(&self, qp: &Qp, addr: GlobalAddr, version: u32, value: &[u8]) {
        assert!(value.len() <= self.desc.value_cap, "value exceeds table capacity");
        qp.try_write(GlobalAddr::new(addr.node, addr.offset + 12), &version.to_le_bytes())
            .expect("RDMA WRITE against a crashed node");
        let mut buf = Vec::with_capacity(8 + value.len());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(value);
        qp.try_write(GlobalAddr::new(addr.node, addr.offset + 24), &buf)
            .expect("RDMA WRITE against a crashed node");
    }

    /// Streams every live entry with key in `[lo, hi]` over the fabric:
    /// a full chain walk from bucket 0 with one-sided READs. Returns the
    /// collected `(key, version, value, entry_offset)` tuples and the
    /// bytes moved — the resharder's copy stream.
    pub fn try_remote_collect_range(
        &self,
        qp: &Qp,
        lo: u64,
        hi: u64,
    ) -> Result<(Vec<CollectedEntry>, u64), FabricError> {
        let node = self.desc.node;
        let mut out = Vec::new();
        let mut bytes = 0u64;
        let root = qp.try_read_u64(GlobalAddr::new(node, self.desc.dir_off(0)))? as usize;
        bytes += 8;
        let mut cur = qp.try_read_u64(GlobalAddr::new(node, root))?;
        bytes += 8;
        while cur != NIL {
            let mut hdr = [0u8; NODE_HEADER_BYTES];
            qp.try_read(GlobalAddr::new(node, cur as usize), &mut hdr)?;
            bytes += NODE_HEADER_BYTES as u64;
            let next = u64::from_le_bytes(hdr[0..8].try_into().expect("node header"));
            let sokey = u64::from_le_bytes(hdr[8..16].try_into().expect("node header"));
            if sokey & 1 == 1 {
                let entry_off = cur as usize + NODE_HEADER_BYTES;
                let mut buf = vec![0u8; self.desc.entry_read_bytes()];
                qp.try_read(GlobalAddr::new(node, entry_off), &mut buf)?;
                bytes += buf.len() as u64;
                let h = EntryHeader::decode(&buf[..ENTRY_HEADER_BYTES]);
                if h.key >= lo && h.key <= hi {
                    let len = (h.value_len as usize).min(self.desc.value_cap);
                    out.push(CollectedEntry {
                        key: h.key,
                        version: h.version,
                        value: buf[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + len].to_vec(),
                        entry_off,
                    });
                }
            }
            cur = next;
        }
        Ok((out, bytes))
    }

    /// Non-transactional range scan of a (possibly crashed) node's region
    /// — the NVRAM-model read used by migration recovery and validation.
    pub fn collect_range_nt(&self, region: &Region, lo: u64, hi: u64) -> Vec<CollectedEntry> {
        let mut out = Vec::new();
        let root = region.read_u64_nt(self.desc.dir_off(0)) as usize;
        let mut cur = region.read_u64_nt(root);
        while cur != NIL {
            let next = region.read_u64_nt(cur as usize);
            let sokey = region.read_u64_nt(cur as usize + 8);
            if sokey & 1 == 1 {
                let entry_off = cur as usize + NODE_HEADER_BYTES;
                let h = Entry::at(entry_off).read_header_nt(region);
                if h.key >= lo && h.key <= hi {
                    let mut value = vec![0u8; (h.value_len as usize).min(self.desc.value_cap)];
                    region.read_nt(entry_off + ENTRY_HEADER_BYTES, &mut value);
                    out.push(CollectedEntry { key: h.key, version: h.version, value, entry_off });
                }
            }
            cur = next;
        }
        out
    }
}

/// One entry lifted off a chain by a range collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectedEntry {
    /// The entry's key.
    pub key: u64,
    /// The entry's value version at collection time.
    pub version: u32,
    /// The value bytes.
    pub value: Vec<u8>,
    /// Region offset of the entry (state word) on the scanned node.
    pub entry_off: usize,
}

enum TryInsert {
    Inserted,
    Existing,
}

enum AttemptError {
    Abort(Abort),
    PoolFull,
}

impl From<Abort> for AttemptError {
    fn from(a: Abort) -> Self {
        AttemptError::Abort(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtm_htm::{HtmConfig, HtmStats};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(init: usize, max: usize, cap: usize) -> (Arc<Cluster>, ElasticHash, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 8 << 20);
        let table =
            ElasticHash::create(&mut arena, cluster.node(0).region(), 0, init, max, cap, 64);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    #[test]
    fn split_order_keys_are_ordered_by_bucket() {
        // A bucket's sentinel precedes all its data keys, and both
        // precede the next sentinel in split order.
        for key in [0u64, 1, 7, 42, 1 << 40, u64::MAX] {
            for k in 1..6 {
                let size = 1usize << k;
                let b = (hash64(key) as usize) & (size - 1);
                assert!(so_sentinel_key(b) < so_data_key(key), "key {key} size {size}");
            }
        }
        assert!(so_data_key(3) & 1 == 1, "data keys are odd");
        assert!(so_sentinel_key(5) & 1 == 0, "sentinels are even");
        assert_eq!(so_parent(0b1101), 0b0101);
        assert_eq!(so_parent(1), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let (cluster, table, exec) = setup(4, 64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 42, b"hello").unwrap();
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 42).unwrap().expect("found");
        assert_eq!(e.read_value(&mut txn).unwrap(), b"hello");
        assert!(table.get_local(&mut txn, 43).unwrap().is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (cluster, table, exec) = setup(4, 64, 1000);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"a").unwrap();
        assert_eq!(table.insert(&exec, region, 1, b"b"), Err(InsertError::Duplicate));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn chains_grow_past_bucket_capacity() {
        // One bucket, growth disabled: the whole table is one chain.
        let (cluster, table, exec) = setup(1, 1, 1000);
        let region = cluster.node(0).region();
        for k in 0..100u64 {
            table.insert(&exec, region, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(table.buckets(), 1, "growth must be capped by max_buckets");
        let mut txn = region.begin(exec.config());
        for k in 0..100u64 {
            let e = table.get_local(&mut txn, k).unwrap().expect("found");
            assert_eq!(e.read_value(&mut txn).unwrap(), k.to_le_bytes());
        }
    }

    #[test]
    fn grows_online_and_lookups_survive() {
        let (cluster, table, exec) = setup(1, 256, 2000);
        let region = cluster.node(0).region();
        for k in 0..500u64 {
            table.insert(&exec, region, k, &k.to_le_bytes()).unwrap();
        }
        assert!(table.stats().grows >= 4, "load factor should have forced doublings");
        assert!(table.buckets() > 1);
        let mut txn = region.begin(exec.config());
        for k in 0..500u64 {
            let e = table.get_local(&mut txn, k).unwrap().expect("found after grow");
            assert_eq!(e.read_value(&mut txn).unwrap(), k.to_le_bytes());
        }
        drop(txn);
        let qp = cluster.qp(1);
        for k in 0..500u64 {
            match table.try_remote_lookup(&qp, k).unwrap() {
                LookupResult::Found { addr, slot, .. } => {
                    let (_, v) = table.remote_read_entry(&qp, addr, &slot).unwrap();
                    assert_eq!(v, k.to_le_bytes());
                }
                other => panic!("key {k}: {other:?}"),
            }
        }
    }

    #[test]
    fn explicit_grow_is_a_published_doubling() {
        let (cluster, table, _exec) = setup(2, 8, 100);
        let region = cluster.node(0).region();
        assert_eq!(table.buckets(), 2);
        assert!(table.grow(region));
        assert!(table.grow(region));
        assert!(!table.grow(region), "at max_buckets");
        assert_eq!(table.buckets(), 8);
        assert_eq!(region.read_u64_nt(table.desc().size_off()), 8);
    }

    #[test]
    fn stale_smaller_size_hint_still_finds_keys() {
        // Readers that haven't seen a grow route to an ancestor bucket
        // whose chain contains the key — the split-order invariant.
        let (cluster, table, exec) = setup(1, 64, 500);
        let region = cluster.node(0).region();
        for k in 0..100u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        assert!(table.buckets() > 1);
        // A remote walk *after* growth but before any new bucket's
        // sentinel exists must fall back through parents.
        let qp = cluster.qp(1);
        table.grow(region); // publish another doubling; no sentinels yet
        let before = table.stats();
        for k in 0..100u64 {
            assert!(
                matches!(table.try_remote_lookup(&qp, k).unwrap(), LookupResult::Found { .. }),
                "key {k} lost after grow"
            );
        }
        let after = table.stats();
        assert!(after.extra_hops > before.extra_hops, "fallback hops must be counted");
    }

    #[test]
    fn delete_then_lookup_misses_and_node_is_reused() {
        let (cluster, table, exec) = setup(4, 4, 100);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 7, b"x").unwrap();
        let live = table.pool_live();
        assert!(table.delete(&exec, region, 7));
        assert!(!table.delete(&exec, region, 7));
        assert_eq!(table.pool_live(), live - 1);
        let mut txn = region.begin(exec.config());
        assert!(table.get_local(&mut txn, 7).unwrap().is_none());
        drop(txn);
        table.insert(&exec, region, 8, b"y").unwrap();
        // At most one extra live cell (a lazily created sentinel): the
        // data node count is back to one.
        assert!(table.pool_live() <= live + 1, "data cell not returned to the pool");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn incarnation_check_catches_delete() {
        let (cluster, table, exec) = setup(4, 4, 100);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 5, b"old").unwrap();
        let qp = cluster.qp(1);
        let (addr, slot) = match table.try_remote_lookup(&qp, 5).unwrap() {
            LookupResult::Found { addr, slot, .. } => (addr, slot),
            other => panic!("{other:?}"),
        };
        table.delete(&exec, region, 5);
        table.insert(&exec, region, 5, b"new").unwrap();
        assert!(
            table.remote_read_entry(&qp, addr, &slot).is_none(),
            "stale location must fail the incarnation check"
        );
    }

    #[test]
    fn remote_write_value_visible_locally() {
        let (cluster, table, exec) = setup(4, 4, 100);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 9, b"before").unwrap();
        let qp = cluster.qp(1);
        let addr = match table.try_remote_lookup(&qp, 9).unwrap() {
            LookupResult::Found { addr, .. } => addr,
            other => panic!("{other:?}"),
        };
        table.remote_write_value(&qp, addr, 3, b"after");
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 9).unwrap().expect("found");
        assert_eq!(e.read_value(&mut txn).unwrap(), b"after");
        assert_eq!(e.read_header(&mut txn).unwrap().version, 3);
    }

    #[test]
    fn upsert_overwrites_and_sets_version() {
        let (cluster, table, exec) = setup(4, 4, 100);
        let region = cluster.node(0).region();
        table.upsert(&exec, region, 1, b"first", 5).unwrap();
        table.upsert(&exec, region, 1, b"second", 9).unwrap();
        assert_eq!(table.len(), 1);
        let mut txn = region.begin(exec.config());
        let e = table.get_local(&mut txn, 1).unwrap().expect("found");
        assert_eq!(e.read_value(&mut txn).unwrap(), b"second");
        assert_eq!(e.read_header(&mut txn).unwrap().version, 9);
    }

    #[test]
    fn pool_exhaustion_reported() {
        let (cluster, table, exec) = setup(1, 1, 4);
        let region = cluster.node(0).region();
        for k in 0..4u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        assert_eq!(table.insert(&exec, region, 99, b"v"), Err(InsertError::Full));
    }

    #[test]
    fn collect_range_streams_the_chain() {
        let (cluster, table, exec) = setup(2, 16, 200);
        let region = cluster.node(0).region();
        for k in 0..50u64 {
            table.insert(&exec, region, k, &(k * 10).to_le_bytes()).unwrap();
        }
        let qp = cluster.qp(1);
        let (got, bytes) = table.try_remote_collect_range(&qp, 10, 19).unwrap();
        assert!(bytes > 0);
        let mut keys: Vec<u64> = got.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (10..20).collect::<Vec<u64>>());
        for e in &got {
            assert_eq!(e.value, (e.key * 10).to_le_bytes());
        }
        let nt = table.collect_range_nt(region, 10, 19);
        assert_eq!(nt.len(), 10);
    }

    #[test]
    fn concurrent_inserts_all_land_across_grows() {
        let (cluster, table, exec) = setup(1, 256, 2000);
        let table = Arc::new(table);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let table = table.clone();
                let exec = exec.clone();
                let cluster = cluster.clone();
                s.spawn(move || {
                    let region = cluster.node(0).region();
                    for i in 0..200u64 {
                        table.insert(&exec, region, t * 1000 + i, b"v").unwrap();
                    }
                });
            }
        });
        assert_eq!(table.len(), 800);
        assert!(table.stats().grows > 0);
        let region = cluster.node(0).region();
        let mut txn = region.begin(exec.config());
        for t in 0..4u64 {
            for i in 0..200u64 {
                assert!(
                    table.get_local(&mut txn, t * 1000 + i).unwrap().is_some(),
                    "key {}",
                    t * 1000 + i
                );
            }
        }
    }
}
