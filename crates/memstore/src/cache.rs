//! Location-based, host-transparent caching (§5.3).
//!
//! Instead of caching key-value *contents* (which would need cluster-wide
//! invalidation), DrTM caches key-value *locations*: a snapshot of header
//! buckets. Because all concurrency-control metadata (incarnation,
//! version, state) lives in the entry itself, a stale cached location is
//! detected for free by the incarnation check when the entry is read, and
//! simply treated as a cache miss — no invalidation traffic, fully
//! transparent to the host.
//!
//! The cache is a direct-mapped array over main-bucket indices plus a
//! bounded pool of cached indirect buckets; fetching a bucket costs one
//! RDMA READ and brings in up to 8 candidate slots, which is why even a
//! cold cache eliminates most lookup READs (Figure 10). One cache is
//! shared by all client threads of a machine.
//!
//! # Concurrency
//!
//! The cache is read far more often than it is written (a warm cache
//! answers most lookups with zero fetches), so the hit path must not
//! serialize readers. Every cached bucket is protected by its own
//! *seqlock*: an even/odd version word bumped around each mutation. A
//! reader snapshots the bucket with plain atomic loads and retries on a
//! torn read (odd or changed version); it takes no lock. Mutations
//! (installing a fetched bucket, eviction, invalidation) take a short
//! per-shard lock — the main array is partitioned into shards, and each
//! shard owns a disjoint strip of the indirect-bucket pool so all writes
//! to any bucket of a chain are serialized by one shard lock.
//!
//! A reader racing an eviction can follow a stale chain link into a
//! reused pool bucket. That is *safe by construction* for the same
//! reason the whole cache is: a location is only ever a hint, and the
//! caller's incarnation check rejects a wrong one. A hit requires the
//! slot's key to match, so a foreign bucket image can at worst produce a
//! stale location for the same key (indistinguishable from an ordinary
//! stale cache) or a spurious not-found, which is re-verified remotely.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use parking_lot::Mutex;

use drtm_rdma::{FabricError, GlobalAddr, Qp};

use crate::cluster_hash::{ClusterHash, ScanHit, BUCKET_BYTES};
use crate::slot::{Slot, SlotType};
use crate::ASSOC;

drtm_htm::counter_set! {
    /// Lock-free hit/miss counters, shared by all reader threads.
    pub struct CacheCounters;
    /// Hit/miss counters for one cache.
    pub struct CacheStats {
        /// Lookups answered entirely from cache (zero RDMA READs).
        hits: u64,
        /// Lookups that fetched at least one bucket.
        misses: u64,
        /// Bucket fetches performed (= RDMA READs spent by the cache).
        fetches: u64,
        /// Explicit invalidations (stale incarnation detected by the caller).
        invalidations: u64,
        /// Invalidations forced by a range migration's cutover (the resharder
        /// clearing locations that now point at the old owner).
        migration_invalidations: u64,
        /// Lookups the router answered remotely *despite* a warm entry
        /// because the key's range was mid-cutover (cache bypassed).
        forced_misses: u64,
    }
}

impl CacheStats {
    /// Fraction of lookups answered with zero RDMA READs (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A decoded (non-atomic) bucket image, used as the unit of reads and
/// writes against the seqlock-protected storage.
#[derive(Clone, Copy)]
struct CachedBucket {
    words: [u64; ASSOC * 2],
    tag: usize,
    valid: bool,
}

impl CachedBucket {
    const EMPTY: CachedBucket = CachedBucket { words: [0; ASSOC * 2], tag: 0, valid: false };

    fn from_bytes(buf: &[u8; BUCKET_BYTES], tag: usize) -> Self {
        let mut words = [0u64; ASSOC * 2];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("bucket word"));
        }
        CachedBucket { words, tag, valid: true }
    }

    fn slot(&self, i: usize) -> Slot {
        Slot::decode(self.words[i * 2], self.words[i * 2 + 1])
    }

    fn set_slot(&mut self, i: usize, s: Slot) {
        let (m, k) = s.encode();
        self.words[i * 2] = m;
        self.words[i * 2 + 1] = k;
    }
}

/// How many torn-read retries a reader attempts before falling back to
/// the locked path (a writer is actively mutating the bucket).
const SEQ_RETRIES: usize = 8;

/// One seqlock-protected bucket: even `seq` = stable, odd = mid-write.
#[derive(Debug)]
struct SeqBucket {
    seq: AtomicU64,
    /// `(tag << 1) | valid`.
    tag: AtomicU64,
    words: [AtomicU64; ASSOC * 2],
}

impl SeqBucket {
    fn new() -> Self {
        SeqBucket {
            seq: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Lock-free consistent snapshot; `None` after [`SEQ_RETRIES`] torn
    /// reads (only possible while a writer holds the shard lock).
    fn snapshot(&self) -> Option<CachedBucket> {
        for _ in 0..SEQ_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let tag = self.tag.load(Ordering::Relaxed);
            let mut words = [0u64; ASSOC * 2];
            for (i, w) in words.iter_mut().enumerate() {
                *w = self.words[i].load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(CachedBucket { words, tag: (tag >> 1) as usize, valid: tag & 1 == 1 });
            }
        }
        None
    }

    /// Publishes a new bucket image. Caller must hold the owning shard's
    /// lock (one writer per bucket at a time).
    fn publish(&self, b: &CachedBucket) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (i, w) in b.words.iter().enumerate() {
            self.words[i].store(*w, Ordering::Relaxed);
        }
        self.tag.store(((b.tag as u64) << 1) | b.valid as u64, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }
}

/// Upper bound on the shard count (power of two). Per-shard state is a
/// short mutex plus a strip of the pool free list; 16 shards decorrelate
/// writers without bloating small caches.
const MAX_SHARDS: usize = 16;

/// Outcome of the lock-free fast path.
enum FastPath {
    /// Entry found in the cached chain with zero fetches.
    Found(GlobalAddr, Slot),
    /// A fully-cached chain did not contain the key (possibly stale).
    NotFound,
    /// The chain is not (or no longer) fully cached; take the shard lock.
    Fetch,
}

/// A location cache for one remote [`ClusterHash`].
///
/// `lookup` is lock-free on the hit path (seqlock reads only); misses
/// and invalidations take a short per-shard lock.
#[derive(Debug)]
pub struct LocationCache {
    main: Box<[SeqBucket]>,
    pool: Box<[SeqBucket]>,
    /// Per-shard writer lock doubling as that shard's pool free list.
    /// Shard `s` owns main ways `w` and pool buckets `p` with
    /// `w & shard_mask == s` / `p & shard_mask == s`.
    shards: Box<[Mutex<Vec<usize>>]>,
    stats: CacheCounters,
    main_mask: usize,
    shard_mask: usize,
}

impl LocationCache {
    /// Creates a cache of `main_slots` direct-mapped buckets (rounded up
    /// to a power of two) and `pool_slots` indirect buckets.
    pub fn new(main_slots: usize, pool_slots: usize) -> Self {
        let main_slots = main_slots.next_power_of_two();
        let nshards = main_slots.min(MAX_SHARDS);
        let shards = (0..nshards)
            .map(|s| {
                // Descending so early allocations pop low indexes.
                Mutex::new((0..pool_slots).filter(|p| p & (nshards - 1) == s).rev().collect())
            })
            .collect();
        LocationCache {
            main: (0..main_slots).map(|_| SeqBucket::new()).collect(),
            pool: (0..pool_slots).map(|_| SeqBucket::new()).collect(),
            shards,
            stats: CacheCounters::default(),
            main_mask: main_slots - 1,
            shard_mask: nshards - 1,
        }
    }

    /// Sizes a cache from a byte budget, mirroring the paper's "x MB
    /// cache" axis of Figure 10(d). Roughly 80 % of the budget goes to
    /// the direct-mapped main array (rounded *down* to a power of two so
    /// the budget is never overshot); whatever the rounding left over
    /// goes to the indirect pool, so the footprint tracks the requested
    /// budget to within one bucket.
    pub fn with_budget(bytes: usize) -> Self {
        let bucket_cost = BUCKET_BYTES + 16; // words + bookkeeping
        let main = (bytes * 4 / 5 / bucket_cost).max(1);
        // Largest power of two not exceeding the 80 % share.
        let main_pow2 = if main.is_power_of_two() { main } else { main.next_power_of_two() / 2 };
        // The pool gets the *actual* remaining budget, not a fixed 20 %:
        // rounding main down must not shrink the total.
        let remaining = bytes.saturating_sub(main_pow2 * bucket_cost);
        let pool = (remaining / bucket_cost).max(1);
        LocationCache::new(main_pow2.max(1), pool)
    }

    /// Approximate memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        (self.main.len() + self.pool.len()) * (BUCKET_BYTES + 16)
    }

    /// Returns a copy of the hit/miss counters (lock-free).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn shard(&self, way: usize) -> &Mutex<Vec<usize>> {
        &self.shards[way & self.shard_mask]
    }

    /// Looks up `key` in `table` through the cache.
    ///
    /// Returns the entry's global address and slot plus the number of
    /// RDMA READs spent (0 on a full hit). The caller must still perform
    /// the incarnation check when reading the entry and call
    /// [`LocationCache::invalidate`] on mismatch.
    ///
    /// The hit path takes no lock: it reads the cached chain through
    /// per-bucket seqlocks and retries torn reads.
    ///
    /// Dead peers are reported typed: a full cache hit still succeeds
    /// (no fabric round trip), but a walk that must fetch from a crashed
    /// machine returns the fabric error instead of serving stale bytes.
    pub fn try_lookup(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
    ) -> Result<Option<(GlobalAddr, Slot, u32)>, FabricError> {
        let desc = table.desc();
        let idx = desc.bucket_index(key);
        let way = idx & self.main_mask;

        match self.fast_walk(way, idx, key, desc.node) {
            FastPath::Found(addr, slot) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some((addr, slot, 0)))
            }
            FastPath::NotFound => {
                // A cached NotFound may be stale (an insert since the
                // snapshot); drop the chain and verify remotely.
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.evict_way(way);
                match table.try_remote_lookup(qp, key)? {
                    crate::cluster_hash::LookupResult::Found { addr, slot, reads } => {
                        Ok(Some((addr, slot, reads)))
                    }
                    crate::cluster_hash::LookupResult::NotFound { .. } => Ok(None),
                }
            }
            FastPath::Fetch => self.lookup_locked(qp, table, key, idx, way),
        }
    }

    /// The lock-free walk of an already-cached chain.
    fn fast_walk(&self, way: usize, idx: usize, key: u64, node: drtm_rdma::NodeId) -> FastPath {
        let Some(bucket) = self.main[way].snapshot() else { return FastPath::Fetch };
        if !bucket.valid || bucket.tag != idx {
            return FastPath::Fetch;
        }
        let mut bucket = bucket;
        // Stale links can in principle form a cycle through reused pool
        // buckets; bound the walk so a reader never loops forever.
        for _ in 0..self.pool.len() + 2 {
            let mut next: Option<Slot> = None;
            for i in 0..ASSOC {
                let slot = bucket.slot(i);
                match slot.typ {
                    SlotType::Entry if slot.key == key => {
                        return FastPath::Found(GlobalAddr::new(node, slot.offset as usize), slot);
                    }
                    SlotType::Header | SlotType::Cached if i == ASSOC - 1 => next = Some(slot),
                    _ => {}
                }
            }
            match next {
                None => return FastPath::NotFound,
                Some(link) if link.typ == SlotType::Cached => {
                    let p = link.offset as usize;
                    if p >= self.pool.len() {
                        return FastPath::Fetch;
                    }
                    match self.pool[p].snapshot() {
                        Some(b) if b.valid => bucket = b,
                        _ => return FastPath::Fetch,
                    }
                }
                // A Header link: the chain continues remotely.
                Some(_) => return FastPath::Fetch,
            }
        }
        FastPath::Fetch
    }

    /// The miss path: fetch and cache buckets under the shard lock.
    fn lookup_locked(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
        idx: usize,
        way: usize,
    ) -> Result<Option<(GlobalAddr, Slot, u32)>, FabricError> {
        let desc = table.desc();
        let mut pool_free = self.shard(way).lock();
        let mut reads = 0u32;

        // Ensure the main bucket is cached.
        let mut main_img = self.main[way].snapshot().expect("shard lock excludes writers");
        if !(main_img.valid && main_img.tag == idx) {
            let off = desc.main_bucket_off(idx);
            let mut buf = [0u8; BUCKET_BYTES];
            qp.try_read(GlobalAddr::new(desc.node, off), &mut buf)?;
            reads += 1;
            self.stats.fetches.fetch_add(1, Ordering::Relaxed);
            self.reclaim_chain(&mut pool_free, &main_img);
            main_img = CachedBucket::from_bytes(&buf, idx);
            self.main[way].publish(&main_img);
        }

        // Walk the (cached) chain, fetching and caching missing links.
        enum Loc {
            Main(usize),
            Pool(usize),
        }
        let mut loc = Loc::Main(way);
        let found = loop {
            let bucket = match loc {
                Loc::Main(_) => main_img,
                Loc::Pool(p) => self.pool[p].snapshot().expect("shard lock excludes writers"),
            };
            let mut next: Option<Slot> = None;
            let mut hit = None;
            for i in 0..ASSOC {
                let slot = bucket.slot(i);
                match slot.typ {
                    SlotType::Entry if slot.key == key => {
                        hit = Some(slot);
                        break;
                    }
                    SlotType::Header | SlotType::Cached if i == ASSOC - 1 => next = Some(slot),
                    _ => {}
                }
            }
            if let Some(slot) = hit {
                break Some((GlobalAddr::new(desc.node, slot.offset as usize), slot));
            }
            match next {
                None => break None,
                Some(link) if link.typ == SlotType::Cached => {
                    loc = Loc::Pool(link.offset as usize);
                }
                Some(link) => {
                    // Fetch the indirect bucket and try to cache it.
                    let off = link.offset as usize;
                    let mut buf = [0u8; BUCKET_BYTES];
                    qp.try_read(GlobalAddr::new(desc.node, off), &mut buf)?;
                    reads += 1;
                    self.stats.fetches.fetch_add(1, Ordering::Relaxed);
                    match pool_free.pop() {
                        Some(p) => {
                            self.pool[p].publish(&CachedBucket::from_bytes(&buf, 0));
                            // Re-point the parent's last slot at the pool.
                            let link_slot = Slot {
                                typ: SlotType::Cached,
                                lossy_inc: 0,
                                offset: p as u64,
                                key: 0,
                            };
                            match loc {
                                Loc::Main(w) => {
                                    main_img.set_slot(ASSOC - 1, link_slot);
                                    self.main[w].publish(&main_img);
                                }
                                Loc::Pool(pp) => {
                                    let mut img = self.pool[pp]
                                        .snapshot()
                                        .expect("shard lock excludes writers");
                                    img.set_slot(ASSOC - 1, link_slot);
                                    self.pool[pp].publish(&img);
                                }
                            }
                            loc = Loc::Pool(p);
                        }
                        None => {
                            // Pool exhausted: finish the walk remotely
                            // without caching (bounded-budget policy).
                            drop(pool_free);
                            return self.finish_remote(qp, table, key, &buf, reads);
                        }
                    }
                }
            }
        };

        if reads == 0 {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        match found {
            Some((addr, slot)) => {
                drop(pool_free);
                Ok(Some((addr, slot, reads)))
            }
            None => {
                // A cached NotFound may be stale (an insert since the
                // snapshot); drop the chain and verify remotely.
                let img = self.main[way].snapshot().expect("shard lock excludes writers");
                self.reclaim_chain(&mut pool_free, &img);
                drop(pool_free);
                match table.try_remote_lookup(qp, key)? {
                    crate::cluster_hash::LookupResult::Found { addr, slot, reads: r } => {
                        Ok(Some((addr, slot, reads + r)))
                    }
                    crate::cluster_hash::LookupResult::NotFound { .. } => Ok(None),
                }
            }
        }
    }

    /// Continues a chain walk remotely starting from raw bucket bytes.
    fn finish_remote(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
        first: &[u8; BUCKET_BYTES],
        mut reads: u32,
    ) -> Result<Option<(GlobalAddr, Slot, u32)>, FabricError> {
        let desc = table.desc();
        let mut buf = *first;
        loop {
            match ClusterHash::scan_bucket(&buf, key) {
                ScanHit::Entry(slot) => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some((
                        GlobalAddr::new(desc.node, slot.offset as usize),
                        slot,
                        reads,
                    )));
                }
                ScanHit::Chain(next) => {
                    qp.try_read(GlobalAddr::new(desc.node, next), &mut buf)?;
                    reads += 1;
                }
                ScanHit::Miss => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
            }
        }
    }

    /// Drops the cached chain for `key`'s bucket (stale location
    /// detected via incarnation check).
    pub fn invalidate(&self, table: &ClusterHash, key: u64) {
        let idx = table.desc().bucket_index(key);
        let way = idx & self.main_mask;
        self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        self.evict_way(way);
    }

    /// Evicts the main-way bucket under its shard lock.
    fn evict_way(&self, way: usize) {
        let mut pool_free = self.shard(way).lock();
        let img = self.main[way].snapshot().expect("shard lock excludes writers");
        self.reclaim_chain(&mut pool_free, &img);
    }

    /// Invalidates a main bucket image, recursively reclaiming pool
    /// buckets on its chain. Caller holds the owning shard's lock;
    /// `pool_free` is that shard's free list.
    fn reclaim_chain(&self, pool_free: &mut Vec<usize>, img: &CachedBucket) {
        if !img.valid {
            return;
        }
        let mut invalidated = *img;
        invalidated.valid = false;
        // Find the main way this image belongs to: the tag is the bucket
        // index, and the way is tag & main_mask.
        self.main[invalidated.tag & self.main_mask].publish(&invalidated);
        let mut link = img.slot(ASSOC - 1);
        let mut steps = 0;
        while link.typ == SlotType::Cached && steps <= self.pool.len() {
            steps += 1;
            let p = link.offset as usize;
            link = self.pool[p].snapshot().expect("shard lock excludes writers").slot(ASSOC - 1);
            self.pool[p].publish(&CachedBucket::EMPTY);
            pool_free.push(p);
        }
    }
}

/// The pre-seqlock [`LocationCache`]: one global mutex around all state.
///
/// Kept as the comparison baseline for the `primitives` criterion group
/// (multi-threaded lookup throughput) and the observational-equivalence
/// property test; not used on any production path.
#[derive(Debug)]
pub struct MutexLocationCache {
    inner: Mutex<MutexInner>,
    main_mask: usize,
}

struct MutexInner {
    main: Vec<CachedBucket>,
    pool: Vec<CachedBucket>,
    pool_free: Vec<usize>,
    stats: CacheStats,
}

impl std::fmt::Debug for MutexInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutexInner")
            .field("main", &self.main.len())
            .field("pool", &self.pool.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MutexLocationCache {
    /// Creates a cache of `main_slots` direct-mapped buckets (rounded up
    /// to a power of two) and `pool_slots` indirect buckets.
    pub fn new(main_slots: usize, pool_slots: usize) -> Self {
        let main_slots = main_slots.next_power_of_two();
        MutexLocationCache {
            inner: Mutex::new(MutexInner {
                main: vec![CachedBucket::EMPTY; main_slots],
                pool: vec![CachedBucket::EMPTY; pool_slots],
                pool_free: (0..pool_slots).rev().collect(),
                stats: CacheStats::default(),
            }),
            main_mask: main_slots - 1,
        }
    }

    /// Returns a copy of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Looks up `key` in `table` through the cache (whole walk under the
    /// global mutex — the pre-seqlock behaviour).
    pub fn lookup(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
    ) -> Option<(GlobalAddr, Slot, u32)> {
        let desc = table.desc();
        let idx = desc.bucket_index(key);
        let way = idx & self.main_mask;
        let mut inner = self.inner.lock();
        let mut reads = 0u32;

        if !(inner.main[way].valid && inner.main[way].tag == idx) {
            let off = desc.main_bucket_off(idx);
            let mut buf = [0u8; BUCKET_BYTES];
            qp.try_read(GlobalAddr::new(desc.node, off), &mut buf)
                .expect("RDMA READ against a crashed node");
            reads += 1;
            inner.stats.fetches += 1;
            Self::evict(&mut inner, way);
            inner.main[way] = CachedBucket::from_bytes(&buf, idx);
        }

        enum Loc {
            Main(usize),
            Pool(usize),
        }
        let mut loc = Loc::Main(way);
        let found = loop {
            let bucket = match loc {
                Loc::Main(w) => inner.main[w],
                Loc::Pool(p) => inner.pool[p],
            };
            let mut next: Option<Slot> = None;
            let mut hit = None;
            for i in 0..ASSOC {
                let slot = bucket.slot(i);
                match slot.typ {
                    SlotType::Entry if slot.key == key => {
                        hit = Some(slot);
                        break;
                    }
                    SlotType::Header | SlotType::Cached if i == ASSOC - 1 => next = Some(slot),
                    _ => {}
                }
            }
            if let Some(slot) = hit {
                break Some((GlobalAddr::new(desc.node, slot.offset as usize), slot));
            }
            match next {
                None => break None,
                Some(link) if link.typ == SlotType::Cached => {
                    loc = Loc::Pool(link.offset as usize);
                }
                Some(link) => {
                    let off = link.offset as usize;
                    let mut buf = [0u8; BUCKET_BYTES];
                    qp.try_read(GlobalAddr::new(desc.node, off), &mut buf)
                        .expect("RDMA READ against a crashed node");
                    reads += 1;
                    inner.stats.fetches += 1;
                    match inner.pool_free.pop() {
                        Some(p) => {
                            inner.pool[p] = CachedBucket::from_bytes(&buf, 0);
                            let parent = match loc {
                                Loc::Main(w) => &mut inner.main[w],
                                Loc::Pool(pp) => &mut inner.pool[pp],
                            };
                            parent.set_slot(
                                ASSOC - 1,
                                Slot {
                                    typ: SlotType::Cached,
                                    lossy_inc: 0,
                                    offset: p as u64,
                                    key: 0,
                                },
                            );
                            loc = Loc::Pool(p);
                        }
                        None => {
                            drop(inner);
                            return self.finish_remote(qp, table, key, &buf, reads);
                        }
                    }
                }
            }
        };

        if reads == 0 {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        match found {
            Some((addr, slot)) => Some((addr, slot, reads)),
            None => {
                Self::evict(&mut inner, way);
                drop(inner);
                match table
                    .try_remote_lookup(qp, key)
                    .expect("remote lookup against a crashed node")
                {
                    crate::cluster_hash::LookupResult::Found { addr, slot, reads: r } => {
                        Some((addr, slot, reads + r))
                    }
                    crate::cluster_hash::LookupResult::NotFound { .. } => None,
                }
            }
        }
    }

    fn finish_remote(
        &self,
        qp: &Qp,
        table: &ClusterHash,
        key: u64,
        first: &[u8; BUCKET_BYTES],
        mut reads: u32,
    ) -> Option<(GlobalAddr, Slot, u32)> {
        let desc = table.desc();
        let mut buf = *first;
        loop {
            match ClusterHash::scan_bucket(&buf, key) {
                ScanHit::Entry(slot) => {
                    self.inner.lock().stats.misses += 1;
                    return Some((GlobalAddr::new(desc.node, slot.offset as usize), slot, reads));
                }
                ScanHit::Chain(next) => {
                    qp.try_read(GlobalAddr::new(desc.node, next), &mut buf)
                        .expect("RDMA READ against a crashed node");
                    reads += 1;
                }
                ScanHit::Miss => {
                    self.inner.lock().stats.misses += 1;
                    return None;
                }
            }
        }
    }

    /// Drops the cached chain for `key`'s bucket.
    pub fn invalidate(&self, table: &ClusterHash, key: u64) {
        let idx = table.desc().bucket_index(key);
        let way = idx & self.main_mask;
        let mut inner = self.inner.lock();
        inner.stats.invalidations += 1;
        Self::evict(&mut inner, way);
    }

    fn evict(inner: &mut MutexInner, way: usize) {
        if !inner.main[way].valid {
            return;
        }
        let mut link = inner.main[way].slot(ASSOC - 1);
        inner.main[way].valid = false;
        while link.typ == SlotType::Cached {
            let p = link.offset as usize;
            link = inner.pool[p].slot(ASSOC - 1);
            inner.pool[p] = CachedBucket::EMPTY;
            inner.pool_free.push(p);
        }
    }
}

/// One resolved location held by an [`AddrCache`].
#[derive(Debug, Clone, Copy)]
struct CachedAddr {
    key: u64,
    addr: GlobalAddr,
    slot: Slot,
}

/// Key → location cache for the elastic split-ordered table.
///
/// [`LocationCache`] mirrors the cluster-chaining table's *bucket*
/// geometry, which a split-ordered table does not have (its buckets are
/// chain positions that move on every split). The elastic path caches
/// resolved *entries* instead: a direct-mapped key → `(address, slot)`
/// map whose hits skip the remote chain walk entirely and whose
/// staleness is caught by the usual incarnation check on first use.
///
/// The resharder invalidates ranges at cutover
/// ([`AddrCache::invalidate_range`]); the router records cutover-window
/// bypasses with [`AddrCache::note_forced_miss`]. Both show up in
/// [`CacheStats`] so the bench diagnostics can print migration costs.
#[derive(Debug)]
pub struct AddrCache {
    cells: Box<[Mutex<Option<CachedAddr>>]>,
    mask: usize,
    stats: CacheCounters,
}

impl AddrCache {
    /// Creates a cache with `cells` entries (rounded up to a power of
    /// two).
    pub fn new(cells: usize) -> Self {
        let cells = cells.next_power_of_two().max(1);
        AddrCache {
            cells: (0..cells).map(|_| Mutex::new(None)).collect(),
            mask: cells - 1,
            stats: CacheCounters::default(),
        }
    }

    fn cell(&self, key: u64) -> &Mutex<Option<CachedAddr>> {
        &self.cells[(crate::hash64(key) as usize) & self.mask]
    }

    /// Returns the cached location of `key`, if present.
    pub fn lookup(&self, key: u64) -> Option<(GlobalAddr, Slot)> {
        let hit = self.cell(key).lock().filter(|c| c.key == key).map(|c| (c.addr, c.slot));
        match hit {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Installs a freshly resolved location.
    pub fn install(&self, key: u64, addr: GlobalAddr, slot: Slot) {
        self.stats.fetches.fetch_add(1, Ordering::Relaxed);
        *self.cell(key).lock() = Some(CachedAddr { key, addr, slot });
    }

    /// Drops `key`'s entry (stale incarnation detected by the caller).
    /// Returns whether an entry was dropped.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut cell = self.cell(key).lock();
        if cell.map(|c| c.key == key).unwrap_or(false) {
            *cell = None;
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Cutover invalidation: drops every cached key in `[lo, hi]` and
    /// counts them as migration invalidations. Returns how many entries
    /// were dropped.
    pub fn invalidate_range(&self, lo: u64, hi: u64) -> u64 {
        let mut dropped = 0;
        for cell in self.cells.iter() {
            let mut cell = cell.lock();
            if cell.map(|c| c.key >= lo && c.key <= hi).unwrap_or(false) {
                *cell = None;
                dropped += 1;
            }
        }
        self.stats.migration_invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Records a lookup the router answered remotely despite a possible
    /// warm entry, because the key's range was mid-cutover.
    pub fn note_forced_miss(&self) {
        self.stats.forced_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a copy of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Arena;
    use crate::cluster_hash::LookupResult;
    use drtm_htm::{Executor, HtmConfig, HtmStats};
    use drtm_rdma::{Cluster, ClusterConfig, LatencyProfile};
    use std::sync::Arc;

    fn setup(main_buckets: usize) -> (Arc<Cluster>, ClusterHash, Executor) {
        let cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            region_size: 8 << 20,
            profile: LatencyProfile::zero(),
            ..Default::default()
        });
        let mut arena = Arena::new(0, 8 << 20);
        let table = ClusterHash::create(&mut arena, 0, main_buckets, 4096, 32);
        let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
        (cluster, table, exec)
    }

    #[test]
    fn second_lookup_is_free() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 16);
        let (_, _, r1) = cache.try_lookup(&qp, &table, 1).unwrap().unwrap();
        assert_eq!(r1, 1, "cold fetch costs one READ");
        let (_, _, r2) = cache.try_lookup(&qp, &table, 1).unwrap().unwrap();
        assert_eq!(r2, 0, "warm lookup is free");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.fetches), (1, 1, 1));
    }

    #[test]
    fn crashed_home_node_fails_typed_but_hits_still_serve() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        table.insert(&exec, region, 2, b"w").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 16);
        cache.try_lookup(&qp, &table, 1).unwrap().unwrap(); // warm key 1
        cluster.faults().kill(0);
        // A warm hit needs no fabric round trip — still served.
        let hit = cache.try_lookup(&qp, &table, 1).expect("cache hit needs no fabric");
        assert_eq!(hit.unwrap().2, 0);
        // A cold key must fetch from the dead home node: typed error.
        assert_eq!(cache.try_lookup(&qp, &table, 2), Err(FabricError::PeerDead { node: 0 }));
        assert_eq!(table.try_remote_lookup(&qp, 2), Err(FabricError::PeerDead { node: 0 }));
        cluster.faults().revive(0);
        assert!(cache.try_lookup(&qp, &table, 2).unwrap().is_some());
    }

    #[test]
    fn whole_bucket_fetch_prefetches_neighbours() {
        let (cluster, table, exec) = setup(1); // all keys share one bucket
        let region = cluster.node(0).region();
        for k in 0..8u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(4, 16);
        cache.try_lookup(&qp, &table, 0).unwrap().unwrap();
        // All 7 other residents of the bucket are now free lookups.
        for k in 1..8u64 {
            let (_, _, r) = cache.try_lookup(&qp, &table, k).unwrap().unwrap();
            assert_eq!(r, 0, "key {k}");
        }
    }

    #[test]
    fn chained_buckets_cached_in_pool() {
        let (cluster, table, exec) = setup(1);
        let region = cluster.node(0).region();
        for k in 0..30u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(4, 16);
        // Walk to the deepest key once; the chain gets cached.
        let deep_key = 29u64;
        let (_, _, cold) = cache.try_lookup(&qp, &table, deep_key).unwrap().unwrap();
        assert!(cold >= 1);
        let (_, _, warm) = cache.try_lookup(&qp, &table, deep_key).unwrap().unwrap();
        assert_eq!(warm, 0, "chain walk should be fully cached");
    }

    #[test]
    fn stale_not_found_verifies_remotely() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 1, b"v").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 8);
        cache.try_lookup(&qp, &table, 1).unwrap().unwrap();
        // Insert a key that maps to the *same* bucket after caching.
        let mut k2 = 2u64;
        while table.desc().bucket_index(k2) != table.desc().bucket_index(1) {
            k2 += 1;
        }
        table.insert(&exec, region, k2, b"w").unwrap();
        // The cached snapshot doesn't contain k2, but lookup still finds it.
        let got = cache.try_lookup(&qp, &table, k2).unwrap();
        assert!(got.is_some(), "stale NotFound must re-verify");
    }

    #[test]
    fn invalidate_after_delete_recovers() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        table.insert(&exec, region, 5, b"old").unwrap();
        let qp = cluster.qp(1);
        let cache = LocationCache::new(64, 8);
        let (addr, slot, _) = cache.try_lookup(&qp, &table, 5).unwrap().unwrap();
        table.delete(&exec, region, 5);
        table.insert(&exec, region, 5, b"new").unwrap();
        // Cached location is stale: incarnation check fails.
        assert!(table.remote_read_entry(&qp, addr, &slot).is_none());
        cache.invalidate(&table, 5);
        let (addr2, slot2, _) = cache.try_lookup(&qp, &table, 5).unwrap().unwrap();
        let (_, v) = table.remote_read_entry(&qp, addr2, &slot2).unwrap();
        assert_eq!(v, b"new");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn pool_exhaustion_falls_back_to_remote_walk() {
        let (cluster, table, exec) = setup(1);
        let region = cluster.node(0).region();
        for k in 0..40u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let cache = LocationCache::new(1, 1); // pool of one bucket
                                              // Every deep lookup still succeeds even when nothing fits.
        for k in 0..40u64 {
            assert!(cache.try_lookup(&qp, &table, k).unwrap().is_some(), "key {k}");
        }
        // Cross-check against the uncached path.
        for k in 0..40u64 {
            assert!(matches!(table.try_remote_lookup(&qp, k).unwrap(), LookupResult::Found { .. }));
        }
    }

    #[test]
    fn budget_sizing_is_monotone() {
        let small = LocationCache::with_budget(16 << 10);
        let big = LocationCache::with_budget(1 << 20);
        assert!(big.footprint() > small.footprint());
        assert!(small.footprint() <= 32 << 10, "small cache overshoots budget");
    }

    #[test]
    fn budget_footprint_is_tight() {
        // The rounded main array must not halve the effective budget:
        // whatever the power-of-two rounding leaves over flows into the
        // pool, keeping the footprint within one bucket of the request.
        let bucket = BUCKET_BYTES + 16;
        for bytes in [16 << 10, 100_000, 1 << 20, 3 << 20] {
            let c = LocationCache::with_budget(bytes);
            let fp = c.footprint();
            assert!(fp <= bytes + bucket, "budget {bytes}: footprint {fp} overshoots");
            assert!(fp + bucket >= bytes, "budget {bytes}: footprint {fp} wastes budget");
        }
    }

    #[test]
    fn concurrent_warm_lookups_all_hit() {
        let (cluster, table, exec) = setup(64);
        let region = cluster.node(0).region();
        for k in 0..256u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let cache = LocationCache::new(256, 64);
        let qp = cluster.qp(1);
        for k in 0..256u64 {
            cache.try_lookup(&qp, &table, k).unwrap().unwrap();
        }
        let warm = cache.stats();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                let table = &table;
                let cluster = &cluster;
                s.spawn(move || {
                    let qp = cluster.qp(1);
                    for i in 0..1000u64 {
                        let k = (i * 7 + t) % 256;
                        let (_, slot, reads) = cache.try_lookup(&qp, table, k).unwrap().unwrap();
                        assert_eq!(slot.key, k);
                        assert_eq!(reads, 0, "warm lookup must be free");
                    }
                });
            }
        });
        let s = cache.stats().since(&warm);
        assert_eq!(s.hits, 4000);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn mutex_baseline_matches_on_simple_sequence() {
        let (cluster, table, exec) = setup(16);
        let region = cluster.node(0).region();
        for k in 0..64u64 {
            table.insert(&exec, region, k, b"v").unwrap();
        }
        let qp = cluster.qp(1);
        let a = LocationCache::new(16, 8);
        let b = MutexLocationCache::new(16, 8);
        for pass in 0..2 {
            for k in 0..64u64 {
                let ra =
                    a.try_lookup(&qp, &table, k).unwrap().map(|(addr, slot, _)| (addr, slot.key));
                let rb = b.lookup(&qp, &table, k).map(|(addr, slot, _)| (addr, slot.key));
                assert_eq!(ra, rb, "pass {pass} key {k}");
            }
        }
    }
}
