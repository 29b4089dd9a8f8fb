//! Concurrency contract of the sharded seqlock location cache: readers
//! running against concurrent insert/invalidate churn never observe a
//! torn [`Slot`], and single-threaded behaviour is observationally
//! equivalent to the retired global-mutex implementation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use drtm::htm::{Executor, HtmConfig, HtmStats};
use drtm::memstore::{Arena, ClusterHash, LocationCache, MutexLocationCache};
use drtm::rdma::{Cluster, ClusterConfig, LatencyProfile};

const VAL: usize = 16;

struct Fixture {
    cluster: Arc<Cluster>,
    table: ClusterHash,
    exec: Executor,
    keys: u64,
}

/// Builds a 2-node deployment: node 0 serves `keys` records, node 1 is
/// the client issuing cached lookups.
fn fixture(keys: u64) -> Fixture {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        region_size: 16 << 20,
        profile: LatencyProfile::zero(),
        ..Default::default()
    });
    let mut arena = Arena::new(64, (16 << 20) - 64);
    let table = ClusterHash::create(&mut arena, 0, 64, 4 * keys as usize + 8, VAL);
    let exec = Executor::new(HtmConfig::default(), Arc::new(HtmStats::new()));
    let region = cluster.node(0).region();
    for k in 1..=keys {
        table.insert(&exec, region, k, &vbytes(k)).unwrap();
    }
    Fixture { cluster, table, exec, keys }
}

fn vbytes(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; VAL];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v
}

/// N readers hammer warm lookups while churn threads insert fresh keys
/// and invalidate hot ones. Any `Some` answer must be internally
/// consistent — the slot names the requested key and the addressed
/// entry holds that key's value — i.e. no torn seqlock read escapes.
#[test]
fn readers_never_observe_torn_slots() {
    let fx = fixture(256);
    // Tiny pool: every fetch evicts, so chain buckets are constantly
    // reclaimed and republished under the readers.
    let cache = LocationCache::new(64, 16);
    let qp = fx.cluster.qp(1);
    for k in 1..=fx.keys {
        cache.try_lookup(&qp, &fx.table, k).unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (cache, fx, stop) = (&cache, &fx, &stop);
            s.spawn(move || {
                let qp = fx.cluster.qp(1);
                let mut k = t * 31 + 1;
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    k = k % fx.keys + 1;
                    if let Some((addr, slot, _)) = cache.try_lookup(&qp, &fx.table, k).unwrap() {
                        assert_eq!(slot.key, k, "lookup returned a foreign slot");
                        let (_, value) = fx
                            .table
                            .remote_read_entry(&qp, addr, &slot)
                            .expect("location from cache must address a live entry");
                        assert_eq!(&value[..8], &k.to_le_bytes(), "entry/key mismatch");
                        checked += 1;
                    }
                    k += 7;
                }
                assert!(checked > 0, "reader thread never completed a lookup");
            });
        }
        // Churn: invalidations force evict/reclaim/republish of chains…
        {
            let (cache, fx, stop) = (&cache, &fx, &stop);
            s.spawn(move || {
                let mut k = 1;
                while !stop.load(Ordering::Relaxed) {
                    cache.invalidate(&fx.table, k);
                    k = k % fx.keys + 1;
                }
            });
        }
        // …and inserts grow chains under the readers' feet.
        let inserted = {
            let (fx, stop) = (&fx, &stop);
            s.spawn(move || {
                let region = fx.cluster.node(0).region();
                let mut k = fx.keys;
                while !stop.load(Ordering::Relaxed) && k < fx.keys + 512 {
                    k += 1;
                    fx.table.insert(&fx.exec, region, k, &vbytes(k)).unwrap();
                }
                k
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let top = inserted.join().unwrap();
        assert!(top > fx.keys, "insert churn never ran");
    });
}

/// Driving the sharded cache and the mutexed baseline with the same
/// single-threaded op sequence must produce identical observable
/// results (same answers, same read counts, same hit/miss counters).
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64),
    Invalidate(u64),
}

fn op(max_key: u64) -> impl Strategy<Value = Op> {
    (0u64..2, 1..=max_key).prop_map(|(kind, key)| match kind {
        0 => Op::Lookup(key),
        _ => Op::Invalidate(key),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn sharded_cache_matches_mutexed_baseline(
        ops in proptest::collection::vec(op(96), 1..200),
        main_slots in 16usize..64,
        pool_slots in 4usize..32,
    ) {
        // Keys 65..=96 are absent: NotFound paths are exercised too.
        let fx = fixture(64);
        let sharded = LocationCache::new(main_slots, pool_slots);
        let mutexed = MutexLocationCache::new(main_slots, pool_slots);
        let qp = fx.cluster.qp(1);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup(k) => {
                    let a = sharded.try_lookup(&qp, &fx.table, k).unwrap();
                    let b = mutexed.lookup(&qp, &fx.table, k);
                    prop_assert_eq!(a, b, "op {} diverged: lookup({})", i, k);
                }
                Op::Invalidate(k) => {
                    sharded.invalidate(&fx.table, k);
                    mutexed.invalidate(&fx.table, k);
                }
            }
        }
        prop_assert_eq!(sharded.stats(), mutexed.stats());
    }
}
