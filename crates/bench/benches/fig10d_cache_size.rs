//! Figure 10(d): impact of location-cache size on throughput.
//!
//! DrTM-KV/$ with cache budgets swept over a log scale, cold and warm,
//! uniform and Zipf θ=0.99. Budgets are scaled to this reproduction's
//! key count the same way the paper's 20–320 MB covers 20 M keys (a
//! 320 MB cache holds every location).
//!
//! A second segment measures throughput *while the memstore resizes*:
//! the same transfer/read mix runs once at steady state and once with
//! bucket doublings plus a key range ping-ponging between machines.
//! The ledger gate (`check_bench_json`) requires the during-resize
//! throughput to stay within 0.7× of steady and the split-order
//! invariant (≤ 1 extra chain hop per lookup) to hold.

use std::sync::atomic::{AtomicBool, Ordering};

use drtm_bench::kv::{KvBench, KvSystem};
use drtm_bench::report::BenchReport;
use drtm_bench::{banner, f, mops, row, scaled};
use drtm_core::AbortCause;
use drtm_memstore::CacheStats;
use drtm_rdma::NodeId;
use drtm_workloads::dist::{rng, KeyDist};
use drtm_workloads::driver;
use drtm_workloads::elastic::{ElasticKv, ElasticKvConfig, INIT_VALUE};

fn main() {
    banner("fig10d", "cache size vs throughput (64 B values)");
    let wall = std::time::Instant::now();
    let keys = scaled(100_000, 10_000);
    let per_thread = scaled(4_000, 500);
    // Full-cache budget: enough for the table's (power-of-two rounded)
    // main-header array after the cache's 80/20 main/pool split.
    let buckets = ((keys as f64 / 0.75).ceil() as usize / 8).next_power_of_two();
    let full = buckets * 160 * 5 / 4 * 11 / 10;
    let budgets = [full / 16, full / 8, full / 4, full / 2, full];
    row(&[
        "cache".into(),
        "uniform/cold".into(),
        "uniform/warm".into(),
        "zipf/cold".into(),
        "zipf/warm".into(),
    ]);
    let mut uniform_small = 0.0;
    let mut uniform_full = 0.0;
    let mut zipf_small = 0.0;
    let mut rep = BenchReport::new("fig10d_cache_size", 0.0, 0.0);
    let mut full_warm_stats = CacheStats::default();
    for &budget in &budgets {
        let mut cols = vec![format!("{}KB", budget >> 10)];
        for (dname, dist) in
            [("uniform", KeyDist::uniform(keys)), ("zipf", KeyDist::zipf(keys, 0.99))]
        {
            for warm in [false, true] {
                let b = KvBench::build(KvSystem::DrtmKvCache { budget, warm }, keys, 64, 0.75);
                let run = b.run(5, 8, per_thread, &dist);
                cols.push(mops(run.throughput));
                let stats = b.cache_stats();
                let state = if warm { "warm" } else { "cold" };
                rep.push_extra(
                    &format!("{dname}_{state}_{}kb_mops", budget >> 10),
                    run.throughput / 1e6,
                );
                rep.push_extra(
                    &format!("{dname}_{state}_{}kb_hit_rate", budget >> 10),
                    stats.hit_rate(),
                );
                if budget == budgets[0] && dname == "uniform" && warm {
                    uniform_small = run.throughput;
                }
                if budget == full && dname == "uniform" && warm {
                    uniform_full = run.throughput;
                    full_warm_stats = stats;
                }
                if budget == budgets[0] && dname == "zipf" && warm {
                    zipf_small = run.throughput;
                }
            }
        }
        row(&cols);
    }
    println!(
        "cache counters @ full/warm/uniform: {} hits, {} misses, {} fetches, {} invalidations \
         (hit rate {:.3})",
        full_warm_stats.hits,
        full_warm_stats.misses,
        full_warm_stats.fetches,
        full_warm_stats.invalidations,
        full_warm_stats.hit_rate()
    );
    assert!(
        uniform_full > uniform_small,
        "uniform workload must benefit from a bigger cache ({uniform_small} -> {uniform_full})"
    );
    assert!(
        zipf_small > uniform_small,
        "skew is cache-friendly: zipf must beat uniform at small budgets"
    );
    println!("(paper: skewed workload retains ~19 Mops at the smallest cache; uniform drops)");

    // ---- live-resize segment -------------------------------------------
    // Same transfer/read mix twice over an elastic deployment: once at
    // steady state, once while a mover thread ping-pongs 1/8 of the
    // keyspace between the two machines in small chunks and doubles the
    // bucket arrays — lock-free resize and live resharding under load.
    let per = scaled(10_000, 1_500);
    let ecfg = ElasticKvConfig {
        nodes: 2,
        workers: 4,
        keys_per_node: per,
        init_buckets: 64,
        max_buckets: 8_192,
        ..ElasticKvConfig::default()
    };
    let eworkers = ecfg.workers;
    let kv = ElasticKv::build(ecfg);
    let total_keys = 2 * per;
    let iters = scaled(1_500, 250);
    let kvref = &kv;
    let mix = |seed_salt: u64| {
        move |node: NodeId, wid: usize| {
            let mut w = kvref.worker(node, wid);
            let mut r = rng(seed_salt ^ (node as u64 * 131 + wid as u64 + 7));
            let dist = KeyDist::uniform(total_keys);
            move |i: u64| {
                let a = dist.sample(&mut r);
                let mut b = dist.sample(&mut r);
                if b == a {
                    b = (b + 1) % total_keys;
                }
                if i.is_multiple_of(4) {
                    w.read(a).expect("read");
                    "read"
                } else {
                    w.transfer(a, b, 1).expect("transfer");
                    "transfer"
                }
            }
        }
    };
    let steady = driver::run(2, eworkers, iters, mix(1), iters / 8);
    let e0 = kv.elastic_stats();
    let rs0 = kv.reshard_stats();
    let stop = AtomicBool::new(false);
    let during = std::thread::scope(|s| {
        let mover = s.spawn(|| {
            // 1/8 of the keyspace, migrated 0 → 1 → 0 in eight chunks
            // per direction with a bucket doubling each round, until
            // the measured window closes.
            let span = (per / 4).max(8);
            let chunk = (span / 8).max(1);
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let dst: NodeId = if rounds.is_multiple_of(2) { 1 } else { 0 };
                let mut lo = 0;
                while lo < span && !stop.load(Ordering::Relaxed) {
                    let hi = (lo + chunk - 1).min(span - 1);
                    kv.migrate(lo, hi, dst).expect("migrate");
                    lo += chunk;
                }
                kv.grow((rounds % 2) as NodeId);
                rounds += 1;
            }
            rounds
        });
        let (rep, stats) = driver::run_diagnosed(&kv.sys, 2, eworkers, iters, mix(2), iters / 8);
        stop.store(true, Ordering::Relaxed);
        mover.join().expect("mover thread");
        (rep, stats)
    });
    assert_eq!(kv.total_value(), total_keys * INIT_VALUE, "conservation across live resharding");
    let es = kv.elastic_stats().since(&e0);
    let rs = kv.reshard_stats().since(&rs0);
    let s_tput = steady.throughput();
    let d_tput = during.0.throughput();
    let hops_per_lookup = es.extra_hops_per_lookup();
    let migrated_mb = rs.bytes_moved as f64 / (1 << 20) as f64;
    row(&["resize".into(), "steady".into(), "during".into(), "ratio".into()]);
    row(&["tput".into(), mops(s_tput), mops(d_tput), f(d_tput / s_tput)]);
    let cs: CacheStats = (0..2).map(|n| kv.cache(n).stats()).sum();
    println!(
        "resize diagnostics: {} migrations, {:.2} MB moved, {} doublings, \
         {:.4} extra hops/lookup, {} migration invalidations, {} forced misses, \
         {} Migrated aborts",
        rs.migrations,
        migrated_mb,
        es.grows,
        hops_per_lookup,
        cs.migration_invalidations,
        cs.forced_misses,
        kv.sys.trace().causes().get(AbortCause::Migrated),
    );
    drtm_bench::diagnostics("resize/during", &during.1);
    rep.push_extra("resize_throughput_steady", s_tput);
    rep.push_extra("resize_throughput_during", d_tput);
    rep.push_extra("resize_ratio", d_tput / s_tput);
    rep.push_extra("resize_extra_hops_per_lookup", hops_per_lookup);
    rep.push_extra("resize_migrated_mb", migrated_mb);
    rep.push_extra("resize_doublings", es.grows as f64);
    rep.push_extra("resize_migrations", rs.migrations as f64);

    rep.wall_seconds = wall.elapsed().as_secs_f64();
    rep.throughput = uniform_full;
    rep.cache_hit_rate = full_warm_stats.hit_rate();
    rep.write();
}
