//! Quickstart: a two-machine DrTM cluster in ~80 lines.
//!
//! Builds the simulated cluster, creates one hash table per machine,
//! and runs (1) a local transaction, (2) a distributed read-write
//! transaction that locks a remote record over simulated RDMA, and
//! (3) a lease-based read-only transaction.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use drtm::htm::{Executor, HtmStats};
use drtm::memstore::{Arena, ClusterHash};
use drtm::rdma::{Cluster, ClusterConfig};
use drtm::txn::{DrTm, DrTmConfig, NodeLayout, RecordAddr, SoftTimer, TxnSpec, Worker};
use drtm::workloads::resolve::Table;

fn main() {
    // 1. A cluster of two simulated machines with 16 MB regions each.
    let cfg = DrTmConfig::default();
    let cluster =
        Cluster::new(ClusterConfig { nodes: 2, region_size: 16 << 20, ..Default::default() });

    // 2. Identical layout on every machine: softtime line, one log slot
    //    per worker, then an "accounts" hash table.
    let mut layouts = Vec::new();
    let mut shards = Vec::new();
    for n in 0..2u16 {
        let mut arena = Arena::new(0, 16 << 20);
        layouts.push(NodeLayout::reserve(&mut arena, 1));
        let table = ClusterHash::create(&mut arena, n, 1024, 10_000, 8);
        // Populate: accounts 0..100 with 1000 coins each.
        let exec = Executor::new(cfg.htm.clone(), Arc::new(HtmStats::new()));
        for k in 0..100u64 {
            table.insert(&exec, cluster.node(n).region(), k, &1000u64.to_le_bytes()).unwrap();
        }
        shards.push(Arc::new(table));
    }
    let accounts = Table::new(shards);

    // 3. The softtime service (leases need loosely synchronized clocks).
    let _timer = SoftTimer::start(cluster.clone(), std::time::Duration::from_micros(200));

    // 4. The transaction system and one worker on machine 0.
    let sys = DrTm::new(cluster, cfg, layouts);
    let mut worker = sys.worker(0, 0);

    let read_u64 = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().unwrap());
    let resolve = |w: &Worker, node, key| {
        accounts.try_resolve(w, node, key).expect("resolve against a crashed node").unwrap()
    };

    // 5. Local transaction: move 100 coins between two local accounts.
    let spec = TxnSpec {
        local_writes: vec![resolve(&worker, 0, 1), resolve(&worker, 0, 2)],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let a = read_u64(&ctx.local_write_cur(0)?);
            let b = read_u64(&ctx.local_write_cur(1)?);
            ctx.local_write(0, &(a - 100).to_le_bytes())?;
            ctx.local_write(1, &(b + 100).to_le_bytes())?;
            Ok(())
        })
        .expect("local transaction");
    println!("local transfer committed (HTM path)");

    // 6. Distributed transaction: machine 0 debits its account 1 and
    //    credits account 7 on machine 1 (locked with RDMA CAS).
    let remote: RecordAddr = resolve(&worker, 1, 7);
    let spec = TxnSpec {
        local_writes: vec![resolve(&worker, 0, 1)],
        remote_writes: vec![remote],
        ..Default::default()
    };
    worker
        .execute(&spec, |ctx| {
            let mine = read_u64(&ctx.local_write_cur(0)?);
            let theirs = read_u64(ctx.remote_write_cur(0));
            ctx.local_write(0, &(mine - 50).to_le_bytes())?;
            ctx.remote_write(0, (theirs + 50).to_le_bytes().to_vec());
            Ok(())
        })
        .expect("distributed transaction");
    println!("distributed transfer committed (HTM + RDMA 2PL)");

    // 7. Read-only transaction: lease-protected consistent reads of both
    //    machines' accounts.
    let r0 = resolve(&worker, 0, 1);
    let r1 = resolve(&worker, 1, 7);
    let values =
        worker.try_read_only_records(&[r0, r1]).expect("read-only transaction hit a crashed peer");
    println!(
        "read-only snapshot: account(0,1) = {}, account(1,7) = {}",
        read_u64(&values[0]),
        read_u64(&values[1])
    );
    assert_eq!(read_u64(&values[0]), 850);
    assert_eq!(read_u64(&values[1]), 1050);

    let stats = sys.stats().snapshot();
    println!(
        "committed = {}, read-only committed = {}, RDMA CAS issued = {}",
        stats.committed,
        stats.ro_committed,
        sys.cluster().counters().snapshot().cas
    );
}
